"""Overlap-table construction: swept presets, the exclusion family, recoil entries.

:func:`build_table` also takes numpy arrays of bare overlaps or ``alpha0``,
and :func:`choice_overlaps` and :meth:`ExclusionFamily.equal_weight` arrays
of sweep values; a table of array overlaps is one grid table (see
:class:`pairabs.algebra.OverlapTable`) whose entries are arrays over the
grid; :class:`Coefficients` takes arrays of weights.  The rules below are
elementwise, so each grid point holds exactly the values of a single point.

Tables are built from the six bare pairwise overlaps among {psi, phi, varphi,
chi}, each given in either orientation (the other is its conjugate), and
then completed with the recoil entries:

* one recoil:  ``<x*|y> = alpha0 <x|y>`` for every ordered pair, diagonal
  included (``<x*|x> = alpha0``);
* two recoils: ``<x*|y*> = alpha(x, y)^2 <x|y>`` with the per-pair
  coefficient from :func:`_alpha_pair`, while ``<x*|x*> = 1`` (recoiled
  states stay normalized).

:func:`choice_overlaps` is the one route from a scenario name (a preset or
``"family"``, see :data:`CHOICES`) to its six bare overlaps, and
``ExclusionFamily.overlaps`` gives those of any family member.  A table is
:func:`build_table` of them, and several can be stacked into one.
:func:`realizable_overlaps` reads them off the Gram matrices of stacks of
real vectors; :func:`random_realizable_overlaps` is its one-draw case.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .algebra import (CHI, PHI, PSI, VARPHI, CmLabel, OverlapTable, _LABELS, _STARRED, _abs_sq,
                      _conjugate, _python_on_point)

__all__ = [
    "ALL_PAIRS",
    "CHOICES",
    "Coefficients",
    "ExclusionFamily",
    "RecoilModel",
    "build_table",
    "choice_overlaps",
    "family_exclusion_coefficient",
    "random_realizable_overlaps",
    "realizable_overlaps",
]

#: The three independent overlaps each preset fixes or sweeps.
_BASE_PAIRS = ((PSI, PHI), (PSI, VARPHI), (VARPHI, CHI))

#: All six bare pairs, canonical orientation: each label before the later ones.
ALL_PAIRS = tuple(itertools.combinations(_LABELS, 2))


def _require(values, ok, message: str) -> None:
    """Raise ``ValueError(message.format(v))`` for the first ``v`` of ``values`` where not ``ok``."""
    failed = np.atleast_1d(values)[~np.atleast_1d(ok)]
    if failed.size:
        raise ValueError(message.format(failed[0]))


def _grid_value(value, kind: type = complex) -> complex | float | np.ndarray:
    """One value as a Python ``kind``, or a grid of them as a read-only array of it."""
    if isinstance(value, np.ndarray):
        value = value.astype(kind)
        value.flags.writeable = False
        return value
    return kind(value)


@dataclass(frozen=True, eq=False)
class RecoilModel:
    """Single-absorption recoil strength; ``alpha0`` scales every one-recoil bracket.

    ``alpha0`` may be an array, one checked value per grid point.
    """

    alpha0: float | np.ndarray = 0.9

    def __post_init__(self):
        alpha0 = _grid_value(self.alpha0, float)
        _require(alpha0, (0.0 < alpha0) & (alpha0 <= 1.0), "alpha0 must lie in (0, 1], got {}")
        _require(alpha0, 2.0 * alpha0**2 >= sys.float_info.min,
                 "alpha0 = {} is too small: the product-state reference "
                 "|m_pro|^2 = 2 alpha0^2 underflows")
        object.__setattr__(self, "alpha0", alpha0)


def _alpha_pair(model: RecoilModel, base_overlap: complex | np.ndarray) -> float | np.ndarray:
    """Two-recoil shrink coefficient for a pair with the given bare overlap.

    Equal to ``alpha0 + (1 - alpha0) * Re<x|y>`` but written as
    ``re + alpha0 * (1 - re)`` so the endpoints are exact in floating point:
    a unit overlap maps to exactly 1 (two recoils must not break
    ``<x*|y*> = 1`` when the states coincide) and a vanishing overlap to
    exactly ``alpha0``.  Only the real part enters; tables may hold complex
    overlaps, but the shrink coefficient is defined from Re.  Elementwise on
    a grid of overlaps.
    """
    re = np.real(base_overlap)
    return re + model.alpha0 * (1.0 - re)


#: Accepted range of ``sqrt(|a|^2 + |b|^2)``.  Wherever the initial state is
#: not excluded, ``n0^2 nf^2`` lies within a factor [1e-20, 1e3] of
#: ``(|a|^2 + |b|^2)^2``: the null floors bound it below, and ``|n0^2| <= 8``
#: and ``|nf^2| <= 16`` times ``|a|^2 + |b|^2`` above.  Inside this range it
#: is a normal double, so the rate does not depend on the scale of the weights.
_WEIGHT_NORM_RANGE = ((sys.float_info.min / 1e-20) ** 0.25, (sys.float_info.max / 1e3) ** 0.25)


@dataclass(frozen=True, eq=False)
class Coefficients:
    """Weights of the two product components of the initial superposition.

    ``sqrt(|a|^2 + |b|^2)`` must lie in ``_WEIGHT_NORM_RANGE``, about
    ``[1.22e-72, 2.06e76]``.  ``a`` and ``b`` may be arrays that broadcast
    to a grid, one checked pair of weights per grid point.  Like the other
    scenario classes, instances compare and hash by identity, since array
    weights have no single truth value.
    """

    a: complex | np.ndarray
    b: complex | np.ndarray = 0.0

    def __post_init__(self):
        a, b = _grid_value(self.a), _grid_value(self.b)
        if not (np.isfinite(a).all() and np.isfinite(b).all()):
            raise ValueError("superposition coefficients must be finite")
        if np.any((a == 0) & (b == 0)):
            raise ValueError("superposition coefficients must not both vanish")
        with np.errstate(over="ignore"):  # scaled: overflows only to inf, rejected below
            norm = np.hypot(np.hypot(a.real, a.imag), np.hypot(b.real, b.imag))
        low, high = _WEIGHT_NORM_RANGE
        _require(norm, (low <= norm) & (norm <= high),
                 f"superposition coefficients with sqrt(|a|^2 + |b|^2) = {{:g}} lie outside "
                 f"[{low:.3g}, {high:.3g}]: the squared norms would leave the double range")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @functools.cached_property
    def weight_products(self) -> tuple:
        """``(|a|^2, |b|^2, conj(a) b, |a|^2 + |b|^2)``, computed on first use and kept.

        Every closed form and null floor of :mod:`pairabs.rates` reads the
        weights only through these, arrays over the grid for array weights.
        ``conj(a) b`` is one ``np.multiply`` call, which rounds a point as it
        rounds each point of a grid; on a point each product is then a
        Python number.
        """
        aa, bb = _abs_sq(self.a), _abs_sq(self.b)
        return _python_on_point((aa, bb, np.multiply(self.a.conjugate(), self.b), aa + bb))


_CHOICE_FIXED: dict[str, dict[tuple[CmLabel, CmLabel], complex]] = {
    "i": {(VARPHI, CHI): 0.9},
    "ii": {(PSI, PHI): 0.8, (VARPHI, CHI): 0.9},
    "iii": {(PSI, VARPHI): 0.9},
    "iv": {(PSI, PHI): 0.8, (PSI, VARPHI): 0.9},
}

#: Every scenario name, in ``--choice`` order: the presets, then the exclusion family.
CHOICES = (*_CHOICE_FIXED, "family")


def build_table(
    overlaps: Mapping[tuple[CmLabel, CmLabel], complex | np.ndarray],
    model: RecoilModel = RecoilModel(),
) -> OverlapTable:
    """Complete table from the six bare pairwise overlaps among the canonical labels.

    Adds every one- and two-recoil entry.  The table holds only psi, phi,
    varphi, chi and their starred forms; the product-state reference of the
    rate needs nothing more, since ``<psi*|psi> = <phi*|phi> = alpha0``.
    A pair may come in either orientation or both; ``ValueError`` is raised
    for a missing pair, a starred or unknown label, a given diagonal entry
    other than 1, two given orientations that are not conjugates, or an
    entry that :class:`~pairabs.algebra.OverlapTable` rejects for its
    magnitude or finiteness.  Each ordered pair reads its given orientation,
    else the conjugate of the reverse.  Array overlaps give a grid table.
    """
    for x, y in overlaps:
        if x not in _LABELS or y not in _LABELS:
            raise ValueError(f"bare overlap <{x}|{y}> is not between two of psi, phi, varphi, chi")
    for x, y in ALL_PAIRS:
        if (x, y) not in overlaps and (y, x) not in overlaps:
            raise ValueError(f"missing bare overlap for <{x}|{y}>")
    bare = {}  # as the table would store them: complex, and checked in mapping order
    for (x, y), raw in overlaps.items():
        value = bare[(x, y)] = (np.asarray(raw, dtype=complex) if isinstance(raw, np.ndarray)
                                else complex(raw))
        if x == y and not np.equal(value, 1.0).all():
            raise ValueError(f"diagonal entry <{x}|{x}> must equal 1, got {raw!r}")
        if x != y and (y, x) in bare and not np.equal(bare[(y, x)], _conjugate(value)).all():
            raise ValueError(f"entries for <{x}|{y}> and <{y}|{x}> are not conjugates")
    for x, y in itertools.permutations(_LABELS, 2):
        if (x, y) not in bare:
            bare[(x, y)] = _conjugate(bare[(y, x)])
    bare |= dict.fromkeys(zip(_LABELS, _LABELS), 1.0 + 0.0j)
    entries = {pair: bare[pair] for pair in ALL_PAIRS}
    alpha0 = model.alpha0
    with np.errstate(invalid="ignore", over="ignore"):  # a bad bare overlap is rejected below
        for x, xs in zip(_LABELS, _STARRED):
            for y in _LABELS:
                entries[(xs, y)] = alpha0 * bare[(x, y)]
        for i, (x, xs) in enumerate(zip(_LABELS, _STARRED)):
            for y, ys in zip(_LABELS[i + 1 :], _STARRED[i + 1 :]):
                alpha = _alpha_pair(model, bare[(x, y)])
                entries[(xs, ys)] = alpha * alpha * bare[(x, y)]
    return OverlapTable(entries)


def choice_overlaps(name: str,
                    c: float | np.ndarray) -> dict[tuple[CmLabel, CmLabel], complex | np.ndarray]:
    """The six bare overlaps of scenario ``name`` (one of :data:`CHOICES`) at sweep value ``c``.

    ``c`` may also be a grid of sweep values.  ``"family"`` is
    ``ExclusionFamily.equal_weight(c).overlaps``.  A preset pins some base
    pairs; the other base pairs take the sweep value.  The three dependent
    overlaps follow the chain rules
    ``<psi|chi> = <psi|varphi><varphi|chi>``,
    ``<phi|varphi> = <phi|psi><psi|varphi>`` and
    ``<phi|chi> = <phi|varphi><varphi|chi>``.
    """
    if name not in CHOICES:
        raise ValueError(f"unknown choice {name!r}; expected one of {CHOICES}")
    _require(c, (0.0 <= c) & (c <= 1.0), "sweep value must lie in [0, 1], got {}")
    if name == "family":
        return ExclusionFamily.equal_weight(c).overlaps
    psi_phi, psi_varphi, varphi_chi = (
        _grid_value(_CHOICE_FIXED[name].get(pair, c)) for pair in _BASE_PAIRS)
    phi_varphi = psi_phi.conjugate() * psi_varphi
    return {(PSI, PHI): psi_phi, (PSI, VARPHI): psi_varphi, (VARPHI, CHI): varphi_chi,
            (PSI, CHI): psi_varphi * varphi_chi, (PHI, VARPHI): phi_varphi,
            (PHI, CHI): phi_varphi * varphi_chi}


@dataclass(frozen=True, eq=False)
class ExclusionFamily:
    """Expansion coefficients of phi, varphi, chi over the orthonormal pair {psi, zeta}.

    ``phi = c psi + d zeta``, ``varphi = e psi + f zeta``,
    ``chi = g psi + h zeta``; each coefficient pair is normalized.  Fields
    may be arrays, one family member per grid point.
    """

    c: complex
    d: complex
    e: complex
    f: complex
    g: complex
    h: complex

    def __post_init__(self):
        for attr in "cdefgh":
            object.__setattr__(self, attr, _grid_value(getattr(self, attr)))
        for name, (u, v) in (
            ("(c, d)", (self.c, self.d)),
            ("(e, f)", (self.e, self.f)),
            ("(g, h)", (self.g, self.h)),
        ):
            if not (np.isfinite(u).all() and np.isfinite(v).all()):
                raise ValueError(f"family coefficients {name} must be finite")
            norm = _abs_sq(u) + _abs_sq(v)
            _require(norm, np.abs(norm - 1.0) <= 1e-12,
                     f"family coefficients {name} violate |u|^2 + |v|^2 = 1: got {{}}")

    @classmethod
    def equal_weight(
        cls, c: float | np.ndarray, d: float | np.ndarray | None = None
    ) -> "ExclusionFamily":
        """Family with ``varphi = (psi + zeta)/sqrt(2)`` and chi tilted by ``(c, d)``.

        ``chi = c varphi + d varphi_perp`` with
        ``varphi_perp = (psi - zeta)/sqrt(2)``, hence ``g = (c + d)/sqrt(2)``
        and ``h = (c - d)/sqrt(2)``.  ``d`` defaults to the nonnegative
        branch ``sqrt(1 - c^2)``.
        """
        if d is None:
            d = np.sqrt(np.maximum(0.0, 1.0 - c * c))
        inv = 1.0 / math.sqrt(2.0)
        return cls(c=c, d=d, e=inv, f=inv, g=(c + d) * inv, h=(c - d) * inv)

    @property
    def overlaps(self) -> dict[tuple[CmLabel, CmLabel], complex | np.ndarray]:
        """The six bare overlaps of the family states, by bilinear expansion over {psi, zeta}."""
        c, d, e, f, g, h = self.c, self.d, self.e, self.f, self.g, self.h
        return {(PSI, PHI): c, (PSI, VARPHI): e, (PSI, CHI): g,
                (PHI, VARPHI): c.conjugate() * e + d.conjugate() * f,
                (PHI, CHI): c.conjugate() * g + d.conjugate() * h,
                (VARPHI, CHI): e.conjugate() * g + f.conjugate() * h}


def family_exclusion_coefficient(coeffs: Coefficients, fam: ExclusionFamily) -> complex:
    """``a d + b (e h - f g)``.

    The antisymmetrized initial state built from the family collapses to this
    single coefficient times ``|psi>_1|zeta>_2 - |zeta>_1|psi>_2``, so the
    state is null exactly when the value vanishes.  Linear in ``(a, b)``;
    an array over the grid for a family with array fields.
    """
    return coeffs.a * fam.d + coeffs.b * (fam.e * fam.h - fam.f * fam.g)


def realizable_overlaps(vectors: np.ndarray) -> dict[tuple[CmLabel, CmLabel], np.ndarray]:
    """The six bare overlaps, keyed as :data:`ALL_PAIRS`, of each stack of four real vectors.

    ``vectors`` has shape ``(..., 4, 4)``, row ``k`` of a stack being the vector of
    ``_LABELS[k]``.  The rows are normalized and the overlaps read off each stack's Gram
    matrix, so tables built from them are realizable.  Each overlap is an array of shape
    ``vectors.shape[:-2]``, every element equal bit for bit to its stack's on its own.
    """
    if np.iscomplexobj(vectors) or np.shape(vectors)[-2:] != (4, 4):
        raise ValueError(f"vectors must be real, of shape (..., 4, 4), got {np.shape(vectors)}")
    vectors = np.asarray(vectors, dtype=float)
    with np.errstate(over="ignore"):  # an overflowed norm is rejected below
        norms = np.linalg.norm(vectors, axis=-1, keepdims=True)
    _require(norms, (math.sqrt(sys.float_info.min) <= norms) & (norms < math.inf),
             "vector norm {} is not finite or below 1.5e-154, where its square loses digits")
    vecs = vectors / norms
    gram = np.clip(vecs @ np.swapaxes(vecs, -1, -2), -1.0, 1.0)
    return {(x, y): gram[..., _LABELS.index(x), _LABELS.index(y)] for x, y in ALL_PAIRS}


def random_realizable_overlaps(rng: np.random.Generator) -> dict[tuple[CmLabel, CmLabel], float]:
    """:func:`realizable_overlaps` of one ``rng.normal(size=(4, 4))`` draw, as Python floats."""
    return {pair: float(v) for pair, v in realizable_overlaps(rng.normal(size=(4, 4))).items()}
