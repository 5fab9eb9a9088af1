"""Overlap-table construction: swept presets, the exclusion family, recoil entries.

:func:`build_table`, :func:`build_choice_table` and :func:`build_family_table`
(with :meth:`ExclusionFamily.equal_weight`) also take 1-D numpy arrays of
sweep values in place of one value and return one grid table (see
:class:`pairabs.algebra.OverlapTable`) whose entries are arrays over the grid.
The rules below are elementwise, so each grid point holds exactly the values
a single-point build would give.

Tables are built from the six bare pairwise overlaps among {psi, phi, varphi,
chi} and then completed with the recoil entries:

* one recoil:  ``<x*|y> = alpha0 <x|y>`` for every ordered pair, diagonal
  included (``<x*|x> = alpha0``);
* two recoils: ``<x*|y*> = alpha(x, y)^2 <x|y>`` with the per-pair
  coefficient from :func:`alpha_pair`, while ``<x*|x*> = 1`` (recoiled
  states stay normalized).
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .algebra import CHI, ETA, MU, PHI, PSI, VARPHI, CmLabel, OverlapTable

__all__ = [
    "ALL_PAIRS",
    "BASE_PAIRS",
    "CHOICES",
    "Coefficients",
    "ExclusionFamily",
    "RecoilModel",
    "ScenarioSpec",
    "alpha_pair",
    "build_choice_table",
    "build_family_table",
    "build_table",
    "family_exclusion_coefficient",
    "random_realizable_table",
]

_LABELS = (PSI, PHI, VARPHI, CHI)

#: The three independent overlaps each preset fixes or sweeps.
BASE_PAIRS = ((PSI, PHI), (PSI, VARPHI), (VARPHI, CHI))

#: All six bare pairs, canonical orientation.
ALL_PAIRS = (
    (PSI, PHI),
    (PSI, VARPHI),
    (PSI, CHI),
    (PHI, VARPHI),
    (PHI, CHI),
    (VARPHI, CHI),
)


@dataclass(frozen=True)
class RecoilModel:
    """Single-absorption recoil strength; ``alpha0`` scales every one-recoil bracket."""

    alpha0: float = 0.9

    def __post_init__(self):
        if not 0.0 < self.alpha0 <= 1.0:
            raise ValueError(f"alpha0 must lie in (0, 1], got {self.alpha0}")
        if 2.0 * self.alpha0**2 < sys.float_info.min:
            raise ValueError(
                f"alpha0 = {self.alpha0} is too small: the product-state reference "
                f"|m_pro|^2 = 2 alpha0^2 underflows"
            )


def _overlap_value(value) -> complex | np.ndarray:
    """One overlap as a Python complex, or a grid of them as a complex array."""
    if isinstance(value, np.ndarray):
        return value.astype(complex)
    return complex(value)


def alpha_pair(model: RecoilModel, base_overlap: complex | np.ndarray) -> float | np.ndarray:
    """Two-recoil shrink coefficient for a pair with the given bare overlap.

    Equal to ``alpha0 + (1 - alpha0) * Re<x|y>`` but written as
    ``re + alpha0 * (1 - re)`` so the endpoints are exact in floating point:
    a unit overlap maps to exactly 1 (two recoils must not break
    ``<x*|y*> = 1`` when the states coincide) and a vanishing overlap to
    exactly ``alpha0``.  Only the real part enters; tables may hold complex
    overlaps, but the shrink coefficient is defined from Re.  Elementwise on
    a grid of overlaps.
    """
    re = _overlap_value(base_overlap).real
    return re + model.alpha0 * (1.0 - re)


@dataclass(frozen=True)
class Coefficients:
    """Weights of the two product components of the initial superposition."""

    a: complex
    b: complex = 0.0

    def __post_init__(self):
        a, b = complex(self.a), complex(self.b)
        if not (cmath.isfinite(a) and cmath.isfinite(b)):
            raise ValueError("superposition coefficients must be finite")
        if a == 0 and b == 0:
            raise ValueError("superposition coefficients must not both vanish")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @property
    def weight_sq(self) -> float:
        """``|a|^2 + |b|^2``, the natural scale for null-state thresholds."""
        return abs(self.a) ** 2 + abs(self.b) ** 2


_CHOICE_FIXED: dict[str, dict[tuple[CmLabel, CmLabel], complex]] = {
    "i": {(VARPHI, CHI): 0.9},
    "ii": {(PSI, PHI): 0.8, (VARPHI, CHI): 0.9},
    "iii": {(PSI, VARPHI): 0.9},
    "iv": {(PSI, PHI): 0.8, (PSI, VARPHI): 0.9},
}

CHOICES = tuple(_CHOICE_FIXED)


@dataclass(frozen=True)
class ScenarioSpec:
    """A swept overlap configuration.

    Base pairs present in ``fixed_overlaps`` are pinned; the remaining base
    pairs take the sweep value.  The dependent pairs always follow the chain
    rules (see :func:`build_choice_table`).
    """

    choice: str
    fixed_overlaps: Mapping[tuple[CmLabel, CmLabel], complex] = field(default_factory=dict)

    @classmethod
    def for_choice(cls, name: str) -> "ScenarioSpec":
        """One of the built-in presets i, ii, iii, iv."""
        if name not in _CHOICE_FIXED:
            raise ValueError(f"unknown choice {name!r}; expected one of {CHOICES}")
        return cls(choice=name, fixed_overlaps=dict(_CHOICE_FIXED[name]))


def build_table(
    overlaps: Mapping[tuple[CmLabel, CmLabel], complex | np.ndarray],
    model: RecoilModel = RecoilModel(),
) -> OverlapTable:
    """Complete table from the six bare pairwise overlaps among the canonical labels.

    Adds every one- and two-recoil entry plus the product-reference entries
    ``<eta*|eta> = <mu*|mu> = alpha0`` used by the rate normalization.
    Either orientation of each bare pair is accepted.  Array overlaps give a
    grid table.
    """
    bare: dict[tuple[CmLabel, CmLabel], complex | np.ndarray] = {}
    for x, y in ALL_PAIRS:
        if (x, y) in overlaps:
            value = _overlap_value(overlaps[(x, y)])
        elif (y, x) in overlaps:
            value = _overlap_value(overlaps[(y, x)]).conjugate()
        else:
            raise ValueError(f"missing bare overlap for <{x}|{y}>")
        bare[(x, y)] = value
        bare[(y, x)] = value.conjugate()
    for label in _LABELS:
        bare[(label, label)] = 1.0 + 0.0j

    entries: dict[tuple[CmLabel, CmLabel], complex | np.ndarray] = {
        pair: bare[pair] for pair in ALL_PAIRS
    }
    alpha0 = model.alpha0
    for x in _LABELS:
        for y in _LABELS:
            entries[(x.star(), y)] = alpha0 * bare[(x, y)]
    for i, x in enumerate(_LABELS):
        for y in _LABELS[i + 1 :]:
            alpha = alpha_pair(model, bare[(x, y)])
            entries[(x.star(), y.star())] = alpha * alpha * bare[(x, y)]
    entries[(ETA.star(), ETA)] = complex(alpha0)
    entries[(MU.star(), MU)] = complex(alpha0)
    return OverlapTable(entries)


def build_choice_table(
    spec: ScenarioSpec, c: float | np.ndarray, model: RecoilModel = RecoilModel()
) -> OverlapTable:
    """Full table for a swept configuration at sweep value ``c`` (or a grid of them).

    The three dependent overlaps follow the chain rules
    ``<psi|chi> = <psi|varphi><varphi|chi>``,
    ``<phi|varphi> = <phi|psi><psi|varphi>`` and
    ``<phi|chi> = <phi|varphi><varphi|chi>``.
    """
    if not np.all((0.0 <= c) & (c <= 1.0)):
        raise ValueError(f"sweep value must lie in [0, 1], got {c}")
    base = {pair: _overlap_value(spec.fixed_overlaps.get(pair, c)) for pair in BASE_PAIRS}
    psi_phi = base[(PSI, PHI)]
    psi_varphi = base[(PSI, VARPHI)]
    varphi_chi = base[(VARPHI, CHI)]
    phi_varphi = psi_phi.conjugate() * psi_varphi
    return build_table(
        {
            (PSI, PHI): psi_phi,
            (PSI, VARPHI): psi_varphi,
            (VARPHI, CHI): varphi_chi,
            (PSI, CHI): psi_varphi * varphi_chi,
            (PHI, VARPHI): phi_varphi,
            (PHI, CHI): phi_varphi * varphi_chi,
        },
        model,
    )


@dataclass(frozen=True)
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
            object.__setattr__(self, attr, _overlap_value(getattr(self, attr)))
        for name, (u, v) in (
            ("(c, d)", (self.c, self.d)),
            ("(e, f)", (self.e, self.f)),
            ("(g, h)", (self.g, self.h)),
        ):
            if not (np.isfinite(u).all() and np.isfinite(v).all()):
                raise ValueError(f"family coefficients {name} must be finite")
            norm = np.atleast_1d(abs(u) ** 2 + abs(v) ** 2)
            off = np.abs(norm - 1.0) > 1e-12
            if off.any():
                raise ValueError(
                    f"family coefficients {name} violate |u|^2 + |v|^2 = 1: "
                    f"got {norm[off][0]}"
                )

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


def build_family_table(
    fam: ExclusionFamily, model: RecoilModel = RecoilModel()
) -> OverlapTable:
    """Table for the family states; bare overlaps by bilinear expansion over {psi, zeta}."""
    return build_table(
        {
            (PSI, PHI): fam.c,
            (PSI, VARPHI): fam.e,
            (PSI, CHI): fam.g,
            (PHI, VARPHI): fam.c.conjugate() * fam.e + fam.d.conjugate() * fam.f,
            (PHI, CHI): fam.c.conjugate() * fam.g + fam.d.conjugate() * fam.h,
            (VARPHI, CHI): fam.e.conjugate() * fam.g + fam.f.conjugate() * fam.h,
        },
        model,
    )


def family_exclusion_coefficient(coeffs: Coefficients, fam: ExclusionFamily) -> complex:
    """``a d + b (e h - f g)``.

    The antisymmetrized initial state built from the family collapses to this
    single coefficient times ``|psi>_1|zeta>_2 - |zeta>_1|psi>_2``, so the
    state is null exactly when the value vanishes.  Linear in ``(a, b)``;
    an array over the grid for a family with array fields.
    """
    return coeffs.a * fam.d + coeffs.b * (fam.e * fam.h - fam.f * fam.g)


def random_realizable_table(
    rng: np.random.Generator, model: RecoilModel = RecoilModel()
) -> OverlapTable:
    """Table whose bare overlaps are the Gram matrix of four random real unit vectors.

    Realizable by construction, so it is safe input for randomized
    equivalence sweeps.
    """
    vecs = rng.normal(size=(4, 4))
    vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
    gram = vecs @ vecs.T
    overlaps = {}
    for i in range(4):
        for j in range(i + 1, 4):
            overlaps[(_LABELS[i], _LABELS[j])] = float(np.clip(gram[i, j], -1.0, 1.0))
    return build_table(overlaps, model)
