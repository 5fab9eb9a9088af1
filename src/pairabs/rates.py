"""Closed-form absorption quantities for the symmetrized two-atom superposition.

The initial state is ``N0 [a (|psi>|phi> +/- |phi>|psi>) + b (|varphi>|chi>
+/- |chi>|varphi>)] |g>|g>``; after one absorption the four possible recoiled
outcomes interfere coherently in a final superposition with weights ``a`` and
``b``.  Everything here is expressed through overlap-table lookups, with the
dipole constant set to 1 (it cancels in the relative rate).

The relative rate compares the amplitude with ``m_pro``, that of the same
atoms in the product state ``|psi>|phi>`` (:func:`_matrix_element_product`).

Null initial states (Pauli pairs, and the entanglement-induced family) make
the normalized amplitude a 0/0 form.  One scale-free criterion detects them:
a squared norm below its floor from ``_null_floors``.  For the initial norm
that comparison is :func:`exclusion_mask`, on one squared norm or an array of
them; ``pairabs exclusion-scan`` applies it to both of its verdicts.
:func:`require_not_null` raises :class:`ExcludedStateError` on it, and
:func:`relative_rate_grid` flags it in a :class:`RateResult` with NaN in the
undefined fields, never as round-off garbage.

The three closed forms are elementwise, so on a grid (a grid table, array
weights, or both) they return arrays over the grid.
:func:`relative_rate_grid` is the one finish, on a single point or a grid: it
evaluates each form once and keeps all three in its result, Python numbers
on a point and arrays on a grid.  Where the overlaps are real, as in every
preset, the exclusion family and ``pairabs verify``, each grid point equals
bit for bit its value on its own: ``|a|^2`` is ``re*re + im*im`` on both,
``conj(a) b`` is one ``np.multiply`` call on both (a ufunc rounds a
Python-number point as it rounds a grid), and a product with a real overlap
has one nonzero product per part, which Python and numpy round alike.  With
complex overlaps a point multiplies in Python and a grid in numpy, whose
complex multiply rounds on its own, so they may differ by a few ulp.  ``m``
and ``m_pro`` divide each part by their real divisor
(:func:`pairabs.algebra._over_real`).

The forms are sesquilinear in ``(a, b)``: they read the weights only through
``|a|^2``, ``|b|^2``, ``conj(a) b`` and ``|a|^2 + |b|^2``, which a
:class:`~pairabs.scenarios.Coefficients` computes once, on first use, and
keeps (``Coefficients.weight_products``).  So the three forms and every
null floor of one set of weights share one computation of each product.

Bosons and fermions differ only in the sign ``s`` of the exchange terms.
Every entry point also takes a tuple of statistics, which becomes axis 0
of its result: ``s`` is then one array over that axis, every lookup and
complex product is computed once for all of them, and only the steps that
read ``s`` (``1 + s x``, ``s * exchange`` and what follows them) run per
statistics.  Multiplying by ``±1`` is exact, so each slice equals bit for
bit its statistics on its own, where ``s`` is a Python ``int``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import (CHI, PHI, PSI, VARPHI, OverlapTable, Statistics, _STARRED, _abs_sq,
                      _over_real, _python_on_point)
from .scenarios import Coefficients

__all__ = [
    "EXCLUSION_EPS",
    "ExcludedStateError",
    "RateResult",
    "bracket_sum",
    "exclusion_mask",
    "final_norm_sq",
    "initial_norm_sq",
    "relative_rate_grid",
    "require_not_null",
]

#: Null-state floor, relative to the natural norm scale 2(|a|^2 + |b|^2).
#: Scale-free and far above double-precision noise from the bracket sums.
EXCLUSION_EPS = 1e-10

_NAN = float("nan")
_NAN_COMPLEX = complex(_NAN, _NAN)


class ExcludedStateError(ValueError):
    """The (anti)symmetrized initial state is null; normalized quantities are undefined."""


@dataclass(frozen=True)
class RateResult:
    """All absorption quantities at one evaluation point.

    ``n0`` and ``nf`` are the normalization coefficients of the initial and
    final superpositions, ``m`` the absorption amplitude and ``m_pro`` the
    product-state reference (both in units of the dipole constant), ``r``
    the relative rate ``|m|^2 / |m_pro|^2``.  On excluded points ``r``,
    ``n0`` and ``m`` are NaN.  ``n0_sq``, ``nf_sq`` and ``bracket`` are the
    three closed forms the rest is computed from (:func:`initial_norm_sq`,
    :func:`final_norm_sq` and :func:`bracket_sum`), raw on excluded points
    too.  On a single point every field is a Python ``float``, ``complex``
    or ``bool``; on a grid an array over it.
    """

    n0: float
    nf: float
    m: complex
    m_pro: complex
    r: float
    excluded: bool
    n0_sq: float
    nf_sq: float
    bracket: complex


def _signs(statistics: Statistics | tuple[Statistics, ...], coeffs: Coefficients,
           table: OverlapTable):
    """The exchange sign ``s`` of the closed forms: a Python ``int`` for one
    :class:`Statistics`; for a tuple, one ``float`` per statistics on axis 0,
    before one axis of length 1 per grid axis of the weights and the table."""
    if not isinstance(statistics, tuple):
        return statistics.sign
    ndim = max(np.ndim(coeffs.a), np.ndim(coeffs.b), table.ndim)
    return np.array([stat.sign for stat in statistics], dtype=float).reshape((-1,) + (1,) * ndim)


def initial_norm_sq(
    coeffs: Coefficients, table: OverlapTable, statistics: Statistics | tuple[Statistics, ...]
) -> float:
    """Squared norm of the unnormalized initial state (inverse square of ``N0``).

    Expanding the four monomials term by term gives

        2|a|^2 (1 +/- |<psi|phi>|^2) + 2|b|^2 (1 +/- |<varphi|chi>|^2)
        + 4 Re(a* b <psi|varphi><phi|chi>) +/- 4 Re(a* b <psi|chi><phi|varphi>).

    A vanishing result is meaningful: it identifies an excluded state.
    """
    s = _signs(statistics, coeffs, table)
    aa, bb, cross, _ = coeffs.weight_products
    ov = table.overlap
    return (
        2.0 * aa * (1.0 + s * _abs_sq(ov(PSI, PHI)))
        + 2.0 * bb * (1.0 + s * _abs_sq(ov(VARPHI, CHI)))
        + 4.0 * (cross * ov(PSI, VARPHI) * ov(PHI, CHI)).real
        + 4.0 * s * (cross * ov(PSI, CHI) * ov(PHI, VARPHI)).real
    )


def final_norm_sq(
    coeffs: Coefficients, table: OverlapTable, statistics: Statistics | tuple[Statistics, ...]
) -> float:
    """Squared norm of the unnormalized final superposition (inverse square of ``Nf``).

    The recoiled labels pair up only through two-recoil brackets; internal
    orthogonality kills every g/e cross term.
    """
    s = _signs(statistics, coeffs, table)
    aa, bb, cross, weight_sq = coeffs.weight_products
    ov = table.overlap
    ps, phs, vs, cs = _STARRED
    return (
        4.0 * weight_sq
        + 4.0 * (cross * ov(ps, vs) * ov(PHI, CHI)).real
        + 4.0 * (cross.conjugate() * ov(cs, phs) * ov(VARPHI, PSI)).real
        + 4.0 * s * aa * (ov(ps, phs) * ov(PHI, PSI)).real
        + 4.0 * s * (cross * ov(ps, cs) * ov(PHI, VARPHI)).real
        + 4.0 * s * (cross.conjugate() * ov(vs, phs) * ov(CHI, PSI)).real
        + 4.0 * s * bb * (ov(vs, cs) * ov(CHI, VARPHI)).real
    )


def bracket_sum(
    coeffs: Coefficients, table: OverlapTable, statistics: Statistics | tuple[Statistics, ...]
) -> complex:
    """The fourteen bracket products of the absorption amplitude, before normalization.

    The full amplitude is ``2 N0 Nf`` times this value.  Direct terms carry
    one one-recoil diagonal or a product of two cross overlaps; the
    statistics-signed block holds the exchange contributions.
    """
    s = _signs(statistics, coeffs, table)
    aa, bb, ab, _ = coeffs.weight_products
    ba = ab.conjugate()
    ov = table.overlap
    ps, phs, vs, cs = _STARRED
    direct = (
        aa * (ov(ps, PSI) + ov(phs, PHI))
        + bb * (ov(vs, VARPHI) + ov(cs, CHI))
        + ab * ov(ps, VARPHI) * ov(PHI, CHI)
        + ab * ov(phs, CHI) * ov(PSI, VARPHI)
        + ba * ov(vs, PSI) * ov(CHI, PHI)
        + ba * ov(cs, PHI) * ov(VARPHI, PSI)
    )
    exchange = (
        ab * ov(ps, CHI) * ov(PHI, VARPHI)
        + ba * ov(vs, PHI) * ov(CHI, PSI)
        + ab * ov(phs, VARPHI) * ov(PSI, CHI)
        + ba * ov(cs, PSI) * ov(VARPHI, PHI)
        + aa * (ov(ps, PHI) * ov(PHI, PSI) + ov(phs, PSI) * ov(PSI, PHI))
        + bb * (ov(vs, CHI) * ov(CHI, VARPHI) + ov(cs, VARPHI) * ov(VARPHI, CHI))
    )
    return direct + s * exchange


def _norm_scales(coeffs: Coefficients) -> tuple[float, float]:
    """Scales ``2W`` and ``4W`` of the initial and the final squared norm, ``W = |a|^2 + |b|^2``:
    the null floors, and the scales of :func:`pairabs.oracle.closed_form_deviations`."""
    *_, weight_sq = coeffs.weight_products
    return 2.0 * weight_sq, 4.0 * weight_sq


def _null_floors(coeffs: Coefficients) -> tuple[float, float]:
    """Floors below which the initial and the final squared norm count as null."""
    n0_scale, nf_scale = _norm_scales(coeffs)
    return EXCLUSION_EPS * n0_scale, EXCLUSION_EPS * nf_scale


def exclusion_mask(coeffs: Coefficients, n0_sq: float | np.ndarray) -> bool | np.ndarray:
    """Whether an initial squared norm ``n0_sq`` of ``coeffs`` is null up to round-off.

    The one comparison against the initial-norm floor; elementwise on an
    array of squared norms, such as :func:`initial_norm_sq` on a grid table.
    """
    return n0_sq < _null_floors(coeffs)[0]


def require_not_null(coeffs: Coefficients, n0_sq: float, nf_sq: float) -> None:
    """Raise :class:`ExcludedStateError` when either squared norm is below its floor.

    The one null criterion for every raising entry point: the oracle and
    ``pairabs verify``.  On a grid it raises when any point is null, a null
    initial state anywhere first.
    """
    if np.any(exclusion_mask(coeffs, n0_sq)):
        raise ExcludedStateError(
            "initial state is null (excluded); the normalized amplitude is a 0/0 form"
        )
    if np.any(nf_sq < _null_floors(coeffs)[1]):
        raise ExcludedStateError(
            "final superposition is null; the normalized amplitude is a 0/0 form"
        )


def _matrix_element_product(table: OverlapTable) -> complex:
    """Absorption amplitude for the same atoms in the product state ``|psi>|phi>``.

    ``(<psi*|psi> + <phi*|phi>) / sqrt(2)``; under the recoil model both
    one-recoil diagonals equal ``alpha0``, so the value is
    ``sqrt(2) alpha0``, an array where ``alpha0`` is one.
    """
    ps, phs, _, _ = _STARRED
    return _over_real(table.overlap(ps, PSI) + table.overlap(phs, PHI), math.sqrt(2.0))


def relative_rate_grid(
    coeffs: Coefficients, table: OverlapTable, statistics: Statistics | tuple[Statistics, ...]
) -> RateResult:
    """All absorption quantities at every point of a grid, in one pass.

    The grid is that of the table, the weights or both.  The three closed
    forms run once, elementwise, and are kept in the result; square roots,
    division and the NaN masking of excluded points are array operations.
    On a grid every field is an array of the grid's shape, ``excluded`` a
    bool array; on a single point each is a Python number
    (:func:`_python_on_point`).  A tuple of statistics is one more leading
    axis: every field is an array of shape ``(len(statistics),) + grid``,
    each slice bit for bit the result of its own statistics.
    """
    n0_sq = initial_norm_sq(coeffs, table, statistics)
    nf_sq = final_norm_sq(coeffs, table, statistics)
    bracket = bracket_sum(coeffs, table, statistics)
    m_pro = _matrix_element_product(table)
    nf_null = nf_sq < _null_floors(coeffs)[1]
    excluded = exclusion_mask(coeffs, n0_sq) | nf_null
    # Excluded points may take square roots of negatives or divide by zero;
    # they are masked below, so those results are never used.
    with np.errstate(divide="ignore", invalid="ignore"):
        m = _over_real(2.0 * bracket, np.sqrt(n0_sq * nf_sq))
        m[excluded] = _NAN_COMPLEX
        n0 = np.where(excluded, _NAN, 1.0 / np.sqrt(n0_sq))
        nf = np.where(nf_null, _NAN, 1.0 / np.sqrt(nf_sq))
    r = _abs_sq(m) / _abs_sq(m_pro)
    # the initial norm does not read alpha0 and m_pro reads nothing else, so
    # either may be one number on a grid: give each the grid's shape as an
    # array of its own
    n0_sq, nf_sq, bracket, m_pro = (
        np.array(v) for v in np.broadcast_arrays(n0_sq, nf_sq, bracket, m_pro))
    return RateResult(*_python_on_point((n0, nf, m, m_pro, r, excluded, n0_sq, nf_sq, bracket)))
