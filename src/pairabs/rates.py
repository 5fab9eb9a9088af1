"""Closed-form absorption quantities for the symmetrized two-atom superposition.

The initial state is ``N0 [a (|psi>|phi> +/- |phi>|psi>) + b (|varphi>|chi>
+/- |chi>|varphi>)] |g>|g>``; after one absorption the four possible recoiled
outcomes interfere coherently in a final superposition with weights ``a`` and
``b``.  Everything here is expressed through overlap-table lookups, with the
dipole constant set to 1 (it cancels in the relative rate).

Null initial states (Pauli pairs, and the entanglement-induced family) make
the normalized amplitude a 0/0 form.  They are detected with a scale-free
threshold and surface either as :class:`ExcludedStateError` or as a flagged
:class:`RateResult` with NaN in the undefined fields, never as round-off
garbage.

The three closed forms are elementwise, so on a grid table (one whose entries
are arrays over a sweep grid) they return arrays over the grid.
:func:`relative_rate_grid` and :func:`exclusion_mask` finish the evaluation
there in one pass.  Where the overlaps are real, as in every preset and the
exclusion family, each point equals bit for bit what the single-point
functions give on that point's own table; with complex overlaps values may
differ by a few ulp, because numpy's vectorized complex multiply rounds on
its own.  The
grid subcommands of :mod:`pairabs.cli` evaluate one such table per grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import CHI, ETA, MU, PHI, PSI, VARPHI, CmLabel, OverlapTable, Statistics
from .scenarios import Coefficients

__all__ = [
    "EXCLUSION_EPS",
    "ExcludedStateError",
    "RateResult",
    "Statistics",
    "bracket_sum",
    "exclusion_check",
    "exclusion_mask",
    "final_norm_sq",
    "initial_norm_sq",
    "matrix_element",
    "matrix_element_product",
    "relative_rate",
    "relative_rate_grid",
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
    ``n0`` and ``m`` are NaN.  From :func:`relative_rate_grid` every field
    but ``m_pro`` is an array over the grid.
    """

    n0: float
    nf: float
    m: complex
    m_pro: complex
    r: float
    excluded: bool


def _abs_sq(z: complex | np.ndarray) -> float | np.ndarray:
    """``abs(z) ** 2``, elementwise on arrays with the same C library calls.

    numpy's own ``abs`` of a complex array and its ``** 2`` (a multiply)
    each differ from CPython's ``hypot`` and ``pow`` by an ulp on some
    inputs; ``hypot`` and ``float_power`` do not.
    """
    if isinstance(z, np.ndarray):
        return np.float_power(np.hypot(z.real, z.imag), 2.0)
    return abs(z) ** 2


def _complex_over_real(z: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Elementwise ``z / d`` for complex ``z`` and real ``d``, rounded as CPython does.

    CPython (up to 3.13) divides by ``complex(d, 0)`` with Smith's ratio 0,
    which gives exactly these two quotients, signed zeros included.  numpy's
    complex / float multiplies by ``1 / d`` and can differ by an ulp.
    """
    out = np.empty(np.broadcast_shapes(np.shape(z), np.shape(d)), dtype=complex)
    out.real = (z.real + z.imag * 0.0) / d
    out.imag = (z.imag - z.real * 0.0) / d
    return out


def initial_norm_sq(
    coeffs: Coefficients, table: OverlapTable, statistics: Statistics
) -> float:
    """Squared norm of the unnormalized initial state (inverse square of ``N0``).

    Expanding the four monomials term by term gives

        2|a|^2 (1 +/- |<psi|phi>|^2) + 2|b|^2 (1 +/- |<varphi|chi>|^2)
        + 4 Re(a* b <psi|varphi><phi|chi>) +/- 4 Re(a* b <psi|chi><phi|varphi>).

    A vanishing result is meaningful: it identifies an excluded state.
    """
    s = statistics.sign
    a, b = coeffs.a, coeffs.b
    ov = table.overlap
    cross = a.conjugate() * b
    return (
        2.0 * abs(a) ** 2 * (1.0 + s * _abs_sq(ov(PSI, PHI)))
        + 2.0 * abs(b) ** 2 * (1.0 + s * _abs_sq(ov(VARPHI, CHI)))
        + 4.0 * (cross * ov(PSI, VARPHI) * ov(PHI, CHI)).real
        + 4.0 * s * (cross * ov(PSI, CHI) * ov(PHI, VARPHI)).real
    )


def final_norm_sq(
    coeffs: Coefficients, table: OverlapTable, statistics: Statistics
) -> float:
    """Squared norm of the unnormalized final superposition (inverse square of ``Nf``).

    The recoiled labels pair up only through two-recoil brackets; internal
    orthogonality kills every g/e cross term.
    """
    s = statistics.sign
    a, b = coeffs.a, coeffs.b
    ov = table.overlap
    ps, phs, vs, cs = PSI.star(), PHI.star(), VARPHI.star(), CHI.star()
    cross = a.conjugate() * b
    return (
        4.0 * (abs(a) ** 2 + abs(b) ** 2)
        + 4.0 * (cross * ov(ps, vs) * ov(PHI, CHI)).real
        + 4.0 * (cross.conjugate() * ov(cs, phs) * ov(VARPHI, PSI)).real
        + 4.0 * s * abs(a) ** 2 * (ov(ps, phs) * ov(PHI, PSI)).real
        + 4.0 * s * (cross * ov(ps, cs) * ov(PHI, VARPHI)).real
        + 4.0 * s * (cross.conjugate() * ov(vs, phs) * ov(CHI, PSI)).real
        + 4.0 * s * abs(b) ** 2 * (ov(vs, cs) * ov(CHI, VARPHI)).real
    )


def bracket_sum(
    coeffs: Coefficients, table: OverlapTable, statistics: Statistics
) -> complex:
    """The fourteen bracket products of the absorption amplitude, before normalization.

    The full amplitude is ``2 N0 Nf`` times this value.  Direct terms carry
    one one-recoil diagonal or a product of two cross overlaps; the
    statistics-signed block holds the exchange contributions.
    """
    s = statistics.sign
    a, b = coeffs.a, coeffs.b
    ov = table.overlap
    ps, phs, vs, cs = PSI.star(), PHI.star(), VARPHI.star(), CHI.star()
    aa = abs(a) ** 2
    bb = abs(b) ** 2
    ab = a.conjugate() * b
    ba = ab.conjugate()
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


def _null_floors(coeffs: Coefficients) -> tuple[float, float]:
    """Floors below which the initial and the final squared norm count as null."""
    weight_sq = coeffs.weight_sq
    return EXCLUSION_EPS * 2.0 * weight_sq, EXCLUSION_EPS * 4.0 * weight_sq


def exclusion_mask(
    coeffs: Coefficients, table: OverlapTable, statistics: Statistics
) -> bool | np.ndarray:
    """Where the initial state is null up to round-off: a bool array on a grid table."""
    n0_floor, _ = _null_floors(coeffs)
    return initial_norm_sq(coeffs, table, statistics) < n0_floor


def exclusion_check(
    coeffs: Coefficients, table: OverlapTable, statistics: Statistics
) -> bool:
    """True when the initial state is null up to round-off (one point)."""
    return bool(exclusion_mask(coeffs, table, statistics))


def matrix_element(
    coeffs: Coefficients, table: OverlapTable, statistics: Statistics
) -> complex:
    """Normalized absorption amplitude, in units of the dipole constant.

    Raises :class:`ExcludedStateError` when the initial (or, pathologically,
    the final) superposition is null and no normalized amplitude exists.
    """
    n0_floor, nf_floor = _null_floors(coeffs)
    n0_sq = initial_norm_sq(coeffs, table, statistics)
    if n0_sq < n0_floor:
        raise ExcludedStateError(
            "initial state is null (excluded); the normalized amplitude is a 0/0 form"
        )
    nf_sq = final_norm_sq(coeffs, table, statistics)
    if nf_sq < nf_floor:
        raise ExcludedStateError(
            "final superposition is null; the normalized amplitude is a 0/0 form"
        )
    return 2.0 * bracket_sum(coeffs, table, statistics) / math.sqrt(n0_sq * nf_sq)


def matrix_element_product(eta: CmLabel, mu: CmLabel, table: OverlapTable) -> complex:
    """Absorption amplitude for the same atoms in a bare product state.

    ``(<eta*|eta> + <mu*|mu>) / sqrt(2)``; under the recoil model both
    one-recoil diagonals equal ``alpha0``, so the value is
    ``sqrt(2) alpha0``.
    """
    return (table.overlap(eta.star(), eta) + table.overlap(mu.star(), mu)) / math.sqrt(2.0)


def relative_rate(
    coeffs: Coefficients, table: OverlapTable, statistics: Statistics
) -> RateResult:
    """Evaluate one configuration; exclusion is encoded in the result, not raised."""
    m_pro = matrix_element_product(ETA, MU, table)
    n0_sq = initial_norm_sq(coeffs, table, statistics)
    nf_sq = final_norm_sq(coeffs, table, statistics)
    n0_floor, nf_floor = _null_floors(coeffs)
    n0_null = n0_sq < n0_floor
    nf_null = nf_sq < nf_floor
    if n0_null or nf_null:
        nf = _NAN if nf_null else 1.0 / math.sqrt(nf_sq)
        return RateResult(_NAN, nf, _NAN_COMPLEX, m_pro, _NAN, True)
    m = 2.0 * bracket_sum(coeffs, table, statistics) / math.sqrt(n0_sq * nf_sq)
    return RateResult(
        n0=1.0 / math.sqrt(n0_sq),
        nf=1.0 / math.sqrt(nf_sq),
        m=m,
        m_pro=m_pro,
        r=abs(m) ** 2 / abs(m_pro) ** 2,
        excluded=False,
    )


def relative_rate_grid(
    coeffs: Coefficients, table: OverlapTable, statistics: Statistics
) -> RateResult:
    """:func:`relative_rate` at every point of a grid table, in one pass.

    The closed forms run elementwise on the table's arrays and only this
    final step differs: square roots, division and the NaN masking of
    excluded points are array operations.  Every field but ``m_pro``
    (constant over the grid) is an array, ``excluded`` a bool array, and on
    real overlaps each point equals the single-point result bit for bit.
    """
    m_pro = matrix_element_product(ETA, MU, table)
    n0_sq = initial_norm_sq(coeffs, table, statistics)
    nf_sq = final_norm_sq(coeffs, table, statistics)
    n0_floor, nf_floor = _null_floors(coeffs)
    nf_null = nf_sq < nf_floor
    excluded = (n0_sq < n0_floor) | nf_null
    twice = 2.0 * bracket_sum(coeffs, table, statistics)
    # Excluded points may take square roots of negatives or divide by zero;
    # they are masked below, so those results are never used.
    with np.errstate(divide="ignore", invalid="ignore"):
        m = _complex_over_real(twice, np.sqrt(n0_sq * nf_sq))
        m[excluded] = _NAN_COMPLEX
        n0 = np.where(excluded, _NAN, 1.0 / np.sqrt(n0_sq))
        nf = np.where(nf_null, _NAN, 1.0 / np.sqrt(nf_sq))
    return RateResult(
        n0=n0,
        nf=nf,
        m=m,
        m_pro=m_pro,
        r=_abs_sq(m) / abs(m_pro) ** 2,
        excluded=excluded,
    )
