"""Brute-force cross-check of the closed-form absorption amplitude.

Builds the initial and final superpositions as explicit tensor monomials,
applies the single-absorption operator symbolically and evaluates the bracket
term by term.  The operator flips exactly one ground atom to the excited
state per output term (an already-excited atom is annihilated, keeping the
calculation at first order) and never touches CM labels: recoil is carried
entirely by the starred labels of the final-state monomials.

There are two entry points.  :func:`formal_quantities` builds each formal
state once and returns both formal norms and the bracket; ``pairabs verify``
compares each of them with its closed form.  :func:`oracle_matrix_element`
divides that bracket by the formal norms.  Agreement of the latter with
:func:`pairabs.rates.matrix_element` over randomized configurations is the
central anti-regression property of the library.  Every inner product sums
its term pairs in bra-major order (see :func:`pairabs.algebra.inner_product`),
so each value is reproducible bit for bit.
"""

from __future__ import annotations

import math

from . import rates
from .algebra import (
    CHI,
    E,
    G,
    PHI,
    PSI,
    VARPHI,
    FormalState,
    OverlapTable,
    Statistics,
    Term,
    combine,
    inner_product,
    symmetrize,
)
from .scenarios import Coefficients

__all__ = [
    "apply_absorption",
    "build_final",
    "build_initial",
    "formal_quantities",
    "oracle_matrix_element",
]

#: Recoiled psi, phi, varphi and chi.
_PSI_S, _PHI_S, _VARPHI_S, _CHI_S = (label.star() for label in (PSI, PHI, VARPHI, CHI))


def build_initial(coeffs: Coefficients, statistics: Statistics) -> FormalState:
    """Unnormalized initial state: a weighted pair of (anti)symmetrized ground products."""
    parts = []
    if coeffs.a != 0:
        parts.append((coeffs.a, symmetrize(PSI, G, PHI, G, statistics)))
    if coeffs.b != 0:
        parts.append((coeffs.b, symmetrize(VARPHI, G, CHI, G, statistics)))
    return combine(parts)


def build_final(coeffs: Coefficients, statistics: Statistics) -> FormalState:
    """Unnormalized final superposition of the four recoiled absorption outcomes.

    Each outcome is itself (anti)symmetrized; the recoiled atom carries the
    starred CM label and the excited internal state.
    """
    s = float(statistics.sign)
    a, b = coeffs.a, coeffs.b
    monomials = (
        (a, _PSI_S, E, PHI, G),
        (a * s, PHI, G, _PSI_S, E),
        (a, PSI, G, _PHI_S, E),
        (a * s, _PHI_S, E, PSI, G),
        (b, _VARPHI_S, E, CHI, G),
        (b * s, CHI, G, _VARPHI_S, E),
        (b, VARPHI, G, _CHI_S, E),
        (b * s, _CHI_S, E, VARPHI, G),
    )
    return FormalState(tuple(Term(*m) for m in monomials if m[0] != 0))


def apply_absorption(state: FormalState) -> FormalState:
    """One photon absorbed by either atom.

    Each ground slot flips to excited in its own output term; an excited slot
    contributes nothing, so terms with two excitations never appear at first
    order.  CM labels are unchanged.
    """
    out: list[Term] = []
    for t in state.terms:
        if t.int1 is G:
            out.append(Term(t.weight, t.cm1, E, t.cm2, t.int2))
        if t.int2 is G:
            out.append(Term(t.weight, t.cm1, t.int1, t.cm2, E))
    return FormalState(tuple(out))


def formal_quantities(
    coeffs: Coefficients, table: OverlapTable, statistics: Statistics
) -> tuple[float, float, complex]:
    """Initial norm², final norm² and unnormalized absorption bracket, all formal.

    Builds the initial and the final state once each and evaluates the
    three inner products term by term.  Raises
    :class:`~pairabs.rates.ExcludedStateError` when either norm is null, by
    the same criterion as the closed forms (:func:`pairabs.rates.require_not_null`).
    """
    initial = build_initial(coeffs, statistics)
    final = build_final(coeffs, statistics)
    n0_sq = inner_product(initial, initial, table).real
    nf_sq = inner_product(final, final, table).real
    rates.require_not_null(coeffs, n0_sq, nf_sq)
    return n0_sq, nf_sq, inner_product(final, apply_absorption(initial), table)


def oracle_matrix_element(
    coeffs: Coefficients, table: OverlapTable, statistics: Statistics
) -> complex:
    """Absorption amplitude from the raw expansion: the formal bracket over the formal norms."""
    n0_sq, nf_sq, bracket = formal_quantities(coeffs, table, statistics)
    return bracket / math.sqrt(n0_sq * nf_sq)
