"""Brute-force cross-check of the closed-form absorption amplitude.

Builds the initial and final superpositions as explicit tensor monomials,
applies the single-absorption operator symbolically and evaluates the bracket
term by term.  The operator flips exactly one ground atom to the excited
state per output term (an already-excited atom is annihilated, keeping the
calculation at first order) and never touches CM labels: recoil is carried
entirely by the starred labels of the final-state monomials.

:func:`formal_quantities` returns both formal norms and the bracket, for
one point or for a whole grid of (weights, table) points at once;
``pairabs verify`` compares each of them with its closed form through
:func:`closed_form_deviations`.  The bracket divided by the square root of
the product of the norms is the normalized amplitude; its agreement with the
closed-form ``m`` of :func:`pairabs.rates.relative_rate_grid` over randomized
configurations is the central anti-regression property of the library.

Which term pairs survive, in which order, and which overlaps they need
depend only on the statistics.  One plan per statistics is read, on first
use, off :func:`build_initial`, :func:`build_final`, :func:`apply_absorption`
and :func:`pairabs.algebra.matching_term_pairs` at weights with both parts
nonzero.  An evaluation looks up the plan's overlaps in the table once and
evaluates the pairs as numpy arrays over the grid points, with CPython's
complex rounding (``rates._cmul``) and each sum in bra-major pair order.  So
every value equals :func:`pairabs.algebra.inner_product` of the built states
bit for bit.  The builders drop the terms of a zero weight; the plan keeps them,
but their products are exact signed zeros, which leave a nonzero partial sum
unchanged, and the closing ``+ 0.0`` of each sum turns an all-zero sum into
the ``+0.0`` that a sum started at ``0.0`` gives.
"""

from __future__ import annotations

import functools
from typing import Callable, NamedTuple

import numpy as np

from . import rates
from .algebra import (
    CHI,
    E,
    G,
    PHI,
    PSI,
    VARPHI,
    CmLabel,
    FormalState,
    OverlapTable,
    Statistics,
    Term,
    combine,
    matching_term_pairs,
    symmetrize,
)
from .scenarios import Coefficients

__all__ = [
    "apply_absorption",
    "build_final",
    "build_initial",
    "closed_form_deviations",
    "formal_quantities",
]


def _superposition(
    coeffs: Coefficients, outcomes: Callable[[CmLabel, CmLabel], list[FormalState]]
) -> FormalState:
    """``a`` times the states ``outcomes(psi, phi)`` plus ``b`` times ``outcomes(varphi, chi)``.

    The terms of a zero weight are left out.
    """
    parts = []
    for weight, x, y in ((coeffs.a, PSI, PHI), (coeffs.b, VARPHI, CHI)):
        if weight != 0:
            parts.extend((weight, state) for state in outcomes(x, y))
    return combine(parts)


def build_initial(coeffs: Coefficients, statistics: Statistics) -> FormalState:
    """Unnormalized initial state: a weighted pair of (anti)symmetrized ground products."""
    return _superposition(coeffs, lambda x, y: [symmetrize(x, G, y, G, statistics)])


def build_final(coeffs: Coefficients, statistics: Statistics) -> FormalState:
    """Unnormalized final superposition of the four recoiled absorption outcomes.

    Each outcome is itself (anti)symmetrized; the recoiled atom carries the
    starred CM label and the excited internal state.
    """
    return _superposition(coeffs, lambda x, y: [symmetrize(x.star(), E, y, G, statistics),
                                                symmetrize(x, G, y.star(), E, statistics)])


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


class _Plan(NamedTuple):
    """What one statistics fixes for the three formal inner products.

    The three states (initial, final, absorbed initial) are stacked on one
    term axis, each term's weight as ``alpha a + beta b``.  The surviving
    term pairs of the three inner products are stacked on one pair axis, in
    bra-major order per product; ``spans`` delimits the products and
    ``first``/``second`` index each pair's two CM overlaps in ``labels``.
    """

    alpha: tuple[np.ndarray, np.ndarray]
    beta: tuple[np.ndarray, np.ndarray]
    bra: np.ndarray
    ket: np.ndarray
    labels: tuple[tuple[CmLabel, CmLabel], ...]
    first: np.ndarray
    second: np.ndarray
    spans: tuple[tuple[int, int], ...]


def _frozen(values: list, dtype=float) -> np.ndarray:
    """A read-only array: plans are shared by every call."""
    array = np.array(values, dtype=dtype)
    array.flags.writeable = False
    return array


def _columns(values: list[complex]) -> tuple[np.ndarray, np.ndarray]:
    """Real and imaginary parts as column arrays, one row per term."""
    return _frozen([[v.real] for v in values]), _frozen([[v.imag] for v in values])


@functools.cache  # two statistics; a plan is immutable
def _plan(statistics: Statistics) -> _Plan:
    """Read the plan of one statistics off the formal builders, on its first use.

    The weights are linear in ``(a, b)``, so the probe builds at
    ``Coefficients(1, 1)`` and ``Coefficients(1, -1)`` give each term's
    ``alpha`` and ``beta`` exactly.  Neither probe weight is zero, so every
    term any weights can build is in the plan; a zero weight only turns its
    terms' products into signed zeros.  The pairs are those of
    :func:`matching_term_pairs`.
    """
    builds = []
    for sign in (1.0, -1.0):
        probe = Coefficients(1.0, sign)
        initial = build_initial(probe, statistics)
        builds.append((initial, build_final(probe, statistics), apply_absorption(initial)))
    states = builds[0]
    plus = [t.weight for state in states for t in state.terms]
    minus = [t.weight for state in builds[1] for t in state.terms]
    offsets = (0, len(states[0]), len(states[0]) + len(states[1]))
    bra, ket, labels, first, second, spans = [], [], {}, [], [], []
    for b, k in ((0, 0), (1, 1), (1, 2)):  # <initial|initial>, <final|final>, <final|absorbed>
        start = len(bra)
        for i, j in matching_term_pairs(states[b], states[k]):
            tb, tk = states[b].terms[i], states[k].terms[j]
            bra.append(offsets[b] + i)
            ket.append(offsets[k] + j)
            first.append(labels.setdefault((tb.cm1, tk.cm1), len(labels)))
            second.append(labels.setdefault((tb.cm2, tk.cm2), len(labels)))
        spans.append((start, len(bra)))
    return _Plan(
        alpha=_columns([0.5 * (p + m) for p, m in zip(plus, minus)]),
        beta=_columns([0.5 * (p - m) for p, m in zip(plus, minus)]),
        bra=_frozen(bra, np.intp),
        ket=_frozen(ket, np.intp),
        labels=tuple(labels),
        first=_frozen(first, np.intp),
        second=_frozen(second, np.intp),
        spans=tuple(spans),
    )


def formal_quantities(
    coeffs: Coefficients, table: OverlapTable, statistics: Statistics
) -> tuple[float, float, complex]:
    """Initial norm², final norm² and unnormalized absorption bracket, all formal.

    The inner products of the initial, the final and the absorbed initial
    state (:func:`build_initial`, :func:`build_final`,
    :func:`apply_absorption`), bit for bit, through the plan of the
    statistics.  On a single point they are a Python ``float``, ``float``
    and ``complex``; on a grid (array weights, a grid table or both,
    broadcast together) arrays over it.  Raises ``ValueError`` on a
    non-finite term weight and :class:`~pairabs.rates.ExcludedStateError`
    when either norm is null anywhere, by the criterion of the closed forms
    (:func:`pairabs.rates.require_not_null`).
    """
    plan = _plan(statistics)
    values = np.broadcast_arrays(coeffs.a, coeffs.b,
                                 *(table.overlap(x, y) for x, y in plan.labels))
    shape = values[0].shape
    flat = np.reshape(values, (len(values), -1))  # one flat grid axis
    a, b, ov = flat[0], flat[1], flat[2:]
    with np.errstate(invalid="ignore"):  # a non-finite weight is reported below
        ar, ai = rates._cmul(a.real, a.imag, *plan.alpha)
        br, bi = rates._cmul(b.real, b.imag, *plan.beta)
    wr, wi = ar + br, ai + bi  # (terms, points); the zero part adds nothing
    finite = np.isfinite(wr) & np.isfinite(wi)
    if not finite.all():
        k, t = np.argwhere(~finite.T)[0]
        raise ValueError(f"non-finite term weight {complex(wr[t, k], wi[t, k])!r}")
    pr, pi = rates._cmul(wr[plan.bra], -wi[plan.bra], wr[plan.ket], wi[plan.ket])
    for index in (plan.first, plan.second):
        pr, pi = rates._cmul(pr, pi, ov.real[index], ov.imag[index])
    # Sequential sums over each product's pairs, in the pairs' order; adding
    # 0.0 gives the +0.0 that a sum started at 0.0 gives where every term is 0.
    n0_sq, _, nf_sq, _, m_re, m_im = [(np.cumsum(parts[lo:hi], axis=0)[-1] + 0.0).reshape(shape)
                                       for lo, hi in plan.spans for parts in (pr, pi)]
    rates.require_not_null(coeffs, n0_sq, nf_sq)
    return rates._python_on_point((n0_sq, nf_sq, rates._complex(m_re, m_im)))


def closed_form_deviations(
    closed: rates.RateResult, formal: tuple[np.ndarray, np.ndarray, np.ndarray]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``|closed - formal|`` of the normalized amplitude, the initial and the final norm².

    ``closed`` and ``formal`` are :func:`pairabs.rates.relative_rate_grid`
    and :func:`formal_quantities` on the same points.  The formal amplitude
    is the formal bracket over the closed-form ``sqrt(n0^2 nf^2)``; division
    and ``abs`` round as CPython's.
    """
    n0_sq, nf_sq, bracket = formal
    gap = closed.m - rates._complex_over_real(bracket, np.sqrt(closed.n0_sq * closed.nf_sq))
    return (np.hypot(gap.real, gap.imag), np.abs(closed.n0_sq - n0_sq),
            np.abs(closed.nf_sq - nf_sq))
