"""Formal two-particle states, and the brute-force cross-check of the closed forms.

Internal (electronic) states ``g`` and ``e`` are orthonormal.  Two-particle
states are finite weighted sums of tensor monomials over labeled CM states,
so every inner product reduces to overlap-table lookups and Kronecker deltas.

The oracle builds the initial and final superpositions as such sums,
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
and :func:`matching_term_pairs` at weights with both parts
nonzero.  Every term weight is ``±a`` or ``±b``, so the pair weights
``conj(w_bra) w_ket`` of the 80 pairs take only 16 distinct values for
fermions and 4 for bosons: the plan names one pair for each, and an
evaluation computes each distinct value once and gathers it to its pairs.
It looks up the plan's overlaps in the table once, as one stacked array of
real and imaginary parts, and evaluates each inner product on its own span
of pairs as numpy arrays over the grid points: the pair weights times their
two overlaps, in place, with CPython's complex rounding
(``rates._cmul``), then a sequential ``np.cumsum`` in bra-major pair
order; the norms keep only the real sum.  The sum stays a ``cumsum`` because
numpy's ``add.reduce`` adds pairwise when the summed axis is the contiguous
one, as on a single point, which changes the last bits.  So every value
equals :func:`inner_product` of the built states bit for
bit.  The builders drop the terms of a zero weight; the plan keeps them,
but their products are exact signed zeros, which leave a nonzero partial sum
unchanged, and the closing ``+ 0.0`` of each sum turns an all-zero sum into
the ``+0.0`` that a sum started at ``0.0`` gives.
"""

from __future__ import annotations

import cmath
import functools
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable, NamedTuple

import numpy as np

from . import rates
from .algebra import CHI, PHI, PSI, VARPHI, CmLabel, OverlapTable, Statistics
from .scenarios import Coefficients

__all__ = [
    "E",
    "FormalState",
    "G",
    "Internal",
    "Term",
    "apply_absorption",
    "build_final",
    "build_initial",
    "closed_form_deviations",
    "combine",
    "formal_quantities",
    "inner_product",
    "matching_term_pairs",
    "symmetrize",
]


class Internal(Enum):
    """Electronic state of one atom; ``g`` and ``e`` are orthonormal."""

    G = "g"
    E = "e"


G = Internal.G
E = Internal.E


class Term(NamedTuple):
    """One tensor monomial ``weight * |cm1, int1>_1 |cm2, int2>_2``."""

    weight: complex
    cm1: CmLabel
    int1: Internal
    cm2: CmLabel
    int2: Internal


@dataclass(frozen=True)
class FormalState:
    """Weighted sum of two-particle tensor monomials.

    Term order is irrelevant to any inner product value; evaluation order is
    nevertheless fixed (bra-major over term indices) so repeated runs are
    bit-identical.
    """

    terms: tuple[Term, ...] = ()

    def __post_init__(self):
        terms = self.terms
        if type(terms) is not tuple or not all(
            type(t) is Term and type(t.weight) is complex for t in terms
        ):
            terms = tuple(Term(complex(t[0]), t[1], t[2], t[3], t[4]) for t in terms)
            object.__setattr__(self, "terms", terms)
        for term in terms:
            if not cmath.isfinite(term.weight):
                raise ValueError(f"non-finite term weight {term.weight!r}")

    def __len__(self) -> int:
        return len(self.terms)


def symmetrize(
    cm_a: CmLabel,
    int_a: Internal,
    cm_b: CmLabel,
    int_b: Internal,
    statistics: Statistics,
) -> FormalState:
    """Unnormalized (anti)symmetrized product ``|a>_1|b>_2 +/- |b>_1|a>_2``."""
    return FormalState(
        (
            Term(1.0 + 0.0j, cm_a, int_a, cm_b, int_b),
            Term(complex(statistics.sign), cm_b, int_b, cm_a, int_a),
        )
    )


def combine(weighted: Iterable[tuple[complex, FormalState]]) -> FormalState:
    """Weighted sum of states as one concatenated term list."""
    terms: list[Term] = []
    for weight, state in weighted:
        w = complex(weight)
        terms.extend(Term(w * t.weight, t.cm1, t.int1, t.cm2, t.int2) for t in state.terms)
    return FormalState(tuple(terms))


def matching_term_pairs(bra: FormalState, ket: FormalState) -> list[tuple[int, int]]:
    """Index pairs ``(i, j)`` of the bra and ket terms that can overlap, bra-major.

    Internal brackets are Kronecker deltas, so a term pair with mismatched
    internal labels contributes nothing: ket terms are grouped by their
    internal labels and each bra term meets only its own group.  The pairs
    come in the order a plain double loop over bra and ket terms meets them.
    """
    groups: dict[tuple[Internal, Internal], list[int]] = {}
    for j, tk in enumerate(ket.terms):
        groups.setdefault((tk.int1, tk.int2), []).append(j)
    return [
        (i, j)
        for i, tb in enumerate(bra.terms)
        for j in groups.get((tb.int1, tb.int2), ())
    ]


def inner_product(bra: FormalState, ket: FormalState, table: OverlapTable) -> complex:
    """``<bra|ket>`` evaluated term pair by term pair through the table.

    Only the pairs of :func:`matching_term_pairs` are evaluated, so only
    their CM overlaps are looked up, and they are summed in that bra-major
    order.  Weights of the bra enter conjugated.
    """
    overlap = table.overlap
    total = 0.0 + 0.0j
    for i, j in matching_term_pairs(bra, ket):
        tb, tk = bra.terms[i], ket.terms[j]
        weight = tb.weight.conjugate() * tk.weight
        total += weight * overlap(tb.cm1, tk.cm1) * overlap(tb.cm2, tk.cm2)
    return total


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
    ``weight_pair`` names one pair per distinct pair weight, and
    ``weight_of`` gives each pair's.
    """

    alpha: tuple[np.ndarray, np.ndarray]
    beta: tuple[np.ndarray, np.ndarray]
    bra: np.ndarray
    ket: np.ndarray
    labels: tuple[tuple[CmLabel, CmLabel], ...]
    first: np.ndarray
    second: np.ndarray
    spans: tuple[tuple[int, int], ...]
    weight_pair: np.ndarray
    weight_of: np.ndarray


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
    :func:`matching_term_pairs`.  Two terms whose ``alpha`` and ``beta`` have
    the same bits have the same weight bits at any ``(a, b)``, and so do two
    pairs whose bra and ket terms do: those share one distinct pair weight.
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
    alpha = _columns([0.5 * (p + m) for p, m in zip(plus, minus)])
    beta = _columns([0.5 * (p - m) for p, m in zip(plus, minus)])
    kinds = [tuple(row) for row in np.hstack([*alpha, *beta]).view(np.int64).tolist()]
    classes: dict = {}
    weight_of = [classes.setdefault((kinds[i], kinds[j]), (len(classes), p))[0]
                 for p, (i, j) in enumerate(zip(bra, ket))]
    return _Plan(
        alpha=alpha,
        beta=beta,
        bra=_frozen(bra, np.intp),
        ket=_frozen(ket, np.intp),
        labels=tuple(labels),
        first=_frozen(first, np.intp),
        second=_frozen(second, np.intp),
        spans=tuple(spans),
        weight_pair=_frozen([p for _, p in classes.values()], np.intp),
        weight_of=_frozen(weight_of, np.intp),
    )


def _times(pr: np.ndarray, pi: np.ndarray, overlap: np.ndarray) -> None:
    """``(pr, pi)`` times ``overlap`` (its real and imaginary rows), in place.

    Each part is rounded as :func:`pairabs.rates._cmul` rounds it;
    ``overlap`` is scratch afterwards.
    """
    o_r, o_i = overlap
    scratch = pi * o_i
    np.multiply(pi, o_r, out=pi)
    np.multiply(pr, o_i, out=o_i)
    np.multiply(pr, o_r, out=pr)
    np.subtract(pr, scratch, out=pr)
    np.add(o_i, pi, out=pi)


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
    values = [coeffs.a, coeffs.b, *(table.overlap(x, y) for x, y in plan.labels)]
    # each grid shape once: numpy < 2 broadcasts at most 32 arrays in one call
    shape = np.broadcast_shapes(*{v.shape for v in values if isinstance(v, np.ndarray)})
    grid = np.empty((len(values),) + shape, dtype=complex)
    for row, value in enumerate(values):  # each broadcast to the grid, then flattened
        grid[row] = value
    stacked = np.stack((grid.real, grid.imag)).reshape(2, len(values), -1)
    (ar, ai), (br, bi), ov = stacked[:, 0], stacked[:, 1], stacked[:, 2:]
    with np.errstate(invalid="ignore"):  # a non-finite weight is reported below
        ar, ai = rates._cmul(ar, ai, *plan.alpha)
        br, bi = rates._cmul(br, bi, *plan.beta)
    wr, wi = ar + br, ai + bi  # (terms, points); the zero part adds nothing
    finite = np.isfinite(wr) & np.isfinite(wi)
    if not finite.all():
        k, t = np.argwhere(~finite.T)[0]
        raise ValueError(f"non-finite term weight {complex(wr[t, k], wi[t, k])!r}")
    bra, ket = plan.bra[plan.weight_pair], plan.ket[plan.weight_pair]
    weights = np.stack(rates._cmul(wr[bra], -wi[bra], wr[ket], wi[ket]))
    products = []
    for lo, hi in plan.spans:
        pr, pi = weights.take(plan.weight_of[lo:hi], axis=1)
        _times(pr, pi, ov.take(plan.first[lo:hi], axis=1))
        _times(pr, pi, ov.take(plan.second[lo:hi], axis=1))
        products.append((pr, pi))
    (n0_re, _), (nf_re, _), (m_re, m_im) = products  # the norms are real
    # Sequential sums over each product's pairs, in the pairs' order; adding 0.0
    # gives the +0.0 that a sum started at 0.0 gives where every term is 0.
    n0_sq, nf_sq, m_re, m_im = [(np.cumsum(parts, axis=0, out=parts)[-1] + 0.0).reshape(shape)
                                for parts in (n0_re, nf_re, m_re, m_im)]
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
