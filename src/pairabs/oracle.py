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
one point or for a whole grid of (weights, table) points at once, and for
one statistics or a tuple of them as a leading axis; ``pairabs verify``
compares each of them with its closed form through
:func:`closed_form_deviations`, which also gives each deviation's rounding
bound.  The bracket divided by the square root of
the product of the norms is the normalized amplitude; its agreement with the
closed-form ``m`` of :func:`pairabs.rates.relative_rate_grid` over randomized
configurations is the central anti-regression property of the library.

Which term pairs survive, in which order, and which overlaps they need is
the same for bosons and fermions: the two differ only in the sign of the
exchange terms.  One plan is read, on first use, off
:func:`build_initial`, :func:`build_final`, :func:`apply_absorption` and
:func:`matching_term_pairs` for both statistics.  Every term weight is
``±a`` or ``±b``, so the weight ``conj(w_bra) w_ket`` of each pair is one
of the four products ``conj(x) y`` for ``x, y`` in ``(a, b)``, negated for
fermions on the exchange pairs: the plan keeps one index per pair into the
four products, which an evaluation computes once, and marks the exchange
pairs.  Each inner product is thus a sesquilinear form in ``(a, b)`` whose
2x2 matrix the plan spells out.  The plan's overlaps are looked up once and
read in place, each as one row over the grid points flattened to one axis
(a view of a contiguous entry of the grid's shape, else a copy).  The pairs
are evaluated one at a time into two reused rows, the product times the
first overlap and that times the second, each multiply out of place: numpy
rounds an in-place complex multiply of a 1-element array otherwise than its
vector loop.  Each row is added, in place, to the total of every statistics
asked for, in bra-major order from ``+0.0``; a fermion total subtracts the
exchange pairs.  ``x - y`` is exactly ``x + (-y)``, so each total is bit
for bit the sequential sum of its signed terms (``np.add.reduce`` would add
pairwise on a single point); the norms keep the real sum.  No array has a
pair or a label axis: a call on a 512-trial ``verify`` block peaks at about
180 KiB (``tracemalloc``).  A single point runs the same numpy code as a
grid of one point, so every grid value equals its point's value bit for
bit.  :func:`inner_product` of the built states, evaluated in Python, is
the reference; numpy's complex multiply rounds on its own, so the two agree
within ``8 eps`` times the sum of the terms' magnitudes per inner product
(the bound ``tests/test_oracle.py`` derives), not bit for bit.  The
builders drop the terms of a zero weight; the plan keeps them, but their
products are exact signed zeros, which leave a nonzero partial sum
unchanged, and a sum started at ``+0.0`` stays ``+0.0`` while every term is
a zero, as in the expansion.
"""

from __future__ import annotations

import cmath
import functools
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable, NamedTuple

import numpy as np

from . import rates
from .algebra import (CHI, PHI, PSI, VARPHI, CmLabel, OverlapTable, Statistics, _over_real,
                      _python_on_point)
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
    """What the three formal inner products fix, for either statistics.

    The surviving term pairs of the three inner products are stacked on one
    pair axis, in bra-major order per product; ``spans`` delimits the
    products and ``first``/``second`` index each pair's two CM overlaps in
    ``labels``.  ``weight_of`` indexes each pair's weight among the four
    products ``conj(x) y`` of an evaluation, at ``2x + y`` for ``x, y`` in
    ``(a, b) = (0, 1)``.  ``exchange`` marks the pairs whose weight also
    carries the exchange sign: the fermion weight of such a pair is the
    negative of its product.
    """

    labels: tuple[tuple[CmLabel, CmLabel], ...]
    first: np.ndarray
    second: np.ndarray
    spans: tuple[tuple[int, int], ...]
    weight_of: np.ndarray
    exchange: np.ndarray


def _frozen(values: list, dtype: type = np.intp) -> np.ndarray:
    """A read-only array: the plan is shared by every call."""
    array = np.array(values, dtype=dtype)
    array.flags.writeable = False
    return array


@functools.cache  # a plan is immutable
def _plan() -> _Plan:
    """Read the plan off the formal builders, on its first use.

    In the probe builds at ``Coefficients(1, 2)`` each term weight is ``±1``
    where it is ``±a`` and ``±2`` where it is ``±b``.  Neither probe weight
    is zero, so every term any weights can build is in the plan; a zero
    weight only turns its terms' products into signed zeros.  The pairs are
    those of :func:`matching_term_pairs`.  The boson and the fermion builds
    have the same terms in the same order, and every boson weight is
    positive; a pair is an exchange pair where the fermion weight differs.
    """
    probe = Coefficients(1.0, 2.0)
    bra_kets = []  # per statistics, those of the initial norm², final norm² and bracket
    for statistics in (Statistics.BOSON, Statistics.FERMION):
        initial, final = build_initial(probe, statistics), build_final(probe, statistics)
        bra_kets.append(((initial, initial), (final, final), (final, apply_absorption(initial))))
    labels, first, second, spans, weight_of, exchange = {}, [], [], [], [], []
    for (bra, ket), (fermion_bra, fermion_ket) in zip(*bra_kets):
        start = len(first)
        for i, j in matching_term_pairs(bra, ket):
            tb, tk = bra.terms[i], ket.terms[j]
            first.append(labels.setdefault((tb.cm1, tk.cm1), len(labels)))
            second.append(labels.setdefault((tb.cm2, tk.cm2), len(labels)))
            x, y = int(abs(tb.weight)) - 1, int(abs(tk.weight)) - 1  # 0 for a, 1 for b
            weight_of.append(2 * x + y)
            exchange.append(fermion_bra.terms[i].weight * fermion_ket.terms[j].weight
                            != tb.weight * tk.weight)
        spans.append((start, len(first)))
    return _Plan(labels=tuple(labels), first=_frozen(first), second=_frozen(second),
                 spans=tuple(spans), weight_of=_frozen(weight_of),
                 exchange=_frozen(exchange, bool))


def _on_grid(value: complex | np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """``value`` over the grid ``shape`` as one axis: a view if it is a contiguous grid."""
    if isinstance(value, np.ndarray) and value.shape == shape and value.flags.c_contiguous:
        return value.reshape(-1)
    return np.full(shape, value, dtype=complex).reshape(-1)


def formal_quantities(
    coeffs: Coefficients, table: OverlapTable, statistics: Statistics | tuple[Statistics, ...]
) -> tuple[float, float, complex]:
    """Initial norm², final norm² and unnormalized absorption bracket, all formal.

    The inner products of the initial, the final and the absorbed initial
    state (:func:`build_initial`, :func:`build_final`,
    :func:`apply_absorption`), through the plan.  On a single point they
    are a Python ``float``, ``float`` and ``complex``; on a grid (array
    weights, a grid table or both, broadcast together) arrays over it, each
    point bit for bit its value on its own.  A tuple of statistics is one
    more leading axis of each array, each slice bit for bit its statistics
    on its own.  Raises :class:`~pairabs.rates.ExcludedStateError` when either
    norm is null anywhere, by the criterion of the closed forms
    (:func:`pairabs.rates.require_not_null`); :class:`Coefficients` has
    already refused non-finite weights.
    """
    stats = statistics if isinstance(statistics, tuple) else (statistics,)
    axis = (len(stats),) if stats is statistics else ()  # a tuple of statistics is axis 0
    plan = _plan()
    overlaps = [table.overlap(x, y) for x, y in plan.labels]
    # each grid shape once: numpy < 2 broadcasts at most 32 arrays in one call
    shape = np.broadcast_shapes(*{np.shape(v) for v in (coeffs.a, coeffs.b, *overlaps)})
    ab = np.array([_on_grid(coeffs.a, shape), _on_grid(coeffs.b, shape)])  # (a and b, points)
    products = list(np.multiply(ab.conjugate()[:, None], ab).reshape(4, -1))  # conj(x) y at 2x + y
    grids = {id(v): _on_grid(v, shape) for v in overlaps}  # each once: 8 labels share the 1
    overlaps = [grids[id(v)] for v in overlaps]
    pairs = list(zip(plan.weight_of.tolist(), plan.first.tolist(), plan.second.tolist(),
                     plan.exchange.tolist()))
    partial, row = np.empty((2, ab.shape[1]), dtype=complex)
    sums = []
    for lo, hi in plan.spans:
        totals = np.zeros((len(stats), ab.shape[1]), dtype=complex)
        signed = list(zip(totals, [stat.sign < 0 for stat in stats]))
        for weight, first, second, exchange in pairs[lo:hi]:
            np.multiply(products[weight], overlaps[first], out=partial)  # never in place
            np.multiply(partial, overlaps[second], out=row)
            for total, negated in signed:
                (np.subtract if exchange and negated else np.add)(total, row, out=total)
        sums.append(totals.reshape(axis + shape))
    n0_sq, nf_sq, bracket = sums[0].real, sums[1].real, sums[2]  # the norms are real
    rates.require_not_null(coeffs, n0_sq, nf_sq)
    return _python_on_point((n0_sq, nf_sq, bracket))


#: A deviation passes up to ``_K`` epsilons times its scale.  Over ``pairabs
#: verify`` seeds 0-9999 at 1000 trials the worst were 6.25 (amplitude), 8
#: (initial norm²) and 12 (final norm²) such units: 32 leaves a margin of 2.6.
_K = 32


def closed_form_deviations(
    coeffs: Coefficients, closed: rates.RateResult,
    formal: tuple[np.ndarray, np.ndarray, np.ndarray],
) -> tuple[np.ndarray, np.ndarray]:
    """``|closed - formal|`` of the normalized amplitude, the initial and the final
    norm², and the rounding bound of each: two arrays over (quantity,) + the
    points' shape.  A deviation passes where it is at most its bound.

    ``closed`` and ``formal`` are :func:`pairabs.rates.relative_rate_grid` and
    :func:`formal_quantities` of ``coeffs`` on the same points and statistics.
    The formal amplitude is the formal bracket over the closed-form
    ``sqrt(n0^2 nf^2)``, each part divided on its own; ``abs`` is numpy's.  Each
    bound is ``_K`` epsilons times a scale.  The norms² have the scales of their
    null floors (:func:`pairabs.rates._norm_scales`); ``m`` is twice a bracket
    sum over the weight products of the final norm², so its scale is twice the
    final norm²'s over ``sqrt(n0^2 nf^2)``.
    """
    n0_sq, nf_sq, bracket = formal
    root = np.sqrt(closed.n0_sq * closed.nf_sq)
    gap = closed.m - _over_real(bracket, root)
    n0_scale, nf_scale = rates._norm_scales(coeffs)
    scales = np.array(np.broadcast_arrays(2.0 * nf_scale / root, n0_scale, nf_scale))
    return (np.array([np.abs(gap), np.abs(closed.n0_sq - n0_sq), np.abs(closed.nf_sq - nf_sq)]),
            _K * np.finfo(float).eps * scales)
