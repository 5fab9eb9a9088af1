"""Formal two-particle state algebra over labeled one-particle states.

Center-of-mass (CM) states are abstract labels whose mutual inner products
live in an :class:`OverlapTable`; they are normalized but in general not
orthogonal.  Internal (electronic) states ``g`` and ``e`` are orthonormal.
Two-particle states are finite weighted sums of tensor monomials, so every
inner product reduces to table lookups and Kronecker deltas.  No vector
embedding is assumed anywhere: the table is the single source of truth,
which is what lets recoiled (starred) labels carry overlap rules that no
linear map on the originals could reproduce.

Labels are tuples, so they hash and compare in C as table keys.  A table
stores both orientations of every pair from construction on, so a lookup is
one dict access either way round and a grid entry is conjugated once, not
on every lookup of its mirror.  Neither changes any value or the order in
which inner products are summed.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Mapping, NamedTuple

import numpy as np

__all__ = [
    "CHI",
    "E",
    "G",
    "CmLabel",
    "FormalState",
    "Internal",
    "MissingOverlapError",
    "OverlapTable",
    "PHI",
    "PSI",
    "Statistics",
    "Term",
    "VARPHI",
    "combine",
    "inner_product",
    "matching_term_pairs",
    "symmetrize",
]


class Statistics(Enum):
    """Exchange statistics of the identical pair; the value is the symmetrization sign."""

    BOSON = 1
    FERMION = -1

    @property
    def sign(self) -> int:
        return self.value


class CmLabel(NamedTuple):
    """Label of a center-of-mass one-particle state.

    ``starred`` marks the post-recoil version of the state; it is a distinct
    label with its own row in the overlap table, not a transformed vector.
    Labels hash, compare and sort as ``(name, starred)`` tuples, so a table
    lookup keyed by a pair of labels runs no Python-level code.
    """

    name: str
    starred: bool = False

    def star(self) -> "CmLabel":
        """The recoiled (starred) version of this label."""
        return CmLabel(self.name, True)

    def __str__(self) -> str:
        return self.name + ("*" if self.starred else "")

    __repr__ = __str__


#: Canonical labels used by the rate machinery.
PSI = CmLabel("psi")
PHI = CmLabel("phi")
VARPHI = CmLabel("varphi")
CHI = CmLabel("chi")

#: The canonical labels in table order, and their recoiled (starred) forms.
_LABELS = (PSI, PHI, VARPHI, CHI)
_STARRED = tuple(label.star() for label in _LABELS)


class Internal(Enum):
    """Electronic state of one atom; ``g`` and ``e`` are orthonormal."""

    G = "g"
    E = "e"


G = Internal.G
E = Internal.E


class MissingOverlapError(LookupError):
    """An overlap table has no entry, direct or mirrored, for the requested pair."""

    def __init__(self, x: CmLabel, y: CmLabel):
        super().__init__(f"no overlap entry for <{x}|{y}>")
        self.pair = (x, y)


class OverlapTable:
    """Hermitian map from ordered CM-label pairs to inner products.

    Storing one orientation per pair is enough: at construction the mirror
    orientation of every entry is derived once by complex conjugation and
    stored beside it, so a lookup is a single dict access.  Diagonal entries
    are identically 1: every labeled state, recoiled ones included, is
    normalized.

    An entry may also be a numpy array, one value per point of a sweep grid.
    Such a grid table holds many tables at once: array entries and their
    mirrors are stored as read-only complex arrays, scalar entries are
    constant over the grid, and every check applies to each point.  Lookups
    of array entries return arrays, so elementwise formulas evaluate the
    whole grid in one pass.
    """

    def __init__(self, entries: Mapping[tuple[CmLabel, CmLabel], complex | np.ndarray]):
        store: dict[tuple[CmLabel, CmLabel], complex | np.ndarray] = {}
        for (x, y), raw in entries.items():
            value = _grid_value(raw)
            magnitude = np.abs(value)
            if not (magnitude <= 1.0 + 1e-12).all():  # also where a value is not finite
                if not np.isfinite(value).all():
                    raise ValueError(f"non-finite overlap for <{x}|{y}>")
                raise ValueError(f"|<{x}|{y}>| = {magnitude.max()} exceeds 1")
            if x == y:
                if not np.equal(value, 1.0).all():
                    raise ValueError(f"diagonal entry <{x}|{x}> must equal 1, got {raw!r}")
                continue
            mirror = store.get((y, x))
            if mirror is not None and not np.equal(mirror, value.conjugate()).all():
                raise ValueError(f"entries for <{x}|{y}> and <{y}|{x}> are not conjugates")
            store[(x, y)] = value
        # A given entry wins over the conjugate of its mirror (they may differ
        # in the sign of a zero).
        mirrors = {(y, x): _grid_value(value.conjugate()) for (x, y), value in store.items()}
        self._entries = mirrors | store

    def overlap(self, x: CmLabel, y: CmLabel) -> complex | np.ndarray:
        """Return ``<x|y>``: the stored entry, or 1 on the diagonal."""
        value = self._entries.get((x, y))
        if value is None:
            if x == y:
                return 1.0 + 0.0j
            raise MissingOverlapError(x, y)
        return value


def _grid_value(value, kind: type = complex) -> complex | float | np.ndarray:
    """One value as a Python ``kind``, or a grid of them as a read-only array of it."""
    if isinstance(value, np.ndarray):
        value = value.astype(kind)
        value.flags.writeable = False
        return value
    return kind(value)


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

