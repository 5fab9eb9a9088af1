"""Labeled one-particle states, exchange statistics and overlap tables.

Center-of-mass (CM) states are abstract labels whose mutual inner products
live in an :class:`OverlapTable`; they are normalized but in general not
orthogonal.  No vector embedding is assumed anywhere: the table is the
single source of truth, which is what lets recoiled (starred) labels carry
overlap rules that no linear map on the originals could reproduce.

Labels are tuples, so they hash and compare in C as table keys.  A table
stores both orientations of every pair from construction on, so a lookup is
one dict access either way round and a grid entry is conjugated once, not
on every lookup of its mirror.  Neither changes any value or the order in
which inner products are summed.
"""

from __future__ import annotations

from enum import Enum
from typing import Mapping, NamedTuple

import numpy as np

__all__ = [
    "CHI",
    "CmLabel",
    "MissingOverlapError",
    "OverlapTable",
    "PHI",
    "PSI",
    "Statistics",
    "VARPHI",
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
