"""Labeled one-particle states, exchange statistics and overlap tables.

Center-of-mass (CM) states are abstract labels whose mutual inner products
live in an :class:`OverlapTable`; they are normalized but in general not
orthogonal.  No vector embedding is assumed anywhere: the table is the
single source of truth, which is what lets recoiled (starred) labels carry
overlap rules that no linear map on the originals could reproduce.

Labels are tuples, so they hash and compare in C as table keys.  A table
stores both orientations of every pair from construction on, so a lookup is
one dict access either way round.  The array entries of a grid table that
share a shape are copied once into one read-only complex stack, checked with
one magnitude test and conjugated with one call; each entry and its mirror
is a row of those stacks.  None of this changes any value or the order in
which inner products are summed.

It also holds the package's few rounding rules: ``|z|^2`` is
``re*re + im*im`` on a Python number and on an array alike
(:func:`_abs_sq`), a complex number is divided by a real one part by part
(:func:`_over_real`), and a 0-d result becomes a Python number
(:func:`_python_on_point`).  The weight products and the oracle multiply
with numpy's own elementwise arithmetic, which rounds a point as it rounds
each point of a grid.
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
    Such a grid table holds many tables at once: scalar entries are Python
    ``complex`` numbers, constant over the grid, and every check applies to
    each point.  The array entries of one shape are copied into one
    read-only complex stack, and their mirrors are its conjugate; each entry
    and each mirror is a read-only row view of these (a 0-d entry a 0-d
    array).  The entries are checked in mapping order, each for its
    magnitude and finiteness, then as a diagonal, then against its given
    mirror, so the first bad one is named; a given entry wins over the
    conjugate of its mirror.  Lookups of array entries return arrays, so
    elementwise formulas evaluate the whole grid in one pass.
    """

    def __init__(self, entries: Mapping[tuple[CmLabel, CmLabel], complex | np.ndarray]):
        raws = list(entries.values())
        values = [None if isinstance(raw, np.ndarray) else complex(raw) for raw in raws]
        conjugates = [None if value is None else value.conjugate() for value in values]
        valid = [value is None or np.abs(value) <= 1.0 + 1e-12 for value in values]
        rows_of_shape: dict[tuple[int, ...], list[int]] = {}
        for i, raw in enumerate(raws):
            if isinstance(raw, np.ndarray):
                rows_of_shape.setdefault(raw.shape, []).append(i)
        for shape, rows in rows_of_shape.items():
            stack = np.array([raws[i] for i in rows], dtype=complex)
            # every point of every entry at once; False also where one is not finite
            valid_rows = (np.abs(stack) <= 1.0 + 1e-12).reshape(len(rows), -1).all(axis=1)
            mirror = stack.conjugate()
            stack.flags.writeable = mirror.flags.writeable = False
            for j, i in enumerate(rows):  # [j, ...]: a 0-d entry stays a 0-d array
                values[i], conjugates[i], valid[i] = stack[j, ...], mirror[j, ...], valid_rows[j]
        store: dict[tuple[CmLabel, CmLabel], complex | np.ndarray] = {}
        mirrors: dict[tuple[CmLabel, CmLabel], complex | np.ndarray] = {}
        for (x, y), raw, value, conjugate, ok in zip(entries, raws, values, conjugates, valid):
            if not ok:
                if not np.isfinite(value).all():
                    raise ValueError(f"non-finite overlap for <{x}|{y}>")
                raise ValueError(f"|<{x}|{y}>| = {np.abs(value).max()} exceeds 1")
            if x == y:
                if not np.equal(value, 1.0).all():
                    raise ValueError(f"diagonal entry <{x}|{x}> must equal 1, got {raw!r}")
                continue
            given = store.get((y, x))
            if given is not None and not np.equal(given, conjugate).all():
                raise ValueError(f"entries for <{x}|{y}> and <{y}|{x}> are not conjugates")
            store[(x, y)] = value
            mirrors[(y, x)] = conjugate
        # A given entry wins over the conjugate of its mirror (they may differ
        # in the sign of a zero).
        self._entries = mirrors | store

    def overlap(self, x: CmLabel, y: CmLabel) -> complex | np.ndarray:
        """Return ``<x|y>``: the stored entry, or 1 on the diagonal."""
        value = self._entries.get((x, y))
        if value is None:
            if x == y:
                return 1.0 + 0.0j
            raise MissingOverlapError(x, y)
        return value


def _abs_sq(z):
    """``|z|^2`` as ``re*re + im*im``: one rounding rule for Python numbers and arrays."""
    return z.real * z.real + z.imag * z.imag


def _over_real(z, d) -> np.ndarray:
    """``z / d`` for a real divisor ``d``, each part divided on its own, as an array.

    numpy's ``complex / float`` multiplies by ``1 / d`` instead, which
    differs by an ulp on some inputs.
    """
    return _complex(z.real / d, z.imag / d)


def _complex(re, im) -> np.ndarray:
    """The complex array with real parts ``re`` and imaginary parts ``im``, bit for bit."""
    out = np.empty(np.broadcast_shapes(np.shape(re), np.shape(im)), dtype=complex)
    out.real, out.imag = re, im
    return out


def _python_on_point(values: tuple) -> tuple:
    """``values`` with each 0-d one as a Python number; arrays of a grid stay arrays.

    The one rule by which a single point gives Python numbers.
    """
    return tuple(np.asarray(v).item() if np.ndim(v) == 0 else v for v in values)
