"""Tests for the labeled one-particle states and overlap tables."""

import math
import tracemalloc

import numpy as np
import pytest

from pairabs.algebra import (
    CHI,
    PHI,
    PSI,
    VARPHI,
    CmLabel,
    MissingOverlapError,
    OverlapTable,
)

LABELS = (PSI, PHI, VARPHI, CHI)


def random_table(rng, labels, complex_entries=True):
    """Hermitian table with random entries of magnitude below 1."""
    entries = {}
    for i, x in enumerate(labels):
        for y in labels[i + 1 :]:
            re = rng.uniform(-0.7, 0.7)
            im = rng.uniform(-0.5, 0.5) if complex_entries else 0.0
            entries[(x, y)] = complex(re, im)
    return OverlapTable(entries)


class TestCmLabel:
    def test_star_sets_flag(self):
        assert PSI.star() == CmLabel("psi", starred=True)
        assert not PSI.starred and PSI.star().starred

    def test_str(self):
        assert str(PSI) == "psi"
        assert str(PSI.star()) == "psi*"

    def test_ordering_is_by_name_then_star(self):
        assert sorted([PSI.star(), PSI, CHI]) == [CHI, PSI, PSI.star()]

    def test_hash_equality_and_repr(self):
        assert CmLabel("psi") == PSI and hash(CmLabel("psi")) == hash(PSI)
        assert PSI != PSI.star() and PSI.star().star() == PSI.star()
        assert {PSI: 1, PSI.star(): 2}[CmLabel("psi", True)] == 2
        assert repr(PSI.star()) == "psi*" and repr([PSI, CHI]) == "[psi, chi]"
        assert (PSI.name, PSI.starred) == ("psi", False)


class TestOverlapTable:
    def test_unit_diagonal_for_any_label(self):
        table = OverlapTable({})
        assert table.overlap(PSI, PSI) == 1.0
        assert table.overlap(PSI.star(), PSI.star()) == 1.0

    def test_real_symmetric_entry(self):
        table = OverlapTable({(PSI, PHI): 0.8})
        assert table.overlap(PSI, PHI) == 0.8
        assert table.overlap(PHI, PSI) == 0.8

    def test_hermitian_mirror(self):
        table = OverlapTable({(PSI, PHI): 0.3 + 0.4j})
        assert table.overlap(PHI, PSI) == 0.3 - 0.4j

    def test_missing_pair_raises_with_labels(self):
        table = OverlapTable({(PSI, PHI): 0.8})
        with pytest.raises(MissingOverlapError, match=r"psi\|chi"):
            table.overlap(PSI, CHI)

    def test_rejects_magnitude_above_one(self):
        with pytest.raises(ValueError, match="exceeds 1"):
            OverlapTable({(PSI, PHI): 1.2})

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="non-finite"):
            OverlapTable({(PSI, PHI): float("nan")})

    def test_rejects_inconsistent_mirror_entries(self):
        with pytest.raises(ValueError, match="not conjugates"):
            OverlapTable({(PSI, PHI): 0.3 + 0.4j, (PHI, PSI): 0.3 + 0.4j})

    def test_given_unit_diagonal_is_accepted(self):
        table = OverlapTable({(PSI, PSI): 1.0, (PSI, PHI): 0.8})
        assert table.overlap(PSI, PSI) == 1.0 + 0.0j
        assert type(table.overlap(PSI, PSI)) is complex

    def test_rejects_non_unit_diagonal(self):
        with pytest.raises(ValueError, match="diagonal"):
            OverlapTable({(PSI, PSI): 0.9})

    @pytest.mark.parametrize("entries, message", [
        ({(PSI, PHI): np.array([0.5, 1.2])}, "exceeds 1"),
        ({(PSI, PHI): np.array([0.5, np.inf])}, "non-finite"),
        ({(PSI, PSI): np.array([1.0, 0.9])}, "diagonal"),
        ({(PSI, PHI): np.array([0.3, 0.3 + 0.4j]), (PHI, PSI): np.array([0.3, 0.3 + 0.4j])},
         "not conjugates"),
    ])
    def test_grid_entries_checked_at_every_point(self, entries, message):
        with pytest.raises(ValueError, match=message):
            OverlapTable(entries)

    def test_grid_entries_are_read_only_copies(self):
        values = np.array([0.2, 0.4])
        table = OverlapTable({(PSI, PHI): values, (PSI, CHI): 0.1})
        values[0] = 0.9
        assert table.overlap(PSI, PHI).tolist() == [0.2, 0.4]
        assert table.overlap(PHI, PSI).tolist() == [0.2, 0.4]
        assert table.overlap(CHI, PSI) == 0.1  # scalar entries are constant over the grid
        with pytest.raises(ValueError):
            table.overlap(PSI, PHI)[0] = 0.0
        with pytest.raises(ValueError):
            table.overlap(PHI, PSI)[0] = 0.0  # the stored mirror is shared by every lookup
        assert table.overlap(PHI, PSI).tolist() == [0.2, 0.4]

    def test_given_entry_wins_over_conjugated_mirror(self):
        # 0.5+0j and its conjugate 0.5-0j are equal, but only the given
        # orientation keeps the sign of the zero
        table = OverlapTable({(PSI, PHI): 0.5 + 0.0j, (PHI, PSI): 0.5 + 0.0j})
        assert math.copysign(1.0, table.overlap(PHI, PSI).imag) == 1.0
        assert math.copysign(1.0, table.overlap(PSI, PHI).imag) == 1.0
        mirrored = OverlapTable({(PSI, PHI): 0.5 + 0.0j})
        assert math.copysign(1.0, mirrored.overlap(PHI, PSI).imag) == -1.0

    def test_hermiticity_exact_on_random_tables(self):
        rng = np.random.default_rng(7)
        labels = LABELS + (PSI.star(), PHI.star())
        for _ in range(50):
            table = random_table(rng, labels)
            for x in labels:
                for y in labels:
                    assert table.overlap(x, y) == table.overlap(y, x).conjugate()


def per_entry_reference(value):
    """An entry as a table stores it when each is copied and checked on its own: a
    Python ``complex``, or a read-only complex copy of an array."""
    if isinstance(value, np.ndarray):
        return value.astype(complex)
    return complex(value)


def same_value(got, expected):
    """Same type, shape, dtype and bits (so signed zeros count)."""
    if not isinstance(expected, np.ndarray):
        return type(got) is complex and repr(got) == repr(expected)
    return (type(got) is np.ndarray and got.shape == expected.shape
            and got.dtype == expected.dtype and got.tobytes() == expected.tobytes())


class TestStackedGridEntries:
    """Array entries of one shape are stored as rows of one stack; nothing else changes."""

    DIAGONAL = ((PSI, PSI), np.array([1.0, 0.9]), "diagonal entry <psi|psi> must equal 1, got "
                "array([1. , 0.9])")
    MAGNITUDE = ((PSI, PHI), np.array([0.5, 1.2]), "|<psi|phi>| = 1.2 exceeds 1")
    NON_FINITE = ((VARPHI, CHI), np.array([0.5, np.nan]), "non-finite overlap for <varphi|chi>")
    MIRROR = ((PHI, PSI), np.array([0.5, 1.2]), "entries for <phi|psi> and <psi|phi> are not "
              "conjugates")

    @pytest.mark.parametrize("first, second", [
        (DIAGONAL, MAGNITUDE), (MAGNITUDE, DIAGONAL), (NON_FINITE, MAGNITUDE),
        (MAGNITUDE, NON_FINITE), (DIAGONAL, NON_FINITE), (NON_FINITE, DIAGONAL),
    ])
    def test_the_first_bad_entry_in_mapping_order_is_named(self, first, second):
        entries = {(CHI, PHI): np.array([0.1, 0.2]), first[0]: first[1], second[0]: second[1]}
        with pytest.raises(ValueError) as error:
            OverlapTable(entries)
        assert str(error.value) == first[2]

    def test_a_given_mirror_is_checked_after_its_own_magnitude(self):
        good = np.array([0.5, 0.25j])
        with pytest.raises(ValueError) as error:
            OverlapTable({(PSI, PHI): good, (PHI, PSI): np.array([0.5, -0.5j])})
        assert str(error.value) == self.MIRROR[2]
        with pytest.raises(ValueError) as error:
            OverlapTable({(PSI, PHI): good, (PHI, PSI): np.array([0.5, 1.5j])})
        assert str(error.value) == "|<phi|psi>| = 1.5 exceeds 1"

    def test_mixed_shapes_give_each_entry_its_own_values_and_type(self):
        rng = np.random.default_rng(3)
        entries = {
            (PSI, PHI): rng.uniform(-0.7, 0.7, 3),
            (PSI, VARPHI): np.array([0.25 - 0.5j]),
            (PSI, CHI): rng.uniform(-0.7, 0.7, (2, 1)),
            (PHI, VARPHI): rng.uniform(-0.7, 0.7, (1, 3)) + 0.1j,
            (PHI, CHI): rng.uniform(-0.7, 0.7, 3) * 1j,
            (VARPHI, CHI): 0.5,
            (PSI.star(), PSI): np.array([0.0, -0.0, 0.3]),
            (PHI.star(), CHI): np.array([0.2]),
        }
        table = OverlapTable(entries)
        for (x, y), value in entries.items():
            expected = per_entry_reference(value)
            assert same_value(table.overlap(x, y), expected), (x, y)
            assert same_value(table.overlap(y, x), per_entry_reference(expected.conjugate()))

    def test_a_0d_array_entry_and_a_scalar_entry_keep_their_types(self):
        # a 0-d entry's mirror is a 0-d array like the entry (per-entry copies
        # made it a Python complex, since numpy conjugates a 0-d array to a scalar)
        entries = {(PSI, PHI): np.array(0.5), (PSI, VARPHI): np.array(0.25 + 0.5j),
                   (PSI, CHI): 0.5, (PHI, CHI): np.float64(-0.25), (VARPHI, CHI): 1j * 0.5}
        table = OverlapTable(entries)
        for (x, y), value in entries.items():
            for got in (table.overlap(x, y), table.overlap(y, x)):
                if isinstance(value, np.ndarray):
                    assert type(got) is np.ndarray and got.shape == () and got.dtype == complex
                    assert not got.flags.writeable
                else:
                    assert type(got) is complex
        assert table.overlap(VARPHI, PSI).item() == 0.25 - 0.5j
        assert table.overlap(CHI, PHI) == -0.25

    def test_entries_are_read_only_and_share_no_memory_with_the_input(self):
        entries = {(PSI, PHI): np.array([0.2, 0.4]), (PSI, CHI): np.array([0.1j, 0.3]),
                   (VARPHI, CHI): np.array([[0.5]]), (PHI, CHI): np.array([0.6 + 0j, 0.0])}
        table = OverlapTable(entries)
        before = {pair: entries[pair].copy() for pair in entries}
        for (x, y), value in entries.items():
            for got in (table.overlap(x, y), table.overlap(y, x)):
                assert not got.flags.writeable
                assert not np.shares_memory(got, value)
                with pytest.raises(ValueError):
                    got[...] = 0.0
            value[...] = 0.9
        for (x, y), value in before.items():
            assert same_value(table.overlap(x, y), value.astype(complex))

    def test_a_given_grid_entry_wins_over_its_conjugated_mirror(self):
        signed = np.array([complex(0.5, 0.0), complex(0.5, -0.0)])
        table = OverlapTable({(PSI, PHI): signed, (PHI, PSI): np.full(2, complex(0.5, 0.0))})
        assert np.copysign(1.0, table.overlap(PSI, PHI).imag).tolist() == [1.0, -1.0]
        assert np.copysign(1.0, table.overlap(PHI, PSI).imag).tolist() == [1.0, 1.0]
        mirrored = OverlapTable({(PSI, PHI): signed})
        assert np.copysign(1.0, mirrored.overlap(PHI, PSI).imag).tolist() == [-1.0, 1.0]


class TestMirrorsOnFirstLookup:
    """A mirror is conjugated on its first lookup and kept; construction makes none."""

    # a 0-d entry's mirror is a 0-d array too
    ENTRIES = {(PSI, PHI): np.array([0.2 + 0.5j, complex(-0.0, 0.0), complex(0.3, -0.0)]),
               (PSI, CHI): np.array(0.25 - 0.5j), (PHI, CHI): np.array([[0.5], [-0.25j]]),
               (VARPHI, CHI): 0.5j}

    def test_a_mirror_is_the_conjugate_of_its_entry_and_kept(self):
        table = OverlapTable(self.ENTRIES)
        for (x, y), value in self.ENTRIES.items():
            mirror = table.overlap(y, x)
            assert same_value(mirror, np.asarray(np.conjugate(value.astype(complex)))
                              if isinstance(value, np.ndarray) else complex(value).conjugate())
            assert table.overlap(y, x) is mirror
            if isinstance(value, np.ndarray):
                assert not mirror.flags.writeable
                assert not np.shares_memory(mirror, value)
                assert not np.shares_memory(mirror, table.overlap(x, y))

    def test_construction_holds_only_the_copied_entries(self):
        # 28 entries of 4096 points, 1.75 MiB: a conjugated stack would double it
        labels = (PSI, PHI, VARPHI, CHI) + tuple(label.star() for label in (PSI, PHI, VARPHI, CHI))
        entries = {(x, y): np.full(4096, 0.5 + 0.25j)
                   for i, x in enumerate(labels) for y in labels[i + 1:]}
        size = sum(value.nbytes for value in entries.values())
        tracemalloc.start()
        try:
            table = OverlapTable(entries)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert size <= held < 1.05 * size
        assert table.overlap(CHI.star(), PSI).tolist() == [0.5 - 0.25j] * 4096
