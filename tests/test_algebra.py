"""Tests for the formal state algebra and overlap tables."""

import math

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
    Statistics,
)
from pairabs.oracle import E, FormalState, G, Term, combine, inner_product, symmetrize

LABELS = (PSI, PHI, VARPHI, CHI)
INTERNALS = (G, E)


def random_table(rng, labels, complex_entries=True):
    """Hermitian table with random entries of magnitude below 1."""
    entries = {}
    for i, x in enumerate(labels):
        for y in labels[i + 1 :]:
            re = rng.uniform(-0.7, 0.7)
            im = rng.uniform(-0.5, 0.5) if complex_entries else 0.0
            entries[(x, y)] = complex(re, im)
    return OverlapTable(entries)


def random_state(rng, labels, max_terms=4):
    n = int(rng.integers(1, max_terms + 1))
    terms = []
    for _ in range(n):
        cm1, cm2 = (labels[int(k)] for k in rng.integers(0, len(labels), size=2))
        i1, i2 = (INTERNALS[int(k)] for k in rng.integers(0, 2, size=2))
        terms.append(Term(complex(rng.normal(), rng.normal()), cm1, i1, cm2, i2))
    return FormalState(tuple(terms))


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


class CountingTable(OverlapTable):
    """Counts lookups, as the benchmark tracer does by wrapping ``overlap``."""

    calls = 0

    def overlap(self, x, y):
        self.calls += 1
        return super().overlap(x, y)


def double_loop_inner_product(bra, ket, table):
    """Every term pair in bra-major order, mismatched internal labels skipped."""
    total = 0.0 + 0.0j
    for tb in bra.terms:
        for tk in ket.terms:
            if tb.int1 is not tk.int1 or tb.int2 is not tk.int2:
                continue
            total += (
                tb.weight.conjugate()
                * tk.weight
                * table.overlap(tb.cm1, tk.cm1)
                * table.overlap(tb.cm2, tk.cm2)
            )
    return total


class TestInnerProduct:
    def test_double_loop_reference_bitwise_and_every_lookup_through_the_table(self):
        assert "overlap" in OverlapTable.__dict__  # the tracer patches it there
        rng = np.random.default_rng(19)
        labels = LABELS + (PSI.star(), CHI.star())
        for _ in range(100):
            table = random_table(rng, labels)
            counting = CountingTable(
                {(x, y): table.overlap(x, y) for x in labels for y in labels if x != y}
            )
            bra = random_state(rng, labels, max_terms=6)
            ket = random_state(rng, labels, max_terms=6)
            value = inner_product(bra, ket, counting)
            assert value == double_loop_inner_product(bra, ket, table)
            matching = sum(
                tb.int1 is tk.int1 and tb.int2 is tk.int2
                for tb in bra.terms for tk in ket.terms
            )
            assert counting.calls == 2 * matching

    def test_normalized_product_term(self):
        table = OverlapTable({(PSI, PHI): 0.0})
        state = FormalState((Term(1.0, PSI, G, PHI, G),))
        assert inner_product(state, state, table) == 1.0

    def test_swapped_term_gives_overlap_squared(self):
        c = 0.7
        table = OverlapTable({(PSI, PHI): c})
        bra = FormalState((Term(1.0, PSI, G, PHI, G),))
        ket = FormalState((Term(1.0, PHI, G, PSI, G),))
        assert inner_product(bra, ket, table) == pytest.approx(c * c, abs=1e-15)

    def test_orthogonal_internal_states(self):
        table = OverlapTable({(PSI, PHI): 0.5})
        bra = FormalState((Term(1.0, PSI, E, PHI, G),))
        ket = FormalState((Term(1.0, PSI, G, PHI, G),))
        assert inner_product(bra, ket, table) == 0.0

    def test_conjugate_symmetry(self):
        rng = np.random.default_rng(11)
        labels = LABELS + (PSI.star(), CHI.star())
        for _ in range(200):
            table = random_table(rng, labels)
            a = random_state(rng, labels)
            b = random_state(rng, labels)
            lhs = inner_product(a, b, table)
            rhs = inner_product(b, a, table).conjugate()
            assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_linearity_and_antilinearity(self):
        rng = np.random.default_rng(13)
        labels = LABELS
        for _ in range(100):
            table = random_table(rng, labels)
            a = random_state(rng, labels)
            b = random_state(rng, labels)
            w = complex(rng.normal(), rng.normal())
            assert inner_product(combine([(w, a)]), b, table) == pytest.approx(
                w.conjugate() * inner_product(a, b, table), abs=1e-12
            )
            assert inner_product(a, combine([(w, b)]), table) == pytest.approx(
                w * inner_product(a, b, table), abs=1e-12
            )

    def test_term_order_does_not_matter(self):
        rng = np.random.default_rng(17)
        labels = LABELS + (VARPHI.star(),)
        for _ in range(100):
            table = random_table(rng, labels)
            a = random_state(rng, labels, max_terms=6)
            b = random_state(rng, labels, max_terms=6)
            perm_a = FormalState(tuple(a.terms[i] for i in rng.permutation(len(a))))
            perm_b = FormalState(tuple(b.terms[i] for i in rng.permutation(len(b))))
            assert inner_product(perm_a, perm_b, table) == pytest.approx(
                inner_product(a, b, table), abs=1e-12
            )


class TestSymmetrize:
    def test_boson_structure(self):
        state = symmetrize(PSI, G, PHI, G, Statistics.BOSON)
        assert state.terms == (
            Term(1.0, PSI, G, PHI, G),
            Term(1.0, PHI, G, PSI, G),
        )

    def test_fermion_structure(self):
        state = symmetrize(PSI, G, PHI, G, Statistics.FERMION)
        assert state.terms[1].weight == -1.0

    def test_fermion_identical_labels_has_zero_norm_exactly(self):
        table = OverlapTable({(PSI, PHI): 0.5})
        state = symmetrize(PSI, G, PSI, G, Statistics.FERMION)
        assert inner_product(state, state, table) == 0.0


class TestCombine:
    def test_empty_combination_is_zero_state(self):
        table = OverlapTable({(PSI, PHI): 0.5})
        zero = combine([])
        other = FormalState((Term(1.0, PSI, G, PHI, G),))
        assert inner_product(zero, other, table) == 0.0
        assert inner_product(other, zero, table) == 0.0

    def test_identity(self):
        rng = np.random.default_rng(19)
        table = random_table(rng, LABELS)
        s = random_state(rng, LABELS)
        t = random_state(rng, LABELS)
        assert inner_product(combine([(1.0, s)]), t, table) == inner_product(s, t, table)

    def test_same_state_weights_add(self):
        rng = np.random.default_rng(23)
        table = random_table(rng, LABELS)
        s = random_state(rng, LABELS)
        probe = random_state(rng, LABELS)
        a, b = 0.3 + 0.1j, -1.2 + 0.7j
        lhs = inner_product(combine([(a, s), (b, s)]), probe, table)
        rhs = inner_product(combine([(a + b, s)]), probe, table)
        assert lhs == pytest.approx(rhs, abs=1e-12)


class TestFormalState:
    def test_rejects_non_finite_weight(self):
        with pytest.raises(ValueError, match="non-finite"):
            FormalState((Term(float("inf"), PSI, G, PHI, G),))
        with pytest.raises(ValueError, match="non-finite"):
            FormalState((Term(complex("nan"), PSI, G, PHI, G),))  # already a Term

    def test_terms_become_a_tuple_of_complex_weighted_terms(self):
        state = FormalState([(1.0, PSI, G, PHI, G), Term(2, PHI, E, PSI, G)])
        assert type(state.terms) is tuple
        assert all(type(t) is Term and type(t.weight) is complex for t in state.terms)
        assert state.terms == (Term(1.0, PSI, G, PHI, G), Term(2.0, PHI, E, PSI, G))

    def test_len(self):
        assert len(symmetrize(PSI, G, PHI, G, Statistics.BOSON)) == 2

    def test_zero_weight_terms_are_droppable(self):
        rng = np.random.default_rng(31)
        table = random_table(rng, LABELS)
        probe = random_state(rng, LABELS)
        padded = FormalState(
            (Term(1.0, PSI, G, PHI, G), Term(0.0, CHI, E, VARPHI, E),
             Term(0.5j, PHI, G, PSI, G)),
        )
        stripped = FormalState(tuple(t for t in padded.terms if t.weight != 0))
        assert inner_product(padded, probe, table) == inner_product(stripped, probe, table)
        assert inner_product(probe, padded, table) == inner_product(probe, stripped, table)

