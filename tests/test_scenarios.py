"""Tests for table builders, the recoil rules, and the exclusion family."""

import math
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from pairabs import scenarios
from pairabs.rates import EXCLUSION_EPS, _null_floors

from pairabs.algebra import CHI, PHI, PSI, VARPHI, CmLabel, MissingOverlapError, OverlapTable
from pairabs.scenarios import (
    ALL_PAIRS,
    CHOICES,
    Coefficients,
    ExclusionFamily,
    RecoilModel,
    _WEIGHT_NORM_RANGE,
    _alpha_pair,
    build_table,
    choice_overlaps,
    family_exclusion_coefficient,
    random_realizable_overlaps,
    realizable_overlaps,
)

ROOT2_INV = 1.0 / math.sqrt(2.0)
BARE = (PSI, PHI, VARPHI, CHI)
#: The scenarios whose dependent overlaps follow the chain rules: all but the family.
PRESETS = ("i", "ii", "iii", "iv")


def min_gram_eigenvalue(table, labels=BARE):
    """Smallest eigenvalue of the labels' Gram matrix: >= -1e-12 when they are
    realizable as unit vectors."""
    gram = np.array([[table.overlap(x, y) for y in labels] for x in labels])
    return float(np.linalg.eigvalsh(gram).min())


class TestMinGramEigenvalue:
    """The realizability check above must reject what is not realizable, or the
    tests that use it prove nothing."""

    def test_two_labels_realizable(self):
        table = OverlapTable({(PSI, PHI): 0.8})
        assert min_gram_eigenvalue(table, (PSI, PHI)) == pytest.approx(0.2, abs=1e-12)

    def test_three_labels_mutually_negative_not_realizable(self):
        table = OverlapTable(
            {(PSI, PHI): -0.9, (PSI, VARPHI): -0.9, (PHI, VARPHI): -0.9}
        )
        assert min_gram_eigenvalue(table, (PSI, PHI, VARPHI)) == pytest.approx(
            -0.8, abs=1e-12
        )

    def test_starred_label_set(self):
        table = OverlapTable(
            {(PSI, PHI): -0.95, (PSI.star(), PSI): 0.95, (PSI.star(), PHI): 0.95}
        )
        assert min_gram_eigenvalue(table, (PSI, PHI, PSI.star())) == pytest.approx(
            -0.9, abs=1e-12
        )

    def test_missing_entry_raises(self):
        table = OverlapTable({(PSI, PHI): 0.5})
        with pytest.raises(MissingOverlapError):
            min_gram_eigenvalue(table, (PSI, PHI, CHI))


class TestRecoilModel:
    def test_default(self):
        assert RecoilModel().alpha0 == 0.9

    @pytest.mark.parametrize("bad", [0.0, -0.1, 1.5, 1e-300, 1.05e-154])
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(ValueError, match="alpha0"):
            RecoilModel(bad)

    def test_smallest_alpha0_keeps_reference_normal(self):
        model = RecoilModel(1.06e-154)
        assert 2.0 * model.alpha0**2 >= sys.float_info.min

    def test_array_is_checked_at_every_point(self):
        alpha0 = np.array([0.5, 1.0, 1.06e-154])
        model = RecoilModel(alpha0)
        assert model.alpha0.tolist() == alpha0.tolist()
        assert model.alpha0 is not alpha0 and not model.alpha0.flags.writeable
        with pytest.raises(ValueError, match=r"^alpha0 must lie in \(0, 1\], got 1.5$"):
            RecoilModel(np.array([0.5, 1.5, 0.9]))
        with pytest.raises(ValueError, match=r"^alpha0 must lie in \(0, 1\], got nan$"):
            RecoilModel(np.array([0.5, 0.9, np.nan]))
        with pytest.raises(ValueError, match=r"^alpha0 = 1e-300 is too small: "):
            RecoilModel(np.array([0.5, 1e-300]))

    @pytest.mark.parametrize("bad, message", [
        (1.5, r"^alpha0 must lie in \(0, 1\], got 1.5$"),
        (1e-300, r"^alpha0 = 1e-300 is too small: the product-state reference "
                 r"\|m_pro\|\^2 = 2 alpha0\^2 underflows$"),
    ])
    def test_messages_name_the_value(self, bad, message):
        with pytest.raises(ValueError, match=message):
            RecoilModel(bad)


class TestAlphaPair:
    def test_unit_overlap_gives_exactly_one(self):
        for alpha0 in (0.9, 0.5, 0.3, 1.0):
            assert _alpha_pair(RecoilModel(alpha0), 1.0) == 1.0

    def test_zero_overlap_gives_exactly_alpha0(self):
        for alpha0 in (0.9, 0.5, 0.3):
            assert _alpha_pair(RecoilModel(alpha0), 0.0) == alpha0

    def test_intermediate_value(self):
        assert _alpha_pair(RecoilModel(0.9), 0.8) == pytest.approx(0.98, abs=1e-15)

    def test_complex_overlap_uses_real_part(self):
        assert _alpha_pair(RecoilModel(0.9), 0.5 + 0.4j) == _alpha_pair(RecoilModel(0.9), 0.5)


class TestCoefficients:
    def test_rejects_both_zero(self):
        with pytest.raises(ValueError, match="both vanish"):
            Coefficients(0.0, 0.0)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            Coefficients(float("inf"), 0.0)

    def test_null_floor_scale(self):
        assert _null_floors(Coefficients(0.6, 0.8j))[0] == pytest.approx(
            2.0 * EXCLUSION_EPS, rel=1e-15)

    # sqrt(|a|^2 + |b|^2) must lie in [1.22e-72, 2.06e76]
    @pytest.mark.parametrize("a, b", [
        (1.3e-72, 0.0), (1e-72, 1e-72j), (1e-60, 0.0), (1.4e76, 1.4e76), (0.0, -2e76j),
    ])
    def test_accepts_weights_inside_the_range(self, a, b):
        floors = _null_floors(Coefficients(a, b))  # no overflow either
        assert all(0.0 < f < math.inf for f in floors)

    def test_arrays_hold_one_pair_per_point(self):
        a = np.array([0.6, 1.0])
        coeffs = Coefficients(a, np.array([0.8j, 0.0]))
        assert coeffs.a.dtype == coeffs.b.dtype == complex
        assert coeffs.b.tolist() == [0.8j, 0.0]
        a[0] = 0.0  # the weights are a read-only copy, checked once
        assert coeffs.a.tolist() == [0.6, 1.0]
        with pytest.raises(ValueError, match="read-only"):
            coeffs.b[1] = 0.0
        assert Coefficients(np.array([[0.6], [1.0]]), 0.8).a.shape == (2, 1)

    @pytest.mark.parametrize("a, b, message", [
        ([0.6, np.inf, 0.8], [0.8, 0.0, 0.6], r"^superposition coefficients must be finite$"),
        ([0.6, 0.6, 0.8], [0.8, np.nan, 0.6], r"^superposition coefficients must be finite$"),
        ([0.6, 0.0, 0.8], [0.8, -0.0, 0.6],
         r"^superposition coefficients must not both vanish$"),
        ([0.6, 1e-100, 3e76], [0.8, 0.0, 0.0],
         r"^superposition coefficients with sqrt\(\|a\|\^2 \+ \|b\|\^2\) = 1e-100 "
         r"lie outside \[1\.22e-72, 2\.06e\+76\]: the squared norms would leave the "
         r"double range$"),
    ])
    def test_array_with_one_bad_pair_is_rejected(self, a, b, message):
        with pytest.raises(ValueError, match=message):
            Coefficients(np.array(a), np.array(b))
        i = 1  # the same message for that pair alone
        with pytest.raises(ValueError, match=message):
            Coefficients(a[i], b[i])

    @pytest.mark.parametrize("a, b", [
        (1e-72, 0.0), (8e-73, 8e-73), (1e-100, 1e-100), (1e-200, 0.0), (5e-324, 0.0),
        (1.5e76, 1.5e76), (0.0, 3e76j), (1e80, 0.0), (1e200, 0.0), (1e308, 1e308j),
    ])
    def test_rejects_weights_outside_the_range(self, a, b):
        with pytest.raises(ValueError, match=r"sqrt\(\|a\|\^2 \+ \|b\|\^2\) = .* lie outside"):
            Coefficients(a, b)

    def test_array_norms_at_the_ends_of_the_range(self):
        low, high = _WEIGHT_NORM_RANGE
        Coefficients(np.array([low, high, 0.0, 0.0]), np.array([0.0, 0.0, low * 1j, -high]))
        outside = r"sqrt\(\|a\|\^2 \+ \|b\|\^2\) = {} lie outside"
        for weight, shown in ((math.nextafter(low, 0.0), "1.22134e-72"),
                              (math.nextafter(high, math.inf), "2.05911e\\+76"),
                              (1e300j, "1e\\+300")):
            with pytest.raises(ValueError, match=outside.format(shown)):
                Coefficients(np.array([0.6, weight]), np.array([0.8, 0.0]))
        with pytest.raises(ValueError, match=outside.format("inf")):  # no overflow warning
            Coefficients(np.array([0.6, 1.5e308]), np.array([0.8, 1.5e308j]))

    def test_array_weights_compare_and_hash_by_identity(self):
        weights = np.array([0.6, 1.0]), np.array([0.8, 0.0])
        coeffs, same_values = Coefficients(*weights), Coefficients(*weights)
        assert coeffs == coeffs and coeffs != same_values  # no ValueError
        assert {coeffs: 1, same_values: 2}[coeffs] == 1  # hashable
        assert Coefficients(1.0, 0.0) != Coefficients(1.0, 0.0)


class TestChoiceTables:
    def test_choice_i_at_zero_sweep(self):
        table = build_table(choice_overlaps("i", 0.0))
        assert table.overlap(PSI, PHI) == 0.0
        assert table.overlap(PSI, CHI) == 0.0
        assert table.overlap(PHI, VARPHI) == 0.0
        assert table.overlap(PHI, CHI) == 0.0
        assert table.overlap(VARPHI, CHI) == 0.9

    @pytest.mark.parametrize("c", [0.0, 0.25, 0.5, 1.0])
    def test_choice_ii_phi_chi_chain(self, c):
        table = build_table(choice_overlaps("ii", c))
        assert table.overlap(PHI, CHI) == pytest.approx(0.72 * c, rel=1e-12)

    def test_one_recoil_diagonal_is_alpha0(self):
        for name in CHOICES:
            table = build_table(choice_overlaps(name, 0.3))
            assert table.overlap(PSI.star(), PSI) == 0.9

    def test_one_recoil_cross_entry(self):
        c = 0.4
        table = build_table(choice_overlaps("i", c))
        assert table.overlap(PSI.star(), PHI) == pytest.approx(0.9 * c, abs=1e-15)
        # mirror orientation conjugates
        assert table.overlap(PHI, PSI.star()) == table.overlap(PSI.star(), PHI).conjugate()

    def test_two_recoil_entry_and_unit_starred_diagonal(self):
        c = 0.4
        model = RecoilModel()
        table = build_table(choice_overlaps("i", c), model)
        alpha = _alpha_pair(model, c)
        assert table.overlap(PSI.star(), PHI.star()) == pytest.approx(alpha * alpha * c, abs=1e-15)
        assert table.overlap(PSI.star(), PSI.star()) == 1.0

    def test_product_reference_entries(self):
        # the product reference |psi>|phi> needs no labels of its own
        table = build_table(choice_overlaps("iv", 0.2), RecoilModel(0.7))
        assert table.overlap(PSI.star(), PSI) == 0.7
        assert table.overlap(PHI.star(), PHI) == 0.7
        labels = {label for pair in table._entries for label in pair}
        assert sorted(labels) == sorted(BARE + tuple(x.star() for x in BARE))

    @pytest.mark.parametrize("name", PRESETS)
    def test_chain_relations_hold(self, name):
        for c in np.linspace(0.0, 1.0, 21):
            table = build_table(choice_overlaps(name, float(c)))
            assert abs(
                table.overlap(PSI, CHI)
                - table.overlap(PSI, VARPHI) * table.overlap(VARPHI, CHI)
            ) <= 1e-15
            assert abs(
                table.overlap(PHI, VARPHI)
                - table.overlap(PHI, PSI) * table.overlap(PSI, VARPHI)
            ) <= 1e-15
            assert abs(
                table.overlap(PHI, CHI)
                - table.overlap(PHI, VARPHI) * table.overlap(VARPHI, CHI)
            ) <= 1e-15

    @pytest.mark.parametrize("name", CHOICES)
    def test_gram_realizable_over_full_sweep(self, name):
        for c in np.linspace(0.0, 1.0, 21):
            min_eigenvalue = min_gram_eigenvalue(build_table(choice_overlaps(name, float(c))))
            assert min_eigenvalue >= -1e-12, (name, c, min_eigenvalue)

    def test_choice_i_midpoint_gram_example(self):
        table = build_table(choice_overlaps("i", 0.5))
        assert min_gram_eigenvalue(table) >= -1e-12

    @pytest.mark.parametrize("name", ["i", "family"])
    @pytest.mark.parametrize("c", [-0.1, 1.1, np.array([0.5, 1.1]), np.array([0.2, np.nan])])
    def test_rejects_sweep_out_of_range(self, name, c):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            choice_overlaps(name, c)

    @pytest.mark.parametrize("c, first_bad", [
        (np.linspace(0.5, 3, 12), "1.1818181818181817"),
        (np.array([0.2, np.nan, 1.5]), "nan"),
        (-0.25, "-0.25"),
    ])
    @pytest.mark.parametrize("name", ["i", "family"])
    def test_out_of_range_message_names_the_first_bad_value(self, name, c, first_bad):
        with pytest.raises(ValueError) as info:
            choice_overlaps(name, c)
        assert str(info.value) == f"sweep value must lie in [0, 1], got {first_bad}"

    def test_unknown_choice(self):
        with pytest.raises(ValueError) as info:
            choice_overlaps("v", 0.3)
        assert str(info.value) == ("unknown choice 'v'; expected one of "
                                   "('i', 'ii', 'iii', 'iv', 'family')")


ALL_LABELS = BARE + tuple(label.star() for label in BARE)


def entry_bits(table):
    """Every entry and mirror of a table over all eight labels, as bytes."""
    return {(x, y): np.asarray(table.overlap(x, y)).tobytes()
            for x in ALL_LABELS for y in ALL_LABELS}


class TestBuildTable:
    def test_requires_all_pairs(self):
        with pytest.raises(ValueError, match=r"^missing bare overlap for <psi\|varphi>$"):
            build_table({(PSI, PHI): 0.5})
        with pytest.raises(ValueError, match=r"^missing bare overlap for <varphi\|chi>$"):
            build_table({pair: 0.1 for pair in ALL_PAIRS[:-1]} | {(CHI, CHI): 1.0})

    def test_accepts_either_orientation(self):
        overlaps = {pair: 0.1 for pair in ALL_PAIRS[1:]}
        overlaps[(PHI, PSI)] = 0.2 + 0.1j
        table = build_table(overlaps)
        assert table.overlap(PSI, PHI) == 0.2 - 0.1j

    def test_accepts_both_orientations_and_a_unit_diagonal(self):
        overlaps = dict(zip(ALL_PAIRS, (0.1, 0.2 - 0.3j, np.array([0.4j, -0.5]), 0.6, 0.7, 0.8)))
        mirrors = {(y, x): np.conj(value) for (x, y), value in overlaps.items()}
        diagonal = {(x, x): 1.0 for x in BARE}
        given = build_table(overlaps | mirrors | diagonal)
        assert entry_bits(given) == entry_bits(build_table(overlaps))

    @pytest.mark.parametrize("extra, message", [
        ({(PHI, PSI): 0.9}, r"^entries for <phi\|psi> and <psi\|phi> are not conjugates$"),
        ({(PHI, PSI): np.array([0.1, 0.2])}, r"are not conjugates"),
        ({(PSI, PSI): 0.5}, r"^diagonal entry <psi\|psi> must equal 1, got 0\.5$"),
        ({(CHI, CHI): np.array([1.0, 0.5])}, r"^diagonal entry <chi\|chi> must equal 1"),
        ({(PSI.star(), PHI): 0.09}, r"^bare overlap <psi\*\|phi> is not between two of "
                                    r"psi, phi, varphi, chi$"),
        ({(PHI, PHI.star()): 0.9}, r"^bare overlap <phi\|phi\*> is not between"),
        ({(PSI, CmLabel("zeta")): 0.1}, r"^bare overlap <psi\|zeta> is not between"),
        ({("psi", "phi"): 0.1}, r"^bare overlap <psi\|phi> is not between"),
    ])
    def test_rejects_contradicting_or_foreign_entries(self, extra, message):
        with pytest.raises(ValueError, match=message):
            build_table({pair: 0.1 for pair in ALL_PAIRS} | extra)

    def test_reads_the_given_overlaps_without_a_table_of_them(self, monkeypatch):
        built = []

        class CountedTable(OverlapTable):
            def __init__(self, entries):
                built.append(list(entries))
                super().__init__(entries)

        monkeypatch.setattr(scenarios, "OverlapTable", CountedTable)
        reversed_pairs = {(y, x): complex(0.1, k) / 10 for k, (x, y) in enumerate(ALL_PAIRS)}
        table = build_table(reversed_pairs)
        assert len(built) == 1 and built[0][:6] == list(ALL_PAIRS)  # canonical orientation
        for (y, x), value in reversed_pairs.items():
            assert repr(table.overlap(x, y)) == repr(value.conjugate())
            assert repr(table.overlap(y, x)) == repr(value)

    @given(st.sets(st.sampled_from(ALL_PAIRS)), st.lists(
        st.one_of(st.complex_numbers(max_magnitude=1.0),
                  arrays(complex, 3, elements=st.complex_numbers(max_magnitude=1.0))),
        min_size=6, max_size=6), st.floats(1e-3, 1.0))
    def test_other_orientation_gives_the_same_bits(self, flipped, values, alpha0):
        canonical = dict(zip(ALL_PAIRS, values))
        other = {(pair[::-1] if pair in flipped else pair):
                 (np.conj(value) if pair in flipped else value)
                 for pair, value in canonical.items()}
        model = RecoilModel(alpha0)
        assert entry_bits(build_table(other, model)) == entry_bits(build_table(canonical, model))


class TestExclusionFamily:
    def test_array_fields_are_read_only(self):
        fam = ExclusionFamily.equal_weight(np.array([0.2, 0.6]))
        assert all(not getattr(fam, attr).flags.writeable for attr in "cdgh")
        with pytest.raises(ValueError, match=r"^family coefficients \(c, d\) violate "
                           r"\|u\|\^2 \+ \|v\|\^2 = 1: got 1.25$"):
            ExclusionFamily.equal_weight(np.array([0.6, 0.5]), np.array([0.8, 1.0]))

    def test_phi_equals_psi_when_c_is_one(self):
        fam = ExclusionFamily(c=1.0, d=0.0, e=1.0, f=0.0, g=0.0, h=1.0)
        table = build_table(fam.overlaps)
        assert table.overlap(PSI, PHI) == 1.0

    def test_equal_weight_components_align(self):
        fam = ExclusionFamily(
            c=ROOT2_INV, d=ROOT2_INV, e=ROOT2_INV, f=ROOT2_INV, g=ROOT2_INV, h=ROOT2_INV
        )
        table = build_table(fam.overlaps)
        assert table.overlap(VARPHI, CHI) == pytest.approx(1.0, abs=1e-15)

    def test_orthogonal_component_pairing(self):
        fam = ExclusionFamily(c=0.0, d=1.0, e=0.0, f=1.0, g=1.0, h=0.0)
        table = build_table(fam.overlaps)
        assert table.overlap(PHI, VARPHI) == 1.0
        assert table.overlap(PSI, PHI) == 0.0

    def test_real_family_reproduces_exact_values(self):
        fam = ExclusionFamily.equal_weight(0.6)
        table = build_table(fam.overlaps)
        assert table.overlap(PSI, PHI) == 0.6
        assert table.overlap(PHI, PHI) == 1.0

    @pytest.mark.parametrize("c", [math.nan, math.inf, np.array([0.6, np.nan])])
    def test_rejects_non_finite_coefficients(self, c):
        with pytest.raises(ValueError, match=r"^family coefficients \(c, d\) must be finite$"):
            ExclusionFamily(c=c, d=0.8, e=1.0, f=0.0, g=1.0, h=0.0)

    def test_rejects_unnormalized_coefficients(self):
        with pytest.raises(ValueError, match="violate"):
            ExclusionFamily(c=0.9, d=0.9, e=1.0, f=0.0, g=1.0, h=0.0)
        with pytest.raises(ValueError, match="violate.*got 1.62"):
            ExclusionFamily(c=np.array([0.6, 0.9]), d=np.array([0.8, 0.9]),
                            e=1.0, f=0.0, g=1.0, h=0.0)

    def test_grid_family_holds_each_member(self):
        grid = np.linspace(0.0, 1.0, 11)
        fam = ExclusionFamily.equal_weight(grid)
        table = build_table(fam.overlaps)
        named, own = choice_overlaps("family", grid), fam.overlaps
        assert list(named) == list(own)
        for pair, value in own.items():  # the same bits, signed zeros included
            assert type(named[pair]) is type(value)
            assert np.asarray(named[pair]).tobytes() == np.asarray(value).tobytes()
        coeffs = Coefficients(0.6, 0.8)
        for i, c in enumerate(grid.tolist()):
            point = ExclusionFamily.equal_weight(c)
            assert (fam.d[i], fam.g[i], fam.h[i]) == (point.d, point.g, point.h)
            assert family_exclusion_coefficient(coeffs, fam)[i] == (
                family_exclusion_coefficient(coeffs, point)
            )
            point_table = build_table(point.overlaps)
            for x, y in ALL_PAIRS:
                for pair in ((x, y), (x.star(), y), (x.star(), y.star())):
                    # <psi|varphi> = e is the same for every member, so a scalar entry
                    entry = np.broadcast_to(table.overlap(*pair), grid.shape)
                    assert entry[i] == point_table.overlap(*pair)

    def test_equal_weight_closure(self):
        c = 0.28
        fam = ExclusionFamily.equal_weight(c)
        d = math.sqrt(1.0 - c * c)
        assert fam.d == pytest.approx(d, abs=1e-15)
        assert fam.g == pytest.approx((c + d) * ROOT2_INV, abs=1e-15)
        assert fam.h == pytest.approx((c - d) * ROOT2_INV, abs=1e-15)

    def test_equal_weight_explicit_branch(self):
        fam = ExclusionFamily.equal_weight(0.6, d=-0.8)
        assert fam.d == -0.8


class TestFamilyExclusionCoefficient:
    def test_without_superposition_reduces_to_pauli_condition(self):
        fam = ExclusionFamily.equal_weight(0.3)
        coeffs = Coefficients(0.7, 0.0)
        value = family_exclusion_coefficient(coeffs, fam)
        assert value == pytest.approx(0.7 * fam.d, abs=1e-15)
        degenerate = ExclusionFamily.equal_weight(1.0)  # d = 0, phi = psi
        assert family_exclusion_coefficient(coeffs, degenerate) == pytest.approx(0.0, abs=1e-15)

    def test_equal_weight_family_gives_d_times_a_minus_b(self):
        fam = ExclusionFamily.equal_weight(0.5)
        for a, b in ((0.9, 0.2), (0.3 + 0.1j, 0.4 - 0.2j)):
            coeffs = Coefficients(a, b)
            expected = fam.d * (coeffs.a - coeffs.b)
            assert family_exclusion_coefficient(coeffs, fam) == pytest.approx(
                expected, abs=1e-14
            )

    def test_vanishes_identically_when_d_is_zero(self):
        fam = ExclusionFamily.equal_weight(1.0)
        for a, b in ((1.0, 0.0), (0.3, 0.8), (0.5j, 0.2)):
            assert abs(family_exclusion_coefficient(Coefficients(a, b), fam)) < 1e-15

    def test_linear_in_coefficients(self):
        fam = ExclusionFamily.equal_weight(0.4)
        f = lambda a, b: family_exclusion_coefficient(Coefficients(a, b), fam)
        a1, b1, a2, b2 = 0.3 + 0.2j, 0.5, -0.1, 0.7 - 0.4j
        assert f(a1 + a2, b1 + b2) == pytest.approx(f(a1, b1) + f(a2, b2), abs=1e-14)
        assert f(2.5 * a1, 2.5 * b1) == pytest.approx(2.5 * f(a1, b1), abs=1e-14)


class TestRandomRealizableOverlaps:
    def test_six_bare_overlaps_from_one_draw(self):
        rng, again = np.random.default_rng(7), np.random.default_rng(7)
        overlaps = random_realizable_overlaps(rng)
        assert list(overlaps) == list(ALL_PAIRS)
        assert all(type(v) is float for v in overlaps.values())
        again.normal(size=(4, 4))
        assert rng.normal() == again.normal()  # one normal(4, 4) draw and nothing more

    def test_values_are_pinned(self):
        overlaps = random_realizable_overlaps(np.random.default_rng(2026))
        assert [repr(v) for v in overlaps.values()] == [
            "0.21296921032902602", "-0.2058520638678731", "-0.704438204700276",
            "-0.2201568751404073", "-0.47531141004504024", "-0.2671592164061772",
        ]

    def test_tables_pass_gram_check(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            table = build_table(random_realizable_overlaps(rng))
            assert min_gram_eigenvalue(table) >= -1e-12

    def test_entries_within_unit_disk(self):
        rng = np.random.default_rng(5)
        table = build_table(random_realizable_overlaps(rng))
        for x, y in ALL_PAIRS:
            assert abs(table.overlap(x, y)) <= 1.0


class TestRealizableOverlaps:
    def test_all_pairs_keep_their_canonical_order(self):
        assert ALL_PAIRS == ((PSI, PHI), (PSI, VARPHI), (PSI, CHI),
                             (PHI, VARPHI), (PHI, CHI), (VARPHI, CHI))

    @pytest.mark.parametrize("shape", [(), (5,), (2, 3)])
    def test_each_stack_equals_its_one_draw_value(self, shape):
        vectors = np.random.default_rng(9).normal(size=(*shape, 4, 4))
        stacked = realizable_overlaps(vectors)
        assert list(stacked) == list(ALL_PAIRS)
        assert all(values.shape == shape for values in stacked.values())
        rng = np.random.default_rng(9)
        for index in np.ndindex(shape):  # the stacks in the order of the draw
            one_draw = random_realizable_overlaps(rng)
            one_stack = realizable_overlaps(vectors[index])
            for pair, values in stacked.items():
                assert values[index].tolist() == one_stack[pair].tolist() == one_draw[pair]

    @pytest.mark.parametrize("shape", [(3, 3, 4), (3, 5, 4), (3, 4, 3), (4,)])
    def test_rejects_a_stack_not_of_four_by_four(self, shape):
        with pytest.raises(ValueError, match=r"shape \(\.\.\., 4, 4\), got \(" + str(shape[0])):
            realizable_overlaps(np.ones(shape))

    def test_rejects_complex_vectors(self):
        # their imaginary parts would be dropped, not used
        with pytest.raises(ValueError, match="must be real"):
            realizable_overlaps(np.eye(4) * 1j)

    def test_takes_nested_lists(self):
        assert realizable_overlaps(np.eye(4).tolist()) == realizable_overlaps(np.eye(4))

    @pytest.mark.parametrize("entry", [0.0, 1e-160, math.nan, math.inf, -math.inf, 1e300])
    def test_rejects_a_vector_of_zero_tiny_or_non_finite_norm(self, entry):
        # a norm whose square is subnormal has lost digits, and the Gram
        # matrix of the normalized vectors would no longer be realizable
        vectors = np.random.default_rng(1).normal(size=(3, 4, 4))
        vectors[1, 2] = [entry, 0.0, 0.0, 0.0]
        with pytest.raises(ValueError, match="vector norm"):
            realizable_overlaps(vectors)

    def test_accepts_the_smallest_norm_with_a_normal_square(self):
        vectors = np.eye(4) * math.sqrt(sys.float_info.min)
        assert all(v == 0.0 for v in realizable_overlaps(vectors).values())

    @given(arrays(float, st.tuples(st.integers(1, 3), st.just(4), st.just(4)),
                  elements=st.floats(-1e6, 1e6)))
    def test_tables_from_any_stack_pass_gram_check(self, vectors):
        try:
            stacked = realizable_overlaps(vectors)
        except ValueError:  # only a vector too short to normalize is refused
            assert np.any(np.linalg.norm(vectors, axis=-1) < 1.5e-154)
            return
        for index in range(len(vectors)):
            table = build_table({pair: values[index] for pair, values in stacked.items()})
            assert min_gram_eigenvalue(table) >= -1e-12
