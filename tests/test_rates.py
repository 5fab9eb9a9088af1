"""Tests for the closed-form norms, matrix elements, and exclusion detection."""

import math

import numpy as np
import pytest

from pairabs.algebra import CHI, ETA, MU, PHI, PSI, VARPHI, Statistics
from pairabs.rates import (
    ExcludedStateError,
    _complex_over_real,
    exclusion_check,
    exclusion_mask,
    final_norm_sq,
    initial_norm_sq,
    matrix_element,
    matrix_element_product,
    relative_rate,
    relative_rate_grid,
)
from pairabs.scenarios import (
    ALL_PAIRS,
    Coefficients,
    ExclusionFamily,
    RecoilModel,
    ScenarioSpec,
    alpha_pair,
    build_choice_table,
    build_family_table,
    build_table,
    family_exclusion_coefficient,
)
from pairabs.scenarios import CHOICES

BOSON = Statistics.BOSON
FERMION = Statistics.FERMION
A_ONLY = Coefficients(1.0, 0.0)
ROOT2 = math.sqrt(2.0)


def orthogonal_table(model=RecoilModel()):
    return build_table({pair: 0.0 for pair in ALL_PAIRS}, model)


def choice_table(name, c, model=RecoilModel()):
    return build_choice_table(ScenarioSpec.for_choice(name), c, model)


class TestInitialNormSq:
    def test_orthogonal_states(self):
        assert initial_norm_sq(A_ONLY, orthogonal_table(), BOSON) == 2.0
        assert initial_norm_sq(A_ONLY, orthogonal_table(), FERMION) == 2.0

    @pytest.mark.parametrize("c", [0.0, 0.3, 0.8])
    def test_single_component_boson(self, c):
        table = choice_table("i", c)
        assert initial_norm_sq(A_ONLY, table, BOSON) == pytest.approx(
            2.0 + 2.0 * c * c, rel=1e-14
        )

    def test_pauli_pair_has_zero_norm(self):
        table = choice_table("i", 1.0)
        assert initial_norm_sq(A_ONLY, table, FERMION) == pytest.approx(0.0, abs=1e-14)


class TestFinalNormSq:
    def test_orthogonal_states(self):
        assert final_norm_sq(A_ONLY, orthogonal_table(), BOSON) == 4.0

    @pytest.mark.parametrize("c", [0.0, 0.5, 1.0])
    def test_single_component_boson_with_recoil(self, c):
        table = choice_table("i", c)
        alpha = alpha_pair(RecoilModel(), c)
        assert final_norm_sq(A_ONLY, table, BOSON) == pytest.approx(
            4.0 * (1.0 + alpha * alpha * c * c), rel=1e-13
        )

    def test_balanced_weights_orthogonal_components(self):
        coeffs = Coefficients(1.0 / ROOT2, 1.0 / ROOT2)
        assert final_norm_sq(coeffs, orthogonal_table(), FERMION) == pytest.approx(
            4.0, abs=1e-15
        )


class TestMatrixElement:
    def test_orthogonal_states(self):
        value = matrix_element(A_ONLY, orthogonal_table(), BOSON)
        assert value == pytest.approx(ROOT2 * 0.9, abs=1e-12)

    def test_choice_i_boson_midpoint(self):
        value = matrix_element(A_ONLY, choice_table("i", 0.5), BOSON)
        alpha = 0.9 + 0.1 * 0.5
        expected = ROOT2 * 0.9 * math.sqrt(1.25) / math.sqrt(1.0 + alpha * alpha * 0.25)
        assert value == pytest.approx(expected, abs=1e-12)
        assert value == pytest.approx(1.2853864228284975, abs=1e-12)

    def test_pauli_pair_raises(self):
        with pytest.raises(ExcludedStateError):
            matrix_element(A_ONLY, choice_table("i", 1.0), FERMION)

    def test_perturbing_unused_component_changes_nothing(self):
        # with b = 0 the second-component brackets must be exactly irrelevant
        base = {pair: 0.0 for pair in ALL_PAIRS}
        base[(PSI, PHI)] = 0.6
        perturbed = dict(base)
        perturbed[(VARPHI, CHI)] = 0.37
        perturbed[(PSI, VARPHI)] = 0.11
        for statistics in (BOSON, FERMION):
            t0, t1 = build_table(base), build_table(perturbed)
            assert initial_norm_sq(A_ONLY, t0, statistics) == initial_norm_sq(
                A_ONLY, t1, statistics
            )
            assert matrix_element(A_ONLY, t0, statistics) == matrix_element(
                A_ONLY, t1, statistics
            )

    def test_global_phase_invariance(self):
        table = choice_table("ii", 0.4)
        coeffs = Coefficients(0.8, 0.6)
        phase = complex(math.cos(0.7), math.sin(0.7))
        rotated = Coefficients(coeffs.a * phase, coeffs.b * phase)
        for statistics in (BOSON, FERMION):
            assert abs(matrix_element(rotated, table, statistics)) == pytest.approx(
                abs(matrix_element(coeffs, table, statistics)), abs=1e-12
            )


class TestMatrixElementProduct:
    @pytest.mark.parametrize(
        "alpha0, expected",
        [(0.9, 1.2727922061357857), (1.0, ROOT2), (0.5, 0.7071067811865476)],
    )
    def test_reference_amplitude(self, alpha0, expected):
        table = orthogonal_table(RecoilModel(alpha0))
        assert matrix_element_product(ETA, MU, table) == pytest.approx(expected, abs=1e-12)

    def test_missing_reference_entries_raise(self):
        from pairabs.algebra import MissingOverlapError, OverlapTable

        with pytest.raises(MissingOverlapError):
            matrix_element_product(ETA, MU, OverlapTable({}))


class TestRelativeRate:
    def test_orthogonal_states_behave_as_product(self):
        result = relative_rate(A_ONLY, orthogonal_table(), BOSON)
        assert result.r == pytest.approx(1.0, abs=1e-12)
        assert not result.excluded
        assert result.n0 == pytest.approx(1.0 / ROOT2, abs=1e-15)
        assert result.nf == pytest.approx(0.5, abs=1e-15)

    def test_choice_i_single_component_closed_forms(self):
        for c in np.linspace(0.0, 1.0, 11):
            c = float(c)
            alpha = 0.9 + 0.1 * c
            table = choice_table("i", c)
            boson = relative_rate(A_ONLY, table, BOSON)
            assert boson.r == pytest.approx(
                (1.0 + c * c) / (1.0 + alpha * alpha * c * c), abs=1e-12
            )
            fermion = relative_rate(A_ONLY, table, FERMION)
            if c == 1.0:
                assert fermion.excluded
            else:
                assert fermion.r == pytest.approx(
                    (1.0 - c * c) / (1.0 - alpha * alpha * c * c), abs=1e-12
                )

    def test_spot_values_at_midpoint(self):
        table = choice_table("i", 0.5)
        assert relative_rate(A_ONLY, table, BOSON).r == pytest.approx(1.0199, abs=5e-4)
        assert relative_rate(A_ONLY, table, FERMION).r == pytest.approx(0.9685, abs=5e-4)

    def test_excluded_result_fields(self):
        result = relative_rate(A_ONLY, choice_table("i", 1.0), FERMION)
        assert result.excluded
        assert math.isnan(result.r) and math.isnan(result.n0)
        assert math.isnan(result.m.real)
        # the reference amplitude is still defined
        assert abs(result.m_pro) == pytest.approx(ROOT2 * 0.9, abs=1e-12)

    def test_rate_is_amplitude_ratio_when_defined(self):
        table = choice_table("iii", 0.35)
        coeffs = Coefficients(0.8, 0.2 + 0.3j)
        for statistics in (BOSON, FERMION):
            res = relative_rate(coeffs, table, statistics)
            assert res.r == pytest.approx(
                abs(res.m) ** 2 / abs(res.m_pro) ** 2, abs=1e-12
            )

    def test_zero_overlap_statistics_coincide(self):
        table = orthogonal_table()
        for coeffs in (A_ONLY, Coefficients(0.8, 0.6), Coefficients(0.6j, 0.8)):
            boson = relative_rate(coeffs, table, BOSON)
            fermion = relative_rate(coeffs, table, FERMION)
            assert boson.r == pytest.approx(fermion.r, abs=1e-12)
            assert boson.r == pytest.approx(1.0, abs=1e-12)

    def test_boson_interior_maximum_for_choice_i(self):
        r_mid = relative_rate(A_ONLY, choice_table("i", 0.5), BOSON).r
        r_lo = relative_rate(A_ONLY, choice_table("i", 0.0), BOSON).r
        r_hi = relative_rate(A_ONLY, choice_table("i", 1.0), BOSON).r
        assert r_mid > 1.0
        assert r_lo == pytest.approx(1.0, abs=1e-12)
        assert r_hi == pytest.approx(1.0, abs=1e-12)

    def test_superposition_splits_statistics_at_zero_sweep(self):
        # with b != 0 the second component keeps a finite overlap at c = 0,
        # so exchange effects survive even there
        table = choice_table("i", 0.0)
        coeffs = Coefficients(0.8, 0.6)
        r_boson = relative_rate(coeffs, table, BOSON).r
        r_fermion = relative_rate(coeffs, table, FERMION).r
        assert abs(r_boson - r_fermion) > 1e-3


class TestExclusionCheck:
    def test_pauli_pair(self):
        table = choice_table("i", 1.0)
        assert exclusion_check(A_ONLY, table, FERMION)
        assert not exclusion_check(A_ONLY, table, BOSON)

    def test_family_equal_weights(self):
        fam = ExclusionFamily.equal_weight(0.5)
        table = build_family_table(fam)
        coeffs = Coefficients(1.0 / ROOT2, 1.0 / ROOT2)
        assert exclusion_check(coeffs, table, FERMION)

    def test_biconditional_against_formula_on_grid(self):
        for a in np.linspace(0.0, 1.0, 11):
            a = float(a)
            coeffs = Coefficients(a, math.sqrt(1.0 - a * a)) if a < 1.0 else A_ONLY
            for c in np.linspace(0.0, 1.0, 11):
                fam = ExclusionFamily.equal_weight(float(c))
                table = build_family_table(fam)
                by_norm = exclusion_check(coeffs, table, FERMION)
                by_formula = abs(family_exclusion_coefficient(coeffs, fam)) < 1e-10
                assert by_norm == by_formula, (a, c)


GRID_101 = np.linspace(0.0, 1.0, 101)
GRID_WEIGHTS = (
    A_ONLY,
    Coefficients(0.8, 0.6),
    Coefficients(0.3 + 0.4j, -0.5 + 0.2j),
    Coefficients(1.0 / ROOT2, 1.0 / ROOT2),
)


def scenario_table(name, c, model=RecoilModel()):
    if name == "family":
        return build_family_table(ExclusionFamily.equal_weight(c), model)
    return choice_table(name, c, model)


def assert_same_doubles(got, want):
    """Equal bit for bit, sign of zero included; any NaN matches any NaN."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    for g, w in ((got.real, want.real), (got.imag, want.imag)):
        nan = np.isnan(w)
        np.testing.assert_array_equal(np.isnan(g), nan)
        np.testing.assert_array_equal(g[~nan].view(np.uint64), w[~nan].view(np.uint64))


class TestRelativeRateGrid:
    """The grid evaluation against the per-point loop it replaces."""

    @pytest.mark.parametrize("statistics", [BOSON, FERMION])
    @pytest.mark.parametrize("name", CHOICES + ("family",))
    def test_equals_per_point_relative_rate(self, name, statistics):
        for model in (RecoilModel(), RecoilModel(0.37)):
            grid_table = scenario_table(name, GRID_101, model)
            tables = [scenario_table(name, float(c), model) for c in GRID_101]
            for coeffs in GRID_WEIGHTS:
                grid = relative_rate_grid(coeffs, grid_table, statistics)
                points = [relative_rate(coeffs, t, statistics) for t in tables]
                for field in ("n0", "nf", "m", "r"):
                    assert_same_doubles(getattr(grid, field), [getattr(p, field) for p in points])
                assert grid.excluded.tolist() == [p.excluded for p in points]
                assert all(p.m_pro == grid.m_pro for p in points)
                mask = exclusion_mask(coeffs, grid_table, statistics)
                assert mask.tolist() == [exclusion_check(coeffs, t, statistics) for t in tables]

    @pytest.mark.parametrize("z", [
        complex(re, im) for re in (-0.0, 0.0, -1.5, 2.0) for im in (-0.0, 0.0, -3.0, 0.7)
    ])
    def test_division_rounds_as_cpython(self, z):
        divisors = [1.0, 3.0, 0.1, 7e-3]
        got = _complex_over_real(np.full(len(divisors), z), np.array(divisors))
        assert_same_doubles(got, [z / d for d in divisors])

    def test_excluded_points_are_masked_without_warnings(self):
        coeffs = Coefficients(1.0 / ROOT2, 1.0 / ROOT2)  # the family's null direction
        res = relative_rate_grid(coeffs, scenario_table("family", GRID_101), FERMION)
        assert res.excluded.all()
        assert np.isnan(res.r).all() and np.isnan(res.n0).all() and np.isnan(res.m).all()

    def test_complex_overlaps_agree_to_rounding(self):
        # numpy's vectorized complex multiply may round differently from
        # CPython's, so complex grid overlaps agree to a few ulp, not bit for bit.
        rng = np.random.default_rng(3)
        phases = {pair: np.exp(1j * rng.uniform(0, 2 * np.pi)) for pair in ALL_PAIRS}
        grid = np.linspace(0.0, 0.6, 31)
        grid_table = build_table({pair: grid * phases[pair] for pair in ALL_PAIRS})
        coeffs = Coefficients(0.3 + 0.4j, -0.5 + 0.2j)
        for statistics in (BOSON, FERMION):
            res = relative_rate_grid(coeffs, grid_table, statistics)
            for i, c in enumerate(grid.tolist()):
                point = relative_rate(
                    coeffs, build_table({pair: c * phases[pair] for pair in ALL_PAIRS}),
                    statistics,
                )
                assert not point.excluded and not res.excluded[i]
                for field in ("n0", "nf", "m", "r"):
                    assert getattr(res, field)[i] == pytest.approx(
                        getattr(point, field), rel=64 * np.finfo(float).eps
                    )
