"""Tests for the closed-form norms, matrix elements, and exclusion detection."""

import hashlib
import math
import sys
from dataclasses import fields

import numpy as np
import pytest

from pairabs.algebra import CHI, PHI, PSI, VARPHI, Statistics, _over_real
from pairabs.rates import (
    EXCLUSION_EPS,
    ExcludedStateError,
    RateResult,
    _matrix_element_product,
    _null_floors,
    bracket_sum,
    exclusion_mask,
    final_norm_sq,
    initial_norm_sq,
    relative_rate_grid,
    require_not_null,
)
from pairabs.scenarios import (
    ALL_PAIRS,
    Coefficients,
    ExclusionFamily,
    RecoilModel,
    _alpha_pair,
    build_table,
    choice_overlaps,
    family_exclusion_coefficient,
    random_realizable_overlaps,
)
from pairabs.scenarios import CHOICES, _WEIGHT_NORM_RANGE

BOSON = Statistics.BOSON
FERMION = Statistics.FERMION
A_ONLY = Coefficients(1.0, 0.0)
ROOT2 = math.sqrt(2.0)


def orthogonal_table(model=RecoilModel()):
    return build_table({pair: 0.0 for pair in ALL_PAIRS}, model)


def choice_table(name, c, model=RecoilModel()):
    return build_table(choice_overlaps(name, c), model)


def amplitude(coeffs, table, statistics):
    """The normalized amplitude ``m``; raises :class:`ExcludedStateError` on a null state."""
    res = relative_rate_grid(coeffs, table, statistics)
    require_not_null(coeffs, res.n0_sq, res.nf_sq)
    return res.m


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
        alpha = _alpha_pair(RecoilModel(), c)
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
        value = amplitude(A_ONLY, orthogonal_table(), BOSON)
        assert value == pytest.approx(ROOT2 * 0.9, abs=1e-12)

    def test_choice_i_boson_midpoint(self):
        value = amplitude(A_ONLY, choice_table("i", 0.5), BOSON)
        alpha = 0.9 + 0.1 * 0.5
        expected = ROOT2 * 0.9 * math.sqrt(1.25) / math.sqrt(1.0 + alpha * alpha * 0.25)
        assert value == pytest.approx(expected, abs=1e-12)
        assert value == pytest.approx(1.2853864228284975, abs=1e-12)

    def test_pauli_pair_raises(self):
        with pytest.raises(ExcludedStateError):
            amplitude(A_ONLY, choice_table("i", 1.0), FERMION)

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
            assert amplitude(A_ONLY, t0, statistics) == amplitude(
                A_ONLY, t1, statistics
            )

    def test_global_phase_invariance(self):
        table = choice_table("ii", 0.4)
        coeffs = Coefficients(0.8, 0.6)
        phase = complex(math.cos(0.7), math.sin(0.7))
        rotated = Coefficients(coeffs.a * phase, coeffs.b * phase)
        for statistics in (BOSON, FERMION):
            assert abs(amplitude(rotated, table, statistics)) == pytest.approx(
                abs(amplitude(coeffs, table, statistics)), abs=1e-12
            )


class TestRequireNotNull:
    def test_floors_scale_with_the_weights(self):
        for coeffs, scale in ((A_ONLY, 1.0), (Coefficients(0.0, 4.0j), 16.0)):
            n0_floor, nf_floor = 2e-10 * scale, 4e-10 * scale
            require_not_null(coeffs, n0_floor, nf_floor)
            with pytest.raises(ExcludedStateError, match="initial state is null"):
                require_not_null(coeffs, math.nextafter(n0_floor, 0.0), nf_floor)
            with pytest.raises(ExcludedStateError, match="final superposition is null"):
                require_not_null(coeffs, n0_floor, math.nextafter(nf_floor, 0.0))

    def test_initial_verdict_comes_first(self):
        with pytest.raises(ExcludedStateError, match="initial state is null"):
            require_not_null(A_ONLY, 0.0, 0.0)


class TestMatrixElementProduct:
    @pytest.mark.parametrize(
        "alpha0, expected",
        [(0.9, 1.2727922061357857), (1.0, ROOT2), (0.5, 0.7071067811865476)],
    )
    def test_reference_amplitude(self, alpha0, expected):
        table = orthogonal_table(RecoilModel(alpha0))
        assert _matrix_element_product(table) == pytest.approx(expected, abs=1e-12)

    def test_missing_reference_entries_raise(self):
        from pairabs.algebra import MissingOverlapError, OverlapTable

        with pytest.raises(MissingOverlapError):
            _matrix_element_product(OverlapTable({}))


class TestRelativeRate:
    def test_orthogonal_states_behave_as_product(self):
        result = relative_rate_grid(A_ONLY, orthogonal_table(), BOSON)
        assert result.r == pytest.approx(1.0, abs=1e-12)
        assert not result.excluded
        assert result.n0 == pytest.approx(1.0 / ROOT2, abs=1e-15)
        assert result.nf == pytest.approx(0.5, abs=1e-15)

    def test_choice_i_single_component_closed_forms(self):
        for c in np.linspace(0.0, 1.0, 11):
            c = float(c)
            alpha = 0.9 + 0.1 * c
            table = choice_table("i", c)
            boson = relative_rate_grid(A_ONLY, table, BOSON)
            assert boson.r == pytest.approx(
                (1.0 + c * c) / (1.0 + alpha * alpha * c * c), abs=1e-12
            )
            fermion = relative_rate_grid(A_ONLY, table, FERMION)
            if c == 1.0:
                assert fermion.excluded
            else:
                assert fermion.r == pytest.approx(
                    (1.0 - c * c) / (1.0 - alpha * alpha * c * c), abs=1e-12
                )

    def test_spot_values_at_midpoint(self):
        table = choice_table("i", 0.5)
        assert relative_rate_grid(A_ONLY, table, BOSON).r == pytest.approx(1.0199, abs=5e-4)
        assert relative_rate_grid(A_ONLY, table, FERMION).r == pytest.approx(0.9685, abs=5e-4)

    def test_excluded_result_fields(self):
        result = relative_rate_grid(A_ONLY, choice_table("i", 1.0), FERMION)
        assert result.excluded
        assert math.isnan(result.r) and math.isnan(result.n0)
        assert math.isnan(result.m.real)
        # the reference amplitude is still defined
        assert abs(result.m_pro) == pytest.approx(ROOT2 * 0.9, abs=1e-12)

    def test_rate_is_amplitude_ratio_when_defined(self):
        table = choice_table("iii", 0.35)
        coeffs = Coefficients(0.8, 0.2 + 0.3j)
        for statistics in (BOSON, FERMION):
            res = relative_rate_grid(coeffs, table, statistics)
            assert res.r == pytest.approx(
                abs(res.m) ** 2 / abs(res.m_pro) ** 2, abs=1e-12
            )

    def test_zero_overlap_statistics_coincide(self):
        table = orthogonal_table()
        for coeffs in (A_ONLY, Coefficients(0.8, 0.6), Coefficients(0.6j, 0.8)):
            boson = relative_rate_grid(coeffs, table, BOSON)
            fermion = relative_rate_grid(coeffs, table, FERMION)
            assert boson.r == pytest.approx(fermion.r, abs=1e-12)
            assert boson.r == pytest.approx(1.0, abs=1e-12)

    def test_boson_interior_maximum_for_choice_i(self):
        r_mid = relative_rate_grid(A_ONLY, choice_table("i", 0.5), BOSON).r
        r_lo = relative_rate_grid(A_ONLY, choice_table("i", 0.0), BOSON).r
        r_hi = relative_rate_grid(A_ONLY, choice_table("i", 1.0), BOSON).r
        assert r_mid > 1.0
        assert r_lo == pytest.approx(1.0, abs=1e-12)
        assert r_hi == pytest.approx(1.0, abs=1e-12)

    def test_superposition_splits_statistics_at_zero_sweep(self):
        # with b != 0 the second component keeps a finite overlap at c = 0,
        # so exchange effects survive even there
        table = choice_table("i", 0.0)
        coeffs = Coefficients(0.8, 0.6)
        r_boson = relative_rate_grid(coeffs, table, BOSON).r
        r_fermion = relative_rate_grid(coeffs, table, FERMION).r
        assert abs(r_boson - r_fermion) > 1e-3


class TestExclusionCheck:
    def test_pauli_pair(self):
        table = choice_table("i", 1.0)
        assert exclusion_mask(A_ONLY, initial_norm_sq(A_ONLY, table, FERMION))
        assert not exclusion_mask(A_ONLY, initial_norm_sq(A_ONLY, table, BOSON))

    def test_family_equal_weights(self):
        fam = ExclusionFamily.equal_weight(0.5)
        table = build_table(fam.overlaps)
        coeffs = Coefficients(1.0 / ROOT2, 1.0 / ROOT2)
        assert exclusion_mask(coeffs, initial_norm_sq(coeffs, table, FERMION))

    def test_biconditional_against_formula_on_grid(self):
        for a in np.linspace(0.0, 1.0, 11):
            a = float(a)
            coeffs = Coefficients(a, math.sqrt(1.0 - a * a)) if a < 1.0 else A_ONLY
            for c in np.linspace(0.0, 1.0, 11):
                fam = ExclusionFamily.equal_weight(float(c))
                table = build_table(fam.overlaps)
                by_norm = exclusion_mask(coeffs, initial_norm_sq(coeffs, table, FERMION))
                coefficient = abs(family_exclusion_coefficient(coeffs, fam))
                by_formula = exclusion_mask(coeffs, 2.0 * coefficient * coefficient)
                assert by_norm == by_formula, (a, c)


class TestNullFloors:
    def test_floors_keep_the_bound_the_weight_range_assumes(self):
        # _WEIGHT_NORM_RANGE assumes n0^2 nf^2 >= 1e-20 (|a|^2 + |b|^2)^2 wherever
        # a point is not excluded; the floors made from EXCLUSION_EPS give that
        assert (EXCLUSION_EPS * 2.0) * (EXCLUSION_EPS * 4.0) >= 1e-20
        for coeffs in (A_ONLY, Coefficients(0.8, 0.6j), Coefficients(3e5, -2e5)):
            n0_floor, nf_floor = _null_floors(coeffs)
            weight_sq = abs(coeffs.a) ** 2 + abs(coeffs.b) ** 2
            assert n0_floor * nf_floor >= 1e-20 * weight_sq**2

    def test_floors_stay_normal_at_the_smallest_weights(self):
        n0_floor, nf_floor = _null_floors(Coefficients(_WEIGHT_NORM_RANGE[0], 0.0))
        assert n0_floor * nf_floor >= sys.float_info.min


GRID_101 = np.linspace(0.0, 1.0, 101)
GRID_WEIGHTS = (
    A_ONLY,
    Coefficients(0.8, 0.6),
    Coefficients(0.3 + 0.4j, -0.5 + 0.2j),
    Coefficients(1.0 / ROOT2, 1.0 / ROOT2),
)


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
    @pytest.mark.parametrize("name", CHOICES)
    def test_equals_per_point_relative_rate(self, name, statistics):
        for model in (RecoilModel(), RecoilModel(0.37)):
            grid_table = choice_table(name, GRID_101, model)
            tables = [choice_table(name, float(c), model) for c in GRID_101]
            for coeffs in GRID_WEIGHTS:
                grid = relative_rate_grid(coeffs, grid_table, statistics)
                points = [relative_rate_grid(coeffs, t, statistics) for t in tables]
                for field in ("n0", "nf", "m", "m_pro", "r"):
                    assert_same_doubles(getattr(grid, field), [getattr(p, field) for p in points])
                assert grid.excluded.tolist() == [p.excluded for p in points]
                mask = exclusion_mask(coeffs, initial_norm_sq(coeffs, grid_table, statistics))
                assert mask.tolist() == [
                    exclusion_mask(coeffs, initial_norm_sq(coeffs, t, statistics)) for t in tables
                ]

    @pytest.mark.parametrize("z", [
        complex(re, im) for re in (-0.0, 0.0, -1.5, 2.0) for im in (-0.0, 0.0, -3.0, 0.7)
    ])
    def test_division_divides_each_part(self, z):
        # a point and a grid alike, signed zeros included
        divisors = [1.0, 3.0, 0.1, 7e-3]
        expected = [complex(z.real / d, z.imag / d) for d in divisors]
        assert_same_doubles(_over_real(np.full(len(divisors), z), np.array(divisors)), expected)
        for d, want in zip(divisors, expected):
            got = _over_real(z, d)
            assert got.shape == () and repr(got.item()) == repr(want)

    @pytest.mark.parametrize("exponent", [-237, -100, 100, 252])
    def test_rate_does_not_depend_on_the_scale_of_the_weights(self, exponent):
        # 2**-237 and 2**252 lie near both ends of the accepted weight range
        # (see Coefficients); a power of two scales every quantity exactly
        scale = 2.0**exponent
        point_table = choice_table("ii", 0.3)
        for coeffs in GRID_WEIGHTS:
            scaled = Coefficients(scale * coeffs.a, scale * coeffs.b)
            for statistics in (BOSON, FERMION):
                for name in ("ii", "family"):
                    table = choice_table(name, GRID_101)
                    unit = relative_rate_grid(coeffs, table, statistics)
                    res = relative_rate_grid(scaled, table, statistics)
                    assert res.excluded.tolist() == unit.excluded.tolist()
                    assert_same_doubles(res.r, unit.r)
                    assert_same_doubles(res.m, unit.m)
                point = relative_rate_grid(scaled, point_table, statistics)
                unit_point = relative_rate_grid(coeffs, point_table, statistics)
                assert (point.r, point.m) == (unit_point.r, unit_point.m)

    def test_excluded_points_are_masked_without_warnings(self):
        coeffs = Coefficients(1.0 / ROOT2, 1.0 / ROOT2)  # the family's null direction
        res = relative_rate_grid(coeffs, choice_table("family", GRID_101), FERMION)
        assert res.excluded.all()
        assert np.isnan(res.r).all() and np.isnan(res.n0).all() and np.isnan(res.m).all()

    def test_a_point_gives_python_numbers_and_a_grid_arrays(self):
        types = {"n0": float, "nf": float, "m": complex, "m_pro": complex, "r": float,
                 "excluded": bool, "n0_sq": float, "nf_sq": float, "bracket": complex}
        assert set(types) == {field.name for field in fields(RateResult)}
        for coeffs, name, c in ((A_ONLY, "i", 0.5), (A_ONLY, "i", 1.0),
                                (Coefficients(1.0 / ROOT2, 1.0 / ROOT2), "family", 0.3),
                                (Coefficients(0.6 + 0.3j, -0.7j), "iv", 0.8)):
            for statistics in (BOSON, FERMION):
                res = relative_rate_grid(coeffs, choice_table(name, c), statistics)
                assert {f: type(getattr(res, f)) for f in types} == types
        # grid tables, array weights, and an alpha0 grid: every field has the grid's shape
        alpha0_grid = build_table({pair: np.full(7, 0.2) for pair in ALL_PAIRS},
                                  RecoilModel(np.linspace(0.5, 1.0, 7)))
        for coeffs, table, shape in (
            (A_ONLY, choice_table("family", GRID_101), (101,)),
            (Coefficients(np.linspace(0, 1, 5)[:, None], 0.5), choice_table("ii", GRID_101),
             (5, 101)),
            (Coefficients(np.array([1.0, 0.6]), 0.0), choice_table("i", 0.5), (2,)),
            (A_ONLY, alpha0_grid, (7,)),
        ):
            res = relative_rate_grid(coeffs, table, FERMION)
            for f in types:
                value = getattr(res, f)
                assert isinstance(value, np.ndarray) and value.shape == shape, f
            assert res.excluded.dtype == bool

    @pytest.mark.parametrize("stats", [(BOSON, FERMION), (FERMION,)])
    def test_a_tuple_of_statistics_is_a_leading_axis(self, stats):
        # on a point, a grid table, array weights against a grid table, and a
        # grid of alpha0 alone, which the initial norm does not read
        alpha0_grid = build_table({pair: 0.2 for pair in ALL_PAIRS},
                                  RecoilModel(np.linspace(0.5, 1.0, 7)))
        for coeffs, table, shape in (
            (Coefficients(0.6 + 0.3j, -0.7j), choice_table("iv", 0.8), ()),
            (A_ONLY, choice_table("family", GRID_101), (101,)),
            (Coefficients(np.linspace(0, 1, 5)[:, None], 0.5), choice_table("ii", GRID_101),
             (5, 101)),
            (A_ONLY, alpha0_grid, (7,)),
        ):
            res = relative_rate_grid(coeffs, table, stats)
            for k, stat in enumerate(stats):
                own = relative_rate_grid(coeffs, table, stat)
                for field in fields(RateResult):
                    value, want = getattr(res, field.name), np.asarray(getattr(own, field.name))
                    assert type(value) is np.ndarray, field.name
                    assert value.shape == (len(stats),) + shape, field.name
                    assert value.dtype == want.dtype and value[k].tobytes() == want.tobytes()

    def test_a_grid_of_alpha0_alone_gives_every_field_its_shape(self):
        # the initial norm does not read alpha0, yet it is an array of the grid
        table = build_table({pair: 0.2 for pair in ALL_PAIRS},
                            RecoilModel(np.linspace(0.5, 1.0, 3)))
        res = relative_rate_grid(Coefficients(1.0, 0.0), table, FERMION)
        for field in fields(RateResult):
            value = getattr(res, field.name)
            assert isinstance(value, np.ndarray) and value.shape == (3,), field.name
            assert len(value.tolist()) == 3
        assert res.n0_sq.tolist() == [res.n0_sq[0]] * 3
        assert res.n0_sq.flags.owndata

    def test_complex_overlaps_agree_to_rounding(self):
        # On a point the weight product times two complex overlaps is Python
        # arithmetic, on a grid numpy's complex multiply, which rounds
        # differently; so complex grid overlaps agree to a few ulp, not bit
        # for bit.  Real overlaps leave one nonzero product per part, which
        # both round alike (TestArrayWeights).
        rng = np.random.default_rng(3)
        phases = {pair: np.exp(1j * rng.uniform(0, 2 * np.pi)) for pair in ALL_PAIRS}
        grid = np.linspace(0.0, 0.6, 31)
        grid_table = build_table({pair: grid * phases[pair] for pair in ALL_PAIRS})
        coeffs = Coefficients(0.3 + 0.4j, -0.5 + 0.2j)
        for statistics in (BOSON, FERMION):
            res = relative_rate_grid(coeffs, grid_table, statistics)
            for i, c in enumerate(grid.tolist()):
                point = relative_rate_grid(
                    coeffs, build_table({pair: c * phases[pair] for pair in ALL_PAIRS}),
                    statistics,
                )
                assert not point.excluded and not res.excluded[i]
                for field in ("n0", "nf", "m", "r"):
                    assert getattr(res, field)[i] == pytest.approx(
                        getattr(point, field), rel=64 * np.finfo(float).eps
                    )


def random_weight(rng, kind):
    """One weight: complex, real-valued, with a signed-zero part, or zero."""
    re, im = rng.normal(size=2).tolist()
    return {
        "complex": complex(re, im),
        "real": complex(re, 0.0),
        "imaginary": complex(-0.0, im),
        "negative zero imaginary": complex(re, -0.0),
        "zero": complex(0.0, -0.0) if re < 0 else 0j,
    }[kind]


WEIGHT_KINDS = ("complex", "real", "imaginary", "negative zero imaginary", "zero")


def trial_axis_case(seed, trials=400):
    """Per-trial weights and tables, and the same trials as array weights and one grid table."""
    rng = np.random.default_rng(seed)
    points = []
    while len(points) < trials:
        kinds = rng.choice(WEIGHT_KINDS, size=2).tolist()
        a, b = (random_weight(rng, kind) for kind in kinds)
        if a == 0 and b == 0:
            continue
        points.append((a, b, float(rng.uniform(0.5, 1.0)), random_realizable_overlaps(rng)))
    a, b, alpha0, overlaps = zip(*points)
    coeffs = Coefficients(np.array(a), np.array(b))
    table = build_table({pair: np.array([o[pair] for o in overlaps]) for pair in ALL_PAIRS},
                        RecoilModel(np.array(alpha0)))
    singles = [(Coefficients(p[0], p[1]), build_table(p[3], RecoilModel(p[2]))) for p in points]
    return coeffs, table, singles


class TestArrayWeights:
    """Array weights on a trial-axis table against each trial evaluated on its own.

    On real overlaps every point equals its single-point value by ``repr``:
    ``|a|^2`` is ``re*re + im*im`` on both, and ``conj(a) b`` is one
    ``np.multiply`` call, which rounds a Python-number point as it rounds a
    grid (CPython's own complex ``*`` does not).
    """

    @pytest.mark.parametrize("statistics", [BOSON, FERMION])
    def test_closed_forms_equal_each_point(self, statistics):
        coeffs, table, singles = trial_axis_case(157)
        for closed_form in (initial_norm_sq, final_norm_sq, bracket_sum):
            grid = closed_form(coeffs, table, statistics)
            assert grid.shape == (len(singles),)
            assert [repr(v) for v in grid.tolist()] == [
                repr(closed_form(c, t, statistics)) for c, t in singles
            ], closed_form.__name__

    @pytest.mark.parametrize("statistics", [BOSON, FERMION])
    def test_relative_rate_grid_equals_each_point(self, statistics):
        coeffs, table, singles = trial_axis_case(163)
        grid = relative_rate_grid(coeffs, table, statistics)
        points = [relative_rate_grid(c, t, statistics) for c, t in singles]
        for field in fields(RateResult):
            values = getattr(grid, field.name).tolist()
            assert [repr(v) for v in values] == [repr(getattr(p, field.name)) for p in points], (
                field.name)

    def test_floors_equal_each_point(self):
        coeffs, _, singles = trial_axis_case(167, trials=200)
        for grid, floor in zip(_null_floors(coeffs), zip(*(_null_floors(c) for c, _ in singles))):
            assert [repr(v) for v in grid.tolist()] == [repr(v) for v in floor]

    def test_null_points_are_flagged_and_raise(self):
        coeffs = Coefficients(np.array([1.0, 1.0, 0.0]), np.array([0.0, 0.0, 1.0]))
        table = build_table({pair: np.array([0.3, 1.0, 0.2]) for pair in ALL_PAIRS})
        res = relative_rate_grid(coeffs, table, FERMION)
        assert res.excluded.tolist() == [False, True, False]
        kept = [0, 2]
        require_not_null(Coefficients(coeffs.a[kept], coeffs.b[kept]), res.n0_sq[kept],
                         res.nf_sq[kept])
        with pytest.raises(ExcludedStateError, match="initial state is null"):
            require_not_null(coeffs, res.n0_sq, res.nf_sq)

    @pytest.mark.parametrize("closed_form", [initial_norm_sq, final_norm_sq, bracket_sum,
                                             relative_rate_grid])
    def test_weights_that_do_not_fit_the_grid_are_rejected(self, closed_form):
        coeffs = Coefficients(np.full(3, 0.8), np.full(3, 0.6))
        with pytest.raises(ValueError, match="shape"):
            closed_form(coeffs, choice_table("ii", np.linspace(0.0, 1.0, 4)), BOSON)


class TestRelativeRatePinned:
    """``relative_rate_grid`` on single-point tables, pinned value by value and type by type.

    The digest covers ``repr`` and Python type of every field of 2400
    evaluations: random weights on random complex and realizable tables, and
    excluded points (the family's null direction, the Pauli pair) whose
    ``n0``, ``m`` and ``r`` are NaN.  It was captured when ``|z|^2`` became
    ``re*re + im*im`` and ``conj(a) b`` one ``np.multiply``, which moved
    complex-weight fields by at most 3.1e-15 relative (``r``).
    """

    DIGEST = "f4ad81fee3be1502deaf44dee7e095492ea7a89b6c6b7feb8a9292a22b0f9c3a"

    @staticmethod
    def cases():
        rng = np.random.default_rng(151)
        for k in range(300):
            parts = rng.normal(size=4)
            coeffs = Coefficients(complex(parts[0], parts[1]), complex(parts[2], parts[3]))
            model = RecoilModel(float(rng.uniform(0.5, 1.0)))
            if k % 2:
                table = build_table(random_realizable_overlaps(rng), model)
            else:
                table = build_table({pair: complex(rng.uniform(-0.55, 0.55),
                                                   rng.uniform(-0.4, 0.4))
                                     for pair in ALL_PAIRS}, model)
            family = choice_table("family", float(rng.uniform()), model)
            for statistics in (BOSON, FERMION):
                yield coeffs, table, statistics
                yield Coefficients(coeffs.a, 0.0), table, statistics
                yield Coefficients(1.0 / ROOT2, 1.0 / ROOT2), family, statistics
                yield A_ONLY, choice_table("i", 1.0, model), statistics

    def test_fields_and_types_are_pinned(self):
        digest = hashlib.sha256()
        excluded = 0
        for coeffs, table, statistics in self.cases():
            res = relative_rate_grid(coeffs, table, statistics)
            excluded += res.excluded
            for field in ("n0", "nf", "m", "m_pro", "r", "excluded"):
                value = getattr(res, field)
                digest.update(f"{type(value).__name__} {value!r}\n".encode())
            # the closed forms the result carries, raw on excluded points too
            for field, closed_form, kind in (("n0_sq", initial_norm_sq, float),
                                             ("nf_sq", final_norm_sq, float),
                                             ("bracket", bracket_sum, complex)):
                value = getattr(res, field)
                assert type(value) is kind
                assert repr(value) == repr(closed_form(coeffs, table, statistics))
            if res.excluded:
                with pytest.raises(ExcludedStateError):
                    amplitude(coeffs, table, statistics)
            else:
                assert repr(amplitude(coeffs, table, statistics)) == repr(res.m)
        assert excluded == 600  # both null cases, fermions only
        assert digest.hexdigest() == self.DIGEST
