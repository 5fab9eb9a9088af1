"""Tests for the formal-expansion cross-check of the closed-form amplitude."""

import math
import types

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pairabs import oracle, rates
from pairabs.algebra import CHI, PHI, PSI, VARPHI, Statistics
from pairabs.oracle import (
    E,
    G,
    FormalState,
    Term,
    apply_absorption,
    build_final,
    build_initial,
    closed_form_deviations,
    combine,
    formal_quantities,
    inner_product,
)
from pairabs.rates import ExcludedStateError
from pairabs.scenarios import (
    ALL_PAIRS,
    Coefficients,
    RecoilModel,
    build_choice_table,
    build_table,
    random_realizable_overlaps,
)

BOSON = Statistics.BOSON
FERMION = Statistics.FERMION
A_ONLY = Coefficients(1.0, 0.0)


def choice_table(name, c, model=RecoilModel()):
    return build_choice_table(name, c, model)


def random_coefficients(rng):
    parts = rng.normal(size=4)
    scale = math.sqrt(float(np.dot(parts, parts)))
    return Coefficients(complex(parts[0], parts[1]) / scale,
                        complex(parts[2], parts[3]) / scale)


def complex_overlaps(rng):
    """Random complex bare overlaps and a random ``alpha0``."""
    overlaps = {
        pair: complex(rng.uniform(-0.55, 0.55), rng.uniform(-0.4, 0.4)) for pair in ALL_PAIRS
    }
    return overlaps, float(rng.uniform(0.5, 1.0))


def trial_axis(coeffs_seq, overlaps_seq, alpha0s):
    """Array weights and one grid table whose points are the given trials."""
    coeffs = Coefficients(np.array([c.a for c in coeffs_seq]), np.array([c.b for c in coeffs_seq]))
    table = build_table({pair: np.array([o[pair] for o in overlaps_seq]) for pair in ALL_PAIRS},
                        RecoilModel(np.array(alpha0s)))
    return coeffs, table


def per_point(values):
    """The formal quantities of a grid, one Python ``(float, float, complex)`` per point."""
    return list(zip(*(v.tolist() for v in values)))


def formal_amplitude(coeffs, table, statistics):
    """The normalized amplitude from the raw expansion: formal bracket over formal norms."""
    n0_sq, nf_sq, bracket = formal_quantities(coeffs, table, statistics)
    return bracket / math.sqrt(n0_sq * nf_sq)


def expansion(coeffs, table, statistics):
    """The formal quantities from the states themselves, pair by pair."""
    initial = build_initial(coeffs, statistics)
    final = build_final(coeffs, statistics)
    return (
        inner_product(initial, initial, table).real,
        inner_product(final, final, table).real,
        inner_product(final, apply_absorption(initial), table),
    )


def shaped(coeffs, shape):
    """The weights with the component(s) ``shape`` names; the other one zero."""
    return {
        "a": Coefficients(coeffs.a, 0.0),
        "b": Coefficients(0.0, coeffs.b),
        "ab": coeffs,
    }[shape]


def reference_formal_quantities(coeffs, table, statistics):
    """The oracle as it evaluated all pair weights of every product on one pair axis:
    the reference that :func:`formal_quantities` is held to bit for bit."""
    plan = oracle._plan(statistics)
    values = np.broadcast_arrays(coeffs.a, coeffs.b,
                                 *(table.overlap(x, y) for x, y in plan.labels))
    shape = values[0].shape
    flat = np.reshape(values, (len(values), -1))  # one flat grid axis
    a, b, ov = flat[0], flat[1], flat[2:]
    with np.errstate(invalid="ignore"):  # a non-finite weight is reported below
        ar, ai = rates._cmul(a.real, a.imag, *plan.alpha)
        br, bi = rates._cmul(b.real, b.imag, *plan.beta)
    wr, wi = ar + br, ai + bi  # (terms, points); the zero part adds nothing
    finite = np.isfinite(wr) & np.isfinite(wi)
    if not finite.all():
        k, t = np.argwhere(~finite.T)[0]
        raise ValueError(f"non-finite term weight {complex(wr[t, k], wi[t, k])!r}")
    pr, pi = rates._cmul(wr[plan.bra], -wi[plan.bra], wr[plan.ket], wi[plan.ket])
    for index in (plan.first, plan.second):
        pr, pi = rates._cmul(pr, pi, ov.real[index], ov.imag[index])
    n0_sq, _, nf_sq, _, m_re, m_im = [(np.cumsum(parts[lo:hi], axis=0)[-1] + 0.0).reshape(shape)
                                       for lo, hi in plan.spans for parts in (pr, pi)]
    rates.require_not_null(coeffs, n0_sq, nf_sq)
    return rates._python_on_point((n0_sq, nf_sq, rates._complex(m_re, m_im)))


def outcome(function, coeffs, table, statistics):
    """What ``function`` returns, as each value's type, shape and bits (so signed
    zeros count), or the type and message of what it raises."""
    try:
        values = function(coeffs, table, statistics)
    except (ValueError, ExcludedStateError) as error:
        return type(error), str(error)
    return [(type(v), np.shape(v), np.reshape(v, -1).view(np.int64).tolist())
            for v in values]


#: Weight and overlap parts: signed zeros and values of either sign.
PARTS = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1.0, 1.0).filter(lambda x: abs(x) > 1e-3))
OVERLAP_PARTS = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-0.7, 0.7))
#: (weights shape, table entry shape): a point, a trial axis, and (3, 1) weights
#: against (5,) entries.
LAYOUTS = st.sampled_from([((), ()), ((1,), (1,)), ((4,), (4,)), ((3, 1), (5,))])


@st.composite
def grid_inputs(draw):
    """Weights and a table on one of :data:`LAYOUTS`; each table entry and ``alpha0``
    is a scalar or an array of the table's shape."""
    weights_shape, table_shape = draw(LAYOUTS)

    def values(parts, shape):
        if shape and draw(st.booleans()):
            return np.array([complex(draw(parts), draw(parts)) for _ in range(math.prod(shape))]
                            ).reshape(shape)
        return complex(draw(parts), draw(parts))

    a, b = (values(PARTS, weights_shape) for _ in range(2))
    assume(not np.any((np.asarray(a) == 0) & (np.asarray(b) == 0)))
    overlaps = {pair: values(OVERLAP_PARTS, table_shape) for pair in ALL_PAIRS}
    alpha0 = (np.array([draw(st.floats(0.5, 1.0)) for _ in range(math.prod(table_shape))])
              .reshape(table_shape) if table_shape and draw(st.booleans())
              else draw(st.floats(0.5, 1.0)))
    return Coefficients(a, b), build_table(overlaps, RecoilModel(alpha0))


class TestBuildInitial:
    def test_single_component_boson(self):
        state = build_initial(A_ONLY, BOSON)
        assert state.terms == (
            Term(1.0, PSI, G, PHI, G),
            Term(1.0, PHI, G, PSI, G),
        )

    def test_balanced_fermion_signs(self):
        state = build_initial(Coefficients(1.0, 1.0), FERMION)
        assert [t.weight for t in state.terms] == [1.0, -1.0, 1.0, -1.0]
        assert len(state) == 4


class TestBuildFinal:
    def test_single_component_monomials(self):
        state = build_final(A_ONLY, BOSON)
        assert state.terms == (
            Term(1.0, PSI.star(), E, PHI, G),
            Term(1.0, PHI, G, PSI.star(), E),
            Term(1.0, PSI, G, PHI.star(), E),
            Term(1.0, PHI.star(), E, PSI, G),
        )

    def test_second_component_only(self):
        state = build_final(Coefficients(0.0, 1.0), FERMION)
        assert len(state) == 4
        assert {t.cm1 for t in state.terms} == {VARPHI.star(), CHI, VARPHI, CHI.star()}

    def test_full_superposition_weights(self):
        a, b = 0.8, 0.6
        state = build_final(Coefficients(a, b), FERMION)
        assert [t.weight for t in state.terms] == [a, -a, a, -a, b, -b, b, -b]

    @staticmethod
    def written_out(coeffs, statistics):
        """The eight final monomials with their signs written by hand; zero weights dropped."""
        s = float(statistics.sign)
        a, b = coeffs.a, coeffs.b
        ps, phs, vs, cs = PSI.star(), PHI.star(), VARPHI.star(), CHI.star()
        monomials = (
            (a, ps, E, PHI, G),
            (a * s, PHI, G, ps, E),
            (a, PSI, G, phs, E),
            (a * s, phs, E, PSI, G),
            (b, vs, E, CHI, G),
            (b * s, CHI, G, vs, E),
            (b, VARPHI, G, cs, E),
            (b * s, cs, E, VARPHI, G),
        )
        return tuple(Term(*m) for m in monomials if m[0] != 0)

    @pytest.mark.parametrize("statistics", [BOSON, FERMION])
    @pytest.mark.parametrize("a, b", [
        (1, 1), (1, -1), (1, 0), (0, 1), (0.3 + 0.4j, -0.5 + 0.2j), (-0.7j, 2.5 - 1j),
        (complex(1.5, -0.0), complex(-0.0, 0.6)), (complex(-0.0, -0.0), complex(-2.0, 0.0)),
        (complex(0.0, -0.8), complex(-0.0, -0.0)),
    ])
    def test_terms_equal_the_written_out_monomials(self, a, b, statistics):
        coeffs = Coefficients(a, b)
        assert build_final(coeffs, statistics).terms == self.written_out(coeffs, statistics)


class TestApplyAbsorption:
    def test_double_ground_term_flips_each_atom_once(self):
        state = FormalState((Term(1.0, PSI, G, PHI, G),))
        assert apply_absorption(state).terms == (
            Term(1.0, PSI, E, PHI, G),
            Term(1.0, PSI, G, PHI, E),
        )

    def test_excited_atom_is_annihilated(self):
        state = FormalState((Term(1.0, PSI, E, PHI, G),))
        assert apply_absorption(state).terms == (Term(1.0, PSI, E, PHI, E),)

    def test_zero_state_maps_to_zero_state(self):
        assert apply_absorption(FormalState()).terms == ()

    def test_second_application_is_orthogonal_to_final_state(self):
        # double absorption produces only doubly-excited terms, which every
        # single-excitation final monomial annihilates exactly
        table = choice_table("i", 0.5)
        coeffs = Coefficients(0.8, 0.6)
        for statistics in (BOSON, FERMION):
            twice = apply_absorption(apply_absorption(build_initial(coeffs, statistics)))
            assert all(t.int1 is E and t.int2 is E for t in twice.terms)
            bracket = inner_product(build_final(coeffs, statistics), twice, table)
            assert bracket == 0.0

    def test_linearity(self):
        rng = np.random.default_rng(29)
        table = choice_table("ii", 0.3)
        for _ in range(25):
            coeffs = random_coefficients(rng)
            state = build_initial(coeffs, FERMION)
            final = build_final(coeffs, FERMION)
            w = complex(rng.normal(), rng.normal())
            plain = inner_product(final, apply_absorption(state), table)
            scaled = inner_product(final, apply_absorption(combine([(w, state)])), table)
            assert scaled == pytest.approx(w * plain, abs=1e-12)


class TestOracleMatrixElement:
    def test_single_dipole_pairing_with_spectator(self):
        # one recoiled excited atom against one flipped atom: the spectator
        # contributes an identity bracket and the flip the one-recoil diagonal
        table = choice_table("i", 0.3)
        bra = FormalState((Term(1.0, PSI.star(), E, PHI, G),))
        ket = FormalState((Term(1.0, PSI, E, PHI, G),))
        assert inner_product(bra, ket, table) == table.overlap(PSI.star(), PSI)
        assert inner_product(bra, ket, table) == pytest.approx(0.9, abs=1e-15)

    def test_orthogonal_single_component(self):
        from pairabs.scenarios import ALL_PAIRS, build_table

        table = build_table({pair: 0.0 for pair in ALL_PAIRS})
        value = formal_amplitude(A_ONLY, table, BOSON)
        assert value == pytest.approx(math.sqrt(2.0) * 0.9, abs=1e-12)

    def test_matches_closed_form_at_choice_i_midpoint(self):
        table = choice_table("i", 0.5)
        closed = rates.relative_rate_grid(A_ONLY, table, BOSON).m
        assert formal_amplitude(A_ONLY, table, BOSON) == pytest.approx(
            closed, abs=1e-12
        )
        assert closed == pytest.approx(1.2853864228284975, abs=1e-12)

    def test_excluded_state_raises(self):
        table = choice_table("i", 1.0)
        with pytest.raises(ExcludedStateError):
            formal_amplitude(A_ONLY, table, FERMION)
        with pytest.raises(ExcludedStateError, match="initial state is null"):
            formal_quantities(A_ONLY, table, FERMION)

    def test_formal_quantities_equal_the_separate_expansions(self):
        rng = np.random.default_rng(113)
        for _ in range(50):
            coeffs = random_coefficients(rng)
            table = build_table(random_realizable_overlaps(rng))
            for statistics in (BOSON, FERMION):
                n0_sq, nf_sq, bracket = formal_quantities(coeffs, table, statistics)
                initial = build_initial(coeffs, statistics)
                final = build_final(coeffs, statistics)
                assert n0_sq == inner_product(initial, initial, table).real
                assert nf_sq == inner_product(final, final, table).real
                assert bracket == inner_product(final, apply_absorption(initial), table)

    @pytest.mark.parametrize("statistics", [BOSON, FERMION])
    @pytest.mark.parametrize("shape", ["a", "b", "ab", "mixed"])
    @pytest.mark.parametrize("table_kind", ["realizable", "complex"])
    def test_grid_equals_the_expansion_bit_for_bit(self, statistics, shape, table_kind):
        rng = np.random.default_rng(131)
        coeffs_seq, overlaps_seq, alpha0s, tables = [], [], [], []
        while len(coeffs_seq) < 150:
            each = shape if shape != "mixed" else ("a", "b", "ab")[len(coeffs_seq) % 3]
            coeffs = shaped(random_coefficients(rng), each)
            overlaps, alpha0 = ((random_realizable_overlaps(rng), 0.9)
                                if table_kind == "realizable" else complex_overlaps(rng))
            table = build_table(overlaps, RecoilModel(alpha0))
            if rates.initial_norm_sq(coeffs, table, statistics) > 1e-6:
                coeffs_seq.append(coeffs)
                overlaps_seq.append(overlaps)
                alpha0s.append(alpha0)
                tables.append(table)
        grid = formal_quantities(*trial_axis(coeffs_seq, overlaps_seq, alpha0s), statistics)
        expected = [expansion(c, t, statistics) for c, t in zip(coeffs_seq, tables)]
        assert [repr(v) for v in per_point(grid)] == [repr(v) for v in expected]
        for coeffs, table, values in zip(coeffs_seq[:20], tables, expected):
            assert repr(formal_quantities(coeffs, table, statistics)) == repr(values)

    def test_signed_zero_weights_keep_the_expansion_bits(self):
        table = choice_table("ii", 0.3)
        signed_zeros = (Coefficients(complex(-0.0, -0.8), complex(0.6, -0.0)),
                        Coefficients(complex(0.8, -0.0), 0.0),
                        Coefficients(0.0, complex(-0.0, 1.0)))
        mixed = [*signed_zeros, Coefficients(complex(0.6, -0.3), complex(-0.5, 0.4))]
        weights = Coefficients(np.array([c.a for c in mixed]), np.array([c.b for c in mixed]))
        for statistics in (BOSON, FERMION):
            expected = [repr(expansion(coeffs, table, statistics)) for coeffs in mixed]
            for coeffs, value in zip(signed_zeros, expected):
                assert repr(formal_quantities(coeffs, table, statistics)) == value
            grid = formal_quantities(weights, table, statistics)
            assert [repr(v) for v in per_point(grid)] == expected

    def test_weights_and_table_broadcast_to_one_grid(self):
        c_grid = np.linspace(0.1, 0.9, 5)
        coeffs = Coefficients(np.array([[0.8], [0.6j], [-0.3]]), np.array([[0.6], [0.8], [0.2]]))
        for statistics in (BOSON, FERMION):
            grid = formal_quantities(coeffs, choice_table("iv", c_grid), statistics)
            assert all(v.shape == (3, 5) for v in grid)
            for i, a in enumerate((0.8, 0.6j, -0.3)):
                point = Coefficients(a, (0.6, 0.8, 0.2)[i])
                for j, c in enumerate(c_grid.tolist()):
                    assert repr(tuple(v[i, j].item() for v in grid)) == repr(
                        expansion(point, choice_table("iv", c), statistics))

    def test_null_configuration_inside_a_grid_raises(self):
        rng = np.random.default_rng(137)
        coeffs_seq = [random_coefficients(rng) for _ in range(5)]
        overlaps_seq = [random_realizable_overlaps(rng) for _ in range(5)]
        coeffs_seq[2] = A_ONLY  # with all-ones overlaps: the Pauli pair
        overlaps_seq[2] = {pair: 1.0 for pair in ALL_PAIRS}
        coeffs, table = trial_axis(coeffs_seq, overlaps_seq, [0.9] * 5)
        assert formal_quantities(coeffs, table, BOSON)[0].shape == (5,)
        with pytest.raises(ExcludedStateError, match="^initial state is null \\(excluded\\); "
                           "the normalized amplitude is a 0/0 form$"):
            formal_quantities(coeffs, table, FERMION)

    def test_weights_that_do_not_fit_the_grid_are_rejected(self):
        coeffs = Coefficients(np.full(3, 0.8), np.full(3, 0.6))
        table = choice_table("ii", np.linspace(0.0, 1.0, 4))
        with pytest.raises(ValueError, match="shape"):
            formal_quantities(coeffs, table, BOSON)

    def test_deviations_of_a_result_from_its_own_expansion(self):
        rng = np.random.default_rng(149)
        coeffs_seq = [random_coefficients(rng) for _ in range(40)]
        overlaps_seq = [random_realizable_overlaps(rng) for _ in range(40)]
        coeffs, table = trial_axis(coeffs_seq, overlaps_seq, rng.uniform(0.5, 1.0, 40))
        for statistics in (BOSON, FERMION):
            closed = rates.relative_rate_grid(coeffs, table, statistics)
            formal = formal_quantities(coeffs, table, statistics)
            matrix, initial, final = closed_form_deviations(closed, formal)
            root = np.sqrt(closed.n0_sq * closed.nf_sq)
            for i in range(40):
                formal_m = formal[2][i].item() / root[i].item()
                assert repr(matrix[i].item()) == repr(abs(closed.m[i].item() - formal_m))
                assert initial[i] == abs(closed.n0_sq[i] - formal[0][i])
                assert final[i] == abs(closed.nf_sq[i] - formal[1][i])
            assert max(matrix.max(), initial.max(), final.max()) < 1e-12

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(inputs=grid_inputs(), statistics=st.sampled_from([BOSON, FERMION]))
    def test_equals_the_reference_bit_for_bit(self, inputs, statistics):
        coeffs, table = inputs
        assert (outcome(formal_quantities, coeffs, table, statistics)
                == outcome(reference_formal_quantities, coeffs, table, statistics))

    def test_no_broadcast_call_exceeds_numpy_1_argument_cap(self, monkeypatch):
        # numpy < 2 refuses np.broadcast of more than 32 arrays; the plan has 50
        def capped_broadcast(*args):
            assert len(args) <= 32, f"np.broadcast of {len(args)} arrays"
            return np.broadcast(*args)

        capped = types.ModuleType("numpy")
        capped.__getattr__ = lambda name: getattr(np, name)
        capped.broadcast = capped_broadcast
        monkeypatch.setattr(oracle, "np", capped)
        coeffs = Coefficients(np.array([0.8, 0.6j]), np.full(2, 0.6))
        table = choice_table("ii", np.array([0.2, 0.7]))
        for statistics in (BOSON, FERMION):
            assert (outcome(formal_quantities, coeffs, table, statistics)
                    == outcome(reference_formal_quantities, coeffs, table, statistics))

    @pytest.mark.parametrize("statistics", [BOSON, FERMION])
    def test_non_finite_weight_is_named_as_the_reference_names_it(self, statistics):
        # the first non-finite term weight in (point, term) order
        coeffs = Coefficients(np.array([0.8, 0.6j, 0.3, -0.5]), np.full(4, 0.6))
        a = coeffs.a.copy()
        a[2], a[3] = complex("inf"), complex("nan")
        object.__setattr__(coeffs, "a", a)  # past the Coefficients check
        table = choice_table("ii", np.linspace(0.1, 0.9, 4))
        with pytest.raises(ValueError, match=r"^non-finite term weight \(inf\+nanj\)$"):
            formal_quantities(coeffs, table, statistics)
        assert (outcome(formal_quantities, coeffs, table, statistics)
                == outcome(reference_formal_quantities, coeffs, table, statistics))

    @pytest.mark.parametrize("statistics, count", [(BOSON, 4), (FERMION, 16)])
    def test_plan_computes_each_distinct_pair_weight_once(self, statistics, count):
        plan = oracle._plan(statistics)
        bits = np.hstack([*plan.alpha, *plan.beta]).view(np.int64)  # one row per term
        kinds = [(tuple(bits[i]), tuple(bits[j])) for i, j in zip(plan.bra, plan.ket)]
        stands_for = [kinds[p] for p in plan.weight_pair]
        assert len(set(stands_for)) == len(stands_for) == count
        assert [stands_for[w] for w in plan.weight_of] == kinds

    def test_non_finite_weight_is_rejected(self):
        coeffs = Coefficients(1.0, 0.0)
        object.__setattr__(coeffs, "a", complex("inf"))  # past the Coefficients check
        with pytest.raises(ValueError, match="non-finite term weight"):
            build_initial(coeffs, BOSON)
        with pytest.raises(ValueError, match="non-finite term weight"):
            formal_quantities(coeffs, choice_table("i", 0.5), BOSON)

    def test_equivalence_over_random_configurations(self):
        rng = np.random.default_rng(101)
        checked = 0
        max_dev = 0.0
        while checked < 1000:
            coeffs = random_coefficients(rng)
            model = RecoilModel(float(rng.uniform(0.5, 1.0)))
            table = build_table(random_realizable_overlaps(rng), model)
            norms = [rates.initial_norm_sq(coeffs, table, s) for s in (BOSON, FERMION)]
            if min(norms) <= 2e-3:
                continue  # stay clear of the excluded manifold
            for statistics in (BOSON, FERMION):
                closed = rates.relative_rate_grid(coeffs, table, statistics).m
                formal = formal_amplitude(coeffs, table, statistics)
                max_dev = max(max_dev, abs(closed - formal))
            checked += 1
        assert max_dev < 1e-10

    def test_equivalence_on_complex_tables(self):
        # complex entries exercise every conjugation orientation in the
        # closed-form sums
        from pairabs.scenarios import ALL_PAIRS, build_table

        rng = np.random.default_rng(109)
        worst = 0.0
        for _ in range(150):
            overlaps = {
                pair: complex(rng.uniform(-0.55, 0.55), rng.uniform(-0.4, 0.4))
                for pair in ALL_PAIRS
            }
            table = build_table(overlaps, RecoilModel(float(rng.uniform(0.5, 1.0))))
            coeffs = random_coefficients(rng)
            for statistics in (BOSON, FERMION):
                if rates.initial_norm_sq(coeffs, table, statistics) < 2e-3:
                    continue
                worst = max(
                    worst,
                    abs(
                        rates.relative_rate_grid(coeffs, table, statistics).m
                        - formal_amplitude(coeffs, table, statistics)
                    ),
                )
        assert worst < 1e-12

    def test_formal_norms_match_closed_forms(self):
        rng = np.random.default_rng(103)
        for _ in range(200):
            coeffs = random_coefficients(rng)
            table = build_table(random_realizable_overlaps(rng))
            for statistics in (BOSON, FERMION):
                n0_sq, nf_sq, _ = formal_quantities(coeffs, table, statistics)
                assert n0_sq == pytest.approx(
                    rates.initial_norm_sq(coeffs, table, statistics), abs=1e-10
                )
                assert nf_sq == pytest.approx(
                    rates.final_norm_sq(coeffs, table, statistics), abs=1e-10
                )

    def test_fully_formal_mode_agrees(self):
        table = choice_table("iv", 0.6)
        coeffs = Coefficients(0.8, 0.6)
        for statistics in (BOSON, FERMION):
            assert formal_amplitude(coeffs, table, statistics) == pytest.approx(
                rates.relative_rate_grid(coeffs, table, statistics).m, abs=1e-10
            )

    def test_exchange_slot_swap_leaves_amplitude_unchanged(self):
        def swap(state):
            return FormalState(
                tuple(Term(t.weight, t.cm2, t.int2, t.cm1, t.int1) for t in state.terms)
            )

        rng = np.random.default_rng(107)
        for _ in range(50):
            coeffs = random_coefficients(rng)
            table = build_table(random_realizable_overlaps(rng))
            for statistics in (BOSON, FERMION):
                initial = build_initial(coeffs, statistics)
                final = build_final(coeffs, statistics)
                plain = inner_product(final, apply_absorption(initial), table)
                swapped = inner_product(
                    swap(final), apply_absorption(swap(initial)), table
                )
                assert swapped == pytest.approx(plain, abs=1e-12)

