"""Tests for the formal-expansion cross-check of the closed-form amplitude."""

import math
import re
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pairabs import cli, oracle, rates
from pairabs.algebra import CHI, PHI, PSI, VARPHI, OverlapTable, Statistics, _python_on_point
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
    matching_term_pairs,
    symmetrize,
)
from pairabs.rates import ExcludedStateError
from pairabs.scenarios import (
    ALL_PAIRS,
    Coefficients,
    RecoilModel,
    build_choice_table,
    build_table,
    random_realizable_overlaps,
    realizable_overlaps,
)

BOSON = Statistics.BOSON
FERMION = Statistics.FERMION
A_ONLY = Coefficients(1.0, 0.0)
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


class PointTable:
    """Point ``index`` of a grid table whose entries broadcast to ``shape``."""

    def __init__(self, table, shape, index):
        self.table, self.shape, self.index = table, shape, index

    def overlap(self, x, y):
        return complex(np.broadcast_to(self.table.overlap(x, y), self.shape)[self.index])


def grid_shape(coeffs, table):
    """The shape of the grid of the weights and the table."""
    labels = LABELS + tuple(label.star() for label in LABELS)
    return np.broadcast_shapes(np.shape(coeffs.a), np.shape(coeffs.b),
                               *(np.shape(table.overlap(x, y)) for x in labels for y in labels))


def pointwise(function, weights, coeffs, table, statistics):
    """``function(weights(a, b), table point, statistics)`` at each point of the grid of
    the weights and the table, stacked as arrays over it (Python numbers on a single
    point)."""
    shape = grid_shape(coeffs, table)
    values = [function(weights(complex(np.broadcast_to(coeffs.a, shape)[index]),
                               complex(np.broadcast_to(coeffs.b, shape)[index])),
                       PointTable(table, shape, index), statistics)
              for index in np.ndindex(shape)]
    return _python_on_point(tuple(np.array(column).reshape(shape) for column in zip(*values)))


def pointwise_formal(coeffs, table, statistics):
    """:func:`formal_quantities` at each point of the grid on its own: what the grid is
    held to bit for bit."""
    return pointwise(formal_quantities, Coefficients, coeffs, table, statistics)


def pointwise_expansion(coeffs, table, statistics):
    """:func:`expansion` at each point of the grid, or what the first point or the null
    criterion raises: the reference that :func:`formal_quantities` is held to within
    :data:`ROUNDING` (:func:`assert_within_rounding`)."""
    # not Coefficients, which would reject a non-finite weight before the builders
    values = pointwise(expansion, lambda a, b: types.SimpleNamespace(a=a, b=b), coeffs, table,
                       statistics)
    rates.require_not_null(coeffs, values[0], values[1])
    return values


def term_scales(coeffs, table, statistics):
    """``sum |term|`` of each inner product of :func:`expansion`, the scale of its rounding."""
    initial = build_initial(coeffs, statistics)
    final = build_final(coeffs, statistics)
    return [
        sum(abs(bra.terms[i].weight) * abs(ket.terms[j].weight)
            * abs(table.overlap(bra.terms[i].cm1, ket.terms[j].cm1))
            * abs(table.overlap(bra.terms[i].cm2, ket.terms[j].cm2))
            for i, j in matching_term_pairs(bra, ket))
        for bra, ket in ((initial, initial), (final, final), (final, apply_absorption(initial)))
    ]


#: How far the oracle may lie from :func:`inner_product`, in units of ``sum |term|``
#: per inner product.  Each term is a pair weight ``conj(x) y`` times two overlaps:
#: three complex products, each within ``sqrt(5) u`` of exact (``u = eps / 2``) by
#: the textbook formula that CPython uses (Brent, Percival and Zimmermann 2007), and
#: within ``2 u`` where a multiply-add is fused, as numpy's vector loop may do.  So
#: each route's term is within ``3 sqrt(5) u |term|`` of exact to first order, and
#: the two routes' sums of terms within ``3 sqrt(5) eps sum |term|`` = 6.7 eps of
#: each other.  Both then add the terms in the same order, rounding each partial
#: sum once.  In the worst case that adds up to ``(n - 1) eps sum |term|`` more
#: (n = 16 or 32 pairs), but where the two routes' partial sums agree they round
#: alike: over 18 000 inner products of random complex and realizable tables the
#: worst distance is 2.6 eps sum |term|.  So 8 eps bounds the products' part with
#: room for a few partial-sum roundings.
ROUNDING = 8 * np.finfo(float).eps


def assert_within_rounding(values, reference, scales):
    """Each formal quantity within :data:`ROUNDING` of its reference value."""
    for name, value, expected, scale in zip(("n0^2", "nf^2", "bracket"), values, reference,
                                            scales):
        assert abs(value - expected) <= ROUNDING * scale, name


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
def grid_inputs(draw, real=False):
    """Weights and a table on one of :data:`LAYOUTS`; each table entry and ``alpha0``
    is a scalar or an array of the table's shape.  The overlaps are ``real`` or
    complex."""
    weights_shape, table_shape = draw(LAYOUTS)

    def values(parts, shape, imag_parts=None):
        imag_parts = parts if imag_parts is None else imag_parts
        if shape and draw(st.booleans()):
            return np.array([complex(draw(parts), draw(imag_parts))
                             for _ in range(math.prod(shape))]).reshape(shape)
        return complex(draw(parts), draw(imag_parts))

    a, b = (values(PARTS, weights_shape) for _ in range(2))
    assume(not np.any((np.asarray(a) == 0) & (np.asarray(b) == 0)))
    imag_parts = st.just(0.0) if real else OVERLAP_PARTS
    overlaps = {pair: values(OVERLAP_PARTS, table_shape, imag_parts) for pair in ALL_PAIRS}
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


def same_bytes(got, want):
    """Same dtype, shape and bytes as arrays, so signed zeros count."""
    got, want = np.asarray(got), np.asarray(want)
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


def null_message(function, coeffs, table, statistics):
    """What ``function`` raises as :class:`ExcludedStateError`, else ``None``."""
    try:
        function(coeffs, table, statistics)
    except ExcludedStateError as error:
        return str(error)
    return None


STATISTICS_TUPLES = st.sampled_from([(BOSON, FERMION), (FERMION, BOSON), (BOSON,), (FERMION,)])


class TestStatisticsAxis:
    """A tuple of statistics is a leading axis of the closed forms and the oracle:
    each slice is its statistics on its own, byte for byte."""

    @settings(max_examples=300)
    @given(inputs=st.one_of(grid_inputs(), grid_inputs(real=True)), stats=STATISTICS_TUPLES)
    def test_each_slice_is_its_statistics_on_its_own(self, inputs, stats):
        coeffs, table = inputs
        closed = rates.relative_rate_grid(coeffs, table, stats)
        for k, stat in enumerate(stats):
            own = rates.relative_rate_grid(coeffs, table, stat)
            for field in vars(own):
                assert np.shape(getattr(closed, field))[0] == len(stats)
                assert same_bytes(getattr(closed, field)[k], getattr(own, field)), field
        # the null criterion of the stack: a null state of any statistics, a
        # null initial state first
        messages = [null_message(formal_quantities, coeffs, table, stat) for stat in stats]
        messages = sorted(filter(None, messages), key=lambda m: not m.startswith("initial"))
        if messages:
            with pytest.raises(ExcludedStateError) as raised:
                formal_quantities(coeffs, table, stats)
            assert str(raised.value) == messages[0]
            return
        formal = formal_quantities(coeffs, table, stats)
        for k, stat in enumerate(stats):
            for value, own in zip(formal, formal_quantities(coeffs, table, stat)):
                assert type(value) is np.ndarray and value.shape[0] == len(stats)
                assert same_bytes(value[k], own)

    @pytest.mark.parametrize("points", [1, 7])
    def test_each_total_is_the_sequential_sum_of_its_signed_pair_terms(self, points):
        # Each total adds its pair terms in plan order from +0.0, in place, a
        # fermion total subtracting the exchange terms: bit for bit the
        # sequential sum of the signed terms, signed zeros included (b = 0 at
        # the first point makes every product with b one).  A cumsum starts
        # at its first term, so both sides add 0.0, which makes an all-zero
        # sum +0.0.  The terms are the plan's products times their two
        # overlaps, multiplied over all pairs at once.
        rng = np.random.default_rng(157)
        overlaps = {pair: rng.uniform(-0.5, 0.5, points) + 1j * rng.uniform(-0.5, 0.5, points)
                    for pair in ALL_PAIRS}
        a, b = (rng.normal(size=points) + 1j * rng.normal(size=points) for _ in range(2))
        b[0] = complex(-0.0, 0.0)
        coeffs = Coefficients(a, b)
        table = build_table(overlaps, RecoilModel(rng.uniform(0.5, 1.0, points)))
        stats = (BOSON, FERMION)
        formal = formal_quantities(coeffs, table, stats)
        plan = oracle._plan()
        ab = np.array([coeffs.a, coeffs.b])
        products = np.multiply(ab.conjugate()[:, None], ab).reshape(4, -1)
        ov = np.array([np.broadcast_to(table.overlap(x, y), (points,)) for x, y in plan.labels])
        terms = products[plan.weight_of] * ov[plan.first] * ov[plan.second]  # (pairs, points)
        for (lo, hi), value in zip(plan.spans, formal):
            for k, stat in enumerate(stats):
                minus = plan.exchange[lo:hi] & (stat.sign < 0)
                signed = np.where(minus[:, None], -terms[lo:hi], terms[lo:hi])
                expected = np.cumsum(signed, axis=0)[-1] + 0.0
                if value.dtype != complex:  # the norms keep the real sum
                    expected = expected.real
                assert same_bytes(value[k] + 0.0, expected)


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

    def test_formal_quantities_agree_with_the_separate_expansions(self):
        rng = np.random.default_rng(113)
        for _ in range(50):
            coeffs = random_coefficients(rng)
            table = build_table(random_realizable_overlaps(rng))
            for statistics in (BOSON, FERMION):
                assert_within_rounding(formal_quantities(coeffs, table, statistics),
                                       expansion(coeffs, table, statistics),
                                       term_scales(coeffs, table, statistics))

    @pytest.mark.parametrize("statistics", [BOSON, FERMION])
    @pytest.mark.parametrize("shape", ["a", "b", "ab", "mixed"])
    @pytest.mark.parametrize("table_kind", ["realizable", "complex"])
    def test_grid_equals_each_point_bit_for_bit(self, statistics, shape, table_kind):
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
        points = [formal_quantities(c, t, statistics) for c, t in zip(coeffs_seq, tables)]
        assert [repr(v) for v in per_point(grid)] == [repr(v) for v in points]
        for coeffs, table, values in zip(coeffs_seq, tables, points):
            assert_within_rounding(values, expansion(coeffs, table, statistics),
                                   term_scales(coeffs, table, statistics))

    def test_a_point_keeps_the_bits_of_its_1_element_grid(self):
        # numpy rounds an in-place complex multiply of a 1-element array otherwise
        # than its vector loop: multiplying each pair's row in place gives this
        # bracket an imaginary part of 7.676393035896064e-16
        rng = np.random.default_rng(5)
        overlaps = {pair: rng.uniform(-0.5, 0.5) + 1j * rng.uniform(-0.5, 0.5)
                    for pair in ALL_PAIRS}
        coeffs = Coefficients(complex(*rng.normal(size=2)), complex(*rng.normal(size=2)))
        point = formal_quantities(coeffs, build_table(overlaps), BOSON)
        assert repr(point[2]) == "(21.91920298552663+7.916820546335177e-16j)"
        grid = formal_quantities(Coefficients(np.array([coeffs.a]), np.array([coeffs.b])),
                                 build_table({pair: np.array([value])
                                              for pair, value in overlaps.items()}), BOSON)
        assert per_point(grid) == [point] and repr(per_point(grid)) == repr([point])

    def test_a_verify_block_allocates_at_most_256_kib(self):
        # The pairs are evaluated one at a time into two reused rows, reading the
        # table's entries in place: no array has a pair or a label axis.  A
        # (labels, points) gather and (pairs, points) copies peaked at 980 KiB.
        a, b, alpha0, raw = cli._draw_candidates(np.random.default_rng(1), cli._VERIFY_BLOCK)
        coeffs = Coefficients(a, b)
        table = build_table(realizable_overlaps(raw), RecoilModel(alpha0))
        rates.relative_rate_grid(coeffs, table, cli.BOTH_STATISTICS)  # as a block does first
        formal_quantities(A_ONLY, choice_table("i", 0.5), BOSON)  # plan built
        tracemalloc.start()
        try:
            formal_quantities(coeffs, table, cli.BOTH_STATISTICS)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 256 * 2**10

    def test_signed_zero_weights_keep_the_expansion_bits(self):
        # Each part of these weights is one nonzero product or none, on a real
        # table, so both routes round alike; the terms of a zero weight add only
        # signed zeros, and an all-zero sum is +0.0 as in the expansion.
        table = choice_table("ii", 0.3)
        signed_zeros = (Coefficients(complex(-0.0, -0.8), complex(0.6, -0.0)),
                        Coefficients(complex(0.8, -0.0), 0.0),
                        Coefficients(0.0, complex(-0.0, 1.0)))
        mixed = [*signed_zeros, Coefficients(complex(0.6, -0.3), complex(-0.5, 0.4))]
        weights = Coefficients(np.array([c.a for c in mixed]), np.array([c.b for c in mixed]))
        for statistics in (BOSON, FERMION):
            for coeffs in signed_zeros:
                assert (repr(formal_quantities(coeffs, table, statistics))
                        == repr(expansion(coeffs, table, statistics)))
            grid = formal_quantities(weights, table, statistics)
            assert [repr(v) for v in per_point(grid)] == [
                repr(formal_quantities(coeffs, table, statistics)) for coeffs in mixed]

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
                        formal_quantities(point, choice_table("iv", c), statistics))

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
            (matrix, initial, final), scales = closed_form_deviations(coeffs, closed, formal)
            root = np.sqrt(closed.n0_sq * closed.nf_sq)
            for i in range(40):
                bracket, d = formal[2][i].item(), root[i].item()
                formal_m = complex(bracket.real / d, bracket.imag / d)  # each part divided
                assert repr(matrix[i].item()) == repr(np.abs(closed.m[i] - formal_m).item())
                assert initial[i] == abs(closed.n0_sq[i] - formal[0][i])
                assert final[i] == abs(closed.nf_sq[i] - formal[1][i])
                weight = abs(coeffs_seq[i].a) ** 2 + abs(coeffs_seq[i].b) ** 2
                assert scales[:, i].tolist() == pytest.approx([8 * weight / d, 2 * weight,
                                                               4 * weight], rel=1e-15)
            assert max(matrix.max(), initial.max(), final.max()) < 1e-12

    @settings(max_examples=300)
    @given(inputs=grid_inputs(), statistics=st.sampled_from([BOSON, FERMION]))
    def test_equals_its_points_bit_for_bit_and_the_expansion_to_rounding(self, inputs,
                                                                          statistics):
        coeffs, table = inputs
        got = outcome(formal_quantities, coeffs, table, statistics)
        reference = outcome(pointwise_expansion, coeffs, table, statistics)
        if isinstance(got, tuple):  # what it raises, the expansion raises
            assert got == reference
            return
        assert got == outcome(pointwise_formal, coeffs, table, statistics)
        shape = grid_shape(coeffs, table)
        values, expected = (np.broadcast_arrays(*f(coeffs, table, statistics))
                            for f in (formal_quantities, pointwise_expansion))
        for index in np.ndindex(shape):
            point = Coefficients(complex(np.broadcast_to(coeffs.a, shape)[index]),
                                 complex(np.broadcast_to(coeffs.b, shape)[index]))
            assert_within_rounding([v[index] for v in values], [v[index] for v in expected],
                                   term_scales(point, PointTable(table, shape, index), statistics))

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
                    == outcome(pointwise_formal, coeffs, table, statistics))

    @pytest.mark.parametrize("statistics", [BOSON, FERMION])
    @pytest.mark.parametrize("bad_a, bad_b, message", [
        ({2: complex("inf"), 3: complex("nan")}, {}, "(inf+nanj)"),
        ({3: complex("nan")}, {1: complex(0.5, -math.inf)}, "(nan-infj)"),  # b first
        (dict.fromkeys(range(4), complex(-math.inf, 1.0)),
         dict.fromkeys(range(4), complex(0.0, math.nan)), "(-inf+nanj)"),
    ])
    def test_non_finite_weight_is_named_as_the_reference_names_it(self, bad_a, bad_b, message,
                                                                   statistics):
        # the first non-finite term weight, in (point, term) order
        coeffs = Coefficients(np.array([0.8, 0.6j, 0.3, -0.5]), np.full(4, 0.6 + 0j))
        for name, bad in (("a", bad_a), ("b", bad_b)):
            weights = getattr(coeffs, name).copy()
            for point, value in bad.items():
                weights[point] = value
            object.__setattr__(coeffs, name, weights)  # past the Coefficients check
        table = choice_table("ii", np.linspace(0.1, 0.9, 4))
        first = min({*bad_a, *bad_b})
        point = types.SimpleNamespace(a=complex(coeffs.a[first]), b=complex(coeffs.b[first]))
        with pytest.raises(ValueError, match=f"^non-finite term weight {re.escape(message)}$"):
            build_initial(point, statistics)
        with pytest.raises(ValueError, match=f"^non-finite term weight {re.escape(message)}$"):
            formal_quantities(coeffs, table, statistics)
        assert (outcome(formal_quantities, coeffs, table, statistics)
                == outcome(pointwise_expansion, coeffs, table, statistics))

    @pytest.mark.parametrize("statistics", [BOSON, FERMION])
    def test_each_plan_pair_is_a_built_term_pair_with_its_weight(self, statistics):
        # one plan serves both statistics: the same pairs, labels and spans, each
        # weight the same product, negated for fermions on the exchange pairs
        plan = oracle._plan()
        assert len(plan.labels) == 48 and plan.spans == ((0, 16), (16, 48), (48, 80))
        assert plan.exchange.sum() == 40
        rng = np.random.default_rng(151)
        for _ in range(20):
            coeffs = random_coefficients(rng)
            products = [x.conjugate() * y for x in (coeffs.a, coeffs.b)
                        for y in (coeffs.a, coeffs.b)]
            initial, final = build_initial(coeffs, statistics), build_final(coeffs, statistics)
            pairs, spans = [], []
            for bra, ket in ((initial, initial), (final, final),
                             (final, apply_absorption(initial))):
                start = len(pairs)
                pairs += [(bra.terms[i], ket.terms[j]) for i, j in matching_term_pairs(bra, ket)]
                spans.append((start, len(pairs)))
            assert plan.spans == tuple(spans)
            assert len(plan.weight_of) == len(plan.first) == len(plan.second) == len(pairs)
            for p, (tb, tk) in enumerate(pairs):
                assert plan.labels[plan.first[p]] == (tb.cm1, tk.cm1)
                assert plan.labels[plan.second[p]] == (tb.cm2, tk.cm2)
                sign = statistics.sign if plan.exchange[p] else 1
                assert sign * products[plan.weight_of[p]] == tb.weight.conjugate() * tk.weight

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

