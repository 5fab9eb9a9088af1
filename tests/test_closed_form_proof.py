"""Symbolic proof that the closed forms equal the formal expansion.

Every weight part and every off-diagonal overlap is an independent real
symbol, the mirror of each overlap its conjugate and the diagonal 1; so the
identities below hold for any weights and any Hermitian table, whatever
recoil model or chain rule produced it.  The formal side is the oracle's
plan: the pairs of each inner product, each with its weight (``conj(x) y``
for ``x, y`` in ``(a, b)``, or its negative) and its two CM overlaps.  The
identity bracket = alpha0 n0^2 needs the recoil model's one-recoil entries
and holds on its tables only.
The last identity splits the recoil model's 8x8 table into two Gram
matrices, so every table that ``build_table`` makes from realizable bare
overlaps is realizable, and its norms² are >= 0; a hypothesis property
checks that on the tables themselves.
"""

import itertools
import sys

import numpy as np
import pytest
import sympy
from hypothesis import assume, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from pairabs import oracle, rates
from pairabs.algebra import CHI, PHI, PSI, VARPHI, Statistics
from pairabs.scenarios import Coefficients, RecoilModel, build_table, realizable_overlaps

LABELS = (PSI, PHI, VARPHI, CHI, *(label.star() for label in (PSI, PHI, VARPHI, CHI)))


class Sym:
    """A sympy expression with the complex-number interface the closed forms use."""

    def __init__(self, expr):
        self.expr = expr

    @staticmethod
    def _of(value):
        if isinstance(value, Sym):
            return value.expr
        if isinstance(value, float):
            return sympy.Rational(value)  # the exact binary value
        return sympy.sympify(value)

    def __add__(self, other):
        return Sym(self.expr + self._of(other))

    __radd__ = __add__

    def __mul__(self, other):
        return Sym(self.expr * self._of(other))

    __rmul__ = __mul__

    def __pow__(self, exponent):
        return Sym(self.expr ** exponent)

    def __abs__(self):
        return Sym(sympy.sqrt(sympy.expand(self.expr * sympy.conjugate(self.expr))))

    def conjugate(self):
        return Sym(sympy.conjugate(self.expr))

    @property
    def real(self):
        return Sym((self.expr + sympy.conjugate(self.expr)) / 2)

    @property
    def imag(self):
        return Sym((self.expr - sympy.conjugate(self.expr)) / (2 * sympy.I))


class SymTable:
    """A Hermitian table with one symbol pair per off-diagonal entry."""

    def __init__(self):
        self.entries = {}
        for x, y in itertools.combinations(LABELS, 2):
            re, im = sympy.symbols(f"re_{x}_{y} im_{x}_{y}", real=True)
            self.entries[(x, y)] = re + sympy.I * im
            self.entries[(y, x)] = re - sympy.I * im

    def overlap(self, x, y):
        return Sym(sympy.Integer(1) if x == y else self.entries[(x, y)])


class SymWeights:
    def __init__(self):
        ar, ai, br, bi = sympy.symbols("a_re a_im b_re b_im", real=True)
        self.a = Sym(ar + sympy.I * ai)
        self.b = Sym(br + sympy.I * bi)

    # the forms read the weights through these; the package's own code, on symbols
    weight_products = Coefficients.weight_products


def formal_products(weights, table, statistics):
    """The three inner products of the oracle's plan, pair by pair."""
    plan = oracle._plan()
    ab = (weights.a.expr, weights.b.expr)
    products = [sympy.conjugate(x) * y for x in ab for y in ab]  # conj(x) y at 2x + y
    overlaps = [table.overlap(x, y).expr for x, y in plan.labels]
    return [
        sum(
            (statistics.sign if plan.exchange[p] else 1) * products[plan.weight_of[p]]
            * overlaps[plan.first[p]] * overlaps[plan.second[p]]
            for p in range(lo, hi)
        )
        for lo, hi in plan.spans
    ]


@pytest.mark.parametrize("statistics", [Statistics.BOSON, Statistics.FERMION])
def test_closed_forms_equal_the_formal_expansion(statistics):
    weights, table = SymWeights(), SymTable()
    n0_sq, nf_sq, bracket = formal_products(weights, table, statistics)
    closed = {
        "initial norm^2": (n0_sq, rates.initial_norm_sq(weights, table, statistics)),
        "final norm^2": (nf_sq, rates.final_norm_sq(weights, table, statistics)),
        "<final|absorbed>": (bracket, 2 * rates.bracket_sum(weights, table, statistics)),
    }
    for name, (formal, value) in closed.items():
        assert sympy.expand(formal - value.expr) == 0, name


class RecoilSymTable(SymTable):
    """Free bare and two-recoil entries; every one-recoil entry ``<x*|y> = alpha0 <x|y>``."""

    def __init__(self, alpha0):
        super().__init__()
        for x, y in itertools.product(LABELS[:4], repeat=2):
            self.entries[(x.star(), y)] = alpha0 * self.overlap(x, y).expr
            self.entries[(y, x.star())] = alpha0 * self.overlap(y, x).expr


@pytest.mark.parametrize("statistics", [Statistics.BOSON, Statistics.FERMION])
def test_bracket_is_alpha0_times_the_initial_norm_under_the_recoil_model(statistics):
    # the recoil model of build_table fixes only the one-recoil entries, so on
    # its tables the fourteen-term bracket collapses to alpha0 n0^2
    alpha0 = sympy.Symbol("alpha0", positive=True)
    weights = SymWeights()

    def gap(table):
        bracket = rates.bracket_sum(weights, table, statistics)
        n0_sq = rates.initial_norm_sq(weights, table, statistics)
        return sympy.expand(bracket.expr - alpha0 * n0_sq.expr)

    assert gap(RecoilSymTable(alpha0)) == 0
    assert gap(SymTable()) != 0  # a free table breaks it: the identity is the model's


def test_recoil_table_is_a_sum_of_two_gram_matrices():
    # build_table's 8x8 table over the bare labels and their starred forms is
    # [[G, a0 G], [a0 G, H]] with H = alpha^2 G and alpha = a0 + (1 - a0) R
    # entry by entry (scenarios._alpha_pair), R = Re G.  Then H - a0^2 G =
    # (1 - a0) [(1 - a0) R∘R∘G + 2 a0 R∘G], so the table is [[1, a0], [a0,
    # a0^2]] ⊗ G, a Kronecker product of positive semidefinite matrices, plus
    # that lower block, positive semidefinite by the Schur product theorem
    # since R = (G + conj G)/2 is.  The diagonal (G = 1) is included.
    a0 = sympy.Symbol("alpha0", positive=True)
    re, im = sympy.symbols("g_re g_im", real=True)
    g = re + sympy.I * im
    alpha = re + a0 * (1 - re)
    schur_part = (1 - a0) * ((1 - a0) * re * re * g + 2 * a0 * re * g)
    assert sympy.expand(alpha * alpha * g - a0**2 * g - schur_part) == 0


@given(arrays(float, (4, 4), elements=st.floats(-1.0, 1.0)), st.floats(1e-3, 1.0))
def test_recoil_tables_of_realizable_overlaps_are_positive_semidefinite(raw, alpha0):
    assume(np.all(np.linalg.norm(raw, axis=-1) >= 1.5e-154))  # realizable_overlaps' floor
    overlaps = {pair: float(value) for pair, value in realizable_overlaps(raw).items()}
    table = build_table(overlaps, RecoilModel(alpha0))
    m = np.array([[table.overlap(x, y) for y in LABELS] for x in LABELS])
    g, h = m[:4, :4], m[4:, 4:]
    r = g.real
    assert (m[4:, :4] == alpha0 * g).all() and (m[:4, 4:] == alpha0 * g).all()
    eps = sys.float_info.epsilon
    assert np.allclose(h - alpha0**2 * g, (1 - alpha0) * ((1 - alpha0) * r * r * g
                                                         + 2 * alpha0 * r * g),
                       rtol=0.0, atol=8 * eps)
    # a backward-stable eigensolver errs by about n eps |M|_2 (n = 8); the
    # worst seen over 20 000 random tables, rank 1 to 4, is -13 eps
    eigenvalues = np.linalg.eigvalsh(m)
    assert eigenvalues[0] >= -8 * eps * eigenvalues[-1]
