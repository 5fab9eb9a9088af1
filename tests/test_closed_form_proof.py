"""Symbolic proof that the closed forms equal the formal expansion.

Every weight part and every off-diagonal overlap is an independent real
symbol, the mirror of each overlap its conjugate and the diagonal 1; so the
identities below hold for any weights and any Hermitian table, whatever
recoil model or chain rule produced it.  The formal side is the oracle's
plan: the term weights ``alpha a + beta b`` and the pairs of each inner
product with their two CM overlaps.  The last identity, bracket = alpha0 n0^2,
needs the recoil model's one-recoil entries and holds on its tables only.
"""

import itertools

import pytest
import sympy

from pairabs import oracle, rates
from pairabs.algebra import CHI, PHI, PSI, VARPHI, Statistics

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


def formal_products(weights, table, statistics):
    """The three inner products of the oracle's plan, pair by pair."""
    plan = oracle._plan(statistics)

    def factor(parts, k):  # one exact complex entry of a plan's alpha or beta
        re, im = (sympy.Rational(float(part[k, 0])) for part in parts)
        return re + sympy.I * im

    terms = [
        factor(plan.alpha, k) * weights.a.expr + factor(plan.beta, k) * weights.b.expr
        for k in range(len(plan.alpha[0]))
    ]
    overlaps = [table.overlap(x, y).expr for x, y in plan.labels]
    return [
        sum(
            sympy.conjugate(terms[plan.bra[p]]) * terms[plan.ket[p]]
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
