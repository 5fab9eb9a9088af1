"""Forward error of the relative rate against a 50-digit evaluation.

The closed forms accept any table whose ``overlap`` returns numbers with the
complex-number interface, and any weights with ``a`` and ``b``, so the same
formulas run in mpmath on the same double table and weights: the difference
is the rounding error of the double route, not of the inputs.
"""

from types import SimpleNamespace

import mpmath
import numpy as np
import pytest

from pairabs import cli, rates
from pairabs.algebra import _STARRED, PHI, PSI, Statistics
from pairabs.scenarios import RecoilModel


class MpPoint:
    """Point ``index`` of a double grid table, each entry an ``mpmath.mpc``."""

    def __init__(self, table, size, index):
        self.table, self.size, self.index = table, size, index

    def overlap(self, x, y):
        return mpmath.mpc(complex(np.broadcast_to(self.table.overlap(x, y), self.size)[self.index]))


def mp_relative_rate(coeffs, table, statistics):
    """``|2 bracket|^2 / (n0^2 nf^2) / |m_pro|^2`` evaluated in the working precision."""
    assert isinstance(coeffs.a, mpmath.mpc) and isinstance(coeffs.b, mpmath.mpc)
    n0_sq = rates.initial_norm_sq(coeffs, table, statistics)
    nf_sq = rates.final_norm_sq(coeffs, table, statistics)
    bracket = rates.bracket_sum(coeffs, table, statistics)
    ps, phs, _, _ = _STARRED
    m_pro = (table.overlap(ps, PSI) + table.overlap(phs, PHI)) / mpmath.sqrt(2)
    return abs(2 * bracket) ** 2 / (n0_sq * nf_sq) / abs(m_pro) ** 2


def test_fig4_rate_is_accurate_to_5e_12():
    grid = np.linspace(0.0, 1.0, 101)  # the c values of `figures fig4`
    table = cli._scenario_table("family", grid, RecoilModel())
    errors = []
    with mpmath.workdps(50):
        for coeffs in cli.FIG4_CASES:
            res = rates.relative_rate_grid(coeffs, table, Statistics.FERMION)
            # not Coefficients, which would round the weights back to double
            mp_coeffs = SimpleNamespace(a=mpmath.mpc(complex(coeffs.a)),
                                        b=mpmath.mpc(complex(coeffs.b)))
            for i in np.flatnonzero(~res.excluded).tolist():
                truth = mp_relative_rate(mp_coeffs, MpPoint(table, grid.shape, i),
                                         Statistics.FERMION)
                errors.append(float(abs(res.r[i] - truth) / truth))
    # a = 1/sqrt(2) is excluded at every c, the other two cases only at c = 1
    assert len(errors) == 200
    # 4.4e-12 at a = 0.67, c = 0.99, where n0^2 = 2.1e-4; a NaN fails too
    assert all(error < 5e-12 for error in errors), max(errors)


#: Per figure file: the ceiling on the relative error of `r`, just above the
#: largest error measured (each comment), and the number of non-excluded points.
FIGURE_FILE_CEILINGS = {
    "fig2_i.csv": (1e-14, 605),  # 9.8e-15
    "fig2_ii.csv": (6e-15, 606),  # 5.2e-15
    "fig3_iii.csv": (6e-14, 603),  # 5.2e-14
    "fig3_iv.csv": (6e-15, 606),  # 5.4e-15
    "fig4.csv": (5e-12, 200),  # 4.4e-12
}


#: ``file -> (scenario, cases, statistics)`` over every figure target.
FIGURE_FILES = {name: sweep for files in cli._FIGURES.values() for name, sweep in files.items()}


def test_every_figure_file_has_a_ceiling():
    assert list(FIGURE_FILES) == list(FIGURE_FILE_CEILINGS)


@pytest.mark.parametrize("name", FIGURE_FILE_CEILINGS)
def test_figure_file_rate_is_within_its_ceiling(name):
    scenario, cases, stats = FIGURE_FILES[name]
    ceiling, points = FIGURE_FILE_CEILINGS[name]
    grid = np.linspace(0.0, 1.0, 101)  # the c values of `figures`
    table = cli._scenario_table(scenario, grid, RecoilModel())
    errors = []
    with mpmath.workdps(50):
        for coeffs in cases:
            mp_coeffs = SimpleNamespace(a=mpmath.mpc(complex(coeffs.a)),
                                        b=mpmath.mpc(complex(coeffs.b)))
            for stat in stats:
                res = rates.relative_rate_grid(coeffs, table, stat)
                for i in np.flatnonzero(~res.excluded).tolist():
                    truth = mp_relative_rate(mp_coeffs, MpPoint(table, grid.shape, i), stat)
                    errors.append(float(abs(res.r[i] - truth) / truth))
    assert len(errors) == points
    assert all(error < ceiling for error in errors), max(errors)  # a NaN fails too
