"""Forward error of the relative rate against a 50-digit evaluation.

The closed forms accept any table whose ``overlap`` returns numbers with the
complex-number interface, and any weights with ``a`` and ``b``, so the same
formulas run in mpmath on the same double table and weights: the difference
is the rounding error of the double route, not of the inputs.
"""

import functools
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


def mp_columns(coeffs, table, statistics, excluded=False):
    """``n0``, ``nf`` and ``r`` (``|2 bracket|^2 / (n0^2 nf^2) / |m_pro|^2``) in the
    working precision; only ``nf`` on an ``excluded`` point, where the others are NaN."""
    assert isinstance(coeffs.a, mpmath.mpc) and isinstance(coeffs.b, mpmath.mpc)
    nf_sq = rates.final_norm_sq(coeffs, table, statistics)
    if excluded:
        return {"nf": 1 / mpmath.sqrt(nf_sq)}
    n0_sq = rates.initial_norm_sq(coeffs, table, statistics)
    bracket = rates.bracket_sum(coeffs, table, statistics)
    ps, phs, _, _ = _STARRED
    m_pro = (table.overlap(ps, PSI) + table.overlap(phs, PHI)) / mpmath.sqrt(2)
    return {"n0": 1 / mpmath.sqrt(n0_sq), "nf": 1 / mpmath.sqrt(nf_sq),
            "r": abs(2 * bracket) ** 2 / (n0_sq * nf_sq) / abs(m_pro) ** 2}


def mp_weights(coeffs):
    """The weights as ``mpmath.mpc``; not ``Coefficients``, which would round them
    back to double."""
    return SimpleNamespace(a=mpmath.mpc(complex(coeffs.a)), b=mpmath.mpc(complex(coeffs.b)))


def test_fig4_rate_is_accurate_to_5e_12():
    grid = np.linspace(0.0, 1.0, 101)  # the c values of `figures fig4`
    table = cli._scenario_table("family", grid, RecoilModel())
    errors = []
    with mpmath.workdps(50):
        for coeffs in cli.FIG4_CASES:
            res = rates.relative_rate_grid(coeffs, table, Statistics.FERMION)
            for i in np.flatnonzero(~res.excluded).tolist():
                truth = mp_columns(mp_weights(coeffs), MpPoint(table, grid.shape, i),
                                   Statistics.FERMION)["r"]
                errors.append(float(abs(res.r[i] - truth) / truth))
    # a = 1/sqrt(2) is excluded at every c, the other two cases only at c = 1
    assert len(errors) == 200
    # 4.4e-12 at a = 0.67, c = 0.99, where n0^2 = 2.1e-4; a NaN fails too
    assert all(error < 5e-12 for error in errors), max(errors)


#: Per figure file and column: the ceiling on the relative error, just above
#: the largest error measured (each comment), and the number of points where
#: the file has a number: ``n0`` and ``r`` are NaN on excluded points, ``nf``
#: only where the final state is null.  Fig4's ``nf`` is worst where the
#: initial state is null (a = 1/sqrt(2)); on its 200 other points it is 4.0e-14.
FIGURE_FILE_CEILINGS = {
    "fig2_i.csv": {"r": (1e-14, 605),  # 9.8e-15
                   "n0": (8e-16, 605),  # 6.9e-16
                   "nf": (1.2e-15, 605)},  # 1.1e-15
    "fig2_ii.csv": {"r": (6e-15, 606),  # 5.2e-15
                    "n0": (4e-16, 606),  # 3.0e-16
                    "nf": (7e-16, 606)},  # 6.5e-16
    "fig3_iii.csv": {"r": (6e-14, 603),  # 5.2e-14
                     "n0": (3e-15, 603),  # 2.8e-15
                     "nf": (4e-15, 603)},  # 3.5e-15
    "fig3_iv.csv": {"r": (6e-15, 606),  # 5.4e-15
                    "n0": (8e-16, 606),  # 6.9e-16
                    "nf": (1.1e-15, 606)},  # 1.0e-15
    "fig4.csv": {"r": (5e-12, 200),  # 4.4e-12
                 "n0": (2e-13, 200),  # 1.7e-13
                 "nf": (3e-11, 300)},  # 2.6e-11
}


#: ``file -> (scenario, cases, statistics)`` over every figure target.
FIGURE_FILES = {name: sweep for files in cli._FIGURES.values() for name, sweep in files.items()}


def test_every_figure_file_has_a_ceiling():
    assert list(FIGURE_FILES) == list(FIGURE_FILE_CEILINGS)
    assert all(list(columns) == ["r", "n0", "nf"] for columns in FIGURE_FILE_CEILINGS.values())


@functools.cache
def figure_file_errors(name):
    """``column -> relative errors`` of ``r``, ``n0`` and ``nf`` of one figure file,
    over every case, statistics and point where the column has a number."""
    scenario, cases, stats = FIGURE_FILES[name]
    grid = np.linspace(0.0, 1.0, 101)  # the c values of `figures`
    table = cli._scenario_table(scenario, grid, RecoilModel())
    errors = {"r": [], "n0": [], "nf": []}
    with mpmath.workdps(50):
        for coeffs in cases:
            for stat in stats:
                res = rates.relative_rate_grid(coeffs, table, stat)
                for i in np.flatnonzero(~np.isnan(res.nf)).tolist():
                    truths = mp_columns(mp_weights(coeffs), MpPoint(table, grid.shape, i), stat,
                                        excluded=bool(res.excluded[i]))
                    for column, truth in truths.items():
                        value = getattr(res, column)[i]
                        errors[column].append(float(abs(value - truth) / truth))
    return errors


@pytest.mark.parametrize("name", FIGURE_FILE_CEILINGS)
def test_figure_file_rate_is_within_its_ceiling(name):
    ceiling, points = FIGURE_FILE_CEILINGS[name]["r"]
    errors = figure_file_errors(name)["r"]
    assert len(errors) == points
    assert all(error < ceiling for error in errors), max(errors)  # a NaN fails too


@pytest.mark.parametrize("column", ["n0", "nf"])
@pytest.mark.parametrize("name", FIGURE_FILE_CEILINGS)
def test_figure_file_norm_is_within_its_ceiling(name, column):
    ceiling, points = FIGURE_FILE_CEILINGS[name][column]
    errors = figure_file_errors(name)[column]
    assert len(errors) == points
    assert all(error < ceiling for error in errors), max(errors)  # a NaN fails too
