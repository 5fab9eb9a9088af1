"""Forward error of the relative rate against a 50-digit evaluation.

The closed forms accept any table whose ``overlap`` returns numbers with the
complex-number interface, and any weights with ``a``, ``b`` and
``weight_products``, so the same formulas run in mpmath on the same double table and weights: the difference
is the rounding error of the double route, not of the inputs.
"""

import csv
import functools
import io
import itertools
import tempfile
from pathlib import Path

import mpmath
import numpy as np
import pytest

from pairabs import cli, rates
from pairabs.algebra import _STARRED, PHI, PSI, Statistics
from pairabs.scenarios import CHOICES, Coefficients, RecoilModel


class MpPoint:
    """Point ``index`` of a double grid table, each entry an ``mpmath.mpc``."""

    def __init__(self, table, size, index):
        self.table, self.size, self.index = table, size, index

    def overlap(self, x, y):
        return mpmath.mpc(complex(np.broadcast_to(self.table.overlap(x, y), self.size)[self.index]))


def mp_columns(coeffs, table, statistics, excluded=False):
    """``n0``, ``nf``, ``m`` (``2 bracket / sqrt(n0^2 nf^2)``) and ``r``
    (``|2 bracket|^2 / (n0^2 nf^2) / |m_pro|^2``) in the working precision; only
    ``nf`` on an ``excluded`` point, where the others are NaN."""
    assert isinstance(coeffs.a, mpmath.mpc) and isinstance(coeffs.b, mpmath.mpc)
    nf_sq = rates.final_norm_sq(coeffs, table, statistics)
    if excluded:
        return {"nf": 1 / mpmath.sqrt(nf_sq)}
    n0_sq = rates.initial_norm_sq(coeffs, table, statistics)
    bracket = rates.bracket_sum(coeffs, table, statistics)
    ps, phs, _, _ = _STARRED
    m_pro = (table.overlap(ps, PSI) + table.overlap(phs, PHI)) / mpmath.sqrt(2)
    return {"n0": 1 / mpmath.sqrt(n0_sq), "nf": 1 / mpmath.sqrt(nf_sq),
            "m": 2 * bracket / mpmath.sqrt(n0_sq * nf_sq),
            "r": abs(2 * bracket) ** 2 / (n0_sq * nf_sq) / abs(m_pro) ** 2}


class mp_weights:
    """The weights as ``mpmath.mpc``; not ``Coefficients``, which would round them
    back to double.  Their products are ``Coefficients``' own code, in mpmath."""

    def __init__(self, coeffs):
        self.a, self.b = mpmath.mpc(complex(coeffs.a)), mpmath.mpc(complex(coeffs.b))

    weight_products = Coefficients.weight_products


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
#: the file has a number: ``n0``, ``m`` and ``r`` are NaN on excluded points, ``nf``
#: only where the final state is null.  Fig4's ``nf`` is worst where the
#: initial state is null (a = 1/sqrt(2)); on its 200 other points it is 4.0e-14.
FIGURE_FILE_CEILINGS = {
    "fig2_i.csv": {"r": (1e-14, 605),  # 9.8e-15
                   "n0": (8e-16, 605),  # 6.9e-16
                   "nf": (1.2e-15, 605),  # 1.1e-15
                   "m_re": (5e-15, 605)},  # 4.8e-15
    "fig2_ii.csv": {"r": (6e-15, 606),  # 5.2e-15
                    "n0": (4e-16, 606),  # 3.0e-16
                    "nf": (7e-16, 606),  # 6.5e-16
                    "m_re": (3e-15, 606)},  # 2.5e-15
    "fig3_iii.csv": {"r": (6e-14, 603),  # 5.2e-14
                     "n0": (3e-15, 603),  # 2.8e-15
                     "nf": (4e-15, 603),  # 3.5e-15
                     "m_re": (3e-14, 603)},  # 2.6e-14
    "fig3_iv.csv": {"r": (6e-15, 606),  # 5.4e-15
                    "n0": (8e-16, 606),  # 6.9e-16
                    "nf": (1.1e-15, 606),  # 1.0e-15
                    "m_re": (3e-15, 606)},  # 2.7e-15
    "fig4.csv": {"r": (5e-12, 200),  # 4.4e-12
                 "n0": (2e-13, 200),  # 1.7e-13
                 "nf": (3e-11, 300),  # 2.6e-11
                 "m_re": (2.5e-12, 200)},  # 2.2e-12
}


#: The coincidence file of `figures fig3`, on its points where neither curve is
#: excluded: the ceiling on the relative error of ``r`` and on the absolute
#: error of ``rel_dev`` = ``|r - r_ref| / r_ref``, a cancelling difference whose
#: relative error is large where it is small.  Its ``c`` and ``a`` are inputs
#: and its ``r_ref`` is fig3_iii's a = 1 fermion ``r``.
COINCIDENCE_CEILINGS = {"r": (4e-14, 200),  # 3.7e-14
                        "rel_dev": (4e-14, 200)}  # 3.05e-14


#: ``file -> (scenario, cases, statistics)`` over every figure target.
FIGURE_FILES = {name: sweep for files in cli._FIGURES.values() for name, sweep in files.items()}


def test_every_figure_file_has_a_ceiling():
    assert list(FIGURE_FILES) == list(FIGURE_FILE_CEILINGS)
    assert all(list(columns) == ["r", "n0", "nf", "m_re"]
               for columns in FIGURE_FILE_CEILINGS.values())
    assert list(COINCIDENCE_CEILINGS) == ["r", "rel_dev"]


def sweep_errors(scenario, cases, stats, grid):
    """``column -> relative errors`` of ``r``, ``n0``, ``nf`` and ``m_re`` of one sweep,
    over every case, statistics and point where the column has a number, and
    ``"m_im" -> (value, truth, |true m|)`` over the points where ``m`` has one."""
    table = cli._scenario_table(scenario, grid, RecoilModel())
    results = cli.sweep_results(table, cases, stats).result  # over (statistics, case, c)
    errors = {"r": [], "n0": [], "nf": [], "m_re": [], "m_im": []}
    with mpmath.workdps(50):
        for (row, coeffs), (k, stat) in itertools.product(enumerate(cases), enumerate(stats)):
            res = rates.RateResult(*(value[k, row] for value in vars(results).values()))
            for i in np.flatnonzero(~np.isnan(res.nf)).tolist():
                truths = mp_columns(mp_weights(coeffs), MpPoint(table, grid.shape, i), stat,
                                    excluded=bool(res.excluded[i]))
                m = truths.pop("m", None)
                if m is not None:
                    errors["m_re"].append(float(abs(res.m.real[i] - m.real) / abs(m.real)))
                    errors["m_im"].append((res.m.imag[i], m.imag, abs(m)))
                for column, truth in truths.items():
                    errors[column].append(float(abs(getattr(res, column)[i] - truth) / truth))
    return errors


@functools.cache
def figure_file_errors(name):
    """:func:`sweep_errors` of one figure file."""
    return sweep_errors(*FIGURE_FILES[name], np.linspace(0.0, 1.0, 101))  # `figures`' c values


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


@pytest.mark.parametrize("name", FIGURE_FILE_CEILINGS)
def test_figure_file_amplitude_is_within_its_ceiling(name):
    ceiling, points = FIGURE_FILE_CEILINGS[name]["m_re"]
    errors = figure_file_errors(name)["m_re"]
    assert len(errors) == points
    assert all(error < ceiling for error in errors), max(errors)  # a NaN fails too


@pytest.mark.parametrize("name", FIGURE_FILE_CEILINGS)
def test_figure_file_amplitude_is_real(name):
    # every figure table and weight is real, so the true m_im is 0 and the file writes 0.0
    pairs = figure_file_errors(name)["m_im"]
    assert len(pairs) == FIGURE_FILE_CEILINGS[name]["m_re"][1]
    assert all(value == 0.0 and truth == 0 for value, truth, _ in pairs)


@functools.cache
def coincidence_truths():
    """``(c, a, r, rel_dev, true r, true rel_dev)`` of each row of the coincidence
    file of `figures fig3` where neither curve is excluded; ``r_ref`` is fig3_iii's
    a = 1 fermion ``r``."""
    with tempfile.TemporaryDirectory() as tmp:
        cli.run_figures("fig3", Path(tmp), log=io.StringIO())
        with open(Path(tmp) / "fig3_iii_fermion_coincidence.csv", newline="") as handle:
            rows = list(csv.DictReader(handle))
    grid = np.linspace(0.0, 1.0, 101)
    table = cli._scenario_table("iii", grid, RecoilModel())
    ref_coeffs = mp_weights(cli.FIG3_III_CASES[0])
    found = []
    with mpmath.workdps(50):
        for k, row in enumerate(rows):
            if row["rel_dev"] == "nan":
                continue
            point, a = MpPoint(table, grid.shape, k % grid.size), float(row["a"])
            r = mp_columns(mp_weights(cli._normalized(a)), point, Statistics.FERMION)["r"]
            r_ref = mp_columns(ref_coeffs, point, Statistics.FERMION)["r"]
            found.append((float(row["c"]), a, float(row["r"]), float(row["rel_dev"]),
                          r, abs(r - r_ref) / r_ref))
    return found


def test_coincidence_rate_is_within_its_ceiling():
    ceiling, points = COINCIDENCE_CEILINGS["r"]
    found = coincidence_truths()
    assert len(found) == points
    errors = [float(abs(r - truth) / truth) for _, _, r, _, truth, _ in found]
    assert all(error < ceiling for error in errors), max(errors)  # a NaN fails too


def test_coincidence_deviation_is_within_its_ceiling():
    ceiling, points = COINCIDENCE_CEILINGS["rel_dev"]
    found = coincidence_truths()
    assert len(found) == points
    errors = [float(abs(dev - truth)) for *_, dev, _, truth in found]
    assert all(error < ceiling for error in errors), max(errors)
    # relative: 1.44e-10 at a = 0.5, c = 0.01, where the difference cancels most
    relative = [float(abs(dev - truth) / truth) for *_, dev, _, truth in found if truth > 1e-20]
    assert len(relative) == points - 2 and max(relative) < 1.5e-10, max(relative)
    # at c = 0 both curves are the same number: truths 0 and 1.3e-51, written 0.0
    assert [(c, a, dev) for c, a, _, dev, _, truth in found if truth <= 1e-20] == [
        (0.0, 0.8, 0.0), (0.0, 0.5, 0.0)]


#: The weights ``(a, b)`` of three complex-weight `pairabs sweep` runs, each on every
#: choice and the family, for both statistics, over :data:`COMPLEX_SWEEP_STEPS` c values.
COMPLEX_WEIGHTS = ((0.6 + 0.3j, 0.2 - 0.7j), (0.3 - 0.8j, 0.5 + 0.1j), (1 + 1j, 0.4))
COMPLEX_SWEEP_STEPS = 65

#: Per column of those sweeps: the ceiling on the relative error, just above the
#: largest error measured (each comment), and the number of points where the
#: column has a number (6 of the 1950 are excluded).  ``m_im`` is relative to
#: ``|m|``, since the true ``m_im`` may be 0.
COMPLEX_SWEEP_CEILINGS = {"r": (2e-14, 1944),  # 1.93e-14
                          "n0": (4e-16, 1944),  # 3.5e-16
                          "nf": (4e-15, 1944),  # 3.73e-15
                          "m_re": (1e-14, 1944),  # 9.57e-15
                          "m_im": (1.1e-15, 1944)}  # 1.01e-15


@functools.cache
def complex_sweep_errors():
    """:func:`sweep_errors` of the complex-weight sweeps over every scenario, with the
    ``m_im`` error relative to ``|m|``."""
    grid = np.linspace(0.0, 1.0, COMPLEX_SWEEP_STEPS)
    cases = [Coefficients(a, b) for a, b in COMPLEX_WEIGHTS]
    errors = {column: [] for column in COMPLEX_SWEEP_CEILINGS}
    for scenario in (*CHOICES, "family"):
        for column, found in sweep_errors(scenario, cases, cli.BOTH_STATISTICS, grid).items():
            errors[column] += ([float(abs(value - truth) / size) for value, truth, size in found]
                               if column == "m_im" else found)
    return errors


@pytest.mark.parametrize("column", COMPLEX_SWEEP_CEILINGS)
def test_complex_weight_sweep_is_within_its_ceiling(column):
    ceiling, points = COMPLEX_SWEEP_CEILINGS[column]
    errors = complex_sweep_errors()[column]
    assert len(errors) == points
    assert all(error < ceiling for error in errors), max(errors)  # a NaN fails too
