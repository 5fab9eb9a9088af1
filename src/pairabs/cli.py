"""Command-line front end: single points, sweeps, figure datasets, exclusion scans,
and self-verification against the formal-expansion cross-check.

All numeric CSV fields use the shortest decimal representation that round-trips
to the same double, so fixed inputs (and a fixed seed for ``verify``) produce
byte-identical output.  No field ever needs CSV quoting, so each row is one
f-string over its block's formatted columns, with no list per row, and
:func:`_write_csv` writes a file's lines with one ``writelines`` call: the
bytes ``csv.writer`` would write.  A column whose values all have the same
bits is formatted once.

``rate``, ``sweep`` and ``figures`` share one evaluation
(:func:`_sweep_files`): it stacks the bare overlaps of the scenarios of its
files into one grid table and evaluates it once over (statistics, scenario,
case, c), and every file, log line and coincidence row reads slices of that
one result.  A ``figures`` job makes 3 table builds and 3
:func:`pairabs.rates.relative_rate_grid` calls, a ``sweep`` one of each, and
``rate`` is ``sweep`` on the one-point grid ``[--c]``.
``exclusion-scan`` evaluates its (a, c) grid once, with array weights, and
``verify`` each block of 512 trials as one trial-axis grid; every output is
byte-identical to evaluating each point and statistics on its own.
``verify`` draws a block's random numbers at once, one generator call per
kind, and computes the overlaps of all its trials with one
:func:`pairabs.scenarios.realizable_overlaps` call, so its report depends on
the seed, the trial count and the block size.  A run keeps only a running
maximum per quantity and its worst deviation, so its memory does not grow
with ``--trials``.

The scenario of ``rate`` and ``sweep`` is one setting, ``choice``: a name of
:data:`pairabs.scenarios.CHOICES`, a preset or ``family``.  ``--family`` is
shorthand for ``--choice family``, a config file spells it ``choice = family``,
and an explicit flag beats the file.

``_COMMANDS`` holds each subcommand's help line and runner, the job's one
entry point: :func:`main` parses the arguments and calls it, so the parser is
the one check of command-line input.  A runner opens ``--out`` only once its
results are computed (``figures`` makes its directory once its evaluation is
done), so a run that stops with an error leaves an existing file as it was.
``_FLAGS`` holds one row per flag: its name, the subcommands that take it and
its ``add_argument`` keywords.  :func:`build_parser` adds a subcommand's rows,
then ``--config``; a config file's keys are the dests of the same rows, each
value converted and checked by its row's type and choices.

:func:`main` builds the parser once per process and never changes it.  A
``--config`` file fills a namespace that the subcommand's parser then parses
into: argparse sets a default only where the namespace has no value, so
explicit flags beat the file, the file beats the defaults, and no call's
config carries into the next.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import math
import os
import re
import sys
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence, TextIO

import numpy as np

from . import oracle, rates
from .algebra import OverlapTable, Statistics
from .scenarios import (
    ALL_PAIRS,
    CHOICES,
    Coefficients,
    ExclusionFamily,
    RecoilModel,
    build_table,
    choice_overlaps,
    family_exclusion_coefficient,
    realizable_overlaps,
)

__all__ = ["SCAN_HEADER", "SWEEP_HEADER", "build_parser", "main"]

SWEEP_HEADER = [
    "scenario", "statistics", "a_re", "a_im", "b_re", "b_im",
    "c", "alpha0", "n0", "nf", "m_re", "m_im", "r", "excluded",
]
SCAN_HEADER = ["a", "c", "abs_coefficient", "excluded_by_norm", "excluded_by_formula"]

_ROOT2_INV = 1.0 / math.sqrt(2.0)


def _fmt(value: float) -> str:
    """Shortest decimal that parses back to the identical double."""
    return repr(float(value))


def _column(values: np.ndarray) -> list[str]:
    """CSV text of each value of a 1-d float64 grid array, as :func:`_fmt` writes it.

    A column whose values all have the same bits is formatted once: comparing
    bits keeps ``0.0`` and ``-0.0`` apart, and a NaN column counts as constant.
    """
    bits = values.view(np.int64)
    if bits.size and (bits == bits[0]).all():
        return [_fmt(values[0])] * bits.size
    return list(map(repr, values.tolist()))


def _flags(mask: np.ndarray) -> list[str]:
    """CSV text of each flag of a grid mask."""
    return ["1" if v else "0" for v in mask.tolist()]


def _normalized(a: float | np.ndarray) -> Coefficients:
    """Weights ``(a, sqrt(1 - a^2))``; one pair per value of an array ``a``."""
    return Coefficients(a, np.sqrt(np.maximum(0.0, 1.0 - a * a)))


class SweepResults(NamedTuple):
    """Single-point ``cases`` evaluated once for each of ``stats``: the fields of
    ``result`` are arrays over (statistics, scenario, case, c), on a table from
    :func:`_stacked_table`, and :meth:`SweepResults.scenario` views one scenario's."""

    cases: tuple[Coefficients, ...]
    stats: tuple[Statistics, ...]
    result: rates.RateResult

    def scenario(self, index: int) -> SweepResults:
        """The results on scenario ``index``, over (statistics, case, c), as views."""
        return self._replace(result=rates.RateResult(
            *(value[:, index] for value in vars(self.result).values())))


def _sweep_lines(scenario_name: str, results: SweepResults, cases: Sequence[Coefficients],
                 c_column: list[str], alpha0_text: str) -> list[str]:
    """CSV lines of each of ``cases``, some of ``results.cases`` (over (statistics,
    case, c)), then each statistics, c ascending, from the text of c and alpha0."""
    res = results.result
    lines: list[str] = []
    for coeffs in cases:
        row = results.cases.index(coeffs)
        for k, stat in enumerate(results.stats):
            head = ",".join([scenario_name, stat.name.lower(), _fmt(coeffs.a.real),
                             _fmt(coeffs.a.imag), _fmt(coeffs.b.real), _fmt(coeffs.b.imag)])
            lines.extend([f"{head},{c},{alpha0_text},{n0},{nf},{m_re},{m_im},{r},{flag}\n"
                          for c, n0, nf, m_re, m_im, r, flag in zip(
                              c_column, _column(res.n0[k, row]), _column(res.nf[k, row]),
                              _column(res.m.real[k, row]), _column(res.m.imag[k, row]),
                              _column(res.r[k, row]), _flags(res.excluded[k, row]))])
    return lines


def _stacked_table(names: Sequence[str], grid: np.ndarray, model: RecoilModel) -> OverlapTable:
    """One grid table over (scenario, 1, c) with the bare overlaps of ``names`` stacked
    on axis 0.  They are real, so each scenario's results are its own table's, bit for bit."""
    each, shape = [choice_overlaps(name, grid) for name in names], (1, *grid.shape)
    return build_table({pair: np.stack([np.broadcast_to(bare[pair], shape) for bare in each])
                        for pair in ALL_PAIRS}, model)


def _sweep_files(grid: np.ndarray, model: RecoilModel, stats: Sequence[Statistics],
                 files: dict[str, tuple[str, Sequence[Coefficients]]]):
    """The CSV lines of each of ``files``, ``file -> (scenario, cases)``, over
    ``grid``; also the results on each scenario and the text of c.

    One table stacks the scenarios, one :func:`pairabs.rates.relative_rate_grid`
    call evaluates every distinct case on it with the weights stacked on the
    axis before c, and c and alpha0 are formatted once.
    """
    names = tuple(dict.fromkeys(scenario for scenario, _ in files.values()))
    cases = tuple(dict.fromkeys(case for _, file_cases in files.values() for case in file_cases))
    stacked = Coefficients(np.array([case.a for case in cases])[:, None],
                           np.array([case.b for case in cases])[:, None])
    results = SweepResults(cases, tuple(stats), rates.relative_rate_grid(
        stacked, _stacked_table(names, grid, model), tuple(stats)))
    on = {name: results.scenario(j) for j, name in enumerate(names)}
    c_column, alpha0_text = _column(grid), _fmt(model.alpha0)
    lines = {file: _sweep_lines(scenario, on[scenario], file_cases, c_column, alpha0_text)
             for file, (scenario, file_cases) in files.items()}
    return lines, on, c_column


@contextlib.contextmanager
def _open_out(path: str | Path | None):
    """Standard output for no path or ``-``, else the file ``path`` as UTF-8 text."""
    if path is None or path == "-":
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            yield handle


def _write_csv(out: TextIO, header: Sequence[str], lines: Iterable[str]) -> None:
    """Write ``header`` joined with ``,`` and the ``lines``, each ending in ``\\n``.

    No field needs CSV quoting: every one is a float ``repr``, a ``0``/``1``
    flag or a fixed label, none with a comma, a quote or a line break, so the
    bytes equal what ``csv.writer(out, lineterminator="\\n")`` writes.  The
    lines go out one at a time through ``writelines``, never as one joined
    string: on an unbuffered standard output a single large ``write`` can be
    cut short without an error, while a line at a time still raises on a
    closed pipe.
    """
    out.write(",".join(header) + "\n")
    out.writelines(lines)


def _check_range(name: str, lo: float, hi: float) -> None:
    """Reject an axis ``[lo, hi]`` of ``name`` (``c`` or ``a``) that leaves ``[0, 1]``."""
    if not (0.0 <= lo <= hi <= 1.0):
        raise ValueError(f"need 0 <= {name}-min <= {name}-max <= 1, "
                         f"got {name}-min={lo} {name}-max={hi}")


# ---------------------------------------------------------------------------
# subcommand implementations


def _cmd_sweep(args) -> int:
    """``sweep``, and ``rate`` as a sweep of the one point ``--c``: one file of one case."""
    model = RecoilModel(args.alpha0)
    c_min, c_max, steps = ((args.c, args.c, 1) if args.command == "rate"
                           else (args.c_min, args.c_max, args.steps))
    _check_range("c", c_min, c_max)
    grid = np.linspace(c_min, c_max, steps)  # one step gives [c_min]
    name = args.choice or "i"  # the one place the default scenario is set
    stats = (BOTH_STATISTICS if args.statistics == "both"
             else (Statistics[args.statistics.upper()],))
    coeffs = Coefficients(complex(args.a_re, args.a_im), complex(args.b_re, args.b_im))
    lines, _, _ = _sweep_files(grid, model, stats, {name: (name, (coeffs,))})
    with _open_out(args.out) as out:
        _write_csv(out, SWEEP_HEADER, lines[name])
    return 0


FIG2_CASES = tuple(map(_normalized, (1.0, 0.8, _ROOT2_INV)))
FIG3_III_CASES = (Coefficients(1.0, 0.0), Coefficients(0.8, 0.2), Coefficients(0.5, 0.5))
# fig3_iii's own a=1 object, so fig3 evaluates it once; the others are the coincidence curves
FIG3_IV_CASES = (FIG3_III_CASES[0], *map(_normalized, (0.8, 0.5)))
FIG4_CASES = tuple(map(_normalized, (0.64, 0.67, _ROOT2_INV)))
BOTH_STATISTICS = (Statistics.BOSON, Statistics.FERMION)

COINCIDENCE_HEADER = ["c", "a", "r", "r_ref", "rel_dev", "excluded", "excluded_ref"]

#: Each figure target's statistics and its sweep files, ``file -> (scenario, cases)``.
_FIGURES = {
    "fig2": (BOTH_STATISTICS, {"fig2_i.csv": ("i", FIG2_CASES),
                               "fig2_ii.csv": ("ii", FIG2_CASES)}),
    "fig3": (BOTH_STATISTICS, {"fig3_iii.csv": ("iii", FIG3_III_CASES),
                               "fig3_iv.csv": ("iv", FIG3_IV_CASES)}),
    "fig4": ((Statistics.FERMION,), {"fig4.csv": ("family", FIG4_CASES)}),
}


def _log_choice_ii_flatness(results: SweepResults) -> None:
    """Per-case spans, on standard output, showing that for fermions only the final
    normalization moves R; ``results`` are fig2's on choice ii."""
    k, res = results.stats.index(Statistics.FERMION), results.result
    for row, coeffs in enumerate(results.cases):
        n0s, nf_sqs = res.n0_sq[k, row].tolist(), res.nf_sq[k, row].tolist()
        brackets = np.abs(res.bracket[k, row]).tolist()
        rs = res.r[k, row][~res.excluded[k, row]].tolist()
        r_span = (max(rs) - min(rs)) / min(rs)
        print(
            f"choice ii fermion a={coeffs.a.real:g} b={coeffs.b.real:g}: "
            f"initial-norm^2 span {max(n0s) - min(n0s):.3e}, "
            f"bracket-sum span {max(brackets) - min(brackets):.3e}, "
            f"relative R span {r_span:.4%}; "
            f"final-norm^-2 span {max(nf_sqs) - min(nf_sqs):.3e} carries all of it"
        )


def _coincidence_rows(results: SweepResults, c_column: list[str]):
    """Lines of the fermion curves of ``FIG3_IV_CASES[1:]`` against the a=1 curve, and
    their largest relative deviation.  ``results`` are fig3's on choice iii, over
    (statistics, case, c), and ``c_column`` is the text of c.
    """
    k, cases = results.stats.index(Statistics.FERMION), results.cases
    r, excluded = results.result.r[k], results.result.excluded[k]  # over (case, c)
    ref = cases.index(FIG3_III_CASES[0])
    ref_text, ref_flags = _column(r[ref]), _flags(excluded[ref])
    lines, max_dev = [], 0.0
    for coeffs in FIG3_IV_CASES[1:]:
        row = cases.index(coeffs)
        either = excluded[row] | excluded[ref]
        with np.errstate(divide="ignore", invalid="ignore"):
            dev = np.where(either, np.nan, np.abs(r[row] - r[ref]) / r[ref])
        max_dev = max([max_dev, *dev[~either].tolist()])
        a_text = _fmt(coeffs.a.real)
        lines.extend([f"{c},{a_text},{r_text},{r_ref},{d},{flag},{flag_ref}\n"
                      for c, r_text, r_ref, d, flag, flag_ref in zip(
                          c_column, _column(r[row]), ref_text, _column(dev),
                          _flags(excluded[row]), ref_flags)])
    return lines, max_dev


def _cmd_figures(args) -> int:
    """The CSV datasets of one figure target, in the directory ``--out``; every
    output reads the target's one evaluation (:func:`_sweep_files`)."""
    grid = np.linspace(0.0, 1.0, args.steps)
    files, on, c_column = _sweep_files(grid, RecoilModel(args.alpha0), *_FIGURES[args.target])
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, lines in files.items():
        with _open_out(out_dir / name) as out:
            _write_csv(out, SWEEP_HEADER, lines)
    if args.target == "fig2":
        _log_choice_ii_flatness(on["ii"])
    elif args.target == "fig3":
        lines, max_dev = _coincidence_rows(on["iii"], c_column)
        with _open_out(out_dir / "fig3_iii_fermion_coincidence.csv") as out:
            _write_csv(out, COINCIDENCE_HEADER, lines)
        print("choice iii fermion, normalized weights: max relative deviation "
              f"from the a=1 curve {max_dev:.4%}")
    return 0


def _scan_lines(a_grid: np.ndarray, c_grid: np.ndarray) -> tuple[list[str], int]:
    """Lines (a, c, |coefficient|, excluded_by_norm, excluded_by_formula) of the
    1-d grids ``a_grid`` and ``c_grid``, plus the number of rows where the two
    detection paths disagree.

    Both verdicts are :func:`pairabs.rates.exclusion_mask`, the one null
    floor: ``excluded_by_norm`` on the closed-form initial norm², and
    ``excluded_by_formula`` on ``2|coefficient|^2``, which is that norm² on
    the family.  Each is one evaluation over the whole grid: weights
    ``a[:, None]`` against a grid table over ``c``.  The initial norm² reads
    only bare overlaps, so that table holds just the family's six
    (``ExclusionFamily.overlaps``), with no recoil entries.
    """
    fam = ExclusionFamily.equal_weight(c_grid)
    coeffs = _normalized(a_grid[:, None])  # (a, c) grid
    by_norm = rates.exclusion_mask(
        coeffs, rates.initial_norm_sq(coeffs, OverlapTable(fam.overlaps), Statistics.FERMION))
    coefficient = family_exclusion_coefficient(coeffs, fam)
    magnitude = np.broadcast_to(np.abs(coefficient), by_norm.shape)
    by_formula = rates.exclusion_mask(coeffs, 2.0 * magnitude * magnitude)
    c_column = _column(c_grid)
    columns = (_column(magnitude.ravel()), _flags(by_norm.ravel()), _flags(by_formula.ravel()))
    lines: list[str] = []
    for row, a_text in enumerate(_column(a_grid)):
        block = slice(row * len(c_column), (row + 1) * len(c_column))
        lines.extend([f"{a_text},{c},{abs_coeff},{flag_norm},{flag_formula}\n"
                      for c, abs_coeff, flag_norm, flag_formula in zip(
                          c_column, *(column[block] for column in columns))])
    return lines, int(np.count_nonzero(by_norm != by_formula))


def _cmd_exclusion_scan(args) -> int:
    _check_range("c", args.c_min, args.c_max)
    _check_range("a", args.a_min, args.a_max)
    lines, disagreements = _scan_lines(np.linspace(args.a_min, args.a_max, args.a_steps),
                                       np.linspace(args.c_min, args.c_max, args.steps))
    with _open_out(args.out) as out:
        _write_csv(out, SCAN_HEADER, lines)
    if disagreements:
        print(
            f"pairabs exclusion-scan: norm-based and formula-based detection "
            f"disagree on {disagreements} grid point(s)",
            file=sys.stderr,
        )
        return 2
    return 0


def _draw_candidates(rng: np.random.Generator, count: int) -> list[np.ndarray]:
    """Arrays ``[a, b, alpha0, raw]`` of ``count`` random trials.

    One call each draws, in this order, four normal weight parts, an
    ``alpha0`` in [0.5, 1) and four raw normal vectors for the overlaps
    (:func:`realizable_overlaps`) of every trial.  The weights ``a`` and
    ``b`` are the parts over their norm.
    """
    parts = rng.normal(size=(count, 4))
    alpha0 = rng.uniform(0.5, 1.0, count)
    raw = rng.normal(size=(count, 4, 4))
    squares = parts * parts
    scale = np.sqrt(squares[:, 0] + squares[:, 1] + squares[:, 2] + squares[:, 3])
    weights = (parts / scale[:, None]).view(complex)  # rows (a, b)
    return [weights[:, 0], weights[:, 1], alpha0, raw]


def _block_worst(rng: np.random.Generator, size: int):
    """The largest deviation (:func:`pairabs.oracle.closed_form_deviations`) of
    each quantity over ``size`` random trials, drawn at once
    (:func:`_draw_candidates`), and the worst of them against its rounding
    bound: ``(ratio, deviation, (trial, statistics, quantity))``, the first
    NaN ratio, else the first maximum, in that order.  A null trial fails the
    run (:func:`pairabs.rates.require_not_null`).  The block's arrays are
    freed on return, before the next block draws, so that one reuses their
    memory.
    """
    a, b, alpha0, raw = _draw_candidates(rng, size)
    coeffs = Coefficients(a, b)
    table = build_table(realizable_overlaps(raw), RecoilModel(alpha0))
    results = rates.relative_rate_grid(coeffs, table, BOTH_STATISTICS)
    rates.require_not_null(coeffs, results.n0_sq, results.nf_sq)
    devs, bounds = (part.transpose() for part in oracle.closed_form_deviations(  # (trial, stat, q)
        coeffs, results, oracle.formal_quantities(coeffs, table, BOTH_STATISTICS)))
    ratios = devs / bounds
    at = np.unravel_index(int(np.argmax(ratios)), ratios.shape)  # first NaN, else first max
    return np.max(devs, axis=(0, 1)), float(ratios[at]), float(devs[at]), at


#: Trials drawn and evaluated together as one trial-axis grid; a report depends
#: on it, since a block draws its numbers at once.  A larger block pays the
#: fixed cost of a table and two evaluations less often, but holds its arrays
#: until it is done: the ``tracemalloc`` peak of ``verify --seed 1`` at 1000
#: trials is 0.25 MiB at 128, 0.79 MiB at 512 and 1.53 MiB for one block of
#: 1000, and a test bounds it at 2 MiB.  ``bench/run.py --workload verify
#: --seed 1 --seconds 10`` (median warm job and the worker's peak RSS, mean of
#: two runs; 2-vCPU Xeon, Python 3.11, numpy 2.4.6): 128: 12.9 ms, 38.3 MB;
#: 256: 7.9 ms, 38.4 MB; 384: 6.8 ms, 38.4 MB; 512: 5.4 ms, 38.4 MB; 1000:
#: 4.7 ms, 39.0 MB.  One block of 1000 is about an eighth faster, but 512
#: stays: the block size sets the report bytes.
_VERIFY_BLOCK = 512

_VERIFY_QUANTITIES = ("matrix element", "initial norm^2", "final norm^2")


def _cmd_verify(args) -> int:
    """Compare closed-form and formal-expansion results over random configurations.

    Each block of ``_VERIFY_BLOCK`` (512) trials is one trial-axis grid, on
    which the closed forms (:func:`pairabs.rates.relative_rate_grid`) and the
    oracle (:func:`pairabs.oracle.formal_quantities`) run once each, with
    the statistics as axis 0, every point equal bit for bit to its trial and
    statistics on its own; the default 1000 trials make two blocks (512 and
    488).  A run of at most 512 trials is one block of its own size, so
    every block size from its trial count up gives the same report.  A run
    keeps only a running maximum per quantity and the worst deviation so far
    (:func:`_block_worst`): a NaN beats everything, and otherwise an earlier
    block wins a tie, so the worst is the first NaN, else the first maximum
    ratio, in (trial, statistics, quantity) order, and the report is
    byte-stable for a seed.  It fails above its bound, and a NaN deviation
    fails.  The report is written once the run is done.
    """
    seed, trials = args.seed, args.trials
    rng = np.random.default_rng(seed)
    dev_max, worst = np.full(len(_VERIFY_QUANTITIES), -math.inf), (-math.inf,)
    for first in range(0, trials, _VERIFY_BLOCK):
        block_max, ratio, dev, (trial, stat, kind) = _block_worst(
            rng, min(_VERIFY_BLOCK, trials - first))
        dev_max = np.maximum(dev_max, block_max)  # NaN stays NaN, as with np.max
        if not math.isnan(worst[0]) and (math.isnan(ratio) or ratio > worst[0]):
            worst = (ratio, dev, first + trial, stat, kind)
    ratio, dev, trial, stat, kind = worst
    where = f"in {_VERIFY_QUANTITIES[kind]} ({BOTH_STATISTICS[stat].name.lower()}) at trial {trial}"
    lines = [f"verify: seed={seed} trials={trials}\n",
             *(f"max |{name} closed - formal| = {_fmt(value)}\n"
               for name, value in zip(_VERIFY_QUANTITIES, dev_max.tolist())),
             f"max |closed - formal| / rounding bound = {_fmt(ratio)} {where}\n"]
    passed = ratio <= 1.0
    lines.append("PASS\n" if passed else
                 f"FAIL: deviation {_fmt(dev)} {where}; reproduce with seed={seed}\n")
    with _open_out(args.out) as out:
        out.writelines(lines)
    return 0 if passed else 2


# ---------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    """Exit code 1 (not argparse's default 2) on invalid input."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _int_at_least(least: int, kind: str):
    """An argparse type: an ``int`` of at least ``least``, else 'must be a ``kind`` integer'."""
    def convert(text: str) -> int:
        with contextlib.suppress(ValueError):
            if (value := int(text)) >= least:
                return value
        raise argparse.ArgumentTypeError(f"must be a {kind} integer")
    return convert


_positive_int, _nonnegative_int = _int_at_least(1, "positive"), _int_at_least(0, "non-negative")


#: The help of ``--steps``, whose default differs between subcommands.
_STEPS_HELP = "number of sweep values (default %(default)s)"

#: One row per flag: its name, the subcommands that take it and its
#: ``add_argument`` keywords.  Each subcommand takes its rows in this order,
#: then ``--config``.  ``--choice`` and ``--family`` share a mutually exclusive
#: group; ``--choice`` defaults to None, not "i", so that argparse still
#: rejects it with ``--family``.
_FLAGS = (
    ("--choice", ("rate", "sweep"),
     dict(choices=CHOICES,
          help="built-in overlap preset, or the equal-weight exclusion family (default i)")),
    ("--family", ("rate", "sweep"),
     dict(action="store_const", dest="choice", const="family",
          help="shorthand for --choice family")),
    ("--statistics", ("rate", "sweep"),
     dict(choices=("boson", "fermion", "both"), default="both",
          help="exchange statistics of the pair (default %(default)s)")),
    ("--a-re", ("rate", "sweep"),
     dict(type=float, default=1.0, help="real part of the weight a (default %(default)s)")),
    ("--a-im", ("rate", "sweep"),
     dict(type=float, default=0.0, help="imaginary part of the weight a (default %(default)s)")),
    ("--b-re", ("rate", "sweep"),
     dict(type=float, default=0.0, help="real part of the weight b (default %(default)s)")),
    ("--b-im", ("rate", "sweep"),
     dict(type=float, default=0.0, help="imaginary part of the weight b (default %(default)s)")),
    ("--c", ("rate",), dict(type=float, default=0.0, help="sweep value (default 0)")),
    ("target", ("figures",), dict(choices=tuple(_FIGURES))),
    ("--a-min", ("exclusion-scan",),
     dict(type=float, default=0.0,
          help="first weight a, with b = sqrt(1 - a^2) (default %(default)s)")),
    ("--a-max", ("exclusion-scan",),
     dict(type=float, default=1.0, help="last weight a (default %(default)s)")),
    ("--a-steps", ("exclusion-scan",),
     dict(type=_positive_int, default=51, help="number of weights a (default %(default)s)")),
    ("--c-min", ("sweep", "exclusion-scan"),
     dict(type=float, default=0.0, help="first sweep value (default %(default)s)")),
    ("--c-max", ("sweep", "exclusion-scan"),
     dict(type=float, default=1.0, help="last sweep value (default %(default)s)")),
    ("--steps", ("sweep", "figures"), dict(type=_positive_int, default=101, help=_STEPS_HELP)),
    ("--steps", ("exclusion-scan",), dict(type=_positive_int, default=51, help=_STEPS_HELP)),
    ("--seed", ("verify",),
     dict(type=_nonnegative_int, default=0,
          help="seed of the random configurations (default %(default)s)")),
    ("--trials", ("verify",),
     dict(type=_positive_int, default=1000,
          help="number of random configurations (default %(default)s)")),
    ("--alpha0", ("rate", "sweep", "figures"),
     dict(type=float, default=RecoilModel.alpha0,
          help=f"one-recoil overlap shrink factor (default {RecoilModel.alpha0})")),
    ("--out", ("rate", "sweep", "exclusion-scan", "verify"),
     dict(default=None, metavar="PATH", help="output path; default standard output")),
    ("--out", ("figures",),
     dict(default=".", metavar="DIR", help="output directory (default current directory)")),
)

#: Each subcommand's help line and the function that runs it, in the order of
#: the usage line.
_COMMANDS = {
    "rate": ("evaluate a single sweep point", _cmd_sweep),
    "sweep": ("sweep the overlap parameter, emit CSV", _cmd_sweep),
    "figures": ("emit the built-in figure datasets", _cmd_figures),
    "exclusion-scan": ("grid scan of the exclusion family, two detection paths",
                       _cmd_exclusion_scan),
    "verify": ("randomized closed-form vs formal-expansion check", _cmd_verify),
}


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """A new top-level parser and its subparsers by name, all five of them."""
    parser = _Parser(
        prog="pairabs",
        description="Relative single-photon absorption rates for symmetrized "
                    "two-atom superpositions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, _) in _COMMANDS.items():
        subparser = sub.add_parser(command, help=help_text)
        group = None  # made on first use: argparse cannot format an empty group
        for name, commands, kwargs in _FLAGS:
            if command not in commands:
                continue
            if name in ("--choice", "--family"):
                group = group or subparser.add_mutually_exclusive_group()
                group.add_argument(name, **kwargs)
            else:
                subparser.add_argument(name, **kwargs)
        subparser.add_argument("--config", default=None, metavar="PATH",
                               help="key = value config file; command-line flags override it")
    return parser, sub.choices


#: :func:`main`'s parser, built on its first call and never changed.
_parser = functools.cache(build_parser)


def _read_config(path: str) -> dict[str, str]:
    """Plain ``key = value`` lines; blank lines are ignored, and a ``#`` at the start
    of a line or after whitespace starts a comment, so ``out = res#1.csv`` keeps its ``#``."""
    values: dict[str, str] = {}
    text = Path(path).read_text(encoding="utf-8-sig")  # drops the BOM some editors write
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = re.sub(r"(?:^|\s)#.*", "", raw, count=1).strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        values[key.strip().replace("-", "_")] = value.strip()
    return values


def _config_values(command: str, values: dict[str, str]) -> dict[str, object]:
    """``values`` converted and checked by the ``_FLAGS`` row of each key for ``command``."""
    rows: dict[str, dict] = {}  # dest -> add_argument keywords
    for name, commands, kwargs in _FLAGS:
        if command in commands and name.startswith("--"):  # a positional is not a key
            # the first row of a dest wins: --choice, not its --family shorthand
            rows.setdefault(kwargs.get("dest", name.lstrip("-").replace("-", "_")), kwargs)
    converted: dict[str, object] = {}
    for key, raw in values.items():
        kwargs = rows.get(key)
        if kwargs is None:
            raise ValueError(f"unknown config key {key!r} for this command")
        try:
            value = kwargs.get("type", str)(raw)
        except (ValueError, argparse.ArgumentTypeError) as exc:
            raise ValueError(f"config key {key!r}: {exc}") from exc
        choices = kwargs.get("choices")
        if choices is not None and value not in choices:
            raise ValueError(f"config key {key!r}: {value!r} is not one of {tuple(choices)}")
        converted[key] = value
    return converted


def _drop_unwritable_stdout() -> None:
    """Point fd 1 at ``os.devnull`` if the process's own standard output is a closed pipe.

    Python's SIGPIPE recipe: else the bytes still in ``sys.stdout``'s buffer
    fail again when the interpreter flushes it at exit, which prints
    ``Exception ignored ... BrokenPipeError`` and exits with 120.  A replaced
    ``sys.stdout`` (an in-process caller's) is left alone, and so is a
    standard output that still flushes: the closed pipe was another file.
    """
    if sys.stdout is not sys.__stdout__:
        return
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser, commands = _parser()
    args = parser.parse_args(argv)
    if args.config:
        cmd = args.command
        try:
            config = _config_values(cmd, _read_config(args.config))
        except (OSError, ValueError) as exc:
            print(f"pairabs: config error: {exc}", file=sys.stderr)
            return 1
        # argparse fills in only the dests the namespace lacks: explicit flags still win
        args = commands[cmd].parse_args(argv[argv.index(cmd) + 1:],
                                        argparse.Namespace(command=cmd, **config))
    try:
        code = _COMMANDS[args.command][1](args)
        sys.stdout.flush()  # a closed pipe fails here, not at exit
        return code
    except (ValueError, OSError, MemoryError) as exc:  # ExcludedStateError is a ValueError
        print(f"pairabs: error: {exc}", file=sys.stderr)
        if isinstance(exc, BrokenPipeError):
            _drop_unwritable_stdout()
        return 1


if __name__ == "__main__":
    sys.exit(main())
