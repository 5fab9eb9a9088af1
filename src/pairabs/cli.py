"""Command-line front end: single points, sweeps, figure datasets, exclusion scans,
and self-verification against the formal-expansion cross-check.

All numeric CSV fields use the shortest decimal representation that round-trips
to the same double, so fixed inputs (and a fixed seed for ``verify``) produce
byte-identical output.  No field ever needs CSV quoting, so
:func:`_write_csv` joins each row with ``,`` and hands the lines to one
``writelines`` call per file: the bytes ``csv.writer`` would write.

The grid subcommands (``sweep``, ``figures``, ``exclusion-scan``) build one
grid table per ``c`` grid.  ``sweep`` and ``figures`` evaluate it once per
weights and statistics pair, ``exclusion-scan`` once for its whole (a, c)
grid with array weights, and ``verify`` each block of 128 trials as one
trial-axis grid; every output is byte-identical to evaluating each point on
its own.  ``verify`` draws a block's random numbers at once, one generator
call per kind, and computes the overlaps of all its candidates with one
:func:`pairabs.scenarios.realizable_overlaps` call; redraws join the end of
the block, so its report depends on the seed, the trial count and the block
size.  ``rate`` is ``sweep`` on the one-point grid ``[--c]``.  A sweep keeps
its results as a list in (weights, statistics) order, and ``figures`` reads
its log lines and the a=1 coincidence curve from them by scenario name.

The scenario of ``rate`` and ``sweep`` is one setting, ``choice``: a preset
or ``family``.  ``--family`` is shorthand for ``--choice family``, a config
file spells it ``choice = family``, and an explicit flag beats the file.

``_COMMANDS`` holds each subcommand's help line, arguments and runner.
:func:`main` builds the parser of the subcommand its first argument names,
and every subcommand's only for help, no arguments or an unknown name; the
help and error text are the same either way.  No parser is kept between
calls, because ``--config`` values become its subparser's defaults and would
carry into the next in-process call.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import math
import sys
from pathlib import Path
from typing import Iterable, Sequence, TextIO

import numpy as np

from . import oracle, rates
from .algebra import OverlapTable, Statistics
from .scenarios import (
    CHOICES,
    Coefficients,
    ExclusionFamily,
    RecoilModel,
    build_choice_table,
    build_family_table,
    build_table,
    family_exclusion_coefficient,
    realizable_overlaps,
)

__all__ = [
    "SCAN_HEADER",
    "SWEEP_HEADER",
    "build_parser",
    "exclusion_scan_rows",
    "main",
    "run_figures",
    "run_verify",
    "sweep_results",
    "sweep_rows",
]

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
    """CSV text of each value of a grid array, as :func:`_fmt` writes it."""
    return list(map(repr, values.tolist()))


def _flags(mask: np.ndarray) -> list[str]:
    """CSV text of each flag of a grid mask."""
    return ["1" if v else "0" for v in mask.tolist()]


def _normalized(a: float | np.ndarray) -> Coefficients:
    """Weights ``(a, sqrt(1 - a^2))``; one pair per value of an array ``a``."""
    return Coefficients(a, np.sqrt(np.maximum(0.0, 1.0 - a * a)))


SweepResults = list[tuple[Coefficients, Statistics, rates.RateResult]]


def sweep_results(
    table: OverlapTable, cases: Sequence[Coefficients], stats: Sequence[Statistics]
) -> SweepResults:
    """``(case, statistics, result)`` of one :func:`pairabs.rates.relative_rate_grid`
    per (case, statistics), in that order; equal cases keep a result each."""
    return [(coeffs, stat, rates.relative_rate_grid(coeffs, table, stat))
            for coeffs in cases for stat in stats]


def sweep_rows(
    scenario_name: str, results: SweepResults, grid: Sequence[float], alpha0: float
) -> list[list[str]]:
    """CSV rows ordered as ``results`` (case, then statistics), c ascending.

    ``results`` come from :func:`sweep_results` on the grid table over ``grid``.
    """
    c_column = _column(np.asarray(grid, dtype=float))
    alpha0_text = _fmt(alpha0)
    rows = []
    for coeffs, stat, res in results:
        head = [scenario_name, stat.name.lower(), _fmt(coeffs.a.real), _fmt(coeffs.a.imag),
                _fmt(coeffs.b.real), _fmt(coeffs.b.imag)]
        rows.extend(
            [*head, c, alpha0_text, *fields]
            for c, *fields in zip(
                c_column,
                _column(res.n0), _column(res.nf),
                _column(res.m.real), _column(res.m.imag),
                _column(res.r), _flags(res.excluded),
            )
        )
    return rows


def _scenario_table(name: str, grid: np.ndarray, model: RecoilModel) -> OverlapTable:
    """Grid table over ``grid`` for a preset choice or ``"family"``."""
    if name == "family":
        return build_family_table(ExclusionFamily.equal_weight(grid), model)
    return build_choice_table(name, grid, model)


@contextlib.contextmanager
def _open_out(path: str | Path | None):
    """Standard output for no path or ``-``, else the file ``path`` as UTF-8 text."""
    if path is None or path == "-":
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            yield handle


def _write_csv(out: TextIO, header: Sequence[str], rows: Iterable[Sequence[str]]) -> None:
    """Write ``header`` and ``rows`` as comma-separated lines ending in ``\\n``.

    No field ever needs CSV quoting: every field is a float ``repr``, a
    ``0``/``1`` flag or a fixed label (a header name, scenario or statistics
    name), and none contains a comma, a quote or a line break, so the bytes
    equal what ``csv.writer(out, lineterminator="\\n")`` writes.  The lines go
    out one at a time through ``writelines``, never as one joined string: on an
    unbuffered standard output a single large ``write`` can be cut short
    without an error, while a line at a time still raises on a closed pipe.
    """
    out.writelines(",".join(row) + "\n" for row in itertools.chain([header], rows))


def _check_range(name: str, lo: float, hi: float) -> None:
    """Reject an axis ``[lo, hi]`` of ``name`` (``c`` or ``a``) that leaves ``[0, 1]``."""
    if not (0.0 <= lo <= hi <= 1.0):
        raise ValueError(f"need 0 <= {name}-min <= {name}-max <= 1, "
                         f"got {name}-min={lo} {name}-max={hi}")


# ---------------------------------------------------------------------------
# subcommand implementations


def _cmd_sweep(args) -> int:
    """``sweep``, and ``rate`` as a sweep of the one point ``--c``."""
    model = RecoilModel(args.alpha0)
    c_min, c_max, steps = ((args.c, args.c, 1) if args.command == "rate"
                           else (args.c_min, args.c_max, args.steps))
    _check_range("c", c_min, c_max)
    grid = np.linspace(c_min, c_max, steps)  # one step gives [c_min]
    name = args.choice or "i"  # the one place the default scenario is set
    stats = (BOTH_STATISTICS if args.statistics == "both"
             else (Statistics[args.statistics.upper()],))
    coeffs = Coefficients(complex(args.a_re, args.a_im), complex(args.b_re, args.b_im))
    results = sweep_results(_scenario_table(name, grid, model), [coeffs], stats)
    rows = sweep_rows(name, results, grid, args.alpha0)
    with _open_out(args.out) as out:
        _write_csv(out, SWEEP_HEADER, rows)
    return 0


FIG2_CASES = tuple(map(_normalized, (1.0, 0.8, _ROOT2_INV)))
FIG3_III_CASES = (Coefficients(1.0, 0.0), Coefficients(0.8, 0.2), Coefficients(0.5, 0.5))
FIG3_IV_CASES = tuple(map(_normalized, (1.0, 0.8, 0.5)))
FIG4_CASES = tuple(map(_normalized, (0.64, 0.67, _ROOT2_INV)))
BOTH_STATISTICS = (Statistics.BOSON, Statistics.FERMION)

COINCIDENCE_HEADER = ["c", "a", "r", "r_ref", "rel_dev", "excluded", "excluded_ref"]

#: The sweep files of each figure target: ``file -> (scenario, cases, statistics)``.
_FIGURES = {
    "fig2": {"fig2_i.csv": ("i", FIG2_CASES, BOTH_STATISTICS),
             "fig2_ii.csv": ("ii", FIG2_CASES, BOTH_STATISTICS)},
    "fig3": {"fig3_iii.csv": ("iii", FIG3_III_CASES, BOTH_STATISTICS),
             "fig3_iv.csv": ("iv", FIG3_IV_CASES, BOTH_STATISTICS)},
    "fig4": {"fig4.csv": ("family", FIG4_CASES, (Statistics.FERMION,))},
}


def _log_choice_ii_flatness(results: SweepResults, log: TextIO) -> None:
    """Per-case spans showing that for fermions only the final normalization moves R.

    ``results`` are those of the fig2 choice-ii sweep.
    """
    for coeffs, _, res in results[1::2]:  # the fermion results: BOTH_STATISTICS[1]
        n0s, nf_sqs = res.n0_sq.tolist(), res.nf_sq.tolist()
        brackets = np.abs(res.bracket).tolist()
        rs = res.r[~res.excluded].tolist()
        r_span = (max(rs) - min(rs)) / min(rs)
        print(
            f"choice ii fermion a={coeffs.a.real:g} b={coeffs.b.real:g}: "
            f"initial-norm^2 span {max(n0s) - min(n0s):.3e}, "
            f"bracket-sum span {max(brackets) - min(brackets):.3e}, "
            f"relative R span {r_span:.4%}; "
            f"final-norm^-2 span {max(nf_sqs) - min(nf_sqs):.3e} carries all of it",
            file=log,
        )


def _coincidence_rows(ref: rates.RateResult, results: SweepResults, grid: np.ndarray):
    """Fermion curves of choice iii for normalized weights, against the a=1 curve.

    ``ref`` is the a=1 fermion result of the fig3 choice-iii sweep and
    ``results`` are the normalized-weight fermion results on its table.
    """
    c_column, ref_r, ref_flags = _column(grid), _column(ref.r), _flags(ref.excluded)
    rows = []
    max_dev = 0.0
    for coeffs, _, res in results:
        either = res.excluded | ref.excluded
        with np.errstate(divide="ignore", invalid="ignore"):
            dev = np.where(either, np.nan, np.abs(res.r - ref.r) / ref.r)
        max_dev = max([max_dev, *dev[~either].tolist()])
        a_text = _fmt(coeffs.a.real)
        rows.extend(
            [c, a_text, *fields]
            for c, *fields in zip(c_column, _column(res.r), ref_r, _column(dev),
                                  _flags(res.excluded), ref_flags)
        )
    return rows, max_dev


def run_figures(
    target: str,
    out_dir: Path,
    steps: int = 101,
    alpha0: float = RecoilModel.alpha0,
    log: TextIO | None = None,
) -> list[Path]:
    """Emit the CSV datasets for one figure target; returns the written paths."""
    if target not in _FIGURES:
        raise ValueError(f"unknown figure target {target!r}")
    if steps < 1:
        raise ValueError("steps must be a positive integer")
    log = sys.stdout if log is None else log
    model = RecoilModel(alpha0)
    grid = np.linspace(0.0, 1.0, steps)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []

    def emit(name: str, header, rows) -> None:
        path = out_dir / name
        with _open_out(path) as handle:
            _write_csv(handle, header, rows)
        written.append(path)

    tables: dict[str, OverlapTable] = {}
    results: dict[str, SweepResults] = {}
    for name, (scenario, cases, stats) in _FIGURES[target].items():
        tables[scenario] = _scenario_table(scenario, grid, model)
        results[scenario] = sweep_results(tables[scenario], cases, stats)
        emit(name, SWEEP_HEADER, sweep_rows(scenario, results[scenario], grid, alpha0))
    if target == "fig2":
        _log_choice_ii_flatness(results["ii"], log)
    elif target == "fig3":
        _, _, a1_fermion = results["iii"][1]  # FIG3_III_CASES[0] (a=1), BOTH_STATISTICS[1]
        rows, max_dev = _coincidence_rows(
            a1_fermion,
            sweep_results(tables["iii"], tuple(map(_normalized, (0.8, 0.5))),
                          (Statistics.FERMION,)),
            grid,
        )
        emit("fig3_iii_fermion_coincidence.csv", COINCIDENCE_HEADER, rows)
        print(
            "choice iii fermion, normalized weights: max relative deviation "
            f"from the a=1 curve {max_dev:.4%}",
            file=log,
        )
    return written


def _cmd_figures(args) -> int:
    run_figures(args.target, Path(args.out), args.steps, args.alpha0)
    return 0


def exclusion_scan_rows(
    a_grid: Sequence[float], c_grid: Sequence[float]
) -> tuple[list[list[str]], int]:
    """Rows (a, c, |coefficient|, excluded_by_norm, excluded_by_formula) plus the
    number of rows where the two detection paths disagree.

    Both verdicts are :func:`pairabs.rates.exclusion_mask`, the one null
    floor: ``excluded_by_norm`` on the closed-form initial norm², and
    ``excluded_by_formula`` on ``2|coefficient|^2``, which is that norm² on
    the family.  Each is one evaluation over the whole grid: weights
    ``a[:, None]`` against the family's grid table over ``c``.  The initial
    norm² reads only bare overlaps, so no recoil model enters.
    """
    for name, values in (("a", a_grid), ("c", c_grid)):
        for value in values:
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} values must lie in [0, 1], got {value}")
    c_grid = np.asarray(c_grid, dtype=float)
    fam = ExclusionFamily.equal_weight(c_grid)
    coeffs = _normalized(np.asarray(a_grid, dtype=float)[:, None])  # (a, c) grid
    by_norm = rates.exclusion_mask(
        coeffs, rates.initial_norm_sq(coeffs, build_family_table(fam), Statistics.FERMION))
    coefficient = family_exclusion_coefficient(coeffs, fam)
    magnitude = np.broadcast_to(np.abs(coefficient), by_norm.shape)
    by_formula = rates.exclusion_mask(coeffs, 2.0 * magnitude * magnitude)
    c_column = _column(c_grid)
    rows: list[list[str]] = []
    for a, magnitudes, norm_flags, formula_flags in zip(a_grid, magnitude, by_norm, by_formula):
        a_text = _fmt(a)
        rows.extend([a_text, *fields] for fields in zip(
            c_column, _column(magnitudes), _flags(norm_flags), _flags(formula_flags)))
    return rows, int(np.count_nonzero(by_norm != by_formula))


def _cmd_exclusion_scan(args) -> int:
    _check_range("c", args.c_min, args.c_max)
    _check_range("a", args.a_min, args.a_max)
    a_grid = np.linspace(args.a_min, args.a_max, args.a_steps)
    c_grid = np.linspace(args.c_min, args.c_max, args.steps)
    rows, disagreements = exclusion_scan_rows(a_grid, c_grid)
    with _open_out(args.out) as out:
        _write_csv(out, SCAN_HEADER, rows)
    if disagreements:
        print(
            f"pairabs exclusion-scan: norm-based and formula-based detection "
            f"disagree on {disagreements} grid point(s)",
            file=sys.stderr,
        )
        return 2
    return 0


def _draw_candidates(rng: np.random.Generator, count: int) -> list[np.ndarray]:
    """Arrays ``[a, b, alpha0, raw]`` of ``count`` candidates, less those with tiny weights.

    One call each draws, in this order, four normal weight parts, an
    ``alpha0`` in [0.5, 1) and four raw normal vectors for the overlaps
    (:func:`realizable_overlaps`) of every candidate.  The weights ``a`` and
    ``b`` are the parts over their norm; parts of norm below 1e-6 are dropped.
    """
    parts = rng.normal(size=(count, 4))
    alpha0 = rng.uniform(0.5, 1.0, count)
    raw = rng.normal(size=(count, 4, 4))
    squares = parts * parts
    scale = np.sqrt(squares[:, 0] + squares[:, 1] + squares[:, 2] + squares[:, 3])
    keep = scale >= 1e-6
    weights = (parts[keep] / scale[keep, None]).view(complex)  # rows (a, b)
    return [weights[:, 0], weights[:, 1], alpha0[keep], raw[keep]]


def _verification_block(
    rng: np.random.Generator, size: int
) -> tuple[Coefficients, OverlapTable, dict[Statistics, rates.RateResult]]:
    """``size`` random trials as array weights, a trial-axis grid table and its results.

    The block draws its candidates at once (:func:`_draw_candidates`).
    Candidates too close to the excluded manifold are redrawn: there the
    normalized amplitude amplifies round-off in both routes and a fixed
    absolute tolerance would measure conditioning, not agreement.  Each is
    judged on its own initial norms², and the block is topped up to ``size``
    by one more draw per round, which joins the end.
    """
    a, b, alpha0, raw = _draw_candidates(rng, size)
    while True:
        coeffs = Coefficients(a, b)
        table = build_table(realizable_overlaps(raw), RecoilModel(alpha0))
        results = {stat: rates.relative_rate_grid(coeffs, table, stat)
                   for stat in BOTH_STATISTICS}
        keep = np.logical_and.reduce([res.n0_sq > 2e-3 for res in results.values()])
        kept = int(keep.sum())
        if kept == size:
            return coeffs, table, results
        a, b, alpha0, raw = (np.concatenate([old[keep], more]) for old, more in
                             zip((a, b, alpha0, raw), _draw_candidates(rng, size - kept)))


#: Trials drawn and evaluated together as one trial-axis grid; a report depends
#: on it, since a block draws its numbers at once and its redraws join its end.
#: A larger block pays the fixed cost of a table and four evaluations less
#: often, but holds its grid table until it is done (about 15 kB a trial).
#: Median of ``run_verify(1, 1000)`` over five fresh processes and their peak
#: RSS, per block size (2-vCPU Xeon, Python 3.11, numpy 2.4.6, raw seconds on a
#: loaded host): 32: 0.066 s, 36.8 MB; 64: 0.048 s, 36.8 MB; 128: 0.032 s,
#: 36.7 MB; 256: 0.031 s, 36.9 MB; 1000: 0.023 s, 39.3 MB.  A fresh process's
#: first job includes about 0.017 s of one-time setup; warm jobs (median of 15
#: in one process) take 0.050, 0.027, 0.015, 0.012 and 0.008 s.  128 keeps
#: peak RSS within 0.1 MB of a 32-trial block; 256 adds 0.2 MB to save 0.001 s
#: (0.003 s warm).
_VERIFY_BLOCK = 128

_VERIFY_QUANTITIES = ("matrix element", "initial norm^2", "final norm^2")


def run_verify(seed: int, trials: int, tolerance: float, out: TextIO | None = None) -> int:
    """Compare closed-form and formal-expansion results over random configurations.

    Each block of ``_VERIFY_BLOCK`` trials is one trial-axis grid, on which
    the closed forms (:func:`pairabs.rates.relative_rate_grid`) and the
    oracle (:func:`pairabs.oracle.formal_quantities`) run once per
    statistics, every point equal bit for bit to its trial on its own.  The
    worst deviation is the first NaN, else the first maximum, in (trial,
    statistics, quantity) order, so the report is byte-stable for a seed.
    A NaN deviation counts as a failure.
    """
    out = sys.stdout if out is None else out
    if trials < 1:
        raise ValueError("trials must be a positive integer")
    if not 0.0 < tolerance < math.inf:
        raise ValueError(f"tolerance must be positive and finite, got {tolerance!r}")
    rng = np.random.default_rng(seed)
    blocks = []
    for first in range(0, trials, _VERIFY_BLOCK):
        coeffs, table, results = _verification_block(rng, min(_VERIFY_BLOCK, trials - first))
        for res in results.values():
            rates.require_not_null(coeffs, res.n0_sq, res.nf_sq)
        blocks.append([oracle.closed_form_deviations(res, oracle.formal_quantities(
            coeffs, table, stat)) for stat, res in results.items()])
    devs = np.moveaxis(np.concatenate(blocks, axis=-1), -1, 0)  # (trial, statistics, quantity)
    trial, stat, kind = np.unravel_index(int(np.argmax(devs)), devs.shape)  # first NaN, else max
    worst = float(devs[trial, stat, kind])
    print(f"verify: seed={seed} trials={trials} tolerance={_fmt(tolerance)}", file=out)
    for name, dev in zip(_VERIFY_QUANTITIES, np.max(devs, axis=(0, 1)).tolist()):
        print(f"max |{name} closed - formal| = {_fmt(dev)}", file=out)
    if not worst < tolerance:
        print(
            f"FAIL: deviation {_fmt(worst)} in {_VERIFY_QUANTITIES[kind]} "
            f"({BOTH_STATISTICS[stat].name.lower()}) at trial {trial}; reproduce with seed={seed}",
            file=out,
        )
        return 2
    print("PASS", file=out)
    return 0


def _cmd_verify(args) -> int:
    with _open_out(args.out) as out:
        return run_verify(args.seed, args.trials, args.tolerance, out)


# ---------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    """Exit code 1 (not argparse's default 2) on invalid input."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be a non-negative integer")
    return value


def _add_common(p) -> None:
    _add_alpha0(p)
    _add_output(p)


def _add_alpha0(p) -> None:
    p.add_argument("--alpha0", type=float, default=RecoilModel.alpha0,
                   help=f"one-recoil overlap shrink factor (default {RecoilModel.alpha0})")


def _add_output(p) -> None:
    p.add_argument("--out", default=None, metavar="PATH",
                   help="output path; default standard output")
    _add_config(p)


def _add_config(p) -> None:
    p.add_argument("--config", default=None, metavar="PATH",
                   help="key = value config file; command-line flags override it")


def _add_case(p) -> None:
    """The scenario, statistics and weights flags of ``rate`` and ``sweep``."""
    # default None, not "i": argparse then still rejects --choice with --family
    group = p.add_mutually_exclusive_group()
    group.add_argument("--choice", choices=(*CHOICES, "family"),
                       help="built-in overlap preset, or the equal-weight exclusion "
                            "family (default i)")
    group.add_argument("--family", action="store_const", dest="choice", const="family",
                       help="shorthand for --choice family")
    p.add_argument("--statistics", choices=("boson", "fermion", "both"), default="both",
                   help="exchange statistics of the pair (default %(default)s)")
    p.add_argument("--a-re", type=float, default=1.0,
                   help="real part of the weight a (default %(default)s)")
    p.add_argument("--a-im", type=float, default=0.0,
                   help="imaginary part of the weight a (default %(default)s)")
    p.add_argument("--b-re", type=float, default=0.0,
                   help="real part of the weight b (default %(default)s)")
    p.add_argument("--b-im", type=float, default=0.0,
                   help="imaginary part of the weight b (default %(default)s)")


def _add_rate(p) -> None:
    _add_case(p)
    p.add_argument("--c", type=float, default=0.0, help="sweep value (default 0)")
    _add_common(p)


def _add_sweep(p) -> None:
    _add_case(p)
    _add_c_axis(p, steps=101)
    _add_common(p)


def _add_c_axis(p, steps: int) -> None:
    """The sweep-value axis of ``sweep`` and ``exclusion-scan``."""
    p.add_argument("--c-min", type=float, default=0.0,
                   help="first sweep value (default %(default)s)")
    p.add_argument("--c-max", type=float, default=1.0,
                   help="last sweep value (default %(default)s)")
    _add_steps(p, steps)


def _add_steps(p, steps: int) -> None:
    p.add_argument("--steps", type=_positive_int, default=steps,
                   help="number of sweep values (default %(default)s)")


def _add_figures(p) -> None:
    p.add_argument("target", choices=tuple(_FIGURES))
    _add_steps(p, 101)
    _add_alpha0(p)
    p.add_argument("--out", default=".", metavar="DIR",
                   help="output directory (default current directory)")
    _add_config(p)


def _add_exclusion_scan(p) -> None:
    p.add_argument("--a-min", type=float, default=0.0,
                   help="first weight a, with b = sqrt(1 - a^2) (default %(default)s)")
    p.add_argument("--a-max", type=float, default=1.0,
                   help="last weight a (default %(default)s)")
    p.add_argument("--a-steps", type=_positive_int, default=51,
                   help="number of weights a (default %(default)s)")
    _add_c_axis(p, steps=51)
    _add_output(p)


def _add_verify(p) -> None:
    p.add_argument("--seed", type=_nonnegative_int, default=0,
                   help="seed of the random configurations (default %(default)s)")
    p.add_argument("--trials", type=_positive_int, default=1000,
                   help="number of random configurations (default %(default)s)")
    p.add_argument("--tolerance", type=float, default=1e-10,
                   help="bound on every |closed-form - formal| deviation: the amplitude and "
                        "both norms^2 (default %(default)s)")
    _add_output(p)


#: Each subcommand's help line, the function that adds its arguments and the
#: function that runs it, in the order of the usage line.
_COMMANDS = {
    "rate": ("evaluate a single sweep point", _add_rate, _cmd_sweep),
    "sweep": ("sweep the overlap parameter, emit CSV", _add_sweep, _cmd_sweep),
    "figures": ("emit the built-in figure datasets", _add_figures, _cmd_figures),
    "exclusion-scan": ("grid scan of the exclusion family, two detection paths",
                       _add_exclusion_scan, _cmd_exclusion_scan),
    "verify": ("randomized closed-form vs formal-expansion check", _add_verify, _cmd_verify),
}


def build_parser(
    command: str | None = None,
) -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and its subparsers by name.

    With no ``command`` every subcommand is built.  Given a subcommand's
    name, only that one is: the usage line still lists all five, so its
    help and error text are the full parser's.  The full parser keeps
    argparse's own metavar, which its ``invalid choice`` and ``required``
    messages name.
    """
    parser = _Parser(
        prog="pairabs",
        description="Relative single-photon absorption rates for symmetrized "
                    "two-atom superpositions.",
    )
    metavar = None if command is None else "{" + ",".join(_COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in _COMMANDS if command is None else (command,):
        help_text, add_arguments, _ = _COMMANDS[name]
        add_arguments(sub.add_parser(name, help=help_text))
    return parser, sub.choices


def _read_config(path: str) -> dict[str, str]:
    """Plain ``key = value`` lines; blank lines and # comments ignored."""
    values: dict[str, str] = {}
    text = Path(path).read_text(encoding="utf-8")
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        values[key.strip().replace("-", "_")] = value.strip()
    return values


def _apply_config_defaults(subparser: argparse.ArgumentParser,
                           values: dict[str, str]) -> None:
    # the first action of a dest wins: --choice, not its --family shorthand
    actions = {action.dest: action for action in reversed(subparser._actions)}
    converted: dict[str, object] = {}
    for key, raw in values.items():
        action = actions.get(key)
        if action is None or key in ("config", "help"):
            raise ValueError(f"unknown config key {key!r} for this command")
        value: object = action.type(raw) if action.type is not None else raw
        if action.choices is not None and value not in action.choices:
            raise ValueError(
                f"config key {key!r}: {value!r} is not one of {tuple(action.choices)}"
            )
        converted[key] = value
    subparser.set_defaults(**converted)


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser, commands = build_parser(argv[0] if argv and argv[0] in _COMMANDS else None)
    args = parser.parse_args(argv)
    if getattr(args, "config", None):
        try:
            overrides = _read_config(args.config)
            _apply_config_defaults(commands[args.command], overrides)
        except (OSError, ValueError, argparse.ArgumentTypeError) as exc:
            print(f"pairabs: config error: {exc}", file=sys.stderr)
            return 1
        args = parser.parse_args(argv)  # explicit flags still win
    try:
        return _COMMANDS[args.command][2](args)
    except (ValueError, OSError, MemoryError) as exc:  # ExcludedStateError is a ValueError
        print(f"pairabs: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
