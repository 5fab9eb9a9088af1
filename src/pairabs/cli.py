"""Command-line front end: single points, sweeps, figure datasets, exclusion scans,
and self-verification against the formal-expansion cross-check.

All numeric CSV fields use the shortest decimal representation that round-trips
to the same double, so fixed inputs (and a fixed seed for ``verify``) produce
byte-identical output.

The grid subcommands (``rate``, ``sweep``, ``figures``, ``exclusion-scan``)
build one grid table per ``c`` grid and evaluate it once per weights and
statistics pair; the output is byte-identical to evaluating every point on
its own table.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
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
    ScenarioSpec,
    build_choice_table,
    build_family_table,
    family_exclusion_coefficient,
    random_realizable_table,
)

__all__ = [
    "SCAN_HEADER",
    "SWEEP_HEADER",
    "build_parser",
    "exclusion_scan_rows",
    "main",
    "run_figures",
    "run_verify",
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


def _grid(lo: float, hi: float, steps: int) -> np.ndarray:
    return np.linspace(lo, hi, steps)  # one step gives [lo]


def _column(values: np.ndarray) -> list[str]:
    """CSV text of each value of a grid array, as :func:`_fmt` writes it."""
    return [repr(v) for v in values.tolist()]


def _flags(mask: np.ndarray) -> list[str]:
    """CSV text of each flag of a grid mask."""
    return ["1" if v else "0" for v in mask.tolist()]


def _stats_list(name: str) -> list[Statistics]:
    if name == "both":
        return [Statistics.BOSON, Statistics.FERMION]
    return [Statistics[name.upper()]]


def _normalized_cases(a_values: Iterable[float]) -> list[Coefficients]:
    return [Coefficients(a, math.sqrt(max(0.0, 1.0 - a * a))) for a in a_values]


def sweep_rows(
    scenario_name: str,
    table_for,
    cases: Sequence[Coefficients],
    stats: Sequence[Statistics],
    grid: Sequence[float],
    alpha0: float,
) -> list[list[str]]:
    """CSV rows ordered by (case index, statistics, c ascending).

    ``table_for`` maps an array of ``c`` values to one grid table.
    """
    grid = np.asarray(grid, dtype=float)
    table = table_for(grid)
    c_column = _column(grid)
    alpha0_text = _fmt(alpha0)
    rows = []
    for coeffs in cases:
        weights = [_fmt(coeffs.a.real), _fmt(coeffs.a.imag),
                   _fmt(coeffs.b.real), _fmt(coeffs.b.imag)]
        for stat in stats:
            res = rates.relative_rate_grid(coeffs, table, stat)
            rows.extend(
                [scenario_name, stat.name.lower(), *weights, c, alpha0_text, *fields]
                for c, *fields in zip(
                    c_column,
                    _column(res.n0), _column(res.nf),
                    _column(res.m.real), _column(res.m.imag),
                    _column(res.r), _flags(res.excluded),
                )
            )
    return rows


def _scenario_table_builder(args, model: RecoilModel):
    """Returns (scenario name, c grid -> grid OverlapTable) from --choice/--family flags."""
    if getattr(args, "family", False):
        return "family", lambda c: build_family_table(ExclusionFamily.equal_weight(c), model)
    choice = args.choice or "i"
    spec = ScenarioSpec.for_choice(choice)
    return choice, lambda c: build_choice_table(spec, c, model)


def _coefficients(args) -> Coefficients:
    return Coefficients(complex(args.a_re, args.a_im), complex(args.b_re, args.b_im))


@contextlib.contextmanager
def _open_out(path: str | None):
    if path is None or path == "-":
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            yield handle


def _write_csv(out: TextIO, header: Sequence[str], rows: Iterable[Sequence[str]]) -> None:
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)


def _check_c_range(c_min: float, c_max: float) -> None:
    if not (0.0 <= c_min <= c_max <= 1.0):
        raise ValueError(
            f"need 0 <= c-min <= c-max <= 1, got c-min={c_min} c-max={c_max}"
        )


# ---------------------------------------------------------------------------
# subcommand implementations


def _cmd_rate(args) -> int:
    model = RecoilModel(args.alpha0)
    _check_c_range(args.c, args.c)
    name, table_for = _scenario_table_builder(args, model)
    rows = sweep_rows(name, table_for, [_coefficients(args)],
                      _stats_list(args.statistics), _grid(args.c, args.c, 1), args.alpha0)
    with _open_out(args.out) as out:
        _write_csv(out, SWEEP_HEADER, rows)
    return 0


def _cmd_sweep(args) -> int:
    model = RecoilModel(args.alpha0)
    _check_c_range(args.c_min, args.c_max)
    name, table_for = _scenario_table_builder(args, model)
    grid = _grid(args.c_min, args.c_max, args.steps)
    rows = sweep_rows(name, table_for, [_coefficients(args)],
                      _stats_list(args.statistics), grid, args.alpha0)
    with _open_out(args.out) as out:
        _write_csv(out, SWEEP_HEADER, rows)
    return 0


FIG2_CASES = _normalized_cases((1.0, 0.8, _ROOT2_INV))
FIG3_III_CASES = (Coefficients(1.0, 0.0), Coefficients(0.8, 0.2), Coefficients(0.5, 0.5))
FIG3_IV_CASES = _normalized_cases((1.0, 0.8, 0.5))
FIG4_CASES = _normalized_cases((0.64, 0.67, _ROOT2_INV))
BOTH_STATISTICS = (Statistics.BOSON, Statistics.FERMION)

COINCIDENCE_HEADER = ["c", "a", "r", "r_ref", "rel_dev", "excluded", "excluded_ref"]


def _choice_builder(name: str, model: RecoilModel):
    spec = ScenarioSpec.for_choice(name)
    return lambda c: build_choice_table(spec, c, model)


def _log_choice_ii_flatness(grid, model: RecoilModel, log: TextIO) -> None:
    """Per-case spans showing that for fermions only the final normalization moves R."""
    table = _choice_builder("ii", model)(grid)
    for coeffs in FIG2_CASES:
        n0s = rates.initial_norm_sq(coeffs, table, Statistics.FERMION).tolist()
        bracket = rates.bracket_sum(coeffs, table, Statistics.FERMION)
        brackets = np.hypot(bracket.real, bracket.imag).tolist()  # abs() per point
        nf_sqs = rates.final_norm_sq(coeffs, table, Statistics.FERMION).tolist()
        res = rates.relative_rate_grid(coeffs, table, Statistics.FERMION)
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


def _coincidence_rows(grid, model: RecoilModel):
    """Fermion curves of choice iii for normalized weights, against the a=1 curve."""
    table = _choice_builder("iii", model)(grid)
    ref = rates.relative_rate_grid(Coefficients(1.0, 0.0), table, Statistics.FERMION)
    c_column, ref_r, ref_flags = _column(grid), _column(ref.r), _flags(ref.excluded)
    rows = []
    max_dev = 0.0
    for coeffs in _normalized_cases((0.8, 0.5)):
        res = rates.relative_rate_grid(coeffs, table, Statistics.FERMION)
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
    alpha0: float = 0.9,
    log: TextIO | None = None,
) -> list[Path]:
    """Emit the CSV datasets for one figure target; returns the written paths."""
    log = sys.stdout if log is None else log
    model = RecoilModel(alpha0)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    grid = _grid(0.0, 1.0, steps)
    written: list[Path] = []

    def emit(name: str, header, rows) -> None:
        path = out_dir / name
        with open(path, "w", encoding="utf-8", newline="") as handle:
            _write_csv(handle, header, rows)
        written.append(path)

    if target == "fig2":
        for name in ("i", "ii"):
            rows = sweep_rows(name, _choice_builder(name, model),
                              FIG2_CASES, BOTH_STATISTICS, grid, alpha0)
            emit(f"fig2_{name}.csv", SWEEP_HEADER, rows)
        _log_choice_ii_flatness(grid, model, log)
    elif target == "fig3":
        emit("fig3_iii.csv", SWEEP_HEADER,
             sweep_rows("iii", _choice_builder("iii", model),
                        FIG3_III_CASES, BOTH_STATISTICS, grid, alpha0))
        emit("fig3_iv.csv", SWEEP_HEADER,
             sweep_rows("iv", _choice_builder("iv", model),
                        FIG3_IV_CASES, BOTH_STATISTICS, grid, alpha0))
        rows, max_dev = _coincidence_rows(grid, model)
        emit("fig3_iii_fermion_coincidence.csv", COINCIDENCE_HEADER, rows)
        print(
            "choice iii fermion, normalized weights: max relative deviation "
            f"from the a=1 curve {max_dev:.4%}",
            file=log,
        )
    elif target == "fig4":
        table_for = lambda c: build_family_table(ExclusionFamily.equal_weight(c), model)
        emit("fig4.csv", SWEEP_HEADER,
             sweep_rows("family", table_for, FIG4_CASES,
                        (Statistics.FERMION,), grid, alpha0))
    else:
        raise ValueError(f"unknown figure target {target!r}")
    return written


def _cmd_figures(args) -> int:
    try:
        run_figures(args.target, Path(args.out), args.steps, args.alpha0)
    except OSError as exc:
        print(f"pairabs figures: {exc}", file=sys.stderr)
        return 1
    return 0


def exclusion_scan_rows(
    a_grid: Sequence[float],
    c_grid: Sequence[float],
    model: RecoilModel = RecoilModel(),
) -> tuple[list[list[str]], int]:
    """Rows (a, c, |coefficient|, excluded_by_norm, excluded_by_formula) plus the
    number of rows where the two detection paths disagree."""
    for a in a_grid:
        if not 0.0 <= a <= 1.0:
            raise ValueError(f"a values must lie in [0, 1], got {a}")
    c_grid = np.asarray(c_grid, dtype=float)
    fam = ExclusionFamily.equal_weight(c_grid)
    table = build_family_table(fam, model)
    c_column = _column(c_grid)
    rows: list[list[str]] = []
    disagreements = 0
    for a in a_grid:
        coeffs = Coefficients(a, math.sqrt(max(0.0, 1.0 - a * a)))
        by_norm = rates.exclusion_mask(coeffs, table, Statistics.FERMION)
        coefficient = family_exclusion_coefficient(coeffs, fam)
        magnitude = np.broadcast_to(np.hypot(np.real(coefficient), np.imag(coefficient)),
                                    c_grid.shape)  # abs() per point
        by_formula = magnitude < rates.EXCLUSION_EPS
        disagreements += int(np.count_nonzero(by_norm != by_formula))
        a_text = _fmt(a)
        rows.extend(
            [a_text, *fields]
            for fields in zip(c_column, _column(magnitude), _flags(by_norm), _flags(by_formula))
        )
    return rows, disagreements


def _cmd_exclusion_scan(args) -> int:
    model = RecoilModel(args.alpha0)
    _check_c_range(args.c_min, args.c_max)
    if not (0.0 <= args.a_min <= args.a_max <= 1.0):
        raise ValueError(
            f"need 0 <= a-min <= a-max <= 1, got a-min={args.a_min} a-max={args.a_max}"
        )
    a_grid = _grid(args.a_min, args.a_max, args.a_steps)
    c_grid = _grid(args.c_min, args.c_max, args.steps)
    rows, disagreements = exclusion_scan_rows(a_grid, c_grid, model)
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


def _draw_verification_config(
    rng: np.random.Generator,
) -> tuple[Coefficients, OverlapTable]:
    """Random unit-sphere weights plus a realizable random table.

    Configurations too close to the excluded manifold are redrawn: there the
    normalized amplitude amplifies round-off in both evaluation routes and a
    fixed absolute tolerance would measure conditioning, not agreement.
    """
    while True:
        parts = rng.normal(size=4)
        scale = math.sqrt(float(np.dot(parts, parts)))
        if scale < 1e-6:
            continue
        coeffs = Coefficients(
            complex(parts[0], parts[1]) / scale, complex(parts[2], parts[3]) / scale
        )
        model = RecoilModel(float(rng.uniform(0.5, 1.0)))
        table = random_realizable_table(rng, model)
        if all(
            rates.initial_norm_sq(coeffs, table, stat) > 2e-3
            for stat in BOTH_STATISTICS
        ):
            return coeffs, table


def run_verify(
    seed: int, trials: int, tolerance: float, out: TextIO | None = None
) -> int:
    """Compare closed-form and formal-expansion results over random configurations."""
    out = sys.stdout if out is None else out
    if trials < 1:
        raise ValueError("trials must be a positive integer")
    if tolerance <= 0.0:
        raise ValueError("tolerance must be positive")
    rng = np.random.default_rng(seed)
    max_dev = {"matrix element": 0.0, "initial norm^2": 0.0, "final norm^2": 0.0}
    worst = (0.0, 0, "", "")
    for index in range(trials):
        coeffs, table = _draw_verification_config(rng)
        for stat in BOTH_STATISTICS:
            devs = {
                "matrix element": abs(
                    rates.matrix_element(coeffs, table, stat)
                    - oracle.oracle_matrix_element(coeffs, table, stat)
                ),
                "initial norm^2": abs(
                    rates.initial_norm_sq(coeffs, table, stat)
                    - oracle.formal_initial_norm_sq(coeffs, table, stat)
                ),
                "final norm^2": abs(
                    rates.final_norm_sq(coeffs, table, stat)
                    - oracle.formal_final_norm_sq(coeffs, table, stat)
                ),
            }
            for kind, dev in devs.items():
                max_dev[kind] = max(max_dev[kind], dev)
                if dev > worst[0]:
                    worst = (dev, index, kind, stat.name.lower())
    print(f"verify: seed={seed} trials={trials} tolerance={_fmt(tolerance)}", file=out)
    for kind, dev in max_dev.items():
        print(f"max |{kind} closed - formal| = {_fmt(dev)}", file=out)
    if worst[0] >= tolerance:
        print(
            f"FAIL: deviation {_fmt(worst[0])} in {worst[2]} ({worst[3]}) at trial "
            f"{worst[1]}; reproduce with seed={seed}",
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


def _add_common(p) -> None:
    p.add_argument("--alpha0", type=float, default=0.9,
                   help="one-recoil overlap shrink factor (default 0.9)")
    p.add_argument("--out", default=None, metavar="PATH",
                   help="output path; default standard output")
    p.add_argument("--config", default=None, metavar="PATH",
                   help="key = value config file; command-line flags override it")


def _add_scenario(p) -> None:
    group = p.add_mutually_exclusive_group()
    group.add_argument("--choice", choices=CHOICES,
                       help="built-in overlap preset (default i)")
    group.add_argument("--family", action="store_true",
                       help="sweep the equal-weight exclusion family instead of a preset")


def _add_coefficients(p) -> None:
    p.add_argument("--a-re", type=float, default=1.0)
    p.add_argument("--a-im", type=float, default=0.0)
    p.add_argument("--b-re", type=float, default=0.0)
    p.add_argument("--b-im", type=float, default=0.0)


def _add_statistics(p) -> None:
    p.add_argument("--statistics", choices=("boson", "fermion", "both"),
                   default="both")


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    parser = _Parser(
        prog="pairabs",
        description="Relative single-photon absorption rates for symmetrized "
                    "two-atom superpositions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands: dict[str, argparse.ArgumentParser] = {}

    rate = sub.add_parser("rate", help="evaluate a single sweep point")
    _add_scenario(rate)
    _add_statistics(rate)
    _add_coefficients(rate)
    rate.add_argument("--c", type=float, default=0.0, help="sweep value (default 0)")
    _add_common(rate)
    rate.set_defaults(func=_cmd_rate)
    commands["rate"] = rate

    sweep = sub.add_parser("sweep", help="sweep the overlap parameter, emit CSV")
    _add_scenario(sweep)
    _add_statistics(sweep)
    _add_coefficients(sweep)
    sweep.add_argument("--c-min", type=float, default=0.0)
    sweep.add_argument("--c-max", type=float, default=1.0)
    sweep.add_argument("--steps", type=_positive_int, default=101)
    _add_common(sweep)
    sweep.set_defaults(func=_cmd_sweep)
    commands["sweep"] = sweep

    figures = sub.add_parser("figures", help="emit the built-in figure datasets")
    figures.add_argument("target", choices=("fig2", "fig3", "fig4"))
    figures.add_argument("--steps", type=_positive_int, default=101)
    figures.add_argument("--alpha0", type=float, default=0.9)
    figures.add_argument("--out", default=".", metavar="DIR",
                         help="output directory (default current directory)")
    figures.add_argument("--config", default=None, metavar="PATH")
    figures.set_defaults(func=_cmd_figures)
    commands["figures"] = figures

    scan = sub.add_parser("exclusion-scan",
                          help="grid scan of the exclusion family, two detection paths")
    scan.add_argument("--a-min", type=float, default=0.0)
    scan.add_argument("--a-max", type=float, default=1.0)
    scan.add_argument("--a-steps", type=_positive_int, default=51)
    scan.add_argument("--c-min", type=float, default=0.0)
    scan.add_argument("--c-max", type=float, default=1.0)
    scan.add_argument("--steps", type=_positive_int, default=51)
    _add_common(scan)
    scan.set_defaults(func=_cmd_exclusion_scan)
    commands["exclusion-scan"] = scan

    verify = sub.add_parser("verify",
                            help="randomized closed-form vs formal-expansion check")
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--trials", type=_positive_int, default=1000)
    verify.add_argument("--tolerance", type=float, default=1e-10)
    verify.add_argument("--out", default=None, metavar="PATH")
    verify.add_argument("--config", default=None, metavar="PATH")
    verify.set_defaults(func=_cmd_verify)
    commands["verify"] = verify

    return parser, commands


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
    actions = {action.dest: action for action in subparser._actions}
    converted: dict[str, object] = {}
    for key, raw in values.items():
        action = actions.get(key)
        if action is None or key in ("config", "help", "func"):
            raise ValueError(f"unknown config key {key!r} for this command")
        if isinstance(action.const, bool):
            low = raw.lower()
            if low in ("1", "true", "yes", "on"):
                converted[key] = True
            elif low in ("0", "false", "no", "off"):
                converted[key] = False
            else:
                raise ValueError(f"config key {key!r}: expected a boolean, got {raw!r}")
            continue
        value: object = action.type(raw) if action.type is not None else raw
        if action.choices is not None and value not in action.choices:
            raise ValueError(
                f"config key {key!r}: {value!r} is not one of {tuple(action.choices)}"
            )
        converted[key] = value
    subparser.set_defaults(**converted)


def main(argv: Sequence[str] | None = None) -> int:
    parser, commands = build_parser()
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
        return args.func(args)
    except (ValueError, rates.ExcludedStateError) as exc:
        print(f"pairabs: error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"pairabs: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
