"""Tests for the command-line interface: CSV schemas, exit codes, determinism."""

import contextlib
import csv
import functools
import gc
import gzip
import hashlib
import io
import math
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from pairabs import algebra, cli, oracle, rates, scenarios
from pairabs.algebra import Statistics
from pairabs.cli import SCAN_HEADER, SWEEP_HEADER
from pairabs.scenarios import (
    ALL_PAIRS,
    CHOICES,
    Coefficients,
    ExclusionFamily,
    RecoilModel,
    build_table,
    choice_overlaps,
    family_exclusion_coefficient,
    random_realizable_overlaps,
    realizable_overlaps,
)

ROOT2_INV = 1.0 / math.sqrt(2.0)
REFERENCE = Path(__file__).resolve().parents[1] / "bench" / "reference"
SRC = Path(__file__).resolve().parents[1] / "src"
# |coefficient| = 4.47e-06 at a = 0: between the amplitude floor 1e-10 and its root
NEAR_NULL_SCAN = ["exclusion-scan", "--a-min", "0", "--a-max", "0", "--a-steps", "1",
                  "--c-min", "0.99999999999", "--c-max", "0.99999999999", "--steps", "1"]
# 1e17 grid points: 8e17 bytes of float64 exceed the user address space of any
# 64-bit machine, so numpy refuses the grid without touching memory
HUGE_STEPS = "100000000000000000"


def exit_code(argv):
    try:
        return cli.main(argv)
    except SystemExit as exc:  # argparse-level rejections
        return exc.code


def main_stdout(argv):
    """Exit code and standard output of ``cli.main(argv)``."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    return rows[0], rows[1:]


def parse_stdout_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


def csv_module_text(header, rows):
    """What ``csv.writer`` writes for ``header`` and ``rows``: the independent reference."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue()


def as_lines(rows):
    """The CSV line of each field row, as ``csv.writer`` ends it."""
    return [",".join(row) + "\n" for row in rows]


def split_line(line):
    """The fields of one CSV line; it must end in its only line break."""
    assert line.endswith("\n") and line.count("\n") == 1, line
    return line[:-1].split(",")


def count_calls(monkeypatch, calls, module, *names):
    """Replace each ``module.<name>`` by a wrapper that counts its calls in ``calls``."""

    def counting(name, original):
        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return counted

    for name in names:
        monkeypatch.setattr(module, name, counting(name, getattr(module, name)))


class ScaledOverlap:
    """A table whose overlap ``pair`` is ``factor`` times that of ``table``; it records
    every pair read.  The closed forms read a table only through these two names."""

    def __init__(self, table, pair=None, factor=1.0):
        self.table, self.pair, self.factor, self.read = table, pair, factor, []

    @property
    def ndim(self):
        return self.table.ndim

    def overlap(self, x, y):
        self.read.append((x, y))
        value = self.table.overlap(x, y)
        return value * self.factor if (x, y) == self.pair else value


def scenario_table(name, grid, model=RecoilModel()):
    """The grid table of the scenario ``name`` on its own."""
    return build_table(choice_overlaps(name, grid), model)


def closed_form_pairs():
    """Every overlap that :func:`pairabs.rates.relative_rate_grid` reads, in order."""
    table = ScaledOverlap(build_table(realizable_overlaps(np.ones((1, 4, 4))), RecoilModel()))
    rates.relative_rate_grid(Coefficients(0.6, 0.8), table, cli.BOTH_STATISTICS)
    return list(dict.fromkeys(table.read))


class TestSweep:
    def test_choice_i_three_point_sweep(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = exit_code([
            "sweep", "--choice", "i", "--statistics", "both",
            "--c-min", "0", "--c-max", "1", "--steps", "3", "--out", str(out),
        ])
        assert code == 0
        header, rows = read_csv(out)
        assert header == SWEEP_HEADER
        assert len(rows) == 6
        boson = [row for row in rows if row[1] == "boson"]
        fermion = [row for row in rows if row[1] == "fermion"]
        assert [float(r[12]) for r in boson] == pytest.approx([1.0, 1.0199, 1.0], abs=5e-4)
        assert float(fermion[0][12]) == pytest.approx(1.0, abs=1e-12)
        assert float(fermion[1][12]) == pytest.approx(0.9685, abs=5e-4)
        assert fermion[2][12] == "nan" and fermion[2][13] == "1"
        assert all(r[13] == "0" for r in boson)

    def test_equal_cases_keep_a_row_block_each(self):
        grid = np.linspace(0.0, 1.0, 5)
        cases = (Coefficients(1.0, 0.0), Coefficients(1.0, 0.0))
        files, on, _ = cli._sweep_files(grid, RecoilModel(), [Statistics.FERMION],
                                        {"i.csv": ("i", cases)})
        rows, results = files["i.csv"], on["i"]
        assert len(rows) == 10 and rows[:5] == rows[5:]
        assert (results.cases, results.stats) == (cases, (Statistics.FERMION,))
        assert results.result.r.shape == (1, 2, 5)  # (statistics, case, c)

    def test_single_step_sweeps_at_c_min(self, capsys):
        assert exit_code(["sweep", "--steps", "1", "--c-min", "0.25"]) == 0
        header, rows = parse_stdout_csv(capsys.readouterr().out)
        assert len(rows) == 2  # both statistics
        assert all(row[6] == "0.25" for row in rows)

    def test_choice_ii_single_component_fermion_rate_is_constant(self, capsys):
        code = exit_code([
            "sweep", "--choice", "ii", "--statistics", "fermion", "--steps", "17",
        ])
        assert code == 0
        _, rows = parse_stdout_csv(capsys.readouterr().out)
        values = {row[12] for row in rows}
        assert len(values) == 1  # constant overlap for b = 0: byte-identical R

    def test_family_sweep(self, capsys):
        code = exit_code([
            "sweep", "--family", "--statistics", "fermion", "--steps", "3",
            "--a-re", str(ROOT2_INV), "--b-re", str(ROOT2_INV),
        ])
        assert code == 0
        _, rows = parse_stdout_csv(capsys.readouterr().out)
        assert all(row[0] == "family" and row[13] == "1" for row in rows)

    def test_choice_family_equals_the_family_shorthand(self, capsys):
        argv = ["sweep", "--steps", "5", "--a-re", "0.8", "--b-re", "0.6"]
        assert exit_code([*argv, "--choice", "family"]) == 0
        spelled = capsys.readouterr().out
        assert exit_code([*argv, "--family"]) == 0
        assert capsys.readouterr().out == spelled
        assert spelled.splitlines()[1].startswith("family,")

    def test_rows_ordered_by_statistics_then_c(self, capsys):
        assert exit_code(["sweep", "--steps", "3"]) == 0
        _, rows = parse_stdout_csv(capsys.readouterr().out)
        assert [row[1] for row in rows] == ["boson"] * 3 + ["fermion"] * 3
        assert [float(row[6]) for row in rows[:3]] == sorted(float(row[6]) for row in rows[:3])

    def test_numeric_fields_round_trip(self, capsys):
        assert exit_code(["sweep", "--choice", "iii", "--steps", "7"]) == 0
        _, rows = parse_stdout_csv(capsys.readouterr().out)
        for row in rows:
            for field in row[2:13]:
                value = float(field)  # must parse
                assert repr(value) == field

    def test_byte_identical_reruns(self, tmp_path):
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["sweep", "--choice", "iv", "--a-re", "0.8", "--b-re", "0.6",
                "--steps", "21", "--out"]
        assert exit_code(argv + [str(first)]) == 0
        assert exit_code(argv + [str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()


class TestRate:
    def test_single_point(self, capsys):
        code = exit_code([
            "rate", "--choice", "i", "--statistics", "boson", "--c", "0.5",
        ])
        assert code == 0
        header, rows = parse_stdout_csv(capsys.readouterr().out)
        assert header == SWEEP_HEADER
        assert len(rows) == 1
        assert float(rows[0][12]) == pytest.approx(1.0198878123406425, abs=1e-10)

    @pytest.mark.parametrize("c", ["0", "0.3", "1", "1.5"])
    @pytest.mark.parametrize("flags", [
        [],
        ["--choice", "ii", "--statistics", "fermion"],
        ["--choice", "iii", "--alpha0", "0.55", "--a-re", "0.8", "--b-re", "0.2"],
        ["--family", "--a-re", "0.3", "--a-im", "0.4", "--b-re", "-0.5", "--b-im", "0.2"],
    ])
    def test_rate_is_a_one_point_sweep(self, flags, c, tmp_path, capsys):
        rate, sweep = tmp_path / "rate.csv", tmp_path / "sweep.csv"
        rate_code = exit_code(["rate", *flags, "--c", c, "--out", str(rate)])
        rate_err = capsys.readouterr().err
        sweep_code = exit_code(["sweep", *flags, "--c-min", c, "--c-max", c, "--steps", "1",
                                "--out", str(sweep)])
        assert (rate_code, rate_err) == (sweep_code, capsys.readouterr().err)
        if c == "1.5":
            assert rate_code == 1 and not rate.exists() and not sweep.exists()
        else:
            assert rate_code == 0 and rate.read_bytes() == sweep.read_bytes()

    @pytest.mark.parametrize("c", ["0.3", "1.5"])
    def test_rate_from_config_is_a_one_point_sweep(self, c, tmp_path, capsys):
        cfg = tmp_path / "rate.cfg"
        cfg.write_text(f"c = {c}\nchoice = iv\na-re = 0.8\nb-re = 0.6\n")
        rate, sweep = tmp_path / "rate.csv", tmp_path / "sweep.csv"
        rate_code = exit_code(["rate", "--config", str(cfg), "--out", str(rate)])
        rate_err = capsys.readouterr().err
        sweep_code = exit_code(["sweep", "--choice", "iv", "--a-re", "0.8", "--b-re", "0.6",
                                "--c-min", c, "--c-max", c, "--steps", "1", "--out", str(sweep)])
        assert (rate_code, rate_err) == (sweep_code, capsys.readouterr().err)
        if c == "1.5":
            assert rate_code == 1 and "c-min=1.5 c-max=1.5" in rate_err
        else:
            assert rate_code == 0 and rate.read_bytes() == sweep.read_bytes()


class TestFigures:
    def test_fig2_files_and_ordering(self, tmp_path):
        assert exit_code(["figures", "fig2", "--steps", "11", "--out", str(tmp_path)]) == 0
        for name in ("fig2_i.csv", "fig2_ii.csv"):
            header, rows = read_csv(tmp_path / name)
            assert header == SWEEP_HEADER
            assert len(rows) == 3 * 2 * 11
        _, rows = read_csv(tmp_path / "fig2_i.csv")
        assert [row[1] for row in rows[:22]] == ["boson"] * 11 + ["fermion"] * 11
        assert all(row[2] == "1.0" for row in rows[:22])

    def test_fig3_emits_coincidence_report(self, tmp_path, capsys):
        assert exit_code(["figures", "fig3", "--steps", "11", "--out", str(tmp_path)]) == 0
        assert (tmp_path / "fig3_iii.csv").exists()
        assert (tmp_path / "fig3_iv.csv").exists()
        header, rows = read_csv(tmp_path / "fig3_iii_fermion_coincidence.csv")
        assert header == cli.COINCIDENCE_HEADER
        deviations = [float(r[4]) for r in rows if r[5] == "0" and r[6] == "0"]
        assert deviations and max(deviations) < 0.03
        assert "max relative deviation" in capsys.readouterr().out

    def test_fig4_exclusion_structure(self, tmp_path):
        assert exit_code(["figures", "fig4", "--steps", "11", "--out", str(tmp_path)]) == 0
        header, rows = read_csv(tmp_path / "fig4.csv")
        assert all(row[1] == "fermion" for row in rows)
        balanced = [row for row in rows if float(row[2]) == pytest.approx(ROOT2_INV)]
        assert balanced and all(row[13] == "1" for row in balanced)
        first_case = [row for row in rows if row[2] == "0.64"]
        assert [row[13] for row in first_case] == ["0"] * 10 + ["1"]  # excluded only at c=1

    def test_fig2_logs_fermion_flatness(self, tmp_path, capsys):
        assert exit_code(["figures", "fig2", "--steps", "11", "--out", str(tmp_path)]) == 0
        log = capsys.readouterr().out
        assert log.count("choice ii fermion") == 3

    # stdout of the default fig2 and fig3 jobs, byte for byte: a changed digit
    # in any span or deviation fails
    DEFAULT_LOGS = {
        "fig2": (
            "choice ii fermion a=1 b=0: initial-norm^2 span 0.000e+00, bracket-sum span "
            "0.000e+00, relative R span 0.0000%; final-norm^-2 span 0.000e+00 carries all "
            "of it\n"
            "choice ii fermion a=0.8 b=0.6: initial-norm^2 span 5.551e-16, bracket-sum span "
            "1.554e-15, relative R span 0.4615%; final-norm^-2 span 5.922e-03 carries all "
            "of it\n"
            "choice ii fermion a=0.707107 b=0.707107: initial-norm^2 span 4.441e-16, "
            "bracket-sum span 1.332e-15, relative R span 0.5215%; final-norm^-2 span "
            "6.169e-03 carries all of it\n"
        ),
        "fig3": (
            "choice iii fermion, normalized weights: max relative deviation from the a=1 "
            "curve 0.6101%\n"
        ),
    }

    @pytest.mark.parametrize("target", ["fig2", "fig3"])
    def test_default_log_is_pinned(self, target, tmp_path, capsys):
        assert exit_code(["figures", target, "--out", str(tmp_path)]) == 0
        captured = capsys.readouterr()
        assert captured.out == self.DEFAULT_LOGS[target]
        assert captured.err == ""

    @staticmethod
    def figure_calls(target, tmp_path, monkeypatch):
        """The table builds and closed-form calls of one ``figures`` target."""
        calls = Counter()
        count_calls(monkeypatch, calls, cli, "build_table")
        count_calls(monkeypatch, calls, scenarios, "build_table")  # inside the table builders
        count_calls(monkeypatch, calls, rates, "initial_norm_sq", "final_norm_sq", "bracket_sum",
                    "relative_rate_grid")
        assert exit_code(["figures", target, "--steps", "11", "--out", str(tmp_path)]) == 0
        return calls

    ONE_EVALUATION = {"build_table": 1, "relative_rate_grid": 1, "initial_norm_sq": 1,
                      "final_norm_sq": 1, "bracket_sum": 1}

    def test_fig2_reuses_the_sweep_table_for_the_flatness_log(self, tmp_path, monkeypatch):
        # one table stacks i and ii; one evaluation, with the statistics, the
        # scenarios and the 3 cases stacked, gives the CSVs and the log
        assert self.figure_calls("fig2", tmp_path, monkeypatch) == self.ONE_EVALUATION

    def test_fig3_reuses_the_sweep_table_for_the_coincidence_rows(self, tmp_path, monkeypatch):
        # one table stacks iii and iv; one evaluation of the 5 distinct cases
        # gives the CSVs and the coincidence rows, the a=1 reference included
        assert self.figure_calls("fig3", tmp_path, monkeypatch) == self.ONE_EVALUATION

    def test_fig4_builds_one_table_and_evaluates_it_once(self, tmp_path, monkeypatch):
        assert self.figure_calls("fig4", tmp_path, monkeypatch) == self.ONE_EVALUATION

    @pytest.mark.parametrize("target", ["fig2", "fig3", "fig4"])
    def test_a_target_allocates_at_most_1_mib(self, target, tmp_path):
        # the stacked result holds a whole target at once: at 101 steps the
        # peaks are about 0.3 MiB (fig2), 0.4 MiB (fig3) and 0.2 MiB (fig4)
        argv = ["figures", target, "--out", str(tmp_path)]
        assert main_stdout(argv)[0] == 0
        tracemalloc.start()
        try:
            main_stdout(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2**20

    def test_unwritable_output_location_exits_1(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        code = exit_code(["figures", "fig2", "--out", str(blocker / "sub")])
        assert code == 1
        assert capsys.readouterr().err.startswith("pairabs: error: ")


class TestExclusionScan:
    def test_balanced_weights_column_is_fully_excluded(self, tmp_path):
        out = tmp_path / "scan.csv"
        code = exit_code([
            "exclusion-scan", "--a-min", str(ROOT2_INV), "--a-max", str(ROOT2_INV),
            "--a-steps", "1", "--steps", "9", "--out", str(out),
        ])
        assert code == 0
        header, rows = read_csv(out)
        assert header == SCAN_HEADER
        assert len(rows) == 9
        assert all(row[3] == "1" and row[4] == "1" for row in rows)

    def test_single_component_excluded_only_at_unit_overlap(self, capsys):
        code = exit_code([
            "exclusion-scan", "--a-min", "1", "--a-max", "1", "--a-steps", "1",
            "--steps", "5",
        ])
        assert code == 0
        _, rows = parse_stdout_csv(capsys.readouterr().out)
        assert [row[3] for row in rows] == ["0", "0", "0", "0", "1"]
        assert [row[4] for row in rows] == ["0", "0", "0", "0", "1"]

    def test_formula_magnitude_example(self, capsys):
        c = math.sqrt(0.75)  # d = 0.5
        code = exit_code([
            "exclusion-scan", "--a-min", "0.6", "--a-max", "0.6", "--a-steps", "1",
            "--c-min", str(c), "--c-max", str(c), "--steps", "1",
        ])
        assert code == 0
        _, rows = parse_stdout_csv(capsys.readouterr().out)
        assert float(rows[0][2]) == pytest.approx(0.1, abs=1e-12)
        assert rows[0][3] == "0" and rows[0][4] == "0"

    def test_near_null_point_is_excluded_by_both_paths(self, capsys):
        # 2|coefficient|^2 = 4e-11 is below the floor 2e-10; an amplitude-scale
        # threshold (|coefficient| < 1e-10) would call the point not null
        assert exit_code(NEAR_NULL_SCAN) == 0
        captured = capsys.readouterr()
        _, rows = parse_stdout_csv(captured.out)
        assert rows == [["0.0", "0.99999999999", "4.472136140021288e-06", "1", "1"]]
        assert captured.err == ""

    @settings(max_examples=300)
    @given(
        a=st.one_of(st.floats(0.0, 1.0), st.floats(ROOT2_INV - 1e-4, ROOT2_INV + 1e-4)),
        c=st.one_of(st.floats(0.0, 1.0), st.floats(1.0 - 1e-9, 1.0)),
    )
    def test_both_paths_agree_near_the_null_manifold(self, a, c):
        (line,), disagreements = cli._scan_lines(np.array([a]), np.array([c]))
        row = split_line(line)
        coeffs = Coefficients(a, math.sqrt(max(0.0, 1.0 - a * a)))
        floor = rates.EXCLUSION_EPS * 2.0 * (abs(coeffs.a) ** 2 + abs(coeffs.b) ** 2)
        # within this band of the floor round-off may legitimately split them
        assume(abs(2.0 * float(row[2]) ** 2 - floor) > 1e-4 * floor)
        assert row[3] == row[4] and disagreements == 0, row

    def test_detection_disagreement_exits_2(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "family_exclusion_coefficient", lambda *a: 1.0)
        code = exit_code([
            "exclusion-scan", "--a-min", str(ROOT2_INV), "--a-max", str(ROOT2_INV),
            "--a-steps", "1", "--steps", "3",
        ])
        assert code == 2
        assert "disagree" in capsys.readouterr().err


def reference_sweep_rows(name, table_for, cases, stats, grid, alpha0):
    """The per-point loop: one single-point table and one rate call per c."""
    fmt = cli._fmt
    rows = []
    for coeffs in cases:
        for stat in stats:
            for c in grid:
                res = rates.relative_rate_grid(coeffs, table_for(c), stat)
                rows.append([
                    name, stat.name.lower(),
                    fmt(coeffs.a.real), fmt(coeffs.a.imag),
                    fmt(coeffs.b.real), fmt(coeffs.b.imag),
                    fmt(c), fmt(alpha0), fmt(res.n0), fmt(res.nf),
                    fmt(res.m.real), fmt(res.m.imag), fmt(res.r),
                    "1" if res.excluded else "0",
                ])
    return rows


def reference_scan_rows(a_grid, c_grid):
    """The per-point loop: one family table, coefficient and two exclusion_mask calls
    per (a, c)."""
    fmt = cli._fmt
    rows, disagreements = [], 0
    for a in a_grid:
        coeffs = Coefficients(a, math.sqrt(max(0.0, 1.0 - a * a)))
        for c in c_grid:
            fam = ExclusionFamily.equal_weight(c)
            n0_sq = rates.initial_norm_sq(coeffs, build_table(fam.overlaps), Statistics.FERMION)
            by_norm = rates.exclusion_mask(coeffs, n0_sq)
            magnitude = abs(family_exclusion_coefficient(coeffs, fam))
            by_formula = rates.exclusion_mask(coeffs, 2.0 * magnitude * magnitude)
            disagreements += by_norm != by_formula
            rows.append([fmt(a), fmt(c), fmt(magnitude),
                         "1" if by_norm else "0", "1" if by_formula else "0"])
    return rows, disagreements


class TestBenchReference:
    """The default figures and scan write the bytes of the benchmark's reference files."""

    def test_the_reference_holds_seven_files(self):
        assert sorted(path.name for path in REFERENCE.iterdir()) == [
            "fig2_i.csv.gz", "fig2_ii.csv.gz", "fig3_iii.csv.gz",
            "fig3_iii_fermion_coincidence.csv.gz", "fig3_iv.csv.gz", "fig4.csv.gz",
            "scan.csv.gz",
        ]

    @pytest.mark.parametrize("argv, names", [
        (["figures", "fig2"], ["fig2_i.csv", "fig2_ii.csv"]),
        (["figures", "fig3"],
         ["fig3_iii.csv", "fig3_iv.csv", "fig3_iii_fermion_coincidence.csv"]),
        (["figures", "fig4"], ["fig4.csv"]),
        (["exclusion-scan"], ["scan.csv"]),
    ])
    def test_default_outputs_equal_the_reference(self, argv, names, tmp_path):
        out = tmp_path if argv[0] == "figures" else tmp_path / "scan.csv"
        assert exit_code([*argv, "--out", str(out)]) == 0
        assert sorted(path.name for path in tmp_path.iterdir()) == sorted(names)
        for name in names:
            reference = gzip.decompress((REFERENCE / f"{name}.gz").read_bytes())
            assert (tmp_path / name).read_bytes() == reference, name


class TestCsvText:
    """``_write_csv`` writes the bytes the ``csv`` module writes, and no field needs quoting."""

    # complex weights: nonzero imaginary parts in every sweep row
    COMPLEX_WEIGHTS = ["--a-re", "0.3", "--a-im", "0.4", "--b-re", "-0.5", "--b-im", "0.2"]

    def test_every_cli_output_is_what_the_csv_module_writes(self, monkeypatch, tmp_path):
        written = []
        original = cli._write_csv

        def recording(out, header, lines):
            lines = list(lines)
            rows = list(map(split_line, lines))
            assert all(len(row) == len(header) for row in rows), out.name
            written.append((Path(out.name), header, rows))
            original(out, header, lines)

        monkeypatch.setattr(cli, "_write_csv", recording)
        runs = [
            *(["figures", target, "--steps", "11"] for target in ("fig2", "fig3", "fig4")),
            ["exclusion-scan", "--a-steps", "6", "--steps", "6"],
            NEAR_NULL_SCAN,
            *(["sweep", "--choice", name, "--steps", "11", *self.COMPLEX_WEIGHTS]
              for name in CHOICES),
            ["sweep", "--choice", "i", "--steps", "11"],
            ["rate", "--family", "--c", "0.5", "--a-re", str(ROOT2_INV), "--b-re",
             str(ROOT2_INV)],
        ]
        for number, argv in enumerate(runs):
            out = tmp_path / (str(number) if argv[0] == "figures" else f"{number}.csv")
            assert exit_code([*argv, "--out", str(out)]) == 0
        assert len(written) == 6 + 2 + len(CHOICES) + 2  # figure files, scans, sweeps, rate
        for path, header, rows in written:
            assert path.read_bytes() == csv_module_text(header, rows).encode(), path.name
        fields = {field for _, _, rows in written for row in rows for field in row}
        assert {"nan", "0.4", "-0.5", "0", "1"} <= fields  # excluded and complex-weight rows
        assert {"0.99999999999", "4.472136140021288e-06"} <= fields  # the near-null point
        assert {tuple(header) for _, header, _ in written} == {
            tuple(SWEEP_HEADER), tuple(SCAN_HEADER), tuple(cli.COINCIDENCE_HEADER)}

    @settings(max_examples=200)
    @example(rows=[["nan", "inf", "-inf", "-0.0", "0.0", "5e-324", "2.225073858507201e-308",
                    "1e-300", "1.7976931348623157e+308", "1e+16", "-1.5e-07", "0", "1"]])
    @given(rows=st.lists(st.lists(st.one_of(st.floats().map(repr), st.sampled_from(["0", "1"])),
                                  min_size=1, max_size=14), max_size=20))
    def test_float_reprs_are_written_as_the_csv_module_writes_them(self, rows):
        out = io.StringIO()
        cli._write_csv(out, SWEEP_HEADER, as_lines(rows))
        assert out.getvalue().encode() == csv_module_text(SWEEP_HEADER, rows).encode()

    def test_no_fixed_field_needs_quoting(self):
        labels = [*SWEEP_HEADER, *SCAN_HEADER, *cli.COINCIDENCE_HEADER, *CHOICES,
                  *(stat.name.lower() for stat in Statistics)]
        for label in labels:
            assert label and not set(label) & set(',"\r\n'), label


def _column_views(values: np.ndarray) -> dict[str, np.ndarray]:
    """``values`` as the kinds of array a row builder formats: contiguous, the real
    and imaginary parts of a complex array, reversed, and a row and a column of a
    2-d stack."""
    pair = np.empty(len(values), dtype=complex)
    pair.real, pair.imag = values, values[::-1]
    return {
        "plain": values,
        "real": pair.real,
        "imag": pair.imag[::-1],
        "reversed": values[::-1].copy()[::-1],
        "stack row": np.stack([values[::-1], values])[1],
        "stack column": np.stack([values, values[::-1]], axis=1)[:, 0],
    }


class TestColumnText:
    """``_column`` writes each value's ``repr``, formatting a constant column once."""

    # subnormals, the extremes, both zeros and NaN, so that pools of one value
    # make constant columns and pools of two make mixed ones
    SPECIAL = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -2.2250738585072e-308,
               1.7976931348623157e308, 0.1]

    @settings(max_examples=300)
    @example(values=[], view="plain")
    @example(values=[-0.0], view="real")
    @example(values=[0.0] * 5, view="imag")
    @example(values=[-0.0] * 5, view="stack column")
    @example(values=[math.nan] * 5, view="reversed")
    @example(values=[0.0, -0.0, 0.0], view="plain")
    @example(values=[-0.0, 0.0], view="stack row")
    @example(values=[5e-324, -5e-324, math.inf, -math.inf], view="imag")
    @given(values=st.lists(st.floats(), min_size=1, max_size=3).flatmap(
               lambda pool: st.lists(st.sampled_from(pool), max_size=12))
           | st.lists(st.sampled_from(SPECIAL) | st.floats(), max_size=12),
           view=st.sampled_from(["plain", "real", "imag", "reversed", "stack row",
                                 "stack column"]))
    def test_equals_the_repr_of_each_value(self, values, view):
        array = _column_views(np.array(values, dtype=float))[view]
        assert array.tobytes() == np.array(values, dtype=float).tobytes()
        assert cli._column(array) == list(map(repr, array.tolist()))

    @pytest.mark.parametrize("value", [0.0, -0.0, math.nan, 0.5, 5e-324])
    def test_a_constant_column_makes_one_repr_call(self, value, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "repr", lambda x: calls.append(x) or repr(x), raising=False)
        text = cli._column(np.full(101, value))
        assert len(calls) == 1
        assert text == [repr(value)] * 101

    def test_a_varying_column_makes_one_repr_call_per_value(self, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "repr", lambda x: calls.append(x) or repr(x), raising=False)
        assert cli._column(np.array([0.0] * 100 + [-0.0])) == ["0.0"] * 100 + ["-0.0"]
        assert len(calls) == 101


class TestStdoutBytes:
    """``sweep`` and ``rate`` write the same bytes to standard output as to ``--out``."""

    @pytest.mark.parametrize("statistics", ["boson", "fermion", "both"])
    @pytest.mark.parametrize("choice", CHOICES)
    @pytest.mark.parametrize("command", [
        ["sweep", "--steps", "11", *TestCsvText.COMPLEX_WEIGHTS],
        ["rate", "--c", "1"],
    ])
    def test_stdout_equals_the_out_file(self, command, choice, statistics, tmp_path, capsys):
        argv = [*command, "--choice", choice, "--statistics", statistics]
        out = tmp_path / "out.csv"
        assert exit_code([*argv, "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert exit_code(argv) == 0
        assert capsys.readouterr().out.encode() == out.read_bytes()


class TestSweepBytesArePinned:
    """``sweep`` and ``rate`` write the bytes pinned here, for each choice and the
    family, with real, complex and signed-zero weights and every statistics setting."""

    SCENARIOS = CHOICES
    WEIGHTS = (["--a-re", "0.8", "--b-re", "0.6"],
               TestCsvText.COMPLEX_WEIGHTS,
               ["--a-re", "-0.0", "--a-im", "-0.0", "--b-re", "1", "--b-im", "-0.0"])
    STATISTICS = ("both", "fermion", "boson")

    #: sha256 of the standard output of each scenario's :meth:`runs`, in order.
    PINS = {
        "i": "7adbdff53045d24bff65419d74a4c484c3df90771f3a224eb34a29748115b4b7",
        "ii": "01ca5db286168d325c77d17ab7c8729742a2cd29282d65f62aa126658e4f7217",
        "iii": "ae170ff631e5df87a020a388aa65cae0eff3679ccacb26fd6c3adfde274e4fec",
        "iv": "3bdc9a02c593faff368e14b56bd29e35b478fe831f9dbf05a521af00c887bc8b",
        "family": "80b4e7e19e12f6630af6ca05cb2084aa23d8911a8dac86e0495b60a330ca9f49",
    }

    @classmethod
    def runs(cls, scenario):
        """A sweep and a rate per weight set, the statistics turning with the scenario."""
        turn = cls.SCENARIOS.index(scenario)
        for n, weights in enumerate(cls.WEIGHTS):
            common = ["--choice", scenario, *weights,
                      "--statistics", cls.STATISTICS[(n + turn) % 3]]
            yield ["sweep", "--steps", "11", *common]
            yield ["rate", "--c", str(n / 2), "--alpha0", "0.6", *common]

    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_stdout_bytes_are_pinned(self, scenario, capsys):
        digest = hashlib.sha256()
        for argv in self.runs(scenario):
            assert exit_code(argv) == 0, argv
            digest.update(capsys.readouterr().out.encode())
        assert digest.hexdigest() == self.PINS[scenario]


class TestGridEqualsPointLoop:
    @pytest.mark.parametrize("name", CHOICES)
    def test_sweep_rows(self, name):
        model = RecoilModel(0.6)
        table_for = functools.partial(scenario_table, name, model=model)
        cases = (Coefficients(1.0, 0.0), Coefficients(0.8, 0.6),
                 Coefficients(0.3 + 0.4j, -0.5 + 0.2j),
                 Coefficients(ROOT2_INV, ROOT2_INV))
        stats = [Statistics.BOSON, Statistics.FERMION]
        grid = [float(c) for c in np.linspace(0.0, 1.0, 41)]
        files, _, _ = cli._sweep_files(np.array(grid), model, stats, {"f": (name, cases)})
        assert files["f"] == as_lines(
            reference_sweep_rows(name, table_for, cases, stats, grid, 0.6)
        )

    @pytest.mark.parametrize("a_grid, c_grid", [
        (np.linspace(0.0, 1.0, 51).tolist(), np.linspace(0.0, 1.0, 51).tolist()),
        # |coefficient| = 4.47e-06 lies between the floor on the amplitude
        # scale (1e-10) and on the squared scale (its square root, 1e-5): both
        # verdicts must use the one squared-norm floor and say excluded
        ([0.0], [0.99999999999]),
    ])
    def test_exclusion_scan_rows(self, a_grid, c_grid):
        rows, disagreements = reference_scan_rows(a_grid, c_grid)
        assert (cli._scan_lines(np.array(a_grid), np.array(c_grid))
                == (as_lines(rows), disagreements))


def same_bits(got, want):
    """Same type, shape, dtype and bytes, so signed zeros and NaNs count."""
    if not isinstance(want, np.ndarray):
        return type(got) is type(want) and repr(got) == repr(want)
    return (type(got) is np.ndarray and got.shape == want.shape
            and got.dtype == want.dtype and got.tobytes() == want.tobytes())


class TestStackedSweepResults:
    """``_sweep_files`` stacks the statistics and the distinct cases and evaluates
    once; each case's result is the one of its own evaluation on its scenario's
    own table, bit for bit, on a stack of one scenario (``sweep``) or of several."""

    CASES = (Coefficients(1.0, 0.0), Coefficients(0.8, 0.6),
             Coefficients(0.3 + 0.4j, -0.5 + 0.2j), Coefficients(-0.0, 1e-3 - 2.5j),
             Coefficients(ROOT2_INV, ROOT2_INV), Coefficients(0.8, 0.6))  # equal cases too
    DISTINCT = tuple(dict.fromkeys(CASES))

    @pytest.mark.parametrize("alpha0", [0.9, np.linspace(0.3, 1.0, 41)])
    @pytest.mark.parametrize("name", CHOICES)
    def test_equals_one_evaluation_per_case_and_statistics(self, name, alpha0, monkeypatch):
        grid, model = np.linspace(0.0, 1.0, 41), RecoilModel(alpha0)
        calls = Counter()
        count_calls(monkeypatch, calls, rates, "relative_rate_grid")
        monkeypatch.setattr(cli, "_fmt", lambda value: "")  # an alpha0 per c has no one text
        _, on, _ = cli._sweep_files(grid, model, cli.BOTH_STATISTICS, {"f": (name, self.CASES)})
        assert calls["relative_rate_grid"] == 1
        monkeypatch.undo()
        results = on[name]
        assert (results.cases, results.stats) == (self.DISTINCT, cli.BOTH_STATISTICS)
        # like every field: over (statistics, case, c) on the one scenario
        assert results.result.m_pro.shape == (2, len(self.DISTINCT)) + grid.shape
        self.assert_each_slice_is_its_own_evaluation(results, scenario_table(name, grid, model))

    def assert_each_slice_is_its_own_evaluation(self, results, table):
        """Every field of each (statistics, case) slice of ``results`` (over
        (statistics, case, c)) equals that point's own evaluation on ``table``."""
        got = results.result
        for coeffs in self.CASES:
            row = results.cases.index(coeffs)
            for k, stat in enumerate(cli.BOTH_STATISTICS):
                want = rates.relative_rate_grid(coeffs, table, stat)
                for field in vars(want):
                    assert same_bits(getattr(got, field)[k, row], getattr(want, field)), (
                        coeffs, stat, field)

    @pytest.mark.parametrize("alpha0", [0.9, np.linspace(0.3, 1.0, 41)])
    def test_a_scenario_stack_equals_each_scenario_on_its_own(self, alpha0, monkeypatch):
        grid, names, model = np.linspace(0.0, 1.0, 41), CHOICES, RecoilModel(alpha0)
        calls = Counter()
        count_calls(monkeypatch, calls, cli, "build_table")
        count_calls(monkeypatch, calls, rates, "relative_rate_grid")
        monkeypatch.setattr(cli, "_fmt", lambda value: "")  # an alpha0 per c has no one text
        _, on, _ = cli._sweep_files(grid, model, cli.BOTH_STATISTICS,
                                    {name: (name, self.CASES) for name in names})
        assert calls == {"build_table": 1, "relative_rate_grid": 1}
        monkeypatch.undo()
        assert list(on) == list(names)
        for name in names:
            assert on[name].result.r.shape == (2, len(self.DISTINCT)) + grid.shape
            self.assert_each_slice_is_its_own_evaluation(on[name],
                                                         scenario_table(name, grid, model))


class TestNoContainerPerRow:
    """Rows are built as finished lines: the gc-tracked containers a row builder
    leaves allocated stay far below one per row, so writing a job's rows
    triggers no collection of its own."""

    @staticmethod
    def tracked_allocations(build):
        """``build()`` and the growth of the youngest generation's count it caused."""
        gc.collect()
        gc.disable()
        try:
            before = gc.get_count()[0]
            result = build()
            return gc.get_count()[0] - before, result
        finally:
            gc.enable()

    def test_exclusion_scan_rows_of_the_default_grid(self):
        grid = np.linspace(0.0, 1.0, 51)
        count, (lines, _) = self.tracked_allocations(lambda: cli._scan_lines(grid, grid))
        assert len(lines) == 51 * 51
        assert count < len(lines) / 4

    def test_sweep_rows_of_a_fig2_file(self):
        grid = np.linspace(0.0, 1.0, 101)
        _, on, c_column = cli._sweep_files(grid, RecoilModel(), cli.BOTH_STATISTICS,
                                           {"f": ("i", cli.FIG2_CASES)})
        results = on["i"]
        count, lines = self.tracked_allocations(
            lambda: cli._sweep_lines("i", results, cli.FIG2_CASES, c_column, "0.9"))
        assert len(lines) == 6 * 101
        assert count < len(lines) / 4

    def test_coincidence_rows_of_the_fig3_file(self, tmp_path, monkeypatch):
        built = []
        build = cli._coincidence_rows
        monkeypatch.setattr(cli, "_coincidence_rows", lambda *args: built.append(args) or build(*args))
        assert main_stdout(["figures", "fig3", "--out", str(tmp_path)])[0] == 0
        (args,) = built
        count, (lines, _) = self.tracked_allocations(lambda: build(*args))
        assert len(lines) == 2 * 101
        assert count < len(lines) / 4


class TestTinyAlpha0:
    @pytest.mark.parametrize("argv", [
        ["rate"],
        ["sweep", "--steps", "3"],
        ["figures", "fig2", "--steps", "3"],
        ["figures", "fig3", "--steps", "3"],
    ])
    def test_underflowing_reference_exits_1(self, argv, tmp_path, capsys):
        argv = argv + ["--alpha0", "1e-300", "--out", str(tmp_path / "out")]
        assert exit_code(argv) == 1
        assert "alpha0 = 1e-300 is too small" in capsys.readouterr().err


class TestWeightRange:
    @pytest.mark.parametrize("weights", [
        ["--a-re", "1e200"],
        ["--a-re", "1e80", "--b-re", "1e80"],
        ["--a-re", "1e-80", "--b-re", "1e-80"],
        ["--a-re", "1e-100", "--b-re", "1e-100"],
        ["--a-re", "0", "--b-im", "1e-200"],
    ])
    @pytest.mark.parametrize("command", [
        ["rate", "--choice", "ii", "--c", "0.3"],
        ["sweep", "--family", "--steps", "3"],
    ])
    def test_out_of_range_weights_exit_1(self, command, weights, capsys):
        assert exit_code(command + weights + ["--statistics", "fermion"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "sqrt(|a|^2 + |b|^2)" in captured.err


class TestQuietStderr:
    @pytest.mark.parametrize("argv", [
        ["figures", "fig4"],  # its balanced column is excluded at every c
        ["exclusion-scan"],
    ])
    def test_excluded_points_write_nothing_to_stderr(self, argv, tmp_path, capsys):
        assert exit_code(argv + ["--out", str(tmp_path / "out")]) == 0
        assert capsys.readouterr().err == ""


class TestVerify:
    def test_small_run_passes(self, capsys):
        assert exit_code(["verify", "--seed", "42", "--trials", "40"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "seed=42" in out

    def test_zero_trials_rejected(self):
        assert exit_code(["verify", "--trials", "0"]) == 1

    def test_byte_identical_reruns(self, tmp_path):
        first, second = tmp_path / "v1.txt", tmp_path / "v2.txt"
        argv = ["verify", "--seed", "9", "--trials", "60", "--out"]
        assert exit_code(argv + [str(first)]) == 0
        assert exit_code(argv + [str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_corrupted_amplitude_is_caught(self, monkeypatch, capsys):
        true_bracket_sum = rates.bracket_sum
        monkeypatch.setattr(
            rates, "bracket_sum", lambda *a, **k: -true_bracket_sum(*a, **k)
        )
        assert exit_code(["verify", "--seed", "3", "--trials", "5"]) == 2
        assert "FAIL" in capsys.readouterr().out

    def test_nan_deviation_fails(self, monkeypatch, capsys):
        # max(0.0, nan) keeps 0.0 and nan > worst is false: a NaN must still count
        monkeypatch.setattr(rates, "bracket_sum", lambda *a, **k: complex("nan"))
        assert exit_code(["verify", "--seed", "3", "--trials", "5"]) == 2
        out = capsys.readouterr().out
        assert "max |matrix element closed - formal| = nan\n" in out
        assert "FAIL: deviation nan in matrix element (boson) at trial 0;" in out
        assert "PASS" not in out

    def test_negative_seed_flag_is_rejected(self, capsys):
        assert exit_code(["verify", "--trials", "1", "--seed", "-1"]) == 1
        err = capsys.readouterr().err
        assert "argument --seed: must be a non-negative integer" in err
        assert "Traceback" not in err

    def test_negative_seed_from_config_is_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "verify.cfg"
        cfg.write_text("seed = -1\n")
        assert exit_code(["verify", "--trials", "1", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == (
            "pairabs: config error: config key 'seed': must be a non-negative integer\n")

    def test_seed_zero_is_accepted(self, capsys):
        assert exit_code(["verify", "--trials", "1", "--seed", "0"]) == 0
        assert "seed=0" in capsys.readouterr().out

    def test_each_closed_form_runs_once_per_block(self, monkeypatch):
        calls = Counter()
        count_calls(monkeypatch, calls, rates, "initial_norm_sq", "final_norm_sq", "bracket_sum")
        count_calls(monkeypatch, calls, oracle, "formal_quantities")
        count_calls(monkeypatch, calls, cli, "_draw_candidates")  # one per block
        trials = cli._VERIFY_BLOCK + 8  # two blocks
        assert exit_code(["verify", "--seed", "3", "--trials", str(trials), "--out", "-"]) == 0
        # both statistics in each call
        assert calls == {"initial_norm_sq": 2, "final_norm_sq": 2, "bracket_sum": 2,
                         "formal_quantities": 2, "_draw_candidates": 2}

    @pytest.mark.parametrize("trials", [1000, 20000])
    def test_a_run_allocates_at_most_2_mib(self, trials):
        # A block holds its arrays until it is done, so _VERIFY_BLOCK sets the
        # peak: 0.79 MiB at 512 trials, 1.53 MiB for one block of 1000.  A run
        # keeps only running maxima across blocks, so the peak does not grow
        # with the trial count.
        argv = ["verify", "--seed", "1", "--trials", str(trials)]
        assert main_stdout(argv)[0] == 0  # plans built
        tracemalloc.start()
        try:
            assert main_stdout(argv)[0] == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 2**20

    def test_an_error_leaves_an_existing_report_as_it_was(self, tmp_path, monkeypatch, capsys):
        # the report file is opened once the run is done, as sweep's output is
        def null(*args):
            raise rates.ExcludedStateError("planted null trial")

        out = tmp_path / "verify.txt"
        out.write_text("an earlier report\n")
        monkeypatch.setattr(rates, "require_not_null", null)
        assert exit_code(["verify", "--trials", "2", "--out", str(out)]) == 1
        assert capsys.readouterr().err == "pairabs: error: planted null trial\n"
        assert out.read_text() == "an earlier report\n"

    def test_weight_products_are_computed_once_per_coefficients(self, monkeypatch):
        # Over each block, its null check and its rounding bounds, each
        # Coefficients' products are computed once: |a|^2 and |b|^2 by whichever
        # module holds _abs_sq, conj(a) b beside them.
        created = []

        def recorded_coefficients(a, b):
            created.append(Coefficients(a, b))
            return created[-1]

        calls = []  # (helper, its arguments)

        def recording(name, original):
            def recorded(*args):
                calls.append((name, args))
                return original(*args)

            return recorded

        products = recording("weight_products", Coefficients.weight_products.func)
        cached = functools.cached_property(products)
        cached.__set_name__(Coefficients, "weight_products")
        monkeypatch.setattr(Coefficients, "weight_products", cached)
        monkeypatch.setattr(cli, "Coefficients", recorded_coefficients)
        for module in (algebra, scenarios, rates, oracle):
            if hasattr(module, "_abs_sq"):
                monkeypatch.setattr(module, "_abs_sq", recording("_abs_sq", module._abs_sq))
        trials = str(cli._VERIFY_BLOCK + 8)
        assert exit_code(["verify", "--seed", "3", "--trials", trials, "--out", "-"]) == 0
        assert len(created) == 2  # one per block
        for coeffs in created:
            weights = {id(coeffs): "coeffs", id(coeffs.a): "a", id(coeffs.b): "b"}
            of_weights = [(name, [weights.get(id(arg)) for arg in args]) for name, args in calls
                          if any(arg is coeffs or arg is coeffs.a or arg is coeffs.b
                                 for arg in args)]
            assert of_weights == [("weight_products", ["coeffs"]), ("_abs_sq", ["a"]),
                                  ("_abs_sq", ["b"])]

    @pytest.mark.parametrize("seed", [0, 1, 7, 2026, 20250809])
    def test_stacked_overlaps_equal_one_draw_at_a_time(self, seed):
        # a block computes the overlaps of all its candidates at once
        count = 50
        stacked = realizable_overlaps(np.random.default_rng(seed).normal(size=(count, 4, 4)))
        rng = np.random.default_rng(seed)
        one_at_a_time = [random_realizable_overlaps(rng) for _ in range(count)]
        assert list(stacked) == list(ALL_PAIRS)
        for pair, values in stacked.items():
            assert values.tolist() == [overlaps[pair] for overlaps in one_at_a_time]

    @pytest.mark.parametrize("seed", [0, 1, 7, 2026, 20250809])
    def test_candidates_are_three_draws_of_the_stream(self, seed):
        # a block reads the stream as weight parts, then alpha0s, then raw
        # vectors, one call each; the weights are the parts over their norm
        count = 200
        a, b, alpha0, raw = cli._draw_candidates(np.random.default_rng(seed), count)
        rng = np.random.default_rng(seed)
        parts = rng.normal(size=(count, 4)).tolist()
        expected_alpha0 = rng.uniform(0.5, 1.0, count)
        expected_raw = rng.normal(size=(count, 4, 4))
        scales = [math.sqrt(p0 * p0 + p1 * p1 + p2 * p2 + p3 * p3) for p0, p1, p2, p3 in parts]
        assert a.tolist() == [complex(p[0], p[1]) / s for p, s in zip(parts, scales)]
        assert b.tolist() == [complex(p[2], p[3]) / s for p, s in zip(parts, scales)]
        assert alpha0.tolist() == expected_alpha0.tolist()
        assert raw.tolist() == expected_raw.tolist()
        assert np.all((alpha0 >= 0.5) & (alpha0 < 1.0))
        np.testing.assert_allclose(abs(a) ** 2 + abs(b) ** 2, 1.0,
                                   rtol=0, atol=4 * np.finfo(float).eps)
        again = np.random.default_rng(seed)
        cli._draw_candidates(again, count)
        assert again.bit_generator.state == rng.bit_generator.state

    def test_report_bytes_are_pinned(self, tmp_path):
        # Every value is computed with fixed operations in a fixed order, so
        # any change to the arithmetic of the closed forms or the oracle shows.
        out = tmp_path / "verify.txt"
        assert exit_code(["verify", "--seed", "7", "--trials", "150", "--out", str(out)]) == 0
        assert out.read_bytes() == (
            b"verify: seed=7 trials=150\n"
            b"max |matrix element closed - formal| = 1.5543805596941737e-15\n"
            b"max |initial norm^2 closed - formal| = 1.3322676295501878e-15\n"
            b"max |final norm^2 closed - formal| = 4.440892098500626e-15\n"
            b"max |closed - formal| / rounding bound = 0.15624999999999997"
            b" in final norm^2 (boson) at trial 60\n"
            b"PASS\n"
        )

    @pytest.mark.parametrize("seed, matrix, initial, final, ratio", [
        (20250809, "3.7747583226537014e-15", "2.220446049250313e-15", "7.105427357601002e-15",
         "0.25 in final norm^2 (boson) at trial 944"),
        (5, "7.549517154615236e-15", "2.220446049250313e-15", "5.329070518200751e-15",
         "0.18750000000000006 in final norm^2 (boson) at trial 113"),
    ], ids=["seed20250809", "seed5"])
    def test_long_run_report_is_pinned(self, seed, matrix, initial, final, ratio, tmp_path):
        out = tmp_path / "verify.txt"
        assert exit_code(["verify", "--seed", str(seed), "--trials", "1000",
                          "--out", str(out)]) == 0
        assert out.read_text() == (
            f"verify: seed={seed} trials=1000\n"
            f"max |matrix element closed - formal| = {matrix}\n"
            f"max |initial norm^2 closed - formal| = {initial}\n"
            f"max |final norm^2 closed - formal| = {final}\n"
            f"max |closed - formal| / rounding bound = {ratio}\n"
            "PASS\n"
        )

    def test_failing_report_names_the_global_trial_index(self, tmp_path, monkeypatch):
        # A relative error of 1e-12 planted in the 4 (|a|^2 + |b|^2) term of the
        # final norm², far below an absolute bound of 1e-10, is 141 times its
        # rounding bound; at seed 8 the worst trial is in the second block.
        true_final_norm_sq = rates.final_norm_sq

        def planted(coeffs, table, statistics):
            return true_final_norm_sq(coeffs, table, statistics) + 4e-12 * coeffs.weight_products[3]

        monkeypatch.setattr(rates, "final_norm_sq", planted)
        out = tmp_path / "verify.txt"
        assert exit_code(["verify", "--seed", "8", "--out", str(out)]) == 2
        assert out.read_text() == (
            "verify: seed=8 trials=1000\n"
            "max |matrix element closed - formal| = 4.441164496226614e-15\n"
            "max |initial norm^2 closed - formal| = 2.220446049250313e-15\n"
            "max |final norm^2 closed - formal| = 4.005684672847565e-12\n"
            "max |closed - formal| / rounding bound = 140.9375 in final norm^2 (boson)"
            " at trial 883\n"
            "FAIL: deviation 4.005684672847565e-12 in final norm^2 (boson) at trial 883;"
            " reproduce with seed=8\n"
        )
        assert exit_code(["verify", "--seed", "1", "--out", str(out)]) == 2
        assert out.read_text().splitlines()[-1].startswith(
            "FAIL: deviation 4.005684672847565e-12 in final norm^2 (boson) at trial 165;")

    #: Every overlap the closed forms read: none is a diagonal <x|x>.
    CLOSED_FORM_PAIRS = closed_form_pairs()

    def test_the_closed_forms_read_34_distinct_overlaps(self):
        assert len(self.CLOSED_FORM_PAIRS) == 34
        assert all(x != y for x, y in self.CLOSED_FORM_PAIRS)

    @pytest.mark.parametrize("pair", CLOSED_FORM_PAIRS, ids=lambda pair: f"<{pair[0]}|{pair[1]}>")
    def test_a_relative_error_of_1e_12_in_any_overlap_fails(self, pair, monkeypatch):
        # Only the closed forms see the error, as a bug in one of their terms
        # would; the oracle reads the table as drawn.  Each case stays below an
        # absolute bound of 1e-10 but exceeds its rounding bound 12.9 to 262
        # times at seed 1.
        true_relative_rate_grid = rates.relative_rate_grid

        def scaled(coeffs, table, statistics):
            return true_relative_rate_grid(coeffs, ScaledOverlap(table, pair, 1 + 1e-12),
                                           statistics)

        monkeypatch.setattr(rates, "relative_rate_grid", scaled)
        code, out = main_stdout(["verify", "--seed", "1", "--trials", str(cli._VERIFY_BLOCK)])
        assert code == 2
        assert out.splitlines()[-1].startswith("FAIL: deviation ")

    def test_seeds_0_to_49_pass_with_a_margin(self):
        # The benchmark's verify job runs at a seed it chooses itself.  Over seeds
        # 0-9999 at 1000 trials the worst ratio was 0.375 (12 epsilons of the
        # final norm²'s scale); this guards the bound on every numpy a CI cell runs.
        worst = 0.0
        for seed in range(50):
            code, out = main_stdout(["verify", "--seed", str(seed)])
            assert code == 0, out
            ratio_line = out.splitlines()[4]
            worst = max(worst, float(re.fullmatch(r"max \|closed - formal\| / rounding bound"
                                                  r" = (\S+) in .*", ratio_line).group(1)))
        assert worst <= 0.5

    # Reports at the edges of blocks of K = 512 trials.  A block draws its
    # numbers at once, so a report depends on the seed, the trial count and
    # _VERIFY_BLOCK; a run shares only its full blocks with a longer run.
    # The worst deviation against its bound lies at trial 511 of 512 for seed
    # 903 (the last of a block), at trial 512 of 513 for seed 831 and at trial
    # 1024 of 1025 for seed 856 (the first of the second and of the third
    # block, each a block of one).  Beside each is the report of the same seed
    # one trial shorter.  The reports at 1 to 128 trials of seeds 98, 129, 178,
    # 325 and 74, chosen at block edges when K was 32 and 128, are pinned too:
    # a run of at most K trials is one block of its own size, so they hold for
    # every K >= 128.  Each entry: (seed, trials, matrix element, initial
    # norm^2, final norm^2, worst ratio, its quantity, statistics and trial).
    BLOCK_EDGE_REPORTS = [
        (98, 1, "3.331678902124456e-16", "4.440892098500626e-16", "1.7763568394002505e-15",
         "0.0625", "in final norm^2 (boson) at trial 0"),
        (98, 31, "5.551370857056149e-16", "8.881784197001252e-16", "3.552713678800501e-15",
         "0.125", "in final norm^2 (boson) at trial 4"),
        (98, 32, "1.7764830742629498e-15", "8.881784197001252e-16", "2.6645352591003757e-15",
         "0.11875143288272566", "in matrix element (boson) at trial 25"),
        (129, 32, "1.7765931382557897e-15", "1.3322676295501878e-15", "2.6645352591003757e-15",
         "0.10127262298065808", "in matrix element (boson) at trial 21"),
        (129, 33, "1.1106015241453876e-15", "1.3322676295501878e-15", "3.552713678800501e-15",
         "0.125", "in final norm^2 (boson) at trial 20"),
        (178, 64, "1.1173016336246744e-15", "1.3322676295501878e-15", "4.440892098500626e-15",
         "0.15624999999999997", "in final norm^2 (boson) at trial 10"),
        (178, 65, "1.3322738494359735e-15", "1.7763568394002505e-15", "4.440892098500626e-15",
         "0.15625000000000008", "in final norm^2 (boson) at trial 55"),
        (325, 127, "1.3323703898809778e-15", "1.7763568394002505e-15", "4.440892098500626e-15",
         "0.15625000000000003", "in final norm^2 (boson) at trial 79"),
        (325, 128, "1.5546155809736309e-15", "2.220446049250313e-15", "4.440892098500626e-15",
         "0.15625", "in initial norm^2 (boson) at trial 99"),
        (74, 128, "1.5543848536695612e-15", "1.7763568394002505e-15", "4.440892098500626e-15",
         "0.15625000000000003", "in final norm^2 (boson) at trial 124"),
        (903, 511, "1.9985376866595862e-15", "1.7763568394002505e-15", "6.217248937900877e-15",
         "0.21874999999999994", "in final norm^2 (boson) at trial 458"),
        (903, 512, "2.2206317123450062e-15", "1.7763568394002505e-15", "7.105427357601002e-15",
         "0.25", "in final norm^2 (boson) at trial 511"),
        (831, 512, "1.5548362135085095e-15", "1.7763568394002505e-15", "6.217248937900877e-15",
         "0.21874999999999994", "in final norm^2 (boson) at trial 482"),
        (831, 513, "1.5548362135085095e-15", "1.7763568394002505e-15", "7.993605777301127e-15",
         "0.28124999999999994", "in final norm^2 (boson) at trial 512"),
        (856, 1024, "5.551116412533276e-15", "1.7763568394002505e-15", "5.329070518200751e-15",
         "0.1875", "in final norm^2 (boson) at trial 944"),
        (856, 1025, "5.551116412533276e-15", "1.7763568394002505e-15", "6.217248937900877e-15",
         "0.21875", "in final norm^2 (boson) at trial 1024"),
    ]

    @pytest.mark.parametrize("seed, trials, matrix, initial, final, ratio, where",
                             BLOCK_EDGE_REPORTS,
                             ids=[f"seed{r[0]}-trials{r[1]}" for r in BLOCK_EDGE_REPORTS])
    def test_reports_at_block_edges(self, seed, trials, matrix, initial, final, ratio, where):
        assert cli._VERIFY_BLOCK == 512  # the last six trial counts are chosen for it
        assert main_stdout(["verify", "--seed", str(seed), "--trials", str(trials)]) == (0, (
            f"verify: seed={seed} trials={trials}\n"
            f"max |matrix element closed - formal| = {matrix}\n"
            f"max |initial norm^2 closed - formal| = {initial}\n"
            f"max |final norm^2 closed - formal| = {final}\n"
            f"max |closed - formal| / rounding bound = {ratio} {where}\n"
            "PASS\n"
        ))


class TestConfigFile:
    def test_config_supplies_defaults_and_flags_win(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# sweep configuration\n"
            "steps = 3\n"
            "c-max = 0.5\n"
            "statistics = boson\n"
        )
        out = tmp_path / "out.csv"
        code = exit_code([
            "sweep", "--config", str(cfg), "--steps", "5", "--out", str(out),
        ])
        assert code == 0
        _, rows = read_csv(out)
        assert len(rows) == 5  # flag beats config
        assert all(row[1] == "boson" for row in rows)
        assert max(float(row[6]) for row in rows) == 0.5  # config beats builtin

    def test_a_hash_inside_a_value_is_part_of_it(self, tmp_path, monkeypatch):
        # a # starts a comment only at the start of a line or after whitespace
        monkeypatch.chdir(tmp_path)
        (tmp_path / "run.cfg").write_text(
            "# sweep configuration\n"
            "  # indented\n"
            "steps = 3  # three\n"
            "out = res#1.csv\n"
        )
        assert exit_code(["sweep", "--config", "run.cfg"]) == 0
        assert sorted(path.name for path in tmp_path.iterdir()) == ["res#1.csv", "run.cfg"]
        _, rows = read_csv(tmp_path / "res#1.csv")
        assert len(rows) == 2 * 3  # both statistics, 3 steps

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("bogus = 1\n")
        assert exit_code(["sweep", "--config", str(cfg)]) == 1
        assert "unknown config key" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["func", "help", "config"])
    @pytest.mark.parametrize("argv", [["rate"], ["sweep"], ["figures", "fig4"],
                                      ["exclusion-scan"], ["verify"]], ids=lambda argv: argv[0])
    def test_reserved_names_are_not_config_keys(self, argv, key, tmp_path, capsys):
        cfg = tmp_path / "reserved.cfg"
        cfg.write_text(f"{key} = x\n")
        assert exit_code([*argv, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == (
            f"pairabs: config error: unknown config key '{key}' for this command\n")
        assert not (tmp_path / "out").exists()

    def test_a_positional_is_not_a_config_key(self, tmp_path, capsys):
        # a key is a long flag: the file cannot name a figure target
        cfg = tmp_path / "target.cfg"
        cfg.write_text("target = fig3\n")
        argv = ["figures", "fig4", "--config", str(cfg), "--out", str(tmp_path / "out")]
        assert exit_code(argv) == 1
        assert capsys.readouterr().err == (
            "pairabs: config error: unknown config key 'target' for this command\n")
        assert not (tmp_path / "out").exists()

    def test_malformed_line_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("steps\n")
        assert exit_code(["sweep", "--config", str(cfg)]) == 1

    def test_missing_config_file_rejected(self, tmp_path):
        assert exit_code(["sweep", "--config", str(tmp_path / "absent.cfg")]) == 1


    @pytest.mark.parametrize("config, flags, scenario", [
        ("choice = family", [], "family"),
        ("choice = family", ["--choice", "ii"], "ii"),
        ("choice = iii", ["--family"], "family"),
        ("choice = iii", ["--choice", "family"], "family"),
    ])
    def test_explicit_scenario_flag_beats_the_config(self, config, flags, scenario,
                                                      tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config + "\n")
        assert exit_code(["rate", "--config", str(cfg), *flags]) == 0
        _, rows = parse_stdout_csv(capsys.readouterr().out)
        assert [row[0] for row in rows] == [scenario, scenario]

    def test_unknown_choice_in_config_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("choice = v\n")
        assert exit_code(["sweep", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert "config key 'choice': 'v' is not one of" in err and "Traceback" not in err

    @pytest.mark.parametrize("argv, config, message", [
        (["sweep"], "steps = x", "'steps': must be a positive integer"),
        (["exclusion-scan"], "a-steps = 0", "'a_steps': must be a positive integer"),
        (["verify"], "trials = 1.5", "'trials': must be a positive integer"),
        (["verify"], "seed = x", "'seed': must be a non-negative integer"),
        (["rate"], "a-re = 1,5", "'a_re': could not convert string to float: '1,5'"),
    ], ids=["steps", "a-steps", "trials", "seed", "a-re"])
    def test_a_value_that_does_not_convert_is_reported_with_its_key(self, argv, config, message,
                                                                    tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(config + "\n")
        assert exit_code([*argv, "--config", str(cfg)]) == 1
        assert capsys.readouterr() == ("", f"pairabs: config error: config key {message}\n")

    def test_family_is_not_a_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "old.cfg"
        cfg.write_text("family = true\n")
        assert exit_code(["sweep", "--config", str(cfg)]) == 1
        assert "unknown config key 'family'" in capsys.readouterr().err


    def test_a_byte_order_mark_is_ignored(self, tmp_path):
        plain, marked = tmp_path / "plain.cfg", tmp_path / "marked.cfg"
        plain.write_bytes(b"steps = 3\nstatistics = boson\n")
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())  # as Windows editors write
        outs = []
        for cfg in (plain, marked):
            outs.append(tmp_path / (cfg.stem + ".csv"))
            assert exit_code(["sweep", "--config", str(cfg), "--out", str(outs[-1])]) == 0
        assert outs[1].read_bytes() == outs[0].read_bytes()
        assert len(read_csv(outs[0])[1]) == 3

    @pytest.mark.parametrize("command, config, flags, changed, default", [
        ("rate", "c = 0.5", [], 0.5, 0.0),
        ("sweep", "steps = 5", ["--statistics", "boson"], 5, 101),
        ("figures", "steps = 5", ["fig4"], 5, 101),
        ("exclusion-scan", "steps = 5", ["--a-steps", "2"], 5, 51),
        ("verify", "trials = 5", [], 5, 1000),
    ])
    def test_config_values_do_not_leak_into_the_next_call(self, command, config, flags,
                                                          changed, default, tmp_path, capsys):
        """A config fills only its own call's namespace, never the parser's defaults."""
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config + "\n")

        def size(with_config):
            """The trial count of ``verify``, the c value of ``rate``, else the number
            of distinct c values."""
            out = tmp_path / ("with" if with_config else "without")
            argv = [command, *flags, "--out", str(out)]
            assert exit_code([*argv, "--config", str(cfg)] if with_config else argv) == 0
            if command == "verify":
                return int(re.search(r"trials=(\d+)", out.read_text()).group(1))
            header, rows = read_csv(out / "fig4.csv" if command == "figures" else out)
            c_values = {float(row[header.index("c")]) for row in rows}
            return c_values.pop() if command == "rate" else len(c_values)

        assert size(with_config=True) == changed
        assert size(with_config=False) == default

    #: A valid value of each long flag, not its default.
    FLAG_VALUES = {
        "--choice": "iii", "--statistics": "fermion", "--a-re": "0.6", "--a-im": "0.1",
        "--b-re": "0.5", "--b-im": "0.25", "--c": "0.25", "--c-min": "0.25", "--c-max": "0.75",
        "--a-min": "0.25", "--a-max": "0.75", "--a-steps": "3", "--steps": "4",
        "--alpha0": "0.5", "--seed": "7", "--trials": "3",
        "--out": "result",
    }
    #: Small runs of each subcommand, as ``flag -> value``.
    BASE_FLAGS = {
        "rate": {}, "sweep": {"--steps": "3"}, "figures": {"--steps": "3"},
        "exclusion-scan": {"--steps": "3", "--a-steps": "2"}, "verify": {"--trials": "2"},
    }

    @pytest.mark.parametrize("command", list(cli._COMMANDS))
    def test_every_flag_can_come_from_the_config(self, command, tmp_path, monkeypatch, capsys):
        """``key = v`` writes the bytes of ``--flag v`` for each long flag of the ``-h`` text,
        spelled with ``-`` or ``_``; only ``--config``, ``--family`` and ``--help`` are not keys."""
        with pytest.raises(SystemExit):
            cli.main([command, "-h"])
        flags = set(re.findall(r"--[a-z0-9-]+", capsys.readouterr().out))
        flags -= {"--config", "--family", "--help"}
        assert flags and flags <= set(self.FLAG_VALUES), flags - set(self.FLAG_VALUES)

        def written(flag, config=None):
            """Exit code, stdout, stderr and the files written by one run in a new directory."""
            run = Path(tempfile.mkdtemp(dir=tmp_path))
            monkeypatch.chdir(run)
            base = {key: value for key, value in self.BASE_FLAGS[command].items() if key != flag}
            argv = [command, *(["fig4"] if command == "figures" else []),
                    *(text for item in base.items() for text in item)]
            if config is not None:
                (tmp_path / "run.cfg").write_text(config + "\n")
                argv += ["--config", str(tmp_path / "run.cfg")]
            elif flag is not None:
                argv += [flag, self.FLAG_VALUES[flag]]
            code = exit_code(argv)
            files = {str(path.relative_to(run)): path.read_bytes()
                     for path in sorted(run.rglob("*")) if path.is_file()}
            return (code, *capsys.readouterr(), files)

        default = written(None)
        for flag in sorted(flags):
            by_flag = written(flag)
            assert by_flag[0] == 0 and by_flag != default, flag
            for key in {flag[2:], flag[2:].replace("-", "_")}:
                assert written(flag, f"{key} = {self.FLAG_VALUES[flag]}") == by_flag, key


#: The usage line of each parser at 80 columns; each error message follows it.
PARSER_USAGE = {
    "": "usage: pairabs [-h] {rate,sweep,figures,exclusion-scan,verify} ...\n",
    "rate": """\
usage: pairabs rate [-h] [--choice {i,ii,iii,iv,family} | --family]
                    [--statistics {boson,fermion,both}] [--a-re A_RE]
                    [--a-im A_IM] [--b-re B_RE] [--b-im B_IM] [--c C]
                    [--alpha0 ALPHA0] [--out PATH] [--config PATH]
""",
    "sweep": """\
usage: pairabs sweep [-h] [--choice {i,ii,iii,iv,family} | --family]
                     [--statistics {boson,fermion,both}] [--a-re A_RE]
                     [--a-im A_IM] [--b-re B_RE] [--b-im B_IM] [--c-min C_MIN]
                     [--c-max C_MAX] [--steps STEPS] [--alpha0 ALPHA0]
                     [--out PATH] [--config PATH]
""",
    "figures": """\
usage: pairabs figures [-h] [--steps STEPS] [--alpha0 ALPHA0] [--out DIR]
                       [--config PATH]
                       {fig2,fig3,fig4}
""",
    "exclusion-scan": """\
usage: pairabs exclusion-scan [-h] [--a-min A_MIN] [--a-max A_MAX]
                              [--a-steps A_STEPS] [--c-min C_MIN]
                              [--c-max C_MAX] [--steps STEPS] [--out PATH]
                              [--config PATH]
""",
    "verify": """\
usage: pairabs verify [-h] [--seed SEED] [--trials TRIALS] [--out PATH]
                      [--config PATH]
""",
}

_CASE_HELP = """\
  --choice {i,ii,iii,iv,family}
                        built-in overlap preset, or the equal-weight exclusion
                        family (default i)
  --family              shorthand for --choice family
  --statistics {boson,fermion,both}
                        exchange statistics of the pair (default both)
  --a-re A_RE           real part of the weight a (default 1.0)
  --a-im A_IM           imaginary part of the weight a (default 0.0)
  --b-re B_RE           real part of the weight b (default 0.0)
  --b-im B_IM           imaginary part of the weight b (default 0.0)
"""
_OUT_CONFIG_HELP = """\
  --out PATH            output path; default standard output
  --config PATH         key = value config file; command-line flags override
                        it
"""

#: The ``-h`` text of each parser at 80 columns.
PARSER_HELP = {
    "": PARSER_USAGE[""] + """
Relative single-photon absorption rates for symmetrized two-atom
superpositions.

positional arguments:
  {rate,sweep,figures,exclusion-scan,verify}
    rate                evaluate a single sweep point
    sweep               sweep the overlap parameter, emit CSV
    figures             emit the built-in figure datasets
    exclusion-scan      grid scan of the exclusion family, two detection paths
    verify              randomized closed-form vs formal-expansion check

options:
  -h, --help            show this help message and exit
""",
    "rate": PARSER_USAGE["rate"] + """
options:
  -h, --help            show this help message and exit
""" + _CASE_HELP + """\
  --c C                 sweep value (default 0)
  --alpha0 ALPHA0       one-recoil overlap shrink factor (default 0.9)
""" + _OUT_CONFIG_HELP,
    "sweep": PARSER_USAGE["sweep"] + """
options:
  -h, --help            show this help message and exit
""" + _CASE_HELP + """\
  --c-min C_MIN         first sweep value (default 0.0)
  --c-max C_MAX         last sweep value (default 1.0)
  --steps STEPS         number of sweep values (default 101)
  --alpha0 ALPHA0       one-recoil overlap shrink factor (default 0.9)
""" + _OUT_CONFIG_HELP,
    "figures": PARSER_USAGE["figures"] + """
positional arguments:
  {fig2,fig3,fig4}

options:
  -h, --help        show this help message and exit
  --steps STEPS     number of sweep values (default 101)
  --alpha0 ALPHA0   one-recoil overlap shrink factor (default 0.9)
  --out DIR         output directory (default current directory)
  --config PATH     key = value config file; command-line flags override it
""",
    "exclusion-scan": PARSER_USAGE["exclusion-scan"] + """
options:
  -h, --help         show this help message and exit
  --a-min A_MIN      first weight a, with b = sqrt(1 - a^2) (default 0.0)
  --a-max A_MAX      last weight a (default 1.0)
  --a-steps A_STEPS  number of weights a (default 51)
  --c-min C_MIN      first sweep value (default 0.0)
  --c-max C_MAX      last sweep value (default 1.0)
  --steps STEPS      number of sweep values (default 51)
  --out PATH         output path; default standard output
  --config PATH      key = value config file; command-line flags override it
""",
    "verify": PARSER_USAGE["verify"] + """
options:
  -h, --help       show this help message and exit
  --seed SEED      seed of the random configurations (default 0)
  --trials TRIALS  number of random configurations (default 1000)
  --out PATH       output path; default standard output
  --config PATH    key = value config file; command-line flags override it
""",
}


def parser_error(command, message):
    """Exit code, stdout and stderr of a usage error of the ``command`` parser."""
    prog = " ".join(["pairabs", command]).strip()
    return 1, "", f"{PARSER_USAGE[command]}{prog}: error: {message}\n"


_INVALID_COMMAND = ("argument command: invalid choice: {!r} (choose from 'rate', 'sweep', "
                    "'figures', 'exclusion-scan', 'verify')")

#: The outcome of each argv of ``TestParserPerCommand.CORPUS``, by its words.
PARSER_OUTCOMES = {
    "": parser_error("", "the following arguments are required: command"),
    "-h": (0, PARSER_HELP[""], ""),
    "--help": (0, PARSER_HELP[""], ""),
    "--": parser_error("", "the following arguments are required: command"),
    "-- rate": parser_error("", _INVALID_COMMAND.format("--")),
    "-x": parser_error("", "the following arguments are required: command"),
    "nope": parser_error("", _INVALID_COMMAND.format("nope")),
    "Rate": parser_error("", _INVALID_COMMAND.format("Rate")),
    "rat": parser_error("", _INVALID_COMMAND.format("rat")),
    **{f"{command} -h": (0, PARSER_HELP[command], "") for command in cli._COMMANDS},
    "rate -h extra": (0, PARSER_HELP["rate"], ""),
    "rate extra": parser_error("", "unrecognized arguments: extra"),
    "rate --bogus": parser_error("", "unrecognized arguments: --bogus"),
    "rate --choice v": parser_error(
        "rate", "argument --choice: invalid choice: 'v' "
                "(choose from 'i', 'ii', 'iii', 'iv', 'family')"),
    "rate --choice i --family": parser_error(
        "rate", "argument --family: not allowed with argument --choice"),
    "sweep --steps 0": parser_error("sweep", "argument --steps: must be a positive integer"),
    "sweep --c-min": parser_error("sweep", "argument --c-min: expected one argument"),
    "sweep --c x": parser_error(
        "sweep", "ambiguous option: --c could match --choice, --c-min, --c-max, --config"),
    "figures": parser_error("figures", "the following arguments are required: target"),
    "figures fig9": parser_error(
        "figures", "argument target: invalid choice: 'fig9' "
                   "(choose from 'fig2', 'fig3', 'fig4')"),
    "figures fig2 --steps": parser_error("figures", "argument --steps: expected one argument"),
    "exclusion-scan 1": parser_error("", "unrecognized arguments: 1"),
    "verify --seed -1": parser_error("verify", "argument --seed: must be a non-negative integer"),
    "verify --seed x": parser_error("verify", "argument --seed: must be a non-negative integer"),
    "verify --trials 1.5": parser_error("verify", "argument --trials: must be a positive integer"),
}


class TestParserPerCommand:
    """One parser, built once, serves every call of ``main``; its text is the full parser's."""

    #: Each stops in the parser: help, a usage error or a missing command.
    CORPUS = [
        [], ["-h"], ["--help"], ["--"], ["--", "rate"], ["-x"], ["nope"], ["Rate"], ["rat"],
        *([command, "-h"] for command in cli._COMMANDS),
        ["rate", "-h", "extra"], ["rate", "extra"], ["rate", "--bogus"],
        ["rate", "--choice", "v"], ["rate", "--choice", "i", "--family"],
        ["sweep", "--steps", "0"], ["sweep", "--c-min"], ["sweep", "--c", "x"],
        ["figures"], ["figures", "fig9"], ["figures", "fig2", "--steps"],
        ["exclusion-scan", "1"], ["verify", "--seed", "-1"], ["verify", "--seed", "x"],
        ["verify", "--trials", "1.5"],
    ]

    #: A quick run of each subcommand, in the order of the usage line, and a
    #: config that changes one of its values.
    RUNS = {
        "rate": ([], "c = 0.25\nchoice = iii"),
        "sweep": (["--steps", "2"], "statistics = fermion"),
        "figures": (["fig4", "--steps", "3"], "alpha0 = 0.5"),
        "exclusion-scan": (["--steps", "3"], "a_steps = 2"),
        "verify": (["--trials", "2"], "seed = 7"),
    }

    @staticmethod
    def outcome(capsys, call):
        """Exit code, stdout and stderr of ``call``, which must stop with ``SystemExit``."""
        with pytest.raises(SystemExit) as stop:
            call()
        return (stop.value.code, *capsys.readouterr())

    @pytest.mark.parametrize("argv", CORPUS, ids=" ".join)
    def test_text_and_exit_code_equal_the_full_parser(self, argv, capsys):
        full = self.outcome(capsys, lambda: cli.build_parser()[0].parse_args(argv))
        assert self.outcome(capsys, lambda: cli.main(argv)) == full

    # Python 3.10 titles the options "optional arguments:", and other versions
    # may wrap or word a message differently; these texts are Python 3.11's.
    @pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                        reason="the pinned help and error texts are Python 3.11's")
    @pytest.mark.parametrize("argv", CORPUS, ids=" ".join)
    def test_text_and_exit_code_are_pinned(self, argv, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its text to the terminal
        assert self.outcome(capsys, lambda: cli.main(argv)) == PARSER_OUTCOMES[" ".join(argv)]
        assert len(PARSER_OUTCOMES) == len(self.CORPUS)

    def test_main_builds_its_parser_once(self, tmp_path, capsys):
        assert list(self.RUNS) == list(cli._COMMANDS)
        cli._parser.cache_clear()
        for command, (flags, _) in self.RUNS.items():
            assert exit_code([command, *flags, "--out", str(tmp_path / command)]) == 0
        self.outcome(capsys, lambda: cli.main(["-h"]))
        assert cli._parser.cache_info().misses == 1

    @staticmethod
    def defaults(commands):
        """``(command, dest) -> default`` of every action of every subparser."""
        return {(command, action.dest): action.default
                for command, subparser in commands.items() for action in subparser._actions}

    @pytest.mark.parametrize("command", list(RUNS))
    def test_a_config_call_leaves_the_parser_defaults_unchanged(self, command, tmp_path):
        flags, config = self.RUNS[command]
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config + "\n")
        argv = [command, *flags, "--config", str(cfg), "--out", str(tmp_path / "out")]
        assert exit_code(argv) == 0
        assert self.defaults(cli._parser()[1]) == self.defaults(cli.build_parser()[1])

    def test_a_flag_shared_by_several_commands_has_one_help_text(self):
        helps = {}  # flag -> {command: its help line}
        for command, subparser in cli.build_parser()[1].items():
            for action in subparser._actions:
                for flag in action.option_strings:
                    helps.setdefault(flag, {})[command] = action.help
        del helps["--out"]["figures"]  # an output directory, not a file
        assert {"--alpha0", "--config", "--out", "--steps"} <= {
            flag for flag, by_command in helps.items() if len(by_command) > 2}
        for flag, by_command in helps.items():
            assert len(set(by_command.values())) == 1, (flag, by_command)
        assert helps["--config"]["verify"] == helps["--config"]["figures"] is not None

    @pytest.mark.parametrize("command", ["rate", "sweep"])
    def test_choice_names_the_library_scenarios(self, command):
        # the parser and choice_overlaps accept the same names, so neither can drift
        actions = {action.option_strings[0]: action
                   for action in cli.build_parser()[1][command]._actions if action.option_strings}
        assert actions["--choice"].choices is scenarios.CHOICES
        assert actions["--family"].const in scenarios.CHOICES

    @pytest.mark.parametrize("command, shown", [
        ("rate", "exchange statistics of the pair (default both)"),
        ("sweep", "--steps STEPS number of sweep values (default 101)"),
        ("figures", "--steps STEPS number of sweep values (default 101)"),
        ("exclusion-scan", "--steps STEPS number of sweep values (default 51)"),
        ("verify", "--trials TRIALS number of random configurations (default 1000)"),
    ])
    def test_every_flag_has_a_help_line_naming_its_default(self, command, shown, capsys):
        subparser = cli.build_parser()[1][command]
        for action in subparser._actions:
            if action.option_strings and action.dest not in ("help", "config"):
                assert action.help, action.option_strings
                if action.default is not None:
                    assert "default" in action.help, action.option_strings
        text = self.outcome(capsys, lambda: cli.main([command, "-h"]))[1]
        assert shown in " ".join(text.split())


class TestEntryPoint:
    """``python -m pairabs`` runs ``cli.main`` and exits with its code."""

    @staticmethod
    def module_env(unbuffered=False):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        return env

    def run_module(self, argv, cwd):
        return subprocess.run([sys.executable, "-m", "pairabs", *argv], cwd=cwd,
                              env=self.module_env(), capture_output=True, timeout=60)

    def test_exit_code_and_bytes_match_the_in_process_run(self, tmp_path, capsys):
        assert exit_code(NEAR_NULL_SCAN) == 0
        in_process = capsys.readouterr().out
        proc = self.run_module(NEAR_NULL_SCAN, tmp_path)
        assert proc.returncode == 0
        assert proc.stdout == in_process.encode()
        assert proc.stderr == b""

    @pytest.mark.parametrize("argv", [
        ["sweep", "--choice", "v"],
        ["sweep", "--c-max", "1.5"],
        ["rate", "--a-re", "0", "--b-re", "0"],
    ])
    def test_bad_input_exits_1_without_a_traceback(self, argv, tmp_path):
        proc = self.run_module(argv, tmp_path)
        assert proc.returncode == 1
        assert proc.stdout == b""
        assert proc.stderr and b"Traceback" not in proc.stderr

    def test_stdout_bytes_equal_the_out_file(self, tmp_path):
        argv = ["sweep", "--choice", "iii", "--steps", "11", *TestCsvText.COMPLEX_WEIGHTS]
        proc = self.run_module(argv, tmp_path)
        assert self.run_module([*argv, "--out", "out.csv"], tmp_path).returncode == 0
        assert proc.returncode == 0
        assert proc.stdout == (tmp_path / "out.csv").read_bytes()

    @pytest.mark.parametrize("unbuffered", [False, True])
    def test_a_closed_stdout_pipe_exits_1_without_a_traceback(self, unbuffered, tmp_path):
        """A reader that stops after the first line: the unwritten rest is an error.

        Unbuffered (``PYTHONUNBUFFERED=1``), standard output writes straight to
        the pipe, where one large write can be cut short without an error.
        """
        # 40000 rows, about 6 MB: far more than a pipe holds
        proc = subprocess.Popen([sys.executable, "-m", "pairabs", "sweep", "--steps", "20000"],
                                cwd=tmp_path, env=self.module_env(unbuffered),
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        first = proc.stdout.readline()
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
        assert first == (",".join(SWEEP_HEADER) + "\n").encode()
        assert proc.returncode == 1
        assert err == b"pairabs: error: [Errno 32] Broken pipe\n"

    def test_a_pipe_closed_before_the_first_write_exits_1(self, tmp_path):
        """No reader at all, so the outcome does not hang on timing.

        10 rows fit in standard output's buffer and fail only when it is
        flushed.  If that were left to the interpreter's exit, or the bytes
        were still buffered then, the flush would print ``Exception ignored
        ... BrokenPipeError`` and exit with 120, which the test above meets
        only in a few runs.
        """
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run([sys.executable, "-m", "pairabs", "sweep", "--steps", "5"],
                                  cwd=tmp_path, env=self.module_env(), stdout=write_end,
                                  stderr=subprocess.PIPE, timeout=60)
        finally:
            os.close(write_end)
        assert proc.returncode == 1
        assert proc.stderr == b"pairabs: error: [Errno 32] Broken pipe\n"

    def test_grid_too_large_to_allocate_exits_1_without_a_traceback(self, tmp_path):
        proc = self.run_module(["exclusion-scan", "--steps", HUGE_STEPS], tmp_path)
        assert proc.returncode == 1
        assert proc.stdout == b""
        assert proc.stderr.startswith(b"pairabs: error: ") and b"Traceback" not in proc.stderr


#: Float flag values: a ``repr`` from [0, 1], where most flags are valid, or
#: from any double (nan, infinities, signed zeros, subnormals, extremes), or a
#: string ``float`` may not read.
FLOAT_TEXT = st.one_of(
    st.floats(0.0, 1.0).map(repr),
    st.floats().map(repr),
    st.sampled_from(["nan", "-inf", "-0.0", "5e-324", "1e308", "-1e308", "0.5", "1",
                     "", "abc", "1,5", "0x1p-3", "1e", " 0.25"]),
)


def int_text(cap):
    """Integer flag values up to ``cap``, or strings ``int`` may not read."""
    return st.one_of(st.integers(-2, cap).map(str),
                     st.sampled_from(["nan", "inf", "1.5", "1e3", "", "abc", "-0", " 7"]))


_CASE_FLAGS = {
    "--choice": st.sampled_from([*CHOICES, "v", ""]),
    "--family": st.none(),
    "--statistics": st.sampled_from(["boson", "fermion", "both", "Boson"]),
    "--a-re": FLOAT_TEXT, "--a-im": FLOAT_TEXT, "--b-re": FLOAT_TEXT, "--b-im": FLOAT_TEXT,
}
#: Flags of each subcommand and their values; grid sizes are capped so that
#: no example allocates more than a few thousand points.
COMMAND_FLAGS = {
    "rate": {**_CASE_FLAGS, "--c": FLOAT_TEXT, "--alpha0": FLOAT_TEXT},
    "sweep": {**_CASE_FLAGS, "--c-min": FLOAT_TEXT, "--c-max": FLOAT_TEXT,
              "--steps": int_text(3000), "--alpha0": FLOAT_TEXT},
    "figures": {"--steps": int_text(300), "--alpha0": FLOAT_TEXT},
    "exclusion-scan": {"--a-min": FLOAT_TEXT, "--a-max": FLOAT_TEXT, "--a-steps": int_text(40),
                       "--c-min": FLOAT_TEXT, "--c-max": FLOAT_TEXT, "--steps": int_text(100)},
    "verify": {"--seed": st.one_of(st.integers(-2, 2**70).map(str), FLOAT_TEXT),
               "--trials": int_text(200)},
}


@st.composite
def cli_jobs(draw):
    """``(command, argv, config)``: up to three flags as ``--flag=value`` and up to two
    config keys as ``key = value`` lines (few enough that many jobs run to the end)."""
    command = draw(st.sampled_from(sorted(COMMAND_FLAGS)))
    flags = COMMAND_FLAGS[command]
    argv = [command]
    if command == "figures":
        argv.append(draw(st.sampled_from(["fig2", "fig3", "fig4", "fig9"])))
    for flag in draw(st.lists(st.sampled_from(sorted(flags)), max_size=3, unique=True)):
        value = draw(flags[flag])
        argv.append(flag if value is None else f"{flag}={value}")
    config = None
    if draw(st.booleans()):
        keys = draw(st.lists(st.sampled_from(sorted(set(flags) - {"--family"})),
                             max_size=2, unique=True))
        config = "".join(f"{key[2:]} = {draw(flags[key])}\n" for key in keys)
    return command, argv, config

class TestInvalidInput:
    def test_unknown_choice(self):
        assert exit_code(["sweep", "--choice", "v"]) == 1

    def test_inverted_c_range(self):
        assert exit_code(["sweep", "--c-min", "0.8", "--c-max", "0.2"]) == 1

    def test_c_range_outside_unit_interval(self):
        assert exit_code(["sweep", "--c-max", "1.5"]) == 1

    def test_zero_steps(self):
        assert exit_code(["sweep", "--steps", "0"]) == 1

    def test_bad_alpha0(self):
        assert exit_code(["sweep", "--alpha0", "0"]) == 1

    def test_exclusion_scan_takes_no_alpha0(self, tmp_path, capsys):
        # both of its verdicts read only bare overlaps, which alpha0 does not change
        assert exit_code(["exclusion-scan", "--alpha0", "0.5"]) == 1
        assert capsys.readouterr().err.endswith(
            "pairabs: error: unrecognized arguments: --alpha0 0.5\n")
        cfg = tmp_path / "scan.cfg"
        cfg.write_text("alpha0 = 0.5\n")
        assert exit_code(["exclusion-scan", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == (
            "pairabs: config error: unknown config key 'alpha0' for this command\n")

    def test_vanishing_coefficients(self):
        assert exit_code(["sweep", "--a-re", "0", "--b-re", "0"]) == 1

    def test_choice_and_family_are_exclusive(self):
        assert exit_code(["sweep", "--choice", "i", "--family"]) == 1

    def test_missing_subcommand(self):
        assert exit_code([]) == 1

    @pytest.mark.parametrize("argv", [
        ["sweep", "--steps", HUGE_STEPS],
        ["figures", "fig2", "--steps", HUGE_STEPS, "--out", "new"],
        ["exclusion-scan", "--steps", HUGE_STEPS],
    ])
    def test_grid_too_large_to_allocate_exits_1(self, argv, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert exit_code(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("pairabs: error: ") and "Traceback" not in err
        assert list(tmp_path.iterdir()) == []  # figures makes no output directory

    @pytest.mark.parametrize("argv, message", [
        (["figures", "fig5"], "argument target: invalid choice: 'fig5'"),
        *((["figures", target, "--steps", steps], "argument --steps: must be a positive integer")
          for target in ("fig2", "fig3", "fig4") for steps in ("0", "-1")),
        (["verify", "--trials", "0"], "argument --trials: must be a positive integer"),
    ])
    def test_a_rejected_argument_creates_no_output(self, argv, message, tmp_path, capsys):
        # the parser is the one check of these values: it stops before any write
        assert exit_code([*argv, "--out", str(tmp_path / "new")]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and message in captured.err.splitlines()[-1]
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flags, message", [
        (["--a-min", "-0.5"], "need 0 <= a-min <= a-max <= 1, got a-min=-0.5 a-max=1.0"),
        (["--c-max", "1.5"], "need 0 <= c-min <= c-max <= 1, got c-min=0.0 c-max=1.5"),
        (["--a-max", "nan"], "need 0 <= a-min <= a-max <= 1, got a-min=0.0 a-max=nan"),
    ])
    def test_an_exclusion_scan_axis_outside_the_unit_interval_exits_1(self, flags, message,
                                                                      tmp_path, capsys):
        out = tmp_path / "scan.csv"
        assert exit_code(["exclusion-scan", *flags, "--out", str(out)]) == 1
        assert capsys.readouterr() == ("", f"pairabs: error: {message}\n")
        assert not out.exists()

    @settings(max_examples=200)
    @given(cli_jobs())
    def test_any_input_exits_0_1_or_2_with_a_message(self, job):
        """Whatever the flags and config: a clean exit, an error line or well-formed CSV."""
        command, argv, config = job
        out, err = io.StringIO(), io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            if config is not None:
                (Path(tmp) / "run.cfg").write_text(config, encoding="utf-8")
                argv = [*argv, "--config", str(Path(tmp) / "run.cfg")]
            if command == "figures":
                argv = [*argv, "--out", str(Path(tmp) / "figs")]
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = exit_code(argv)
            tables = ([out.getvalue()] if command != "figures" else
                      [path.read_text(encoding="utf-8")
                       for path in sorted((Path(tmp) / "figs").glob("*.csv"))])
        err = err.getvalue()
        assert code in (0, 1, 2), (argv, config, err)
        assert "Traceback" not in err
        if code == 1:
            assert re.fullmatch(r"pairabs[^:]*: (config )?error: .+", err.splitlines()[-1]), err
        if code == 0 and command != "verify":
            assert tables
            for text in tables:
                header, *rows = text.splitlines()
                assert all(row.count(",") == header.count(",") for row in rows), argv
