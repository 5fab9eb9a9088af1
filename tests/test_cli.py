"""Tests for the command-line interface: CSV schemas, exit codes, determinism."""

import csv
import io
import math

import numpy as np
import pytest

from pairabs import cli, rates
from pairabs.algebra import Statistics
from pairabs.cli import SCAN_HEADER, SWEEP_HEADER
from pairabs.scenarios import (
    Coefficients,
    ExclusionFamily,
    RecoilModel,
    ScenarioSpec,
    build_choice_table,
    build_family_table,
    family_exclusion_coefficient,
)

ROOT2_INV = 1.0 / math.sqrt(2.0)


def exit_code(argv):
    try:
        return cli.main(argv)
    except SystemExit as exc:  # argparse-level rejections
        return exc.code


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    return rows[0], rows[1:]


def parse_stdout_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


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

    def test_unwritable_output_location_exits_1(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        code = exit_code(["figures", "fig2", "--out", str(blocker / "sub")])
        assert code == 1
        assert capsys.readouterr().err


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

    def test_detection_disagreement_exits_2(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "family_exclusion_coefficient", lambda *a: 1.0)
        code = exit_code([
            "exclusion-scan", "--a-min", str(ROOT2_INV), "--a-max", str(ROOT2_INV),
            "--a-steps", "1", "--steps", "3",
        ])
        assert code == 2
        assert "disagree" in capsys.readouterr().err


def reference_sweep_rows(name, table_for, cases, stats, grid, alpha0):
    """The per-point loop: one table and one relative_rate call per c."""
    fmt = cli._fmt
    rows = []
    for coeffs in cases:
        for stat in stats:
            for c in grid:
                res = rates.relative_rate(coeffs, table_for(c), stat)
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
    """The per-point loop: one family table, exclusion_check and coefficient per (a, c)."""
    fmt = cli._fmt
    rows, disagreements = [], 0
    for a in a_grid:
        coeffs = Coefficients(a, math.sqrt(max(0.0, 1.0 - a * a)))
        for c in c_grid:
            fam = ExclusionFamily.equal_weight(c)
            by_norm = rates.exclusion_check(coeffs, build_family_table(fam), Statistics.FERMION)
            magnitude = abs(family_exclusion_coefficient(coeffs, fam))
            by_formula = magnitude < rates.EXCLUSION_EPS
            disagreements += by_norm != by_formula
            rows.append([fmt(a), fmt(c), fmt(magnitude),
                         "1" if by_norm else "0", "1" if by_formula else "0"])
    return rows, disagreements


class TestGridEqualsPointLoop:
    @pytest.mark.parametrize("name", ["i", "ii", "iii", "iv", "family"])
    def test_sweep_rows(self, name):
        model = RecoilModel(0.6)
        if name == "family":
            table_for = lambda c: build_family_table(ExclusionFamily.equal_weight(c), model)
        else:
            spec = ScenarioSpec.for_choice(name)
            table_for = lambda c: build_choice_table(spec, c, model)
        cases = [Coefficients(1.0, 0.0), Coefficients(0.8, 0.6),
                 Coefficients(0.3 + 0.4j, -0.5 + 0.2j),
                 Coefficients(ROOT2_INV, ROOT2_INV)]
        stats = [Statistics.BOSON, Statistics.FERMION]
        grid = [float(c) for c in np.linspace(0.0, 1.0, 41)]
        assert cli.sweep_rows(name, table_for, cases, stats, grid, 0.6) == (
            reference_sweep_rows(name, table_for, cases, stats, grid, 0.6)
        )

    @pytest.mark.parametrize("a_grid, c_grid", [
        (np.linspace(0.0, 1.0, 51).tolist(), np.linspace(0.0, 1.0, 51).tolist()),
        # norm floor and formula floor disagree here (different scales); the grid
        # scan must keep the loop's verdicts, disagreement included
        ([0.0], [0.99999999999]),
    ])
    def test_exclusion_scan_rows(self, a_grid, c_grid):
        assert cli.exclusion_scan_rows(a_grid, c_grid) == reference_scan_rows(a_grid, c_grid)


class TestTinyAlpha0:
    @pytest.mark.parametrize("argv", [
        ["rate"],
        ["sweep", "--steps", "3"],
        ["figures", "fig2", "--steps", "3"],
        ["exclusion-scan", "--a-steps", "2", "--steps", "2"],
    ])
    def test_underflowing_reference_exits_1(self, argv, tmp_path, capsys):
        argv = argv + ["--alpha0", "1e-300", "--out", str(tmp_path / "out")]
        assert exit_code(argv) == 1
        assert "alpha0" in capsys.readouterr().err


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
        true_matrix_element = rates.matrix_element
        monkeypatch.setattr(
            rates, "matrix_element", lambda *a, **k: -true_matrix_element(*a, **k)
        )
        assert exit_code(["verify", "--seed", "3", "--trials", "5"]) == 2
        assert "FAIL" in capsys.readouterr().out


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

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("bogus = 1\n")
        assert exit_code(["sweep", "--config", str(cfg)]) == 1
        assert "unknown config key" in capsys.readouterr().err

    def test_malformed_line_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("steps\n")
        assert exit_code(["sweep", "--config", str(cfg)]) == 1

    def test_missing_config_file_rejected(self, tmp_path):
        assert exit_code(["sweep", "--config", str(tmp_path / "absent.cfg")]) == 1


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

    def test_vanishing_coefficients(self):
        assert exit_code(["sweep", "--a-re", "0", "--b-re", "0"]) == 1

    def test_choice_and_family_are_exclusive(self):
        assert exit_code(["sweep", "--choice", "i", "--family"]) == 1

    def test_missing_subcommand(self):
        assert exit_code([]) == 1
