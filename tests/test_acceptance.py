"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion lines.
"""

import contextlib
import io
import math
import time

import numpy as np
import pytest

from pairabs import cli, rates
from pairabs.algebra import Statistics
from pairabs.scenarios import (
    ALL_PAIRS,
    Coefficients,
    RecoilModel,
    build_table,
    choice_overlaps,
)

BOSON = Statistics.BOSON
FERMION = Statistics.FERMION
A_ONLY = Coefficients(1.0, 0.0)
ROOT2_INV = 1.0 / math.sqrt(2.0)
GRID_101 = [float(c) for c in np.linspace(0.0, 1.0, 101)]


def _report(name, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f": {detail}"
    print(line)
    assert ok, line


def _choice_tables(name, grid=GRID_101, model=RecoilModel()):
    return [(c, build_table(choice_overlaps(name, c), model)) for c in grid]


def test_criterion_1_oracle_equivalence():
    buffer = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(buffer):
        code = cli.main(["verify", "--seed", "20250809", "--trials", "1000"])
    elapsed = time.perf_counter() - start
    report = buffer.getvalue()
    max_line = next(line for line in report.splitlines() if "matrix element" in line)
    _report(
        "criterion 1: closed-form vs formal-expansion equivalence, 1000 random configurations",
        code == 0 and elapsed < 5.0,
        f"{max_line.strip()}; runtime {elapsed:.2f} s",
    )


def test_criterion_2_choice_i_closed_forms():
    worst_boson = worst_fermion = 0.0
    boson_rates = []
    fermion_rates = []
    for c, table in _choice_tables("i"):
        alpha = 0.9 + 0.1 * c
        boson = rates.relative_rate_grid(A_ONLY, table, BOSON)
        boson_rates.append(boson.r)
        worst_boson = max(
            worst_boson,
            abs(boson.r - (1.0 + c * c) / (1.0 + alpha * alpha * c * c)),
        )
        fermion = rates.relative_rate_grid(A_ONLY, table, FERMION)
        if c == 1.0:
            assert fermion.excluded
            continue
        fermion_rates.append(fermion.r)
        worst_fermion = max(
            worst_fermion,
            abs(fermion.r - (1.0 - c * c) / (1.0 - alpha * alpha * c * c)),
        )
    mid = rates.relative_rate_grid(A_ONLY, _choice_tables("i", [0.5])[0][1], BOSON).r
    mid_f = rates.relative_rate_grid(A_ONLY, _choice_tables("i", [0.5])[0][1], FERMION).r
    spots_ok = abs(mid - 1.0199) < 5e-4 and abs(mid_f - 0.9685) < 5e-4
    shape_ok = (
        max(boson_rates) > 1.0
        and abs(boson_rates[0] - 1.0) < 1e-12
        and abs(boson_rates[-1] - 1.0) < 1e-12
        and all(b < a for a, b in zip(fermion_rates, fermion_rates[1:]))
    )
    _report(
        "criterion 2: choice i single-component closed forms on 101 points",
        worst_boson < 1e-12 and worst_fermion < 1e-12 and spots_ok and shape_ok,
        f"max |R - closed form| boson {worst_boson:.2e}, fermion {worst_fermion:.2e}; "
        f"R_boson(0.5)={mid:.6f}, R_fermion(0.5)={mid_f:.6f}",
    )


def test_criterion_3_pauli_limit():
    table = build_table(choice_overlaps("i", 1.0))
    fermion = rates.relative_rate_grid(A_ONLY, table, FERMION)
    boson = rates.relative_rate_grid(A_ONLY, table, BOSON)
    _report(
        "criterion 3: Pauli limit at unit overlap",
        fermion.excluded and abs(boson.r - 1.0) < 1e-9,
        f"fermion excluded={fermion.excluded}, boson R={boson.r!r}",
    )


def test_criterion_4_zero_overlap_statistics_coincide():
    table = build_table({pair: 0.0 for pair in ALL_PAIRS})
    cases = (
        A_ONLY,
        Coefficients(0.8, 0.6),
        Coefficients(0.6j, 0.8),
        Coefficients(ROOT2_INV, ROOT2_INV),
    )
    worst = 0.0
    for coeffs in cases:
        r_b = rates.relative_rate_grid(coeffs, table, BOSON).r
        r_f = rates.relative_rate_grid(coeffs, table, FERMION).r
        worst = max(worst, abs(r_b - r_f))
    b_zero = rates.relative_rate_grid(A_ONLY, table, BOSON).r
    _report(
        "criterion 4: boson and fermion rates coincide at zero overlap",
        worst < 1e-12 and abs(b_zero - 1.0) < 1e-12,
        f"max |R_boson - R_fermion| = {worst:.2e}; single-component R = {b_zero!r}",
    )


def test_criterion_5_choice_ii_fermion_flatness():
    cases = [Coefficients(a, math.sqrt(1.0 - a * a)) for a in (1.0, 0.8, ROOT2_INV)]
    points = _choice_tables("ii")
    ok = True
    details = []
    for coeffs in cases:
        norms = [rates.initial_norm_sq(coeffs, t, FERMION) for _, t in points]
        brackets = [abs(rates.bracket_sum(coeffs, t, FERMION)) for _, t in points]
        nf_sqs = [rates.final_norm_sq(coeffs, t, FERMION) for _, t in points]
        rs = [rates.relative_rate_grid(coeffs, t, FERMION).r for _, t in points]
        norm_span = max(norms) - min(norms)
        bracket_span = max(brackets) - min(brackets)
        r_span = (max(rs) - min(rs)) / min(rs)
        ok = ok and norm_span <= 1e-12 and bracket_span <= 1e-12 and r_span <= 0.03
        detail = (
            f"a={coeffs.a.real:g}: norm span {norm_span:.2e}, bracket span "
            f"{bracket_span:.2e}, R relative span {r_span:.3%} "
            f"(final-norm^-2 span {max(nf_sqs) - min(nf_sqs):.2e} is the only moving factor)"
        )
        details.append(detail)
        print("  " + detail)
    _report(
        "criterion 5: choice ii fermion flatness (norm and bracket exactly constant)",
        ok,
        details[-1],
    )


def test_criterion_6_choice_iii_fermion_coincidence(tmp_path):
    points = _choice_tables("iii")
    reference = [rates.relative_rate_grid(A_ONLY, t, FERMION) for _, t in points]
    worst = 0.0
    for a in (0.8, 0.5, ROOT2_INV):
        coeffs = Coefficients(a, math.sqrt(1.0 - a * a))
        for (c, table), ref in zip(points, reference):
            res = rates.relative_rate_grid(coeffs, table, FERMION)
            if res.excluded or ref.excluded:
                assert res.excluded == ref.excluded, (a, c)
                continue
            worst = max(worst, abs(res.r - ref.r) / ref.r)
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["figures", "fig3", "--steps", "101", "--out", str(tmp_path)])
    report_path = tmp_path / "fig3_iii_fermion_coincidence.csv"
    _report(
        "criterion 6: choice iii fermion curves coincide with the single-component curve",
        worst < 0.03 and code == 0 and report_path.is_file(),
        f"max relative deviation {worst:.3%}; report at {report_path.name}",
    )


def test_criterion_7_exclusion_biconditional():
    a_grid = [float(a) for a in np.linspace(0.0, 1.0, 51)]
    snap = min(range(51), key=lambda i: abs(a_grid[i] - ROOT2_INV))
    a_grid[snap] = ROOT2_INV  # the balanced-weights column must be on the grid
    c_grid = [float(c) for c in np.linspace(0.0, 1.0, 51)]
    start = time.perf_counter()
    blocks, disagreements = cli._scan_lines(np.array(a_grid), np.array(c_grid))
    elapsed = time.perf_counter() - start
    lines = "".join(blocks).splitlines(keepends=True)
    rows = [line[:-1].split(",") for line in lines if line.endswith("\n")]
    balanced_label = repr(ROOT2_INV)
    balanced = [row for row in rows if row[0] == balanced_label]
    unit_c = [row for row in rows if row[1] == "1.0"]
    ok = (
        disagreements == 0
        and len(rows) == len(lines) == 51 * 51
        and len(balanced) == 51
        and all(row[3] == "1" for row in balanced)
        and len(unit_c) == 51
        and all(row[3] == "1" for row in unit_c)
        and elapsed < 1.0
    )
    _report(
        "criterion 7: norm-based and formula-based exclusion agree on the 51x51 grid",
        ok,
        f"disagreements={disagreements}, balanced column and unit-overlap row fully "
        f"excluded, runtime {elapsed:.2f} s",
    )


def test_criterion_8_determinism(tmp_path):
    sweep_a, sweep_b = tmp_path / "s1.csv", tmp_path / "s2.csv"
    argv = ["sweep", "--choice", "ii", "--a-re", "0.8", "--b-re", "0.6",
            "--steps", "51", "--out"]
    assert cli.main(argv + [str(sweep_a)]) == 0
    assert cli.main(argv + [str(sweep_b)]) == 0
    verify_a, verify_b = tmp_path / "v1.txt", tmp_path / "v2.txt"
    vargv = ["verify", "--seed", "7", "--trials", "150", "--out"]
    assert cli.main(vargv + [str(verify_a)]) == 0
    assert cli.main(vargv + [str(verify_b)]) == 0
    ok = (
        sweep_a.read_bytes() == sweep_b.read_bytes()
        and verify_a.read_bytes() == verify_b.read_bytes()
    )
    _report(
        "criterion 8: sweep and verify are byte-identical across reruns",
        ok,
        f"sweep {len(sweep_a.read_bytes())} bytes, verify {len(verify_a.read_bytes())} bytes",
    )
