"""Tests of the benchmark itself: output checks and tracer clean-up.

Run with ``python3 -m pytest -q bench/tests``.
"""

import gzip
import math

import pairabs.cli
import pairabs.rates
from pairabs.algebra import OverlapTable

import tracing
import worker


def reference(name: str) -> str:
    return gzip.decompress((worker.REFERENCE_DIR / f"{name}.gz").read_bytes()).decode("utf-8")


def replace_field(text: str, line: int, column: str, value: str) -> str:
    lines = text.split("\n")
    header = lines[0].split(",")
    fields = lines[line].split(",")
    fields[header.index(column)] = value
    lines[line] = ",".join(fields)
    return "\n".join(lines)


def long_field(text: str, column: str) -> tuple[int, str]:
    """First data line whose ``column`` has all 17 significant digits."""
    header = text.split("\n", 1)[0].split(",")
    for line, row in enumerate(text.split("\n")[1:], start=1):
        value = row.split(",")[header.index(column)]
        if len(value.replace("0.", "", 1).replace(".", "")) >= 17:
            return line, value
    raise AssertionError(f"no long {column} value")


def test_reference_matches_itself():
    data = reference("fig2_i.csv").encode()
    result = worker.compare_csv(data, data)
    assert result.ok and result.max_rel_dev == 0.0


def test_one_mutated_digit_is_flagged():
    text = reference("fig2_i.csv")
    line, value = long_field(text, "r")
    digit = value.index(".") + 3
    mutated = value[:digit] + str((int(value[digit]) + 1) % 10) + value[digit + 1:]
    result = worker.compare_csv(replace_field(text, line, "r", mutated).encode(), text.encode())
    assert not result.ok
    assert result.max_rel_dev > worker.REL_TOLERANCE
    assert f"line {line + 1}: r" in result.reason


def test_last_digit_round_off_passes_and_is_reported():
    text = reference("fig2_i.csv")
    line, value = long_field(text, "r")
    bumped = repr(math.nextafter(float(value), math.inf))
    result = worker.compare_csv(replace_field(text, line, "r", bumped).encode(), text.encode())
    assert result.ok
    assert 0.0 < result.max_rel_dev <= worker.REL_TOLERANCE


def test_flipped_excluded_flag_is_flagged():
    text = reference("fig4.csv")
    fields = text.split("\n")[1].split(",")
    flipped = "0" if fields[-1] == "1" else "1"
    result = worker.compare_csv(replace_field(text, 1, "excluded", flipped).encode(), text.encode())
    assert not result.ok
    assert "excluded" in result.reason


def test_nan_only_matches_nan():
    text = reference("fig2_i.csv")
    line, _ = long_field(text, "r")
    result = worker.compare_csv(replace_field(text, line, "r", "nan").encode(), text.encode())
    assert not result.ok


def scan_job(tmp_path):
    return lambda: pairabs.cli.main(
        ["exclusion-scan", "--a-steps", "3", "--steps", "3", "--out", str(tmp_path / "scan.csv")]
    )


def test_wrappers_are_removed_after_the_traced_job(tmp_path):
    before_rates = {name: getattr(pairabs.rates, name) for name in pairabs.rates.__all__}
    before_cli = dict(vars(pairabs.cli))
    before_overlap = OverlapTable.__dict__["overlap"]

    tracer = tracing.Tracer()
    tracer.install()
    assert pairabs.rates.relative_rate is not before_rates["relative_rate"]
    assert pairabs.cli.build_family_table is not before_cli["build_family_table"]
    first = tracer.run_job(0, scan_job(tmp_path))
    tracer.remove()

    assert tracer.leftover_wrappers() == []
    assert all(getattr(pairabs.rates, name) is obj for name, obj in before_rates.items())
    assert all(vars(pairabs.cli)[name] is obj for name, obj in before_cli.items())
    assert OverlapTable.__dict__["overlap"] is before_overlap

    traced_spans = len(tracer.spans)
    assert scan_job(tmp_path)() == 0
    assert len(tracer.spans) == traced_spans, "an untraced job recorded spans"

    counts = tracer.summarize(first)["counts"]
    assert counts["scenarios.build_family_table"] == 9
    assert counts["rates.exclusion_check"] == counts["rates.evaluations"] == 9


def test_traced_counts_repeat_exactly(tmp_path):
    tracer = tracing.Tracer()
    summaries = []
    for job in range(2):
        tracer.install()
        try:
            first = tracer.run_job(job, scan_job(tmp_path))
        finally:
            tracer.remove()
        summaries.append(tracer.summarize(first))
    assert summaries[0]["counts"] == summaries[1]["counts"]
    assert summaries[0]["counts"]["algebra.overlap_lookups"] > 0
