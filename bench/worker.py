"""One benchmark workload in one fresh process: jobs, output checks, traced jobs.

A job is one or more in-process calls to ``pairabs.cli.main(argv)``; its
output goes to a scratch directory and is checked after the clock stops.
The parent (``run.py``) starts this file with ``PYTHONPATH`` pointing at the
checkout's ``src`` and the thread pins in the environment, and reads the
JSON it writes to ``--result``.

    python3 bench/worker.py --workload scan --seed 1 --seconds 10 \
        --mode plain --workdir DIR --result out.json
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import gzip
import io
import json
import math
import random
import resource
import shutil
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REFERENCE_DIR = BENCH_DIR / "reference"

WORKLOADS = ("figures", "scan", "verify")
FIGURE_TARGETS = ("fig2", "fig3", "fig4")
VERIFY_TRIALS = 1000
#: At least this many timed jobs, so the tail percentile (ten samples beyond it) is
#: never below the median.
MIN_TIMED_JOBS = 21

#: The ROADMAP's "same behaviour" bound for numeric CSV fields.
REL_TOLERANCE = 1e-14
#: Columns compared as strings: labels and exclusion flags never change.
EXACT_COLUMNS = frozenset({"scenario", "statistics"})

EXPECTED_FILES = {
    "figures": (
        "fig2_i.csv", "fig2_ii.csv", "fig3_iii.csv", "fig3_iv.csv",
        "fig3_iii_fermion_coincidence.csv", "fig4.csv",
    ),
    "scan": ("scan.csv",),
    "verify": ("verify.txt",),
}


def job_argvs(workload: str, seed: int, out_dir: Path) -> list[list[str]]:
    """The argv lists of one job; the seed is the only varying input."""
    if workload == "figures":
        targets = list(FIGURE_TARGETS)
        random.Random(seed).shuffle(targets)
        return [["figures", target, "--out", str(out_dir)] for target in targets]
    if workload == "scan":
        return [["exclusion-scan", "--out", str(out_dir / "scan.csv")]]
    if workload == "verify":
        return [["verify", "--trials", str(VERIFY_TRIALS), "--seed", str(seed),
                 "--out", str(out_dir / "verify.txt")]]
    raise ValueError(f"unknown workload {workload!r}")


def data_lines(workload: str, outputs: dict[str, bytes]) -> int:
    """Lines written to the output files, CSV headers excluded."""
    header = 0 if workload == "verify" else 1
    return sum(data.count(b"\n") - header for data in outputs.values())


def points_per_job(workload: str, outputs: dict[str, bytes]) -> int:
    """Evaluated points: CSV data rows, grid points, or trial x statistics pairs."""
    if workload == "verify":
        return VERIFY_TRIALS * 2
    return data_lines(workload, outputs)


@dataclass(frozen=True, order=True)
class _ProbeKey:
    name: str
    starred: bool = False


_PROBE_KEYS = tuple(_ProbeKey(n, s) for n in ("psi", "phi", "varphi", "chi") for s in (False, True))


def speed_probe() -> float:
    """Seconds for a fixed pure-Python task shaped like the package's inner loops.

    It hashes frozen-dataclass keys into a dict, multiplies complex numbers
    and formats floats with ``repr``, and never touches ``pairabs``, so its
    time tracks only how fast the machine runs Python at that moment.
    """
    start = time.perf_counter()
    table = {(a, b): complex(0.1 * i, 0.01 * j)
             for i, a in enumerate(_PROBE_KEYS) for j, b in enumerate(_PROBE_KEYS)}
    rows = []
    for rep in range(50):
        acc = 0j
        for a in _PROBE_KEYS:
            for b in _PROBE_KEYS:
                acc += table[(a, b)] * table[(b, a)].conjugate()
        rows.append((repr(acc.real + rep), repr(abs(acc))))
    return time.perf_counter() - start


def load_references(workload: str) -> dict[str, bytes]:
    if workload == "verify":
        return {}
    return {
        name: gzip.decompress((REFERENCE_DIR / f"{name}.gz").read_bytes())
        for name in EXPECTED_FILES[workload]
    }


@dataclass
class Comparison:
    ok: bool
    max_rel_dev: float
    reason: str = ""


def compare_csv(actual: bytes, expected: bytes) -> Comparison:
    """Byte match, or every numeric field within ``REL_TOLERANCE`` relative.

    NaN matches only NaN; labels and ``excluded*`` flags must match exactly.
    ``max_rel_dev`` is the largest relative deviation found (inf for a zero
    against a non-zero value).
    """
    if actual == expected:
        return Comparison(True, 0.0)
    try:
        got = list(csv.reader(io.StringIO(actual.decode("utf-8"))))
    except UnicodeDecodeError as exc:
        return Comparison(False, math.inf, f"not UTF-8: {exc}")
    want = list(csv.reader(io.StringIO(expected.decode("utf-8"))))
    if not got or got[0] != want[0]:
        return Comparison(False, math.inf, "header differs")
    if len(got) != len(want):
        return Comparison(False, math.inf, f"{len(got) - 1} rows, expected {len(want) - 1}")
    header = want[0]
    worst = 0.0
    failure = ""
    for line, (row, ref) in enumerate(zip(got[1:], want[1:]), start=2):
        if len(row) != len(ref):
            return Comparison(False, math.inf, f"line {line}: {len(row)} fields")
        for column, text, ref_text in zip(header, row, ref):
            if text == ref_text:
                continue
            if column in EXACT_COLUMNS or column.startswith("excluded"):
                return Comparison(False, math.inf, f"line {line}: {column} {text!r} != {ref_text!r}")
            dev = _relative_deviation(text, ref_text)
            if dev > worst:
                worst = dev
            if dev > REL_TOLERANCE and not failure:
                failure = f"line {line}: {column} {text} vs {ref_text} (rel {dev:.3g})"
    return Comparison(not failure, worst, failure)


def _relative_deviation(text: str, ref_text: str) -> float:
    try:
        x, y = float(text), float(ref_text)
    except ValueError:
        return math.inf
    if math.isnan(x) or math.isnan(y):
        return 0.0 if math.isnan(x) and math.isnan(y) else math.inf
    scale = max(abs(x), abs(y))
    return abs(x - y) / scale if scale else 0.0


def check_job(workload: str, codes: list, outputs: dict[str, bytes],
              references: dict[str, bytes]) -> Comparison:
    """A job passes if every call exited 0 and its outputs are right."""
    if any(code != 0 for code in codes):
        return Comparison(False, math.inf, f"exit codes {codes}")
    if set(outputs) != set(EXPECTED_FILES[workload]):
        return Comparison(False, math.inf, f"wrote {sorted(outputs)}")
    if workload == "verify":
        lines = outputs["verify.txt"].decode("utf-8").strip().splitlines()
        ok = bool(lines) and lines[-1].strip() == "PASS"
        return Comparison(ok, 0.0, "" if ok else "verify report does not end in PASS")
    worst = 0.0
    for name, expected in references.items():
        result = compare_csv(outputs[name], expected)
        worst = max(worst, result.max_rel_dev)
        if not result.ok:
            return Comparison(False, worst, f"{name}: {result.reason}")
    return Comparison(True, worst)


@dataclass
class JobRun:
    seconds: float
    codes: list
    outputs: dict[str, bytes]
    stdout_bytes: int
    first_span: int = 0


def run_job(main, argvs: list[list[str]], out_dir: Path, tracer=None, job_id: int = 0) -> JobRun:
    """Run one job, traced when a tracer is given; only the calls to ``main`` are timed."""
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    codes: list = []
    captured = io.StringIO()
    first_span = 0

    def calls():
        for argv in argvs:
            try:
                codes.append(main(argv))
            except SystemExit as exc:
                codes.append(exc.code)
            except Exception:  # a crashing job is a failed job; the run goes on
                codes.append(traceback.format_exc(limit=3))

    if tracer is not None:
        tracer.install()
    try:
        with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
            start = time.perf_counter()
            if tracer is None:
                calls()
            else:
                first_span = tracer.run_job(job_id, calls)
            seconds = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.remove()
    outputs = {path.name: path.read_bytes() for path in sorted(out_dir.iterdir())}
    return JobRun(seconds, codes, outputs, len(captured.getvalue().encode("utf-8")), first_span)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("plain", "traced"), required=True,
                        help="traced: alternate untraced and traced jobs")
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--spans", type=Path, default=None,
                        help="gzip CSV of every span (traced mode)")
    args = parser.parse_args(argv)

    import numpy
    import pairabs.cli

    src = BENCH_DIR.parent / "src"
    if not Path(pairabs.cli.__file__).resolve().is_relative_to(src):
        print(f"pairabs imported from {pairabs.cli.__file__}, not {src}", file=sys.stderr)
        return 2
    references = load_references(args.workload)
    out_dir = args.workdir / "out"
    argvs = job_argvs(args.workload, args.seed, out_dir)
    tracer = None
    if args.mode == "traced":
        from tracing import Tracer
        tracer = Tracer()

    walls: list[float] = []
    probes: list[float] = []
    traced_walls: list[float] = []
    layer_jobs: list[dict] = []
    failures: list[str] = []
    attempted = failed = points = 0
    worst = 0.0

    def one_job(index: int, timed: bool, traced: bool) -> None:
        nonlocal attempted, failed, points, worst
        job = run_job(pairabs.cli.main, argvs, out_dir, tracer if traced else None, index)
        attempted += 1
        result = check_job(args.workload, job.codes, job.outputs, references)
        worst = max(worst, result.max_rel_dev)
        if not result.ok:
            failed += 1
            if len(failures) < 5:
                failures.append(f"job {index}: {result.reason}")
        if traced:
            summary = tracer.summarize(job.first_span)
            summary["counts"]["cli.rows"] = data_lines(args.workload, job.outputs)
            summary["counts"]["cli.bytes"] = sum(map(len, job.outputs.values())) + job.stdout_bytes
            summary["points"] = points_per_job(args.workload, job.outputs)
            layer_jobs.append(summary)
            traced_walls.append(job.seconds)
        elif timed:
            walls.append(job.seconds)
            probes.append(speed_probe())
            points += points_per_job(args.workload, job.outputs)

    one_job(0, timed=False, traced=False)  # warm-up
    min_walls = MIN_TIMED_JOBS if tracer is None else 2
    deadline = time.perf_counter() + args.seconds
    index = 1
    while time.perf_counter() < deadline or len(walls) < min_walls:
        one_job(index, timed=True, traced=tracer is not None and index % 2 == 0)
        index += 1

    if tracer is not None and args.spans is not None:
        with gzip.open(args.spans, "wt", encoding="utf-8", compresslevel=1) as handle:
            tracer.write_spans(handle)
    result = {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "pairabs": str(Path(pairabs.cli.__file__).resolve().parent),
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "max_rel_dev": worst,
        "walls": walls,
        "probes": probes,
        "points": points,
        "traced_walls": traced_walls,
        "layer_jobs": layer_jobs,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    args.result.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
