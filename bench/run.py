"""pairabs benchmark: one workload, timed end to end or traced per module.

    python3 bench/run.py --workload figures --seed 1 --seconds 35 --trace 0

Run from the root of a checkout.  The benchmark measures the package in the
checkout's ``src`` and nothing else: it exits 2 without a result when that
is missing.  Load is a closed loop with one client: each workload runs in a
fresh worker process (``worker.py``) that calls ``pairabs.cli.main(argv)``
one job at a time, after one untimed warm-up.

``--trace 0`` prints the end-to-end metrics: job wall time (median and
tail) and evaluated points per second, both at reference machine speed (see
``PROBE_REF_S``) and raw, set-up time and peak memory.  ``--trace 1`` runs
two traced workers, each alternating untraced and traced jobs, and
prints the per-module metrics plus the tracing overhead.  Both print a
human-readable report, then one JSON line; the full record (environment,
samples, counters) goes to ``.bench_runs/<run>/record.json``.  See
``bench/README.md`` for why each workload and metric is there.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RUNS_DIR = ROOT / ".bench_runs"
KEEP_RUNS = 12

WORKLOADS = ("figures", "scan", "verify")
#: Every BLAS/OpenMP pool the child could start is pinned to one thread.
THREAD_VARIABLES = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)
PINNED_THREADS = "1"
#: Set-up samples per run, half taken before the worker and half after it.
SETUP_PROBES = 8
SETUP_CODE = "import pairabs.cli as cli; cli.build_parser(); print(cli.__file__)"
#: Seconds a worker may run past its measuring time before it is killed.
WORKER_GRACE = 120

LAYER_TIMES = ("scenarios", "rates", "algebra", "oracle")
#: Reference time of ``worker.speed_probe`` (about its median on the 2-vCPU
#: Intel Xeon VM, Python 3.11.7, where the benchmark was defined).  Job times
#: in the result line are measured times multiplied by ``PROBE_REF_S`` over
#: the probe time taken right after each job: seconds at the reference speed.
PROBE_REF_S = 0.004


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update({name: PINNED_THREADS for name in THREAD_VARIABLES})
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def measure_setup(env: dict[str, str], count: int) -> list[float]:
    """Seconds from starting a fresh interpreter through import and build_parser()."""
    samples = []
    for _ in range(count):
        start = time.perf_counter()
        done = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=60, check=True)
        samples.append(time.perf_counter() - start)
        if not Path(done.stdout.strip()).resolve().is_relative_to(SRC):
            raise RuntimeError(f"set-up probe imported {done.stdout.strip()}, not {SRC}")
    return samples


def at_reference_speed(samples: list[float], probes: list[float]) -> list[float]:
    """Each sample scaled by the speed probe taken right after it.

    The host's speed drifts by up to 1.7x over tens of seconds; a fixed
    Python task timed next to each sample slows down with it, and the ratio
    stays put.
    """
    return [sample * PROBE_REF_S / probe for sample, probe in zip(samples, probes, strict=True)]


def run_worker(env, run_dir: Path, name: str, args, mode: str, seconds: float) -> dict:
    workdir = run_dir / name
    result = run_dir / f"{name}.json"
    command = [
        sys.executable, str(BENCH_DIR / "worker.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(seconds), "--mode", mode,
        "--workdir", str(workdir), "--result", str(result),
    ]
    if mode == "traced":
        command += ["--spans", str(run_dir / f"{name}.spans.csv.gz")]
    done = subprocess.run(command, env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=seconds + WORKER_GRACE)
    shutil.rmtree(workdir, ignore_errors=True)
    if done.returncode != 0:
        raise RuntimeError(f"worker {name} exited {done.returncode}:\n{done.stderr}")
    return json.loads(result.read_text(encoding="utf-8"))


def tail(samples: list[float]) -> tuple[int, float, int]:
    """Highest whole percentile with at least ten samples beyond it (nearest rank)."""
    ordered = sorted(samples)
    n = len(ordered)
    percentile = max(0, (100 * (n - 10)) // n)
    rank = max(1, math.ceil(percentile * n / 100))
    return percentile, ordered[rank - 1], n - rank


def environment(args, worker: dict) -> dict:
    return {
        "cpu_model": cpu_model(),
        "nproc": os.cpu_count(),
        "pinned_threads": {name: PINNED_THREADS for name in THREAD_VARIABLES},
        "pythonhashseed": "0",
        "python": worker["python"],
        "numpy": worker["numpy"],
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "pairabs": worker["pairabs"],
        "seed": args.seed,
        "seconds": args.seconds,
    }


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    """HEAD of the checkout, or "unknown" when it is not a git work tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def end_to_end(args, env, run_dir: Path) -> tuple[dict, dict, dict]:
    # Set-up samples on both sides of the worker see more of the host's speed phases.
    setup = measure_setup(env, SETUP_PROBES // 2)
    worker = run_worker(env, run_dir, "worker", args, "plain", args.seconds)
    setup += measure_setup(env, SETUP_PROBES - SETUP_PROBES // 2)
    walls_raw = worker["walls"]
    walls = at_reference_speed(walls_raw, worker["probes"])
    points = worker["points"] // len(walls_raw)
    percentile, tail_value, beyond = tail(walls)
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "wall_s_tail": (tail_value, "s"),
        "rows_per_s": (points / statistics.median(walls), "1/s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (worker["peak_rss_kb"] / 1024.0, "MB"),
    }
    raw = {
        "wall_s": statistics.median(walls_raw),
        "wall_s_tail": tail(walls_raw)[1],
        "rows_per_s": points / statistics.median(walls_raw),
    }
    samples = {
        "wall_s_raw": walls_raw, "wall_probe_s": worker["probes"],
        "setup_s": setup,
        "wall_s_tail_percentile": percentile, "wall_s_tail_beyond": beyond,
    }
    notes = {
        "wall_s": f"median of {len(walls)} jobs",
        "wall_s_tail": f"p{percentile} of {len(walls)} jobs, {beyond} beyond it",
        "rows_per_s": f"{points} points a job / wall_s",
        "setup_s": f"median of {len(setup)} fresh interpreters",
        "peak_rss_mb": "ru_maxrss of the worker",
    }
    for name, value in raw.items():
        notes[name] += f"; raw {value:.6g}"
    detail = {"probe_ref_s": PROBE_REF_S, "raw_metrics": raw, "samples": samples, "workers": [worker]}
    return metrics, detail, notes


def per_layer(args, env, run_dir: Path) -> tuple[dict, dict, dict]:
    half = args.seconds / 2.0
    workers = [run_worker(env, run_dir, f"traced{i}", args, "traced", half) for i in (1, 2)]
    jobs = [job for worker in workers for job in worker["layer_jobs"]]
    counts = jobs[0]["counts"]
    mismatched = [i for i, job in enumerate(jobs) if job["counts"] != counts]

    def median_self(layer: str) -> float:
        return statistics.median(job["self_s"][layer] for job in jobs)

    untraced = [w for worker in workers for w in worker["walls"]]
    traced = [w for worker in workers for w in worker["traced_walls"]]
    evaluations = counts["rates.evaluations"]
    metrics = {f"{layer}.calls": (counts.get(f"{layer}.calls", 0), "count")
               for layer in ("scenarios", "rates", "oracle")}
    metrics.update({f"{layer}.self_s": (median_self(layer), "s") for layer in LAYER_TIMES})
    metrics.update({
        "rates.excluded_frac": (counts["rates.excluded"] / evaluations if evaluations else 0.0, "ratio"),
        "algebra.overlap_lookups": (counts["algebra.overlap_lookups"], "count"),
        "algebra.lookups_per_point": (counts["algebra.overlap_lookups"] / jobs[0]["points"], "count"),
        "cli.self_s": (median_self("cli"), "s"),
        "cli.write_s": (median_self("cli.write"), "s"),
        "cli.rows": (counts["cli.rows"], "count"),
        "cli.bytes": (counts["cli.bytes"], "B"),
        "trace.overhead_frac": (statistics.median(traced) / statistics.median(untraced) - 1.0, "ratio"),
    })
    detail = {
        "counts": counts,
        "counts_identical": not mismatched,
        "mismatched_jobs": mismatched,
        "traced_jobs": len(jobs),
        "samples": {"untraced_wall_s": untraced, "traced_wall_s": traced},
        "workers": [{k: v for k, v in w.items() if k != "layer_jobs"} for w in workers],
        "layer_jobs": jobs,
    }
    notes = {"trace.overhead_frac": f"{len(traced)} traced vs {len(untraced)} untraced jobs"}
    for name in ("scenarios.self_s", "rates.self_s", "algebra.self_s", "oracle.self_s",
                 "cli.self_s", "cli.write_s"):
        notes[name] = f"median of {len(jobs)} traced jobs"
    return metrics, detail, notes


def prune_runs() -> None:
    runs = sorted(p for p in RUNS_DIR.iterdir() if p.is_dir())
    for old in runs[:-KEEP_RUNS]:
        shutil.rmtree(old, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (SRC / "pairabs" / "cli.py").is_file():
        print(f"bench: no package to measure at {SRC / 'pairabs'}", file=sys.stderr)
        return 2

    stamp = time.strftime("%Y%m%dT%H%M%S")
    run_dir = RUNS_DIR / f"{stamp}-{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    run_dir.mkdir(parents=True)
    env = child_env()
    try:
        if args.trace:
            metrics, detail, notes = per_layer(args, env, run_dir)
        else:
            metrics, detail, notes = end_to_end(args, env, run_dir)
    except (RuntimeError, subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    workers = detail["workers"]
    attempted = sum(w["attempted"] for w in workers)
    failed = sum(w["failed"] for w in workers)
    correct = failed == 0 and detail.get("counts_identical", True)
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "failures": [f for w in workers for f in w["failures"]],
        "max_rel_dev": max(w["max_rel_dev"] for w in workers),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        "environment": environment(args, workers[0]),
        **detail,
    }
    (run_dir / "record.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    prune_runs()

    print(f"pairabs bench: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    for name, (value, unit) in metrics.items():
        note = notes.get(name, "")
        print(f"  {name:<26} {value:>14.6g} {unit:<6} {note}")
    print(f"  {'failed_frac':<26} {record['failed_frac']:>14.6g} {'ratio':<6} "
          f"{failed} of {attempted} jobs; max output deviation {record['max_rel_dev']:.3g}")
    for failure in record["failures"]:
        print(f"  FAILED {failure}")
    if not detail.get("counts_identical", True):
        print(f"  COUNTS DIFFER in traced jobs {detail['mismatched_jobs']}")
    print(f"  record: {run_dir.relative_to(ROOT) / 'record.json'}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
