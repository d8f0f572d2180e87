"""Runs one workload in this process and prints its measurements as JSON.

A single client thread drives ``multihead.cli.main(argv)`` in a closed loop:
each job starts when the previous one returns.  Stdout is captured in memory
and checked after the job's timer stops; check time is left out of the
timed run's wall time.  ``run.py`` starts this script in a fresh process per
workload, so ``peak_rss_mb`` belongs to that workload alone.

    python3 perfbench/worker.py --workload sweep-scan --seed 1 --seconds 20 --trace 0
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import common

common.import_multihead()

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import multihead.cli  # noqa: E402
import checks  # noqa: E402
import jobs  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402

TAIL_BEYOND = 10  # the tail percentile is the highest with this many jobs above it


@dataclass
class JobResult:
    seconds: float  # wall time as measured
    failure: str | None
    digest: str
    out_bytes: int
    ref_seconds: float = math.nan  # wall time scaled to the reference host speed


def latencies(results: list, field: str = "ref_seconds") -> list:
    """Job times, sorted; a failed job misses every limit."""
    return sorted(math.inf if r.failure else getattr(r, field) for r in results)


def run_job(argv) -> tuple:
    """(exit code or error, stdout, seconds) of one in-process CLI call."""
    out = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = multihead.cli.main(list(argv))
    except SystemExit as exc:  # argparse rejects bad arguments this way
        code = exc.code
    except Exception as exc:  # one job's crash is a failed job, not a failed run
        code = f"{type(exc).__name__}: {exc}"
    return code, out.getvalue(), time.perf_counter() - start


def run_one(job, check=True) -> tuple:
    """(JobResult, seconds spent checking) of one job."""
    code, text, seconds = run_job(job.argv)
    checking = time.perf_counter()
    failure = None if code == 0 else f"exit code {code!r}"
    if check:
        try:
            failure = checks.check(job, code, text)
        except Exception as exc:  # a checker that cannot finish fails the job
            failure = f"check raised {type(exc).__name__}: {exc}"
    data = text.encode()
    result = JobResult(seconds, failure, hashlib.sha256(data).hexdigest(), len(data))
    return result, time.perf_counter() - checking


def run_pass(job_list) -> tuple:
    """The timed run: (results, wall time), checks and probes left out of the wall time.

    The speed probe runs before the first job and after each one, so every
    job is scaled by the host speed measured on both sides of it.
    """
    results, aside_s = [], 0.0
    before = speed.probe()
    start = time.perf_counter()
    for job in job_list:
        result, spent = run_one(job)
        probing = time.perf_counter()
        after = speed.probe()
        result.ref_seconds = result.seconds * speed.scale(before, after)
        before = after
        aside_s += spent + time.perf_counter() - probing
        results.append(result)
    return results, time.perf_counter() - start - aside_s


def tail(latencies: list) -> tuple:
    """(value, percentile) at the highest percentile with TAIL_BEYOND jobs above it."""
    n = len(latencies)
    rank = max(1, n - TAIL_BEYOND)
    return latencies[rank - 1], 100.0 * rank / n


def _timings(results: list, field: str, busy_s: float) -> dict:
    times = latencies(results, field)
    passed = sum(r.failure is None for r in results)
    return {
        "job_p50_s": (statistics.median(times), "s"),
        "job_tail_s": (tail(times)[0], "s"),
        "jobs_per_s": (passed / busy_s, "1/s"),
    }


def end_to_end(results: list, wall_s: float) -> tuple:
    """Metrics at the reference host speed, plus the same timings as measured."""
    failed = sum(r.failure is not None for r in results)
    metrics = {
        **_timings(results, "ref_seconds", sum(r.ref_seconds for r in results)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "failed_frac": (failed / len(results), "fraction"),
    }
    measured = {k: v for k, (v, _) in _timings(results, "seconds", wall_s).items()}
    _, percentile = tail(latencies(results))
    return metrics, {"job_tail_percentile": percentile, "jobs": len(results), "measured": measured}


def _run_traced(job, tracer, job_id: int) -> JobResult:
    tracer.job_id = job_id
    tracer.install()
    try:
        result, _ = run_one(job, check=False)
    finally:
        tracer.uninstall()
    tracer.counts[spans.OUT_BYTES] += result.out_bytes
    return result


def traced(job_list, trace_path: Path) -> tuple:
    """Each job untraced (and checked), then traced twice, one job after another.

    Interleaving keeps the machine's slow speed drift out of the overhead
    ratio.  The two traced passes must give the same counts, and every traced
    job must print exactly what its untraced run printed.
    """
    untraced, first, again = [], spans.Tracer(), spans.Tracer()
    traced_results = {first: [], again: []}
    for i, job in enumerate(job_list):
        base, _ = run_one(job)
        untraced.append(base)
        for tracer, results in traced_results.items():
            result = _run_traced(job, tracer, i)
            if result.digest != base.digest:
                raise RuntimeError(f"traced job {i} printed other output than untraced")
            results.append(result)
    counts, repeat = spans.exact_counts(first), spans.exact_counts(again)
    if counts != repeat:
        diff = {k: (counts[k], repeat[k]) for k in counts if counts[k] != repeat[k]}
        raise RuntimeError(f"traced counts did not repeat: {diff}")
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    first.write(trace_path)
    metrics = spans.layer_metrics(first)
    overhead = (statistics.median(latencies(traced_results[first], "seconds"))
                / statistics.median(latencies(untraced, "seconds")))
    metrics["trace_overhead_frac"] = (overhead - 1.0, "fraction")
    return untraced, metrics


def _blas() -> dict:
    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(handle, symbol, None)
            if getter is not None:
                getter.restype, getter.argtypes = ctypes.c_int, []
                threads = getter()
                break
    return {"name": info.get("name"), "version": info.get("version"), "threads": threads}


def _git_commit():
    if not (common.ROOT / ".git").exists():
        return None
    out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=common.ROOT,
                         capture_output=True, text=True, check=False)
    return out.stdout.strip() or None


def _source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((common.SRC / "multihead").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment_stamp(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": _git_commit(),
        "source_sha256": _source_sha256(),
        "seed": seed,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=jobs.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-file", type=Path, help="where a traced run writes its spans")
    args = parser.parse_args(argv)

    cycles = 1 if args.trace else jobs.cycles_per_run(args.workload, args.seconds)
    job_list = jobs.make_jobs(args.workload, args.seed, cycles)
    for warm in jobs.WARMUP[args.workload]:
        run_job(warm)

    if args.trace:
        trace_file = args.trace_file or common.TRACES_DIR / f"{args.workload}-seed{args.seed}.jsonl.gz"
        results, metrics = traced(job_list, trace_file)
        extra = {}
    else:
        results, wall_s = run_pass(job_list)
        metrics, extra = end_to_end(results, wall_s)
    failures = [r.failure for r in results if r.failure]
    report = {
        "workload": args.workload,
        "cycles": cycles,
        "correct": not failures,
        "attempted": len(job_list),
        "failed": len(failures),
        "failures": failures[:10],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "extra": extra,
        "stamp": environment_stamp(args.seed),
    }
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
