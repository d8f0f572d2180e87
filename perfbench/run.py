"""Benchmark entry point: set-up time, then one workload in its own process.

    python3 perfbench/run.py --workload sweep-scan --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1

With ``--trace 0`` it prints the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of a traced run.  Each result is also saved under
``.perfbench/results/``; ``perfbench/compare.py`` compares two such sets.
The last line of stdout is one JSON object: correct, attempted, failed and
the metrics.  The run fails (exit 2) where the checkout has no source.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import common
import jobs

SETUP_LAUNCHES = 5
IMPORTTIME_LAUNCHES = 3
TIME_LIMIT_S = 170.0  # a run of one workload must end within 180 s
SETUP_CODE = "import multihead.cli; multihead.cli.build_parser()"
LAYERS = ("cli", "serialize", "roots", "closed_form", "sweeps", "fockspace", "compare")
BENCHMARK = json.loads((common.ROOT / "BENCHMARK.json").read_text())


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(common.SRC), env.get("PYTHONPATH")]))
    return env


def _launch(flags=()) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *flags, "-c", SETUP_CODE], env=_child_env(), cwd=common.ROOT,
        capture_output=True, text=True, check=True, timeout=60,
    )


def setup_seconds() -> float:
    """Median wall time from a fresh interpreter to a ready CLI, as measured."""
    samples = []
    for _ in range(SETUP_LAUNCHES):
        start = time.perf_counter()
        _launch()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def import_seconds() -> dict:
    """Median cumulative import time of each layer module under -X importtime."""
    samples = {layer: [] for layer in LAYERS}
    for _ in range(IMPORTTIME_LAUNCHES):
        for line in _launch(("-X", "importtime")).stderr.splitlines():
            fields = [f.strip() for f in line.removeprefix("import time:").split("|")]
            if len(fields) == 3 and fields[2].startswith("multihead."):
                layer = fields[2].removeprefix("multihead.")
                if layer in samples:
                    samples[layer].append(int(fields[1]) * 1e-6)
    return {f"{layer}.import_s": (statistics.median(v), "s") for layer, v in samples.items()}


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    deadline = time.monotonic() + TIME_LIMIT_S
    stamp = f"{workload}-seed{seed}-trace{trace}-{time.time_ns()}"
    if trace:
        setup = import_seconds()
    else:
        setup = {"setup_s": (setup_seconds(), "s")}
    command = [
        sys.executable, str(Path(__file__).with_name("worker.py")),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--trace-file", str(common.TRACES_DIR / f"{stamp}.jsonl.gz"),
    ]
    done = subprocess.run(command, cwd=common.ROOT, capture_output=True, text=True,
                          check=False, timeout=max(1.0, deadline - time.monotonic()))
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise RuntimeError(f"{workload} worker exited with {done.returncode}")
    report = json.loads(done.stdout.splitlines()[-1])
    report["metrics"].update({k: {"value": v, "unit": u} for k, (v, u) in setup.items()})
    report.update(seconds=seconds, trace=trace)
    common.RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    (common.RESULTS_DIR / f"{stamp}.json").write_text(json.dumps(report, indent=1) + "\n")
    return report


def _print_table(report: dict, names) -> None:
    measured = report["extra"].get("measured", {})
    for name in names:
        metric = report["metrics"][name]
        line = f"{report['workload']:16s} {name:44s} {metric['value']:>16.6g} {metric['unit']:8s}"
        if name in measured:
            line += f" (as measured: {measured[name]:.6g})"
        print(line.rstrip())
    if not report["trace"]:
        extra = report["extra"]
        print(f"{report['workload']:16s} job_tail_s is p{extra['job_tail_percentile']:.1f} "
              f"of {extra['jobs']} jobs ({report['cycles']} cycles)")
    for failure in report["failures"]:
        print(f"{report['workload']:16s} FAILED: {failure}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*jobs.WORKLOADS, "all"))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=BENCHMARK["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        common.require_source()
    except common.MissingSourceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    kind = "per_layer" if args.trace else "end_to_end"
    names = [m["name"] for m in BENCHMARK[kind]]
    workloads = jobs.WORKLOADS if args.workload == "all" else (args.workload,)
    reports = [run_workload(w, args.seed, args.seconds, args.trace) for w in workloads]
    for report in reports:
        _print_table(report, names + ([] if args.trace else ["failed_frac"]))

    prefix = len(reports) > 1
    print(json.dumps({
        "correct": all(r["correct"] for r in reports),
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "metrics": {
            (f"{r['workload']}.{name}" if prefix else name): r["metrics"][name]
            for r in reports
            for name in names
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
