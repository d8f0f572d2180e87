"""Compare two sets of benchmark results, per workload and metric.

    python3 perfbench/compare.py BEFORE_DIR AFTER_DIR

Each directory holds result files written by ``run.py`` (by default under
``.perfbench/results/``).  Runs of one workload are paired by seed.  For each
(workload, metric) the table gives each side's median and quartiles, the
ratio after/before, the pairs the after side won, and a verdict:

* improved: after wins at least 9/10 of the pairs (ties count for neither)
  and the medians differ by more than the before side's quartile spread;
* unresolved: the spread of either side, as a share of its median, is wider
  than the metric's bound, and not every after run beats every before run;
* no worse: the after median is worse than the before median by at most
  the bound;
* regressed: otherwise.

Per-layer metrics have no bound, so they are only "improved", "worse" (the
same rule the other way round) or "no change".  Results whose environment
stamps differ draw a warning.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

import common

WIN_SHARE = 0.9
STAMP_KEYS = ("python", "numpy", "scipy", "blas", "nproc")  # commit and seed may differ


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def _gain(before: float, after: float, better: str) -> float:
    """Positive when ``after`` is better than ``before``."""
    return before - after if better == "lower" else after - before


def _pairs_rule(before, after, pairs, better) -> bool:
    q1, median_before, q3 = quartiles(before)
    wins = sum(_gain(b, a, better) > 0 for b, a in pairs)
    return bool(pairs) and wins >= WIN_SHARE * len(pairs) and \
        _gain(median_before, statistics.median(after), better) > q3 - q1


def verdict(before: list, after: list, pairs: list, better: str, bound=None) -> str:
    if _pairs_rule(before, after, pairs, better):
        return "improved"
    worse = "higher" if better == "lower" else "lower"
    if bound is None:
        return "worse" if _pairs_rule(before, after, pairs, worse) else "no change"
    spread = max((q3 - q1) / abs(m) for q1, m, q3 in (quartiles(before), quartiles(after)))
    every_better = all(_gain(b, a, better) > 0 for b in before for a in after)
    if spread > bound and not every_better:
        return "unresolved"
    median_before = statistics.median(before)
    worse_by = -_gain(median_before, statistics.median(after), better) / abs(median_before)
    return "no worse" if worse_by <= bound else "regressed"


def load(directory: Path) -> dict:
    """(workload, trace) -> result files, ordered by seed then by file name."""
    runs = defaultdict(list)
    for path in sorted(directory.glob("*.json")):
        result = json.loads(path.read_text())
        runs[result["workload"], result["trace"]].append(result)
    for group in runs.values():
        group.sort(key=lambda r: r["stamp"]["seed"])
    return runs


def _pairs(before: list, after: list) -> list:
    by_seed = defaultdict(list)
    for run in after:
        by_seed[run["stamp"]["seed"]].append(run)
    pairs = []
    for run in before:
        if by_seed[run["stamp"]["seed"]]:
            pairs.append((run, by_seed[run["stamp"]["seed"]].pop(0)))
    return pairs


def stamp_warnings(runs: list) -> list:
    warnings = []
    for key in STAMP_KEYS:
        seen = {json.dumps(r["stamp"].get(key), sort_keys=True) for r in runs}
        if len(seen) > 1:
            warnings.append(f"warning: results differ in {key}: {', '.join(sorted(seen))}")
    return warnings


def _cell(q: tuple) -> str:
    return f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}]"


def compare(before: dict, after: dict, benchmark: dict) -> list:
    metrics = {
        0: [(m["name"], m["better"], m["bound"]) for m in benchmark["end_to_end"]]
        + [("failed_frac", "lower", None)],  # recorded, but 0 at a healthy commit
        1: [(m["name"], m["better"], None) for m in benchmark["per_layer"]],
    }
    everything = [r for side in (before, after) for group in side.values() for r in group]
    lines = stamp_warnings(everything)
    lines.append(f"{'workload':16s} {'metric':44s} {'before median [q1, q3]':>34s} "
                 f"{'after median [q1, q3]':>34s} {'after/before':>12s} {'wins':>6s}  verdict")
    for key in sorted(set(before) & set(after)):
        workload, trace = key
        paired = _pairs(before[key], after[key])
        if len(paired) < min(len(before[key]), len(after[key])):
            lines.append(f"warning: {workload} runs do not share all their seeds")
        for name, better, bound in metrics[trace]:
            values_b = [r["metrics"][name]["value"] for r in before[key]]
            values_a = [r["metrics"][name]["value"] for r in after[key]]
            pairs = [(b["metrics"][name]["value"], a["metrics"][name]["value"]) for b, a in paired]
            wins = sum(_gain(b, a, better) > 0 for b, a in pairs)
            qb, qa = quartiles(values_b), quartiles(values_a)
            ratio = f"{qa[1] / qb[1]:.4f}" if qb[1] else "-"
            lines.append(
                f"{workload:16s} {name:44s} {_cell(qb):>34s} {_cell(qa):>34s} {ratio:>12s} "
                f"{wins:>2d}/{len(pairs):<3d}  {verdict(values_b, values_a, pairs, better, bound)}"
            )
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("before", type=Path)
    parser.add_argument("after", type=Path)
    args = parser.parse_args(argv)
    benchmark = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    for line in compare(load(args.before), load(args.after), benchmark):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
