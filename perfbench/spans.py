"""Traced runs: spans around calls into each module's public functions.

``install`` wraps every named function in every ``multihead`` module
namespace that binds it (``fockspace`` and ``cli`` bind ``nth_roots`` and
``parse_amplitude`` by name, the package binds most of them again), and
``uninstall`` puts the original objects back and proves it did.  Spans are
kept in memory in flat arrays and written out after the run.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from array import array
from collections import Counter

import numpy as np

SPANNED = (
    "cli.main", "cli.cmd_sweep", "cli.cmd_wigner", "cli.cmd_validate",
    "serialize.parse_amplitude", "serialize.render_json",
    "roots.nth_roots",
    "closed_form.moment", "closed_form.normalization", "closed_form.wigner",
    "closed_form.fock_element",
    "sweeps.sweep", "sweeps.evaluate", "sweeps.find_crossings",
    "fockspace.choose_cutoff", "fockspace.build_state", "fockspace.oracle_moment",
    "fockspace.displaced_parity_kernel", "fockspace.oracle_wigner",
    "fockspace.oracle_wigner_grid",
    "compare.validate_spec",
)

# Spans that call other spanned functions, so they also report total_s.
PARENTS = (
    "cli.main", "cli.cmd_sweep", "cli.cmd_wigner", "cli.cmd_validate",
    "closed_form.fock_element",
    "sweeps.sweep", "sweeps.evaluate", "sweeps.find_crossings",
    "fockspace.build_state", "fockspace.oracle_wigner", "fockspace.oracle_wigner_grid",
    "compare.validate_spec",
)

# Only the outermost call of a recursive function gets a span.
OUTERMOST_ONLY = ("serialize.render_json",)

COUNTED = ("serialize.fmt",)  # counted, not spanned: a CSV job makes ~120k calls


def _wigner_pair_points(spec, beta, *_, **__):
    return int(np.size(beta)) * (spec.n_heads**2 if spec.is_coherent else spec.n_heads)


def _kernel_elems(beta, cutoff, *_, **__):
    return int(cutoff) ** 2


# Work counts computed from call arguments: span name -> (count name, count).
WORK = {
    "closed_form.wigner": ("closed_form.wigner_pair_points", _wigner_pair_points),
    "fockspace.displaced_parity_kernel": ("fockspace.kernel_elems", _kernel_elems),
}
OUT_BYTES = "serialize.out_bytes"  # bytes each job writes to stdout

WORK_COUNTS = {
    "serialize.fmt.calls": "count",
    OUT_BYTES: "bytes",
    "closed_form.wigner_pair_points": "count",
    "fockspace.kernel_elems": "count",
}


class Tracer:
    """Spans of one traced pass: name, start, end, parent and job id."""

    def __init__(self):
        self.names = list(SPANNED)
        self._index = {name: i for i, name in enumerate(self.names)}
        self.name = array("h")
        self.parent = array("l")
        self.job = array("l")
        self.start = array("d")
        self.end = array("d")
        self.counts = Counter()
        self.job_id = -1
        self._stack = []
        self._patched = []

    def __len__(self):
        return len(self.name)

    def open(self, name: str) -> int:
        span = len(self.name)
        self.name.append(self._index[name])
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.job.append(self.job_id)
        self.end.append(0.0)
        self._stack.append(span)
        self.start.append(time.perf_counter())
        return span

    def close(self, span: int) -> None:
        self.end[span] = time.perf_counter()
        self._stack.pop()

    def innermost(self):
        return self.names[self.name[self._stack[-1]]] if self._stack else None

    def _spanned(self, name, fn):
        work = WORK.get(name)
        outermost_only = name in OUTERMOST_ONLY

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if outermost_only and self.innermost() == name:
                return fn(*args, **kwargs)
            if work:
                self.counts[work[0]] += work[1](*args, **kwargs)
            span = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(span)

        wrapper.__perfbench_original__ = fn
        return wrapper

    def _counted(self, name, fn):
        key = name + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[key] += 1
            return fn(*args, **kwargs)

        wrapper.__perfbench_original__ = fn
        return wrapper

    def install(self) -> None:
        """Wrap each target in every multihead namespace that binds it."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        targets = {}
        for qualified in SPANNED + COUNTED:
            module, attr = qualified.split(".")
            original = getattr(sys.modules["multihead." + module], attr)
            wrap = self._spanned if qualified in SPANNED else self._counted
            targets[id(original)] = (original, wrap(qualified, original))
        for module in _multihead_modules():
            for attr, value in list(vars(module).items()):
                if id(value) in targets and targets[id(value)][0] is value:
                    original, wrapper = targets[id(value)]
                    setattr(module, attr, wrapper)
                    self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        """Restore the originals; raise if any wrapper is left anywhere."""
        for module, attr, original in self._patched:
            setattr(module, attr, original)
        left = [
            f"{module.__name__}.{attr}"
            for module, attr, original in self._patched
            if getattr(module, attr) is not original
        ]
        left += [
            f"{module.__name__}.{attr}"
            for module in _multihead_modules()
            for attr, value in vars(module).items()
            if hasattr(value, "__perfbench_original__")
        ]
        self._patched = []
        if left:
            raise RuntimeError(f"traced functions not restored: {sorted(set(left))}")

    def write(self, path) -> None:
        """Write the spans as gzipped JSON lines: [name, start, end, parent, job]."""
        with gzip.open(path, "wt") as fh:
            for i in range(len(self)):
                record = [self.names[self.name[i]], self.start[i], self.end[i],
                          self.parent[i], self.job[i]]
                fh.write(json.dumps(record) + "\n")


def _multihead_modules():
    return [m for n, m in list(sys.modules.items()) if n == "multihead" or n.startswith("multihead.")]


def self_times(start, end, parent) -> list:
    """Each span's duration minus the part of it that its child spans cover."""
    children = [[] for _ in start]
    for i, p in enumerate(parent):
        if p >= 0:
            children[p].append(i)
    result = []
    for i, kids in enumerate(children):
        covered, reach = 0.0, start[i]
        for k in sorted(kids, key=lambda k: start[k]):
            lo, hi = max(start[k], reach), min(end[k], end[i])
            if hi > lo:
                covered += hi - lo
                reach = hi
        result.append(end[i] - start[i] - covered)
    return result


def exact_counts(tracer: Tracer) -> dict:
    """The counts that must repeat exactly between traced passes of one job list."""
    calls = Counter(tracer.names[i] for i in tracer.name)
    return {**{f"{n}.calls": calls[n] for n in SPANNED},
            **{n: tracer.counts[n] for n in WORK_COUNTS}}


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics as name -> (value, unit): counts, self and total times."""
    own = self_times(tracer.start, tracer.end, tracer.parent)
    self_s, total_s = Counter(), Counter()
    for i in range(len(tracer)):
        name = tracer.names[tracer.name[i]]
        self_s[name] += own[i]
        total_s[name] += tracer.end[i] - tracer.start[i]
    metrics = {}
    for name, value in exact_counts(tracer).items():
        metrics[name] = (value, WORK_COUNTS.get(name, "count"))
    for name in SPANNED:
        metrics[f"{name}.self_s"] = (self_s[name], "s")
        if name in PARENTS:
            metrics[f"{name}.total_s"] = (total_s[name], "s")
    return metrics
