"""Workloads: the CLI jobs each benchmark run sends, generated from a seed.

Every cycle of a workload holds the same multiset of (command, N, family,
kind, size); the seed only picks theta, r within each stratum, the job order
and the output points the checker recomputes.  A run is a whole number of
cycles, fixed by ``--seconds`` and the nominal cycle time below, so two
commits compared on one seed execute exactly the same jobs.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

FAMILIES = ("incoherent", "coherent")

SWEEP_HEADS = (2, 3, 4, 6)
SWEEP_QUANTITIES = ("mean-photon", "mandel-q", "var-x1", "var-x2", "parity")
SWEEP_R_MAX = 25.0
SWEEP_STEP = 0.01  # the CLI default
SWEEP_SAMPLES = int(round(SWEEP_R_MAX / SWEEP_STEP)) + 1

WIGNER_HEADS = (2, 3, 6, 12)
WIGNER_FORMATS = ("csv", "json")
WIGNER_SIDE = 201  # the CLI default grid
WIGNER_BIG_SIDE = 601  # its complex grid (5.8 MB) exceeds a 2 MiB per-core L2
WIGNER_R = (1.0, 6.0)

VALIDATE_HEADS = (2, 3, 4)
VALIDATE_R = (math.sqrt(2.0), 3.0, 10.0, 30.0, 60.0)
VALIDATE_R_JITTER = 0.02  # r = stratum * U(1 - j, 1 + j); kernel cost depends on r

SWEEP_CHECKS = 4  # sweep samples recomputed by the oracle per job
WIGNER_CHECKS = 3  # grid points recomputed by the oracle per job

# Seconds one cycle takes at the commit that defined the benchmark, on a
# 2-core x86-64 machine.  They turn --seconds into a cycle count only.
NOMINAL_CYCLE_S = {"sweep-scan": 10.7, "wigner-grid": 8.3, "validate-oracle": 20.0}


@dataclass(frozen=True)
class Job:
    command: str
    argv: tuple
    n_heads: int
    family: str
    kind: str  # sweep quantity or wigner format; "table" for validate
    size: int  # sweep samples or wigner grid side; 0 for validate
    check_points: tuple = ()  # output indices recomputed by the oracle

    @property
    def shape(self) -> tuple:
        """The part of a job every seed keeps: what work it asks for."""
        return (self.command, self.n_heads, self.family, self.kind, self.size)


def _amplitude(r: float, theta: float) -> str:
    return f"{r!r}@{theta!r}"


def _theta(rng: random.Random) -> float:
    return rng.uniform(0.0, 2.0 * math.pi)


def _sweep_cycle(rng: random.Random) -> list:
    jobs = []
    for n in SWEEP_HEADS:
        for family in FAMILIES:
            for quantity in SWEEP_QUANTITIES:
                argv = (
                    "sweep", "--heads", str(n), "--family", family,
                    "--quantity", quantity, "--r-max", repr(SWEEP_R_MAX),
                    "--theta", repr(_theta(rng)), "--format", "json",
                )
                checks = tuple(rng.randrange(SWEEP_SAMPLES) for _ in range(SWEEP_CHECKS))
                jobs.append(Job("sweep", argv, n, family, quantity, SWEEP_SAMPLES, checks))
    return jobs


def _wigner_job(rng, n, family, fmt, side):
    argv = [
        "wigner", "--alpha", _amplitude(rng.uniform(*WIGNER_R), _theta(rng)),
        "--heads", str(n), "--family", family, "--format", fmt,
    ]
    if side != WIGNER_SIDE:
        argv += ["--nx", str(side), "--ny", str(side)]
    checks = tuple(rng.randrange(side * side) for _ in range(WIGNER_CHECKS))
    return Job("wigner", tuple(argv), n, family, fmt, side, checks)


def _wigner_cycle(rng: random.Random) -> list:
    jobs = [
        _wigner_job(rng, n, family, fmt, WIGNER_SIDE)
        for n in WIGNER_HEADS
        for family in FAMILIES
        for fmt in WIGNER_FORMATS
    ]
    jobs.append(_wigner_job(rng, 2, "coherent", "json", WIGNER_BIG_SIDE))
    return jobs


def _validate_cycle(rng: random.Random) -> list:
    jobs = []
    for n in VALIDATE_HEADS:
        for family in FAMILIES:
            for r in VALIDATE_R:
                r *= rng.uniform(1.0 - VALIDATE_R_JITTER, 1.0 + VALIDATE_R_JITTER)
                argv = (
                    "validate", "--alpha", _amplitude(r, _theta(rng)),
                    "--heads", str(n), "--family", family,
                )
                jobs.append(Job("validate", argv, n, family, "table", 0))
    return jobs


CYCLES = {
    "sweep-scan": _sweep_cycle,
    "wigner-grid": _wigner_cycle,
    "validate-oracle": _validate_cycle,
}
WORKLOADS = tuple(CYCLES)


def cycles_per_run(workload: str, seconds: float) -> int:
    return max(1, round(seconds / NOMINAL_CYCLE_S[workload]))


def make_jobs(workload: str, seed: int, cycles: int) -> list:
    """The job list of ``cycles`` cycles; each cycle is shuffled on its own."""
    rng = random.Random(f"{workload}:{seed}")
    jobs = []
    for _ in range(cycles):
        cycle = CYCLES[workload](rng)
        rng.shuffle(cycle)
        jobs.extend(cycle)
    return jobs


_WARM_SPEC = ("--heads", "3", "--family", "coherent")

# Small untimed jobs that run each workload's code paths once before timing.
WARMUP = {
    "sweep-scan": [
        ("sweep", *_WARM_SPEC, "--quantity", q, "--r-max", "0.5") for q in SWEEP_QUANTITIES
    ],
    "wigner-grid": [
        ("wigner", "--alpha", "2@0.5", *_WARM_SPEC, "--nx", "21", "--ny", "21", "--format", f)
        for f in WIGNER_FORMATS
    ],
    "validate-oracle": [("validate", "--alpha", "2@0.5", *_WARM_SPEC)],
}
