"""Output checks: every job's stdout is checked against the independent path.

The closed-form values a job prints are recomputed at seed-chosen points with
the truncated Fock-space oracle (``multihead.fockspace``), which shares no
head-sum formula with them.  A value passes when it lies within
``compare.TOL_DEFAULT`` scaled by its magnitude.  Each checker returns None
for a good output or a one-line reason for a bad one.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

from multihead import fockspace
from multihead.compare import TOL_DEFAULT
from multihead.serialize import parse_amplitude
from multihead.states import Family, StateSpec
from multihead.sweeps import SweepTemplate

# Oracle tail mass small enough for TOL_DEFAULT, as multihead.compare uses.
CUTOFF_EPS = 1e-20

VALIDATE_ROWS = {"incoherent": 10, "coherent": 12}


def _arg(job, flag: str) -> str:
    return job.argv[job.argv.index(flag) + 1]


def _spec(job) -> StateSpec:
    return StateSpec(parse_amplitude(_arg(job, "--alpha")), job.n_heads, Family.parse(job.family))


def _close(got: float, want: float) -> bool:
    return abs(got - want) <= TOL_DEFAULT * max(1.0, abs(want))


def oracle_state(spec: StateSpec, beta_sq: float = 0.0):
    """Truncated state whose cutoff admits Wigner points with |beta|^2 <= beta_sq."""
    cutoff = fockspace.choose_cutoff(spec.alpha, spec.n_heads, eps=CUTOFF_EPS)
    while True:
        state = fockspace.build_state(spec, cutoff=cutoff)
        need = 2.0 * (beta_sq + fockspace.oracle_moment(state, 1, 1).real)
        if need < cutoff:
            return state
        cutoff = int(need) + spec.n_heads


def oracle_quantity(spec: StateSpec, quantity: str) -> float:
    """A sweep quantity from oracle moments (formulas as in closed_form)."""
    state = oracle_state(spec)
    if quantity == "parity":
        return fockspace.oracle_parity(state)

    def moment(h, l):
        return fockspace.oracle_moment(state, h, l)

    n = moment(1, 1).real
    if quantity == "mean-photon":
        return n
    if quantity == "mandel-q":
        return moment(2, 2).real / n - n
    base = n - abs(moment(0, 1)) ** 2 + 0.5
    cross = (moment(2, 0) - moment(1, 0) ** 2).real
    return base + cross if quantity == "var-x1" else base - cross


def check_validate(job, text: str):
    rows = text.splitlines()
    if len(rows) != VALIDATE_ROWS[job.family]:
        return f"{len(rows)} validation rows, expected {VALIDATE_ROWS[job.family]}"
    bad = [row.split()[0] for row in rows if not row.rstrip().endswith(" ok")]
    return f"checks not ok: {', '.join(bad)}" if bad else None


def _wigner_rows(job, text: str) -> np.ndarray:
    if job.kind == "csv":
        reader = csv.reader(io.StringIO(text))
        if next(reader) != ["x", "y", "w"]:
            raise ValueError("bad CSV header")
        return np.array([[float(v) for v in row] for row in reader], dtype=float)
    return np.array(json.loads(text)["rows"], dtype=float)


def check_wigner(job, text: str):
    try:
        rows = _wigner_rows(job, text)
    except (ValueError, KeyError, TypeError) as exc:
        return f"unparsable output: {exc}"
    if rows.shape != (job.size * job.size, 3):
        return f"grid rows {rows.shape}, expected ({job.size * job.size}, 3)"
    if not np.all(np.isfinite(rows)):
        return "non-finite value in grid"
    axis = np.linspace(-4.0, 4.0, job.size)  # the CLI's default range
    points = [*job.check_points, int(np.argmax(np.abs(rows[:, 2])))]
    betas = []
    for i in points:
        x, y, _ = rows[i]
        if (x, y) != (axis[i % job.size], axis[i // job.size]):
            return f"row {i} sits at ({x}, {y}), off the y-major grid"
        betas.append(complex(x, y) / math.sqrt(2.0))
    state = oracle_state(_spec(job), max(abs(b) ** 2 for b in betas))
    for i, beta in zip(points, betas):
        want = fockspace.oracle_wigner(state, beta)
        if not _close(rows[i, 2], want):
            return f"W at row {i} is {rows[i, 2]!r}, oracle gives {want!r}"
    return None


def check_sweep(job, text: str):
    try:
        out = json.loads(text)
        samples = [(float(r), float(v)) for r, v in out["samples"]]
        crossings = [float(c) for c in out["crossings"]]
        r_min, r_max = float(out["r_min"]), float(out["r_max"])
    except (ValueError, KeyError, TypeError) as exc:
        return f"unparsable output: {exc}"
    if out["quantity"] != job.kind or out["template"]["n_heads"] != job.n_heads:
        return "output describes another sweep"
    step = float(out["step"])
    grid = [min(r_min + i * step, r_max) for i in range(job.size)]
    if job.kind == "mandel-q":
        grid = grid[1:]  # undefined at r = 0, so the CLI leaves a gap there
    if [r for r, _ in samples] != grid:
        return f"{len(samples)} samples off the expected {len(grid)}-point grid"
    if not all(math.isfinite(v) for _, v in samples):
        return "non-finite sample"
    if crossings != sorted(crossings) or any(not r_min <= c <= r_max for c in crossings):
        return f"crossings not ascending inside [r_min, r_max]: {crossings}"
    template = SweepTemplate(float(_arg(job, "--theta")), job.n_heads, Family.parse(job.family))
    for i in job.check_points:
        r, value = samples[i % len(samples)]
        want = oracle_quantity(template.spec_at(r), job.kind)
        if not _close(value, want):
            return f"{job.kind} at r={r!r} is {value!r}, oracle gives {want!r}"
    return None


CHECKERS = {"sweep": check_sweep, "wigner": check_wigner, "validate": check_validate}


def check(job, code, text: str):
    """None if the job exited 0 with a correct output, else the reason."""
    if code != 0:
        return f"exit code {code!r}"
    return CHECKERS[job.command](job, text)
