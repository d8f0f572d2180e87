"""The host's current speed, from a fixed CPU probe timed between jobs.

On a shared virtual machine the CPU's own speed drifts: a fixed loop can
take 30 % longer for tens of seconds at a time.  The benchmark times the
probe before and after each measured interval and scales the interval to
the reference speed, so drift between runs does not read as a change in
the program.  The probe is part of the benchmark, not of the program, so
both sides of a comparison are scaled by the same yardstick.
"""

from __future__ import annotations

import time

import numpy as np

# Probe time at the reference speed: the fast state of the 2-core x86-64
# machine the benchmark was defined on, probing between jobs.  (A probe that
# follows an idle spell reads slower, so it is never run after a sleep.)
# The constant only sets the scale.
PROBE_REF_S = 0.0028

_ARRAY = np.linspace(0.0, 1.0, 50_000)
_FLOATS = [float(x) for x in np.linspace(0.1, 7.3, 1500)]


def _probe_once() -> float:
    start = time.perf_counter()
    total = 0
    for i in range(20_000):  # interpreter work, like the package's scalar paths
        total += i * i
    for _ in range(4):  # array work, like its grids and kernels
        np.exp(_ARRAY * 2.0).sum()
    ",".join([format(x, ".17g") for x in _FLOATS])  # text, like its emitters
    return time.perf_counter() - start


def probe() -> float:
    """Fastest of five probe timings (about 14 ms in all at the reference speed).

    The minimum ignores a timing stretched by an interrupt or by a CPU
    waking from idle; the host's slow spells last far longer than a probe.
    """
    return min(_probe_once() for _ in range(5))


def scale(before: float, after: float) -> float:
    """Factor taking seconds measured between two probes to reference seconds."""
    return PROBE_REF_S / (0.5 * (before + after))
