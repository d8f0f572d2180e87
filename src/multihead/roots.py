"""Polar representation of a complex amplitude and its N-th roots.

Every superposition state in this package is seeded by the N complex roots
of a single amplitude alpha = r * exp(i*theta_p).  The roots share the
modulus r**(1/N) and sit at angles (2*k*pi + theta_p)/N, k = 0..N-1, so the
set is closed under rotation by 2*pi/N and sums to zero for N >= 2.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, InvalidInputError

TWO_PI = 2.0 * math.pi
# Largest head count accepted; every head-indexed array has N entries.
HEADS_MAX = 4096


@dataclass(frozen=True)
class PolarAmplitude:
    """A complex amplitude stored as modulus and principal argument.

    The argument is canonicalized into [0, 2*pi); a zero modulus, -0.0 too, is
    stored as +0.0 with angle 0, so equal amplitudes compare equal and print alike.
    """

    r: float
    theta_p: float = 0.0

    def __post_init__(self):
        r = float(self.r)
        theta = float(self.theta_p)
        if not (math.isfinite(r) and math.isfinite(theta)):
            raise InvalidInputError("amplitude components must be finite")
        if r < 0.0:
            raise InvalidInputError(f"modulus must be nonnegative, got {r}")
        theta = math.remainder(theta, TWO_PI)
        if theta < 0.0:
            theta += TWO_PI
        if theta >= TWO_PI:  # remainder can land exactly on 2*pi after the shift
            theta -= TWO_PI
        if r == 0.0:
            r = theta = 0.0
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "theta_p", theta)

    @classmethod
    def from_cartesian(cls, x: float, y: float) -> "PolarAmplitude":
        if not (math.isfinite(x) and math.isfinite(y)):
            raise InvalidInputError("cartesian components must be finite")
        return cls(math.hypot(x, y), math.atan2(y, x))

    def to_complex(self) -> complex:
        return complex(self.r * math.cos(self.theta_p), self.r * math.sin(self.theta_p))


def check_head_count(n_heads) -> None:
    """Refuse a head count that is not an integer in 1..HEADS_MAX, before any allocation."""
    if isinstance(n_heads, bool) or not isinstance(n_heads, int) or n_heads < 1:
        raise InvalidInputError(f"head count must be a positive integer, got {n_heads!r}")
    if n_heads > HEADS_MAX:
        raise CapacityError(f"head count {n_heads} exceeds {HEADS_MAX}")


def head_occupation(r, n_heads: int):
    """Mean photon number mu = r^(2/N) of every head, at a modulus or an array of moduli.

    A scalar r and an array are raised with the same numpy power, so a modulus
    has the same mu alone or in an array; a scalar r gives a Python float.  A
    mu that overflows raises CapacityError.
    """
    with np.errstate(over="ignore"):
        mu = np.asarray(r, dtype=float) ** (2.0 / n_heads)
    if not np.all(mu < math.inf):
        raise CapacityError(
            f"head occupation r^(2/N) overflows at r = {np.max(r):.4g}, N = {n_heads}"
        )
    return float(mu) if np.ndim(mu) == 0 else mu


def root_angles(alpha: PolarAmplitude, n_heads: int):
    """Angles (2*k*pi + theta_p)/N for k = 0..N-1."""
    return [(2.0 * k * math.pi + alpha.theta_p) / n_heads for k in range(n_heads)]


def root_modulus(alpha: PolarAmplitude, n_heads: int) -> float:
    """Positive N-th root of the modulus."""
    return alpha.r ** (1.0 / n_heads)


def nth_roots(alpha: PolarAmplitude, n_heads: int) -> tuple:
    """All N-th roots of alpha as a tuple, ordered by root index k ascending.

    For n_heads == 1 the single root is alpha itself.  At r = 0 every root
    is exactly 0j: 0 * e^(i phi) would keep the signs of cos phi and sin phi.
    """
    check_head_count(n_heads)
    rho = root_modulus(alpha, n_heads)
    if rho == 0.0:
        return (0j,) * n_heads
    return tuple(rho * cmath.exp(1j * phi) for phi in root_angles(alpha, n_heads))


def root_sum(roots: tuple) -> complex:
    """Complex sum of the roots; vanishes for N >= 2 (self-check quantity)."""
    return sum(roots, complex(0.0))
