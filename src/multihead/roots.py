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

from .errors import InvalidInputError

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class PolarAmplitude:
    """A complex amplitude stored as modulus and principal argument.

    The argument is canonicalized into [0, 2*pi); a zero modulus forces the
    stored angle to 0 so that equal amplitudes compare equal.
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
            theta = 0.0
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "theta_p", theta)

    @classmethod
    def from_cartesian(cls, x: float, y: float) -> "PolarAmplitude":
        if not (math.isfinite(x) and math.isfinite(y)):
            raise InvalidInputError("cartesian components must be finite")
        return cls(math.hypot(x, y), math.atan2(y, x))

    @classmethod
    def from_complex(cls, z: complex) -> "PolarAmplitude":
        return cls.from_cartesian(z.real, z.imag)

    def to_complex(self) -> complex:
        return complex(self.r * math.cos(self.theta_p), self.r * math.sin(self.theta_p))

    @property
    def x(self) -> float:
        return self.r * math.cos(self.theta_p)

    @property
    def y(self) -> float:
        return self.r * math.sin(self.theta_p)


def root_angles(alpha: PolarAmplitude, n_heads: int):
    """Angles (2*k*pi + theta_p)/N for k = 0..N-1."""
    return [(2.0 * k * math.pi + alpha.theta_p) / n_heads for k in range(n_heads)]


def root_modulus(alpha: PolarAmplitude, n_heads: int) -> float:
    """Positive N-th root of the modulus."""
    return alpha.r ** (1.0 / n_heads)


def nth_roots(alpha: PolarAmplitude, n_heads: int) -> tuple:
    """All N-th roots of alpha as a tuple, ordered by root index k ascending.

    For n_heads == 1 the single root is alpha itself.
    """
    if not isinstance(n_heads, int) or n_heads < 1:
        raise InvalidInputError(f"head count must be a positive integer, got {n_heads!r}")
    rho = root_modulus(alpha, n_heads)
    return tuple(rho * cmath.exp(1j * phi) for phi in root_angles(alpha, n_heads))


def root_sum(roots: tuple) -> complex:
    """Complex sum of the roots; vanishes for N >= 2 (self-check quantity)."""
    return sum(roots, complex(0.0))
