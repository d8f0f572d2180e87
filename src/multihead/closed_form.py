"""Closed-form statistics, Fock matrix elements, Wigner functions and parity.

All quantities are evaluated directly from the finite head sums, with no
Fock-space truncation.  The heads are the N-th roots of one amplitude, so the
overlap of heads k1 and k2 depends only on j = (k1 - k2) mod N, and every
double sum over head pairs reduces to N times one circulant head sum

    S_l(mu) = sum_j w^(l*j) exp(mu*(w^j - 1)),   w = exp(2*pi*i/N), mu = r^(2/N).

Sums that are physically real are checked for an imaginary residue below
``RESIDUE_TOL`` before the imaginary part is discarded; a larger residue
raises InternalConsistencyError because it can only come from a formula bug.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, xlogy

from .errors import InternalConsistencyError, InvalidInputError, UndefinedStatisticError
from .roots import PolarAmplitude, root_angles, root_modulus
from .states import StateSpec

RESIDUE_TOL = 1e-10
TWO_OVER_PI = 2.0 / math.pi


def _require_real(value, what: str):
    imag = np.max(np.abs(np.imag(value)))
    # Written so that a NaN residue fails the test too.
    if not imag <= RESIDUE_TOL * max(1.0, float(np.max(np.abs(value)))):
        raise InternalConsistencyError(f"{what}: imaginary residue {imag:.3e} exceeds tolerance")
    return np.real(value)


def _log_overlaps(mu, n_heads: int, turn: float = 1.0) -> np.ndarray:
    """Log head overlaps mu*(turn*w^j - 1) for j = 0..N-1 on a new last axis.

    With ``turn = 1`` their exponentials are <g_k2|g_k1> for k1 - k2 = j;
    ``turn = -1`` inserts the parity operator between the two heads.
    """
    omega = np.exp(2j * np.pi * np.arange(n_heads) / n_heads)
    return np.multiply.outer(mu, turn * omega - 1.0)


def _head_sums(mu, n_heads: int, turn: float = 1.0) -> np.ndarray:
    """Circulant head sums S_l = sum_j w^(l*j) overlap_j for l = 0..N-1 on the last axis.

    This is N times the inverse DFT of the overlaps; ``mu`` broadcasts.  Terms
    j and N - j are complex conjugates, so every S_l is real; the imaginary
    residue is checked here, where it arises.
    """
    sums = n_heads * np.fft.ifft(np.exp(_log_overlaps(mu, n_heads, turn)), axis=-1)
    return _require_real(sums, "head sum")


def normalization(alpha: PolarAmplitude, n_heads: int) -> float:
    """Normalization factor N_c = N * S_0 of the coherent superposition.

    Equals 1 for a single head and 2 + 2*exp(-2r) for two heads.
    """
    if n_heads < 1:
        raise InvalidInputError("head count must be >= 1")
    value = float(n_heads * _head_sums(alpha.r ** (2.0 / n_heads), n_heads)[0])
    if value <= 0.0:
        raise InternalConsistencyError(f"normalization must be positive, got {value}")
    return value


def _moment(spec: StateSpec, r, h: int, l: int) -> np.ndarray:
    """<a^dag^h a^l> at the moduli r, with angle, head count and family from spec.

    The head sums leave r^((h+l)/N) e^(i(l-h)theta/N), nonzero only when N
    divides l - h, times S_l/S_0 for the coherent family.
    """
    n = spec.n_heads
    r = np.asarray(r, dtype=float)
    if (l - h) % n != 0:
        return np.zeros(r.shape, dtype=complex)
    value = r ** ((h + l) / n) * cmath.exp(1j * (l - h) * spec.alpha.theta_p / n)
    if spec.is_coherent:
        sums = _head_sums(r ** (2.0 / n), n)
        value = value * sums[..., l % n] / sums[..., 0]
    return value


def moment(spec: StateSpec, h: int, l: int) -> complex:
    """Moment <a^dag^h a^l> of either family."""
    if h < 0 or l < 0:
        raise InvalidInputError("moment orders must be nonnegative")
    return complex(_moment(spec, spec.alpha.r, h, l))


@dataclass(frozen=True)
class MomentTable:
    """The six low-order moments used by every derived statistic."""

    a_dag: complex
    a: complex
    n_mean: complex
    a_dag2: complex
    a2: complex
    a_dag2_a2: complex


def moment_table(spec: StateSpec) -> MomentTable:
    return MomentTable(
        a_dag=moment(spec, 1, 0),
        a=moment(spec, 0, 1),
        n_mean=moment(spec, 1, 1),
        a_dag2=moment(spec, 2, 0),
        a2=moment(spec, 0, 2),
        a_dag2_a2=moment(spec, 2, 2),
    )


# Statistic formulas over an array of moduli r; angle, N and family come from spec.


def _mean_photon(spec: StateSpec, r) -> np.ndarray:
    return _moment(spec, r, 1, 1).real


def _mandel_q(spec: StateSpec, r) -> np.ndarray:
    """Mandel Q = <a^dag2 a^2>/<a^dag a> - <a^dag a>; NaN where <n> = 0."""
    n = _mean_photon(spec, r)
    g2 = _moment(spec, r, 2, 2).real
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(n == 0.0, np.nan, g2 / n - n)


def _quadrature_variances(spec: StateSpec, r) -> tuple[np.ndarray, np.ndarray]:
    # Real arithmetic only, so an array of moduli rounds exactly like a scalar.
    a, a_dag = _moment(spec, r, 0, 1), _moment(spec, r, 1, 0)
    base = _mean_photon(spec, r) - (a.real * a.real + a.imag * a.imag) + 0.5
    cross = _moment(spec, r, 2, 0).real - (a_dag.real * a_dag.real - a_dag.imag * a_dag.imag)
    return base + cross, base - cross


def _parity(spec: StateSpec, r) -> np.ndarray:
    """<(-1)^n>: exp(-2 mu) for the mixture, sum_j e^(-mu(1 + w^j)) / S_0 for the cat."""
    n = spec.n_heads
    mu = np.asarray(r, dtype=float) ** (2.0 / n)
    if not spec.is_coherent:
        return np.exp(-2.0 * mu)
    return _head_sums(mu, n, turn=-1.0)[..., 0] / _head_sums(mu, n)[..., 0]


def mean_photon(spec: StateSpec) -> float:
    return float(_mean_photon(spec, spec.alpha.r))


def mandel_q(spec: StateSpec) -> float:
    """Mandel Q = <a^dag2 a^2>/<a^dag a> - <a^dag a>; sign classifies the statistics."""
    if mean_photon(spec) == 0.0:
        raise UndefinedStatisticError("Mandel Q is undefined at zero amplitude")
    return float(_mandel_q(spec, spec.alpha.r))


@dataclass(frozen=True)
class QuadratureVariances:
    """Variances of X1 = (a + a^dag)/sqrt(2) and X2 = (a - a^dag)/(sqrt(2) i)."""

    var_x1: float
    var_x2: float


def quadrature_variances(spec: StateSpec) -> QuadratureVariances:
    var_x1, var_x2 = _quadrature_variances(spec, spec.alpha.r)
    return QuadratureVariances(var_x1=float(var_x1), var_x2=float(var_x2))


def parity(spec: StateSpec) -> float:
    """Photon-number parity <(-1)^n>, equal to pi/2 times the Wigner origin value."""
    return float(_parity(spec, spec.alpha.r))


def fock_element(spec: StateSpec, m, n):
    """Density-matrix element p_mn in the photon-number basis.

    The head sums reduce to selection rules: the incoherent family needs
    (m - n) divisible by N, the coherent family needs both m and n divisible
    by N and carries the scale N/S_0.  Magnitudes are assembled in log space
    so large m, n never overflow the factorials.  ``m`` and ``n`` broadcast
    over integer arrays, with S_0 computed once per call; scalar indices
    give a complex.
    """
    m, n = np.asarray(m), np.asarray(n)
    if np.any(m < 0) or np.any(n < 0):
        raise InvalidInputError("Fock indices must be nonnegative")
    alpha, n_heads = spec.alpha, spec.n_heads
    mu = alpha.r ** (2.0 / n_heads)
    if spec.is_coherent:
        allowed = (m % n_heads == 0) & (n % n_heads == 0)
        scale = n_heads / _head_sums(mu, n_heads)[0]
    else:
        allowed = (m - n) % n_heads == 0
        scale = 1.0
    # xlogy(0, 0) = 0 leaves p_00 = 1 at r = 0, and every other element 0.
    log_mag = xlogy((m + n) / n_heads, alpha.r) - mu - 0.5 * (gammaln(m + 1) + gammaln(n + 1))
    phase = np.exp(1j * (m - n) * alpha.theta_p / n_heads)
    value = np.where(allowed, scale * np.exp(log_mag) * phase, 0.0j)
    return complex(value) if value.ndim == 0 else value


def pnd(spec: StateSpec, m):
    """Photon number distribution p_mm; ``m`` broadcasts like in fock_element.

    Poissonian with mean r^{2/N} for the incoherent family; supported only
    on multiples of N for the coherent family.
    """
    value = np.real(fock_element(spec, m, m))
    return float(value) if np.ndim(value) == 0 else value


def wigner(spec: StateSpec, beta):
    """Wigner function at phase-space point(s) beta (complex scalar or array).

    Sum of N displaced Gaussians for the incoherent family; for the
    coherent family the N^2 head-pair sum adds interference terms whose
    imaginary parts must cancel below tolerance.
    """
    beta = np.asarray(beta, dtype=complex)
    if not np.all(np.isfinite(beta)):
        raise InvalidInputError("phase-space points must be finite")
    alpha, n_heads = spec.alpha, spec.n_heads
    rho = root_modulus(alpha, n_heads)
    phases = root_angles(alpha, n_heads)
    heads = [rho * cmath.exp(1j * phi) for phi in phases]
    if not spec.is_coherent:
        total = np.zeros(beta.shape, dtype=float)
        for g in heads:
            total += np.exp(-2.0 * np.abs(g - beta) ** 2)
        out = TWO_OVER_PI * total / n_heads
    else:
        # One exp per term: its modulus is exp(-2|beta - (g1 + g2)/2|^2) <= 1,
        # while the overlap and the pair factor alone under- and overflow.
        log_overlaps = _log_overlaps(rho**2, n_heads)
        total = np.zeros(beta.shape, dtype=complex)
        for k1, g1 in enumerate(heads):
            for k2, g2 in enumerate(heads):
                total += np.exp(
                    log_overlaps[(k1 - k2) % n_heads]
                    - 2.0 * (np.conj(g2) - np.conj(beta)) * (g1 - beta)
                )
        n_c = normalization(alpha, n_heads)
        out = TWO_OVER_PI * _require_real(total, "Wigner value") / n_c
    if out.ndim == 0:
        return float(out)
    return out
