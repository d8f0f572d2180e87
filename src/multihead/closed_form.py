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
from functools import lru_cache

import numpy as np

from ._special import log_factorial, xlogy
from .errors import (
    CapacityError,
    InternalConsistencyError,
    InvalidInputError,
    UndefinedStatisticError,
)
from .roots import PolarAmplitude, check_head_count, head_occupation, nth_roots, root_modulus
from .states import StateSpec

RESIDUE_TOL = 1e-10
TWO_OVER_PI = 2.0 / math.pi

# Up to this mu = |g|^2 the factored cat Wigner's factors are normal doubles:
# |U| <= e^mu, and |C| >= e^(-2 mu) stays above the smallest normal, e^(-708).
WIGNER_FACTOR_MU_MAX = 350.0
# Complex values in one block's U (2 MiB); a block holds this many over N points.
_WIGNER_BLOCK = 1 << 17


def _require_real(value, what: str):
    imag = np.max(np.abs(np.imag(value)), initial=0.0)
    # Written so that a NaN residue fails the test too; an empty value has none.
    if not imag <= RESIDUE_TOL * max(1.0, float(np.max(np.abs(value), initial=0.0))):
        raise InternalConsistencyError(f"{what}: imaginary residue {imag:.3e} exceeds tolerance")
    return np.real(value)


def _log_overlaps(mu, n_heads: int, turn: float = 1.0) -> np.ndarray:
    """Log head overlaps mu*(turn*w^j - 1) for j = 0..N-1 on a new last axis.

    With ``turn = 1`` their exponentials are <g_k2|g_k1> for k1 - k2 = j;
    ``turn = -1`` inserts the parity operator between the two heads.  Where
    turn*w^j is 1 (j = 0, and j = N/2 under the parity) the exponent is set to
    exactly 0: the rounded root would leave a phase of mu*1e-16, which a large
    mu turns into an O(1) imaginary residue.
    """
    omega = np.exp(2j * np.pi * np.arange(n_heads) / n_heads)
    shift = np.where(turn * omega.real == 1.0, 0.0, turn * omega - 1.0)
    return np.multiply.outer(mu, shift)


def _head_sums(mu, n_heads: int, turn: float = 1.0) -> np.ndarray:
    """Circulant head sums S_l = sum_j w^(l*j) overlap_j for l = 0..N-1 on the last axis.

    This is N times the inverse DFT of the overlaps; ``mu`` broadcasts.  Terms
    j and N - j are complex conjugates, so every S_l is real; the imaginary
    residue is checked here, where it arises.  A float mu's sums (np.float64
    is one) are formed once per (mu, N, turn) and shared read-only.
    """
    if isinstance(mu, float):
        return _kept_head_sums(mu, n_heads, turn)
    sums = n_heads * np.fft.ifft(np.exp(_log_overlaps(mu, n_heads, turn)), axis=-1)
    return _require_real(sums, "head sum")


@lru_cache(maxsize=16)
def _kept_head_sums(mu: float, n_heads: int, turn: float) -> np.ndarray:
    sums = _head_sums(np.asarray(mu), n_heads, turn)  # a 0-d array: not kept
    sums.flags.writeable = False
    return sums


def normalization(alpha: PolarAmplitude, n_heads: int) -> float:
    """Normalization factor N_c = N * S_0 of the coherent superposition.

    Equals 1 for a single head and 2 + 2*exp(-2r) for two heads.
    """
    check_head_count(n_heads)
    value = float(n_heads * _head_sums(head_occupation(alpha.r, n_heads), n_heads)[0])
    if value <= 0.0:
        raise InternalConsistencyError(f"normalization must be positive, got {value}")
    return value


def _state_sums(spec: StateSpec, r):
    """The coherent family's head sums S_l at the moduli r; None for the mixture.

    Called under np.errstate(over="ignore", invalid="ignore"), as _moment is.
    """
    if not spec.is_coherent:
        return None
    return _head_sums(head_occupation(np.asarray(r, dtype=float), spec.n_heads), spec.n_heads)


def _moment(spec: StateSpec, r, h: int, l: int, sums=None) -> np.ndarray:
    """<a^dag^h a^l> at the moduli r, with angle, head count and family from spec.

    The head sums leave r^((h+l)/N) e^(i(l-h)theta/N), nonzero only when N
    divides l - h, times S_l/S_0 for the coherent family.  A formula that
    reads several moments passes its ``_state_sums`` once.  A moment that
    overflows a double raises CapacityError.
    """
    n = spec.n_heads
    r = np.asarray(r, dtype=float)
    if (l - h) % n != 0:
        return np.zeros(r.shape, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        value = r ** ((h + l) / n) * cmath.exp(1j * (l - h) * spec.alpha.theta_p / n)
        if spec.is_coherent:
            sums = _state_sums(spec, r) if sums is None else sums
            value = value * sums[..., l % n] / sums[..., 0]
    if not np.all(np.isfinite(value)):
        raise CapacityError(f"moment <a^dag^{h} a^{l}> overflows at r = {np.max(r):.4g}")
    return value


def moment(spec: StateSpec, h: int, l: int) -> complex:
    """Moment <a^dag^h a^l> of either family."""
    if h < 0 or l < 0:
        raise InvalidInputError("moment orders must be nonnegative")
    return complex(_moment(spec, spec.alpha.r, h, l))


# The (h, l) orders of the MomentTable fields, in field order.
_MOMENT_ORDERS = ((1, 0), (0, 1), (1, 1), (2, 0), (0, 2), (2, 2))


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
    return MomentTable(*(moment(spec, h, l) for h, l in _MOMENT_ORDERS))


# Statistic formulas over an array of moduli r; angle, N and family come from spec.


def _mean_photon(spec: StateSpec, r) -> np.ndarray:
    return _moment(spec, r, 1, 1).real


def _mandel_q(spec: StateSpec, r) -> np.ndarray:
    """Mandel Q = <a^dag2 a^2>/<a^dag a> - <a^dag a>; NaN where <n> = 0."""
    with np.errstate(over="ignore", invalid="ignore"):
        sums = _state_sums(spec, r)
    n = _moment(spec, r, 1, 1, sums).real
    g2 = _moment(spec, r, 2, 2, sums).real
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(n == 0.0, np.nan, g2 / n - n)


def _quadrature_variances(spec: StateSpec, r) -> tuple[np.ndarray, np.ndarray]:
    """Var X1,2 = 1/2 + (<n> - |<a>|^2) +- (Re<a^2> - Re<a>^2), with the 1/2 added last.

    <a> = r e^(i theta) is nonzero for one head only.  Its |<a>|^2 = r^2 and
    Re<a>^2 = r^2 cos(2 theta) are formed from that modulus and angle exactly
    as <n> and Re<a^2> are, so a coherent state's brackets cancel to 0.
    Real arithmetic only, so an array of moduli rounds exactly like a scalar.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        sums = _state_sums(spec, r)
    spread = _moment(spec, r, 1, 1, sums).real
    cross = _moment(spec, r, 0, 2, sums).real
    if spec.n_heads == 1:
        a_sq = np.asarray(r, dtype=float) ** 2.0
        spread = spread - a_sq
        cross = cross - a_sq * math.cos(2.0 * spec.alpha.theta_p)
    return (spread + cross) + 0.5, (spread - cross) + 0.5


def _parity(spec: StateSpec, r) -> np.ndarray:
    """<(-1)^n>: exp(-2 mu) for the mixture, sum_j e^(-mu(1 + w^j)) / S_0 for the cat."""
    n = spec.n_heads
    mu = head_occupation(np.asarray(r, dtype=float), n)
    if not spec.is_coherent:
        return np.exp(-2.0 * mu)
    return _head_sums(mu, n, turn=-1.0)[..., 0] / _head_sums(mu, n)[..., 0]


def mean_photon(spec: StateSpec) -> float:
    return float(_mean_photon(spec, spec.alpha.r))


def mandel_q(spec: StateSpec) -> float:
    """Mandel Q = <a^dag2 a^2>/<a^dag a> - <a^dag a>; sign classifies the statistics."""
    q = float(_mandel_q(spec, spec.alpha.r))
    if math.isnan(q):  # exactly where <n> = 0
        raise UndefinedStatisticError("Mandel Q is undefined at zero amplitude")
    return q


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
    if np.any(m % 1 != 0) or np.any(n % 1 != 0):  # NaN included
        raise InvalidInputError("Fock indices must be integers")
    alpha, n_heads = spec.alpha, spec.n_heads
    mu = head_occupation(alpha.r, n_heads)
    if spec.is_coherent:
        allowed = (m % n_heads == 0) & (n % n_heads == 0)
        scale = n_heads / _head_sums(mu, n_heads)[0]
    else:
        allowed = (m - n) % n_heads == 0
        scale = 1.0
    # xlogy(0, 0) = 0 leaves p_00 = 1 at r = 0, and every other element 0.
    log_mag = xlogy((m + n) / n_heads, alpha.r) - mu - 0.5 * (log_factorial(m) + log_factorial(n))
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


def _cat_wigner_sum(beta: np.ndarray, heads: np.ndarray, log_overlaps: np.ndarray) -> np.ndarray:
    """sum_kj U_kp C_kj conj(U_jp) at the 1-D points beta, one block of points at a time.

    U_kp = exp(2 conj(beta_p) g_k - |beta_p|^2) and C_kj = exp(L_(k-j) - 2 conj(g_j) g_k)
    factor the pair term exp(L_(k-j) - 2 (conj(g_j) - conj(beta_p)) (g_k - beta_p)), so
    N exps per point replace N^2.  A point's value depends on that point alone, so
    blocking does not change its bits.
    """
    n = len(heads)
    # Built in place, row by row: C is the one N x N array (268 MB at N = 4096).
    c = np.multiply.outer(heads, -2.0 * heads.conj())
    for k in range(n):
        c[k] += log_overlaps[(k - np.arange(n)) % n]
    np.exp(c, out=c)
    total = np.empty(beta.shape, dtype=complex)
    step = max(1, _WIGNER_BLOCK // n)
    for start in range(0, beta.size, step):
        b = beta[start : start + step]
        with np.errstate(over="ignore"):
            sq = b.real * b.real + b.imag * b.imag
        b = b.conj()
        b[np.isinf(sq)] = 0.0  # U is 0 there; this keeps 2 g conj(beta) finite
        u = np.multiply.outer(2.0 * heads, b)
        u -= sq
        np.exp(u, out=u)
        # einsum, not @: at N <= 12 a BLAS call costs more than it saves.
        v = np.einsum("kj,kp->jp", c, u)
        total[start : start + step] = np.einsum("jp,jp->p", v, u.conj())
    return total


def wigner(spec: StateSpec, beta):
    """Wigner function at phase-space point(s) beta (complex scalar or array).

    Sum of N displaced Gaussians for the incoherent family; for the
    coherent family the N^2 head-pair sum adds interference terms whose
    imaginary parts must cancel below tolerance.  Up to mu = |g|^2 =
    ``WIGNER_FACTOR_MU_MAX`` the pair sum is one (points x N)(N x N)
    contraction; past it every pair term takes its own exp.
    """
    beta = np.asarray(beta, dtype=complex)
    if not np.all(np.isfinite(beta)):
        raise InvalidInputError("phase-space points must be finite")
    alpha, n_heads = spec.alpha, spec.n_heads
    head_occupation(alpha.r, n_heads)  # CapacityError where |g|^2 overflows
    heads = nth_roots(alpha, n_heads)
    if not spec.is_coherent:
        total = np.zeros(beta.shape, dtype=float)
        for g in heads:
            with np.errstate(over="ignore"):  # far out the square is inf and the term 0
                total += np.exp(-2.0 * np.abs(g - beta) ** 2)
        out = TWO_OVER_PI * total / n_heads
    else:
        # |g|^2 as the heads carry it; r^(2/N) differs from it in the last bit.
        mu = root_modulus(alpha, n_heads) ** 2
        log_overlaps = _log_overlaps(mu, n_heads)
        if mu <= WIGNER_FACTOR_MU_MAX:
            total = _cat_wigner_sum(beta.ravel(), np.array(heads), log_overlaps).reshape(beta.shape)
        else:
            # One exp per term: its modulus is exp(-2|beta - (g1 + g2)/2|^2) <= 1,
            # while the overlap and the pair factor alone under- and overflow.
            # Far out the product overflows and its exp is 0, as in the mixture.
            total = np.zeros(beta.shape, dtype=complex)
            with np.errstate(over="ignore", invalid="ignore"):
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
