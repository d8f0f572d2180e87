"""Independent truncated Fock-space computation path.

Everything here is built from ladder-operator matrices and closed-form
displacement matrix elements in the photon-number basis, deliberately
avoiding the head-sum formulas of :mod:`multihead.closed_form` so the two
paths can cross-validate each other.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import eval_genlaguerre, gammaln
from scipy.stats import poisson

from .errors import CapacityError, CutoffInsufficientError, TruncationError
from .roots import PolarAmplitude, nth_roots
from .states import StateSpec

EPS_DEFAULT = 1e-12
CUTOFF_MIN = 32
CUTOFF_MAX = 4096


@dataclass(frozen=True)
class FockVector:
    """Pure state truncated at ``cutoff`` photon-number levels."""

    cutoff: int
    amplitudes: np.ndarray
    tail_bound: float


@dataclass(frozen=True)
class FockDensity:
    """Density matrix truncated at ``cutoff`` photon-number levels."""

    cutoff: int
    matrix: np.ndarray
    tail_bound: float

    def trace(self) -> float:
        return float(np.trace(self.matrix).real)


def choose_cutoff(alpha: PolarAmplitude, n_heads: int, eps: float = EPS_DEFAULT) -> int:
    """Cutoff large enough that the Poisson tail of the head occupation is < eps.

    The raw tail cutoff is rounded up to a multiple of N (the coherent family
    is supported there) and padded with a 4N safety margin for operator
    applications; the result never drops below CUTOFF_MIN.
    """
    if not (0.0 < eps < 1.0):
        raise TruncationError(f"eps must lie in (0, 1), got {eps}")
    mean = alpha.r ** (2.0 / n_heads) if alpha.r > 0.0 else 0.0
    d = max(1, int(math.ceil(mean)))
    while poisson.sf(d - 1, mean) >= eps:
        d += 1
        if d > CUTOFF_MAX:
            raise CapacityError(
                f"cutoff for mean occupation {mean:.3g} exceeds {CUTOFF_MAX}"
            )
    d = ((d + n_heads - 1) // n_heads) * n_heads + 4 * n_heads
    d = max(d, CUTOFF_MIN)
    if d > CUTOFF_MAX:
        raise CapacityError(f"required cutoff {d} exceeds {CUTOFF_MAX}")
    return d


def build_coherent(gamma: complex, cutoff: int, eps: float = EPS_DEFAULT) -> FockVector:
    """Coherent state amplitudes c_m = exp(-|gamma|^2/2) gamma^m / sqrt(m!).

    Each amplitude is exponentiated from its logarithm, so exp(-|gamma|^2/2)
    never underflows on its own at large |gamma|.
    """
    m = np.arange(cutoff)
    if gamma == 0:
        c = (m == 0).astype(complex)
    else:
        x = abs(gamma)
        log_c = m * math.log(x) - x * x / 2.0 - 0.5 * gammaln(m + 1)
        c = np.exp(log_c + 1j * m * cmath.phase(gamma))
    tail = max(0.0, 1.0 - float(np.vdot(c, c).real))
    if tail >= eps:
        raise TruncationError(
            f"cutoff {cutoff} leaves tail mass {tail:.3e} for |gamma|^2 = {abs(gamma)**2:.3g}"
        )
    return FockVector(cutoff=cutoff, amplitudes=c, tail_bound=tail)


def build_state(spec: StateSpec, cutoff: int | None = None, eps: float = EPS_DEFAULT):
    """Truncated state for a spec: FockVector (coherent) or FockDensity (incoherent).

    The coherent family sums the head vectors and normalizes numerically, so
    no closed-form normalization factor enters this path.
    """
    if cutoff is None:
        cutoff = choose_cutoff(spec.alpha, spec.n_heads, eps)
    heads = nth_roots(spec.alpha, spec.n_heads)
    vectors = [build_coherent(g, cutoff, eps) for g in heads]
    tail = max(v.tail_bound for v in vectors)
    if spec.is_coherent:
        summed = np.sum([v.amplitudes for v in vectors], axis=0)
        norm = np.linalg.norm(summed)
        return FockVector(cutoff=cutoff, amplitudes=summed / norm, tail_bound=tail)
    rho = np.zeros((cutoff, cutoff), dtype=complex)
    for v in vectors:
        rho += np.outer(v.amplitudes, v.amplitudes.conj())
    rho /= spec.n_heads
    return FockDensity(cutoff=cutoff, matrix=rho, tail_bound=tail)


def unnormalized_head_sum_norm_sq(spec: StateSpec, cutoff: int | None = None) -> float:
    """Squared norm of the bare head-vector sum (predicted by the closed form)."""
    if cutoff is None:
        cutoff = choose_cutoff(spec.alpha, spec.n_heads)
    heads = nth_roots(spec.alpha, spec.n_heads)
    summed = np.sum([build_coherent(g, cutoff).amplitudes for g in heads], axis=0)
    return float(np.vdot(summed, summed).real)


def annihilation(cutoff: int) -> np.ndarray:
    """Annihilation operator matrix in the truncated photon-number basis."""
    return np.diag(np.sqrt(np.arange(1.0, cutoff)), k=1)


def _check_top_occupation(amplitudes: np.ndarray, levels: int, tol: float = 1e-16):
    if levels <= 0:
        return
    top = float(np.sum(np.abs(amplitudes[-levels:]) ** 2))
    if top > tol:
        raise CutoffInsufficientError(
            f"top {levels} levels carry probability {top:.3e}; raise the cutoff"
        )


def oracle_moment(state, h: int, l: int) -> complex:
    """<a^dag^h a^l> by ladder-operator action in the truncated basis."""
    a = annihilation(state.cutoff)
    if isinstance(state, FockVector):
        _check_top_occupation(state.amplitudes, h + l)
        left = state.amplitudes.copy()
        for _ in range(h):
            left = a @ left
        right = state.amplitudes.copy()
        for _ in range(l):
            right = a @ right
        return complex(np.vdot(left, right))
    diag = np.abs(np.diag(state.matrix))
    _check_top_occupation(np.sqrt(diag), h + l)
    op = np.linalg.matrix_power(a, h).conj().T @ np.linalg.matrix_power(a, l)
    return complex(np.trace(state.matrix @ op))


def apply_annihilation_power(state: FockVector, n_heads: int) -> FockVector:
    """a^N applied to a pure state; result is unnormalized."""
    if n_heads >= state.cutoff:
        raise CutoffInsufficientError("cutoff smaller than the operator power")
    _check_top_occupation(state.amplitudes, n_heads)
    a = annihilation(state.cutoff)
    amp = state.amplitudes.copy()
    for _ in range(n_heads):
        amp = a @ amp
    return FockVector(cutoff=state.cutoff, amplitudes=amp, tail_bound=state.tail_bound)


def displaced_parity_kernel(beta: complex, cutoff: int) -> np.ndarray:
    """Matrix of D(2*beta)*Pi in the photon-number basis.

    Uses the closed-form associated-Laguerre matrix elements of the
    displacement operator; magnitudes are combined in log space.
    """
    a2 = 2.0 * complex(beta)
    x = abs(a2) ** 2
    m = np.arange(cutoff)
    mm, nn = np.meshgrid(m, m, indexing="ij")
    p = np.minimum(mm, nn)
    d = np.abs(mm - nn)
    lag = eval_genlaguerre(p, d, x)
    if x == 0.0:
        mag = np.where(d == 0, 1.0, 0.0)
        phase = np.ones_like(mag, dtype=complex)
    else:
        logmag = 0.5 * (gammaln(p + 1) - gammaln(p + d + 1)) + d * 0.5 * math.log(x) - x / 2.0
        mag = np.exp(logmag)
        unit = a2 / abs(a2)
        phase = np.where(mm >= nn, unit, -np.conj(unit)) ** d
    kernel = mag * lag * phase
    kernel *= np.where(nn % 2 == 0, 1.0, -1.0)  # parity on the right
    return kernel


def oracle_wigner(state, beta: complex, kernel: np.ndarray | None = None) -> float:
    """Wigner value via the displaced-parity trace (2/pi) Tr[rho D(2b) Pi]."""
    if kernel is None:
        mean = oracle_moment(state, 1, 1).real
        if abs(beta) ** 2 + mean > 0.5 * state.cutoff:
            raise CutoffInsufficientError(
                f"phase-space point |beta|={abs(beta):.3g} outside cutoff validity"
            )
        kernel = displaced_parity_kernel(beta, state.cutoff)
    if isinstance(state, FockVector):
        value = np.vdot(state.amplitudes, kernel @ state.amplitudes)
    else:
        value = np.trace(state.matrix @ kernel)
    return float(2.0 / math.pi * value.real)


def oracle_wigner_grid(state, betas: np.ndarray) -> np.ndarray:
    """Wigner values on an array of phase-space points (flattened order kept)."""
    flat = np.asarray(betas, dtype=complex).ravel()
    out = np.empty(flat.shape, dtype=float)
    for i, b in enumerate(flat):
        kernel = displaced_parity_kernel(b, state.cutoff)
        out[i] = oracle_wigner(state, b, kernel=kernel)
    return out.reshape(np.shape(betas))


def oracle_parity(state) -> float:
    return float(math.pi / 2.0 * oracle_wigner(state, 0.0))
