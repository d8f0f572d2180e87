"""Independent truncated Fock-space computation path.

Everything here is built from ladder-operator matrices and displacement
matrix elements in the photon-number basis, deliberately avoiding the
head-sum formulas of :mod:`multihead.closed_form` so the two paths can
cross-validate each other.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, xlogy
from scipy.stats import poisson

from .errors import CapacityError, CutoffInsufficientError, TruncationError
from .roots import PolarAmplitude, nth_roots
from .states import StateSpec

EPS_DEFAULT = 1e-12
CUTOFF_MIN = 32
CUTOFF_MAX = 4096
# Largest |beta|^2 the Wigner oracle accepts: exp(-2|beta|^2) stays a normal float.
WIGNER_BETA_SQ_MAX = -0.5 * math.log(np.finfo(float).tiny)


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
    never underflows on its own at large |gamma|.  The tail bound is the
    Poisson mass at m >= cutoff, which 1 - ||c||^2 cannot resolve below
    rounding.
    """
    m = np.arange(cutoff)
    if gamma == 0:
        c = (m == 0).astype(complex)
    else:
        x = abs(gamma)
        log_c = m * math.log(x) - x * x / 2.0 - 0.5 * gammaln(m + 1)
        c = np.exp(log_c + 1j * m * cmath.phase(gamma))
    tail = float(poisson.sf(cutoff - 1, abs(gamma) ** 2))
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


def density_matrix(state) -> np.ndarray:
    """rho of either state type; a pure state gives |c><c|."""
    if isinstance(state, FockVector):
        return np.outer(state.amplitudes, state.amplitudes.conj())
    return state.matrix


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


def _displacement_points(betas) -> np.ndarray:
    """2*beta for every phase-space point, flattened; rejects points past the domain.

    The recurrence starts from e^(-2|beta|^2), which underflows to zero once
    2|beta|^2 exceeds -ln(tiny) ~ 708; the test is written so NaN fails it too.
    """
    beta = np.asarray(betas, dtype=complex).ravel()
    beta_sq = np.abs(beta) ** 2
    if not np.all(beta_sq <= WIGNER_BETA_SQ_MAX):
        raise CapacityError(
            f"phase-space point |beta|^2 = {np.max(beta_sq):.4g} exceeds "
            f"{WIGNER_BETA_SQ_MAX:.4g}, where exp(-2|beta|^2) underflows"
        )
    return 2.0 * beta


def _displacement_diagonals(alpha: np.ndarray, cutoff: int):
    """Yield f_p^(d) for p = 0..cutoff-1, shaped (points, cutoff - p) over d.

    f_p^(d) = sqrt(p!/(p+d)!) x^(d/2) e^(-x/2) L_p^(d)(x) with x = |alpha|^2,
    so <p+d|D(alpha)|p> = f e^(i d arg alpha) and <p|D(alpha)|p+d> =
    f (-e^(-i arg alpha))^d.  It is advanced in p by the normalised
    associated-Laguerre three-term recurrence (Johansson, Nation & Nori,
    Comput. Phys. Commun. 184, 1234 (2013)), for every point at once.
    """
    x = np.abs(alpha)[:, None] ** 2
    d = np.arange(cutoff)
    f = np.exp(xlogy(d / 2.0, x) - x / 2.0 - 0.5 * gammaln(d + 1))
    prev = np.zeros_like(f)
    for p in range(cutoff):
        yield f
        d = d[:-1]
        f, prev = (
            (2 * p + 1 + d - x) * f[:, :-1] - np.sqrt(p * (p + d)) * prev[:, :-1]
        ) / np.sqrt((p + 1) * (p + 1 + d)), f[:, :-1]


def displaced_parity_kernel(beta: complex, cutoff: int) -> np.ndarray:
    """Matrix of D(2*beta)*Pi in the photon-number basis.

    Column p holds (-1)^p <p+d|D(2*beta)|p> below the diagonal and row p its
    conjugate, both from the Laguerre recurrence of the Wigner oracle.
    """
    alpha = _displacement_points(beta)
    phases = np.exp(1j * np.angle(alpha[0]) * np.arange(cutoff))
    kernel = np.empty((cutoff, cutoff), dtype=complex)
    for p, f in enumerate(_displacement_diagonals(alpha, cutoff)):
        column = (-1) ** p * f[0] * phases[: cutoff - p]
        kernel[p:, p] = column
        kernel[p, p:] = column.conj()
    return kernel


def oracle_wigner(state, beta: complex) -> float:
    """Wigner value via the displaced-parity trace (2/pi) Tr[rho D(2b) Pi]."""
    return float(oracle_wigner_grid(state, beta))


def oracle_wigner_grid(state, betas: np.ndarray) -> np.ndarray:
    """Wigner values (2/pi) Tr[rho D(2b) Pi] on an array of phase-space points.

    One pass over photon number p serves every point:
    W = (2/pi) sum_p (-1)^p Re sum_d w_d f_p^(d) e^(i d arg 2b) rho_(p,p+d),
    with w_0 = 1 and w_d = 2, since the d < 0 half of the trace is the
    complex conjugate of the d > 0 half.
    """
    alpha = _displacement_points(betas)
    cutoff, rho = state.cutoff, density_matrix(state)
    acc = np.zeros((alpha.size, cutoff), dtype=complex)
    for p, f in enumerate(_displacement_diagonals(alpha, cutoff)):
        acc[:, : cutoff - p] += f * ((-1) ** p * rho[p, p:])
    d = np.arange(cutoff)
    acc *= np.exp(1j * np.multiply.outer(np.angle(alpha), d))
    values = np.sum(np.real(acc) * np.where(d == 0, 1.0, 2.0), axis=1)
    return (2.0 / math.pi * values).reshape(np.shape(betas))


def oracle_parity(state) -> float:
    return float(math.pi / 2.0 * oracle_wigner(state, 0.0))
