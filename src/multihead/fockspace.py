"""Independent truncated Fock-space computation path.

Everything here is built from ladder-operator actions and displacement
matrix elements in the photon-number basis, deliberately avoiding the
head-sum formulas of :mod:`multihead.closed_form` so the two paths can
cross-validate each other.  ln k!, x ln y and the Poisson tails come from
:mod:`multihead._special`, on numpy and libm alone.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from ._special import log_factorial, poisson_tails, xlogy
from .errors import CapacityError, CutoffInsufficientError, TruncationError
from .roots import PolarAmplitude, head_occupation, nth_roots
from .states import StateSpec

EPS_DEFAULT = 1e-12
CUTOFF_MIN = 32
CUTOFF_MAX = 4096
# Largest |beta|^2 the Wigner oracle accepts: exp(-2|beta|^2) stays a normal float.
WIGNER_BETA_SQ_MAX = -0.5 * math.log(np.finfo(float).tiny)
# Rows of rho the Wigner trace forms at a time: 4 MB at CUTOFF_MAX.
_RHO_BLOCK = 64
# Largest probability the top levels an operator reads may carry.
_TOP_OCCUPATION_TOL = 1e-16


@dataclass(frozen=True)
class FockVector:
    """State truncated at ``cutoff`` photon-number levels.

    A 1-D ``amplitudes`` is a pure state; an ``(M, cutoff)`` stack is the
    equal-weight mixture of its M rows.
    """

    cutoff: int
    amplitudes: np.ndarray
    tail_bound: float
    norm_sq: float = 1.0  # squared norm the amplitudes were divided by, if any


def choose_cutoff(alpha: PolarAmplitude, n_heads: int, eps: float = EPS_DEFAULT) -> int:
    """Cutoff large enough that the Poisson tail of the head occupation is < eps.

    A mean past CUTOFF_MAX is refused before any tail is summed: no level up to
    the cap lies past it.  The raw tail cutoff is rounded up to a multiple of N
    (the coherent family is supported there) and padded with a 4N safety margin
    for operator applications; the result never drops below CUTOFF_MIN.
    """
    if not (0.0 < eps < 1.0):
        raise TruncationError(f"eps must lie in (0, 1), got {eps}")
    mean = head_occupation(alpha.r, n_heads)
    if mean > CUTOFF_MAX:
        raise CapacityError(f"cutoff for mean occupation {mean:.3g} exceeds {CUTOFF_MAX}")
    d = max(1, int(math.ceil(mean)))
    # Bernstein's Poisson tail bound, P(X >= mean + sqrt(2 mean L) + L/3) <= e^(-L) with
    # L = -ln(eps), ends the candidate levels; one call sums the tails of them all.
    log_eps = -math.log(eps)
    last = min(mean + math.sqrt(2.0 * mean * log_eps) + log_eps / 3.0 + 3.0, CUTOFF_MAX)
    fits = poisson_tails(d, int(last) - d + 1, mean) < eps
    if not np.any(fits):
        raise CapacityError(f"cutoff for mean occupation {mean:.3g} exceeds {CUTOFF_MAX}")
    d += int(np.argmax(fits))
    d = ((d + n_heads - 1) // n_heads) * n_heads + 4 * n_heads
    d = max(d, CUTOFF_MIN)
    if d > CUTOFF_MAX:
        raise CapacityError(f"required cutoff {d} exceeds {CUTOFF_MAX}")
    return d


def build_coherent(gamma: complex, cutoff: int, eps: float = EPS_DEFAULT) -> FockVector:
    """Coherent state amplitudes c_m = exp(-|gamma|^2/2) gamma^m / sqrt(m!).

    Each amplitude is exponentiated from its logarithm, so exp(-|gamma|^2/2)
    never underflows on its own at large |gamma|; x ln y's 0 ln 0 = 0 makes
    gamma = 0 exactly the vacuum.  The tail bound is the
    Poisson mass at m >= cutoff, which 1 - ||c||^2 cannot resolve below
    rounding; a cutoff below max(|gamma|^2, 1) is at most a Poisson median: bound 1.
    """
    m, x = np.arange(cutoff), abs(gamma)
    log_c = xlogy(m, x) - x * x / 2.0 - 0.5 * log_factorial(m)
    c = np.exp(log_c + 1j * m * cmath.phase(gamma))
    mean = abs(gamma) ** 2
    tail = poisson_tails(cutoff, 1, mean)[0] if cutoff >= max(mean, 1) else 1.0
    if not tail < eps:
        raise TruncationError(
            f"cutoff {cutoff} leaves tail mass {tail:.3e} for |gamma|^2 = {mean:.3g}"
        )
    return FockVector(cutoff=cutoff, amplitudes=c, tail_bound=tail)


def build_state(spec: StateSpec, cutoff: int | None = None, eps: float = EPS_DEFAULT):
    """Truncated state for a spec: the N head vectors stacked as rows (incoherent)
    or their normalised sum (coherent).

    The coherent family divides the head sum by its norm, kept squared as
    ``norm_sq``, so no closed-form normalization factor enters this path.
    """
    if cutoff is None:
        cutoff = choose_cutoff(spec.alpha, spec.n_heads, eps)
    heads = nth_roots(spec.alpha, spec.n_heads)
    vectors = [build_coherent(g, cutoff, eps) for g in heads]
    tail = max(v.tail_bound for v in vectors)
    rows = np.array([v.amplitudes for v in vectors])
    if not spec.is_coherent:
        return FockVector(cutoff, rows, tail)
    summed = np.sum(rows, axis=0)
    norm = np.linalg.norm(summed)
    return FockVector(cutoff, summed / norm, tail, norm_sq=float(norm**2))


def _rows(state: FockVector) -> np.ndarray:
    """The state's pure components, one per row; a pure state is one row."""
    return np.atleast_2d(state.amplitudes)


def _populations(state: FockVector) -> np.ndarray:
    """Level occupations rho_kk, the mean of the rows' |c_k|^2."""
    return np.mean(np.abs(_rows(state)) ** 2, axis=0)


def _outer_mean(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Mean over rows of outer(left_row, conj(right_row)), one row at a time: no matrix product."""
    rho = np.zeros((left.shape[1], right.shape[1]), dtype=complex)
    for a, b in zip(left, right):
        rho += np.outer(a, b.conj())
    rho /= len(left)
    return rho


def density_matrix(state: FockVector, levels: int) -> np.ndarray:
    """rho over the first ``levels`` levels: the mean of the rows' |c><c|."""
    rows = _rows(state)[:, :levels]
    return _outer_mean(rows, rows)


def _lowering_factors(k: np.ndarray, power: int) -> np.ndarray:
    """sqrt((k+power)!/k!): a^power takes |k+power> to this factor times |k>."""
    return np.sqrt(np.prod([k + j for j in range(1, power + 1)], axis=0, dtype=float))


def _check_top_occupation(populations: np.ndarray, levels: int):
    top = float(np.sum(populations[::-1][:levels]))  # the top `levels` levels, or none
    if top > _TOP_OCCUPATION_TOL:
        raise CutoffInsufficientError(
            f"top {levels} levels carry probability {top:.3e}; raise the cutoff"
        )


def oracle_moment(state, h: int, l: int) -> complex:
    """<a^dag^h a^l> in the truncated basis, as the offset-diagonal sum
    sum_k sqrt((k+h)!/k!) sqrt((k+l)!/k!) rho_(k+l,k+h); no operator matrix is formed.
    """
    _check_top_occupation(_populations(state), h + l)
    rows, k = _rows(state), np.arange(state.cutoff - max(h, l))
    # Column-major, so the mean sums each level's entries contiguously (pairwise).
    product = np.multiply(rows[:, l : l + k.size], rows[:, h : h + k.size].conj(), order="F")
    entries = np.mean(product, axis=0)
    return complex(np.sum(_lowering_factors(k, h) * _lowering_factors(k, l) * entries))


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


def _displacement_diagonals(radii: np.ndarray, cutoff: int):
    """Yield f_p^(d) for p = 0..cutoff-1, shaped (cutoff - p, radii): d by modulus.

    f_p^(d) = sqrt(p!/(p+d)!) x^(d/2) e^(-x/2) L_p^(d)(x) with x = radius^2
    depends on a displacement alpha only through radius = |alpha|:
    <p+d|D(alpha)|p> = f e^(i d arg alpha) and <p|D(alpha)|p+d> =
    f (-e^(-i arg alpha))^d.  It is advanced in p by the normalised
    associated-Laguerre three-term recurrence (Johansson, Nation & Nori,
    Comput. Phys. Commun. 184, 1234 (2013)), for every radius at once, in
    three rotating buffers: a yielded array is overwritten two steps later.
    """
    x = radii**2
    d = np.arange(cutoff, dtype=float)[:, None]
    f = np.exp(xlogy(d / 2.0, x) - x / 2.0 - 0.5 * log_factorial(np.arange(cutoff))[:, None])
    shifted = np.arange(2 * cutoff, dtype=float)[:, None] - x  # row k holds k - x
    prev, new, scale = np.zeros_like(f), np.empty_like(f), np.zeros((cutoff, 1))
    for p in range(cutoff):
        yield f[: cutoff - p]
        n, d = cutoff - p - 1, d[:-1]
        step, older = new[:n], prev[:n]
        np.multiply(shifted[2 * p + 1 : 2 * p + 1 + n], f[:n], out=step)
        older *= scale[:n]  # sqrt(p (p + d)), the last step's divisor
        step -= older
        scale = np.sqrt((p + 1) * (p + 1 + d))
        step /= scale
        f, prev, new = new, f, prev


def displaced_parity_kernel(beta: complex, cutoff: int) -> np.ndarray:
    """Matrix of D(2*beta)*Pi in the photon-number basis.

    Column p holds (-1)^p <p+d|D(2*beta)|p> below the diagonal and row p its
    conjugate, both from the Laguerre recurrence of the Wigner oracle.
    """
    alpha = _displacement_points(beta)
    phases = np.exp(1j * np.angle(alpha[0]) * np.arange(cutoff))
    kernel = np.empty((cutoff, cutoff), dtype=complex)
    for p, f in enumerate(_displacement_diagonals(np.abs(alpha), cutoff)):
        column = (-1) ** p * f[:, 0] * phases[: cutoff - p]
        kernel[p:, p] = column
        kernel[p, p:] = column.conj()
    return kernel


def oracle_wigner(state, beta: complex) -> float:
    """Wigner value via the displaced-parity trace (2/pi) Tr[rho D(2b) Pi]."""
    return float(oracle_wigner_grid(state, beta))


def oracle_wigner_grid(state, betas: np.ndarray) -> np.ndarray:
    """Wigner values (2/pi) Tr[rho D(2b) Pi] on an array of phase-space points.

    W = (2/pi) Re sum_d w_d z^d sum_p (-1)^p f_p^(d) rho_(p,p+d), with
    z = e^(i arg 2b), w_0 = 1 and w_d = 2, since the d < 0 half of the trace
    is the complex conjugate of the d > 0 half.  f_p^(d) depends on a point
    only through |2b|, so one pass over photon number p sums the p-loop once
    per distinct modulus, into a level x modulus array; rho is formed
    _RHO_BLOCK rows at a time, never whole.  The sum over d then runs by
    Horner's rule from the top diagonal down, each point taking its modulus'
    element of diagonal d at each step: one complex exp per point, and
    O(points) memory.
    """
    alpha = _displacement_points(betas)
    radii, at_radius = np.unique(np.abs(alpha), return_inverse=True)
    cutoff, rows = state.cutoff, _rows(state)
    acc = np.zeros((cutoff, radii.size), dtype=complex)
    for p, f in enumerate(_displacement_diagonals(radii, cutoff)):
        if p % _RHO_BLOCK == 0:  # rho's next _RHO_BLOCK rows, from column p on
            block = _outer_mean(rows[:, p : p + _RHO_BLOCK], rows[:, p:])
            np.negative(block[1::2], out=block[1::2])  # row i carries (-1)^(p+i) = (-1)^i
        i = p % _RHO_BLOCK
        acc[: cutoff - p] += f * block[i, i:, None]
    acc[1:] *= 2.0
    z = np.exp(1j * np.angle(alpha))
    total = acc[cutoff - 1][at_radius]
    for d in range(cutoff - 2, -1, -1):
        total *= z
        total += acc[d][at_radius]
    return (2.0 / math.pi * total.real).reshape(np.shape(betas))


def oracle_parity(state) -> float:
    """Photon-number parity sum_p (-1)^p rho_pp, read off the diagonal."""
    populations = _populations(state)
    return float(np.sum(populations[::2]) - np.sum(populations[1::2]))
