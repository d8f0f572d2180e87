"""Closed-form statistics, Fock matrix elements, Wigner functions and parity.

All quantities are evaluated directly from the finite head sums, with no
Fock-space truncation.  The heads are the N-th roots of one amplitude, so the
overlap of heads k1 and k2 depends only on j = (k1 - k2) mod N, and every
double sum over head pairs reduces to N times one circulant head sum

    S_l(mu) = sum_j w^(l*j) exp(mu*(w^j - 1)),   w = exp(2*pi*i/N), mu = r^(2/N).

Its terms j and N - j are complex conjugates, so each S_l is formed as a real
sum over the pairs, with no imaginary residue to check or discard.  The
Wigner function sums real parts of centred head-pair terms too, in one pair
loop that contracts them over a grid or point by point, and bounds each
value's rounding error: ``RESIDUE_TOL`` bounds only those values, and a bound
above it raises CapacityError, since there the fringe phase outruns double
precision.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from ._special import log_factorial, xlogy
from .errors import (
    CapacityError,
    InternalConsistencyError,
    InvalidInputError,
    UndefinedStatisticError,
)
from .roots import PolarAmplitude, head_occupation, root_modulus
from .states import Family, StateSpec

RESIDUE_TOL = 1e-10
TWO_OVER_PI = 2.0 / math.pi

# Unit roundoff, and the ulps of its exponent's sizes that bound a Wigner pair
# term's rounding error: each of R = r^(1/N), the angle, its cosine and sine
# and each product adds at most one or two.
_U = np.finfo(float).eps / 2.0
_ULPS = 16.0
# Factors per axis array in one chunk of Wigner pairs (8 MiB of doubles).
_PAIR_POINTS = 1 << 20


def _head_sums(mu, n_heads: int, rows, turn: float = 1.0) -> dict:
    """Circulant head sums S_l = sum_j w^(l*j) overlap_j, as {l mod N: S_l} for each l of rows.

    overlap_j = exp(mu*(turn*w^j - 1)) is <g_k2|g_k1> for k1 - k2 = j at
    ``turn = 1``; ``turn = -1`` puts the parity operator between the heads.
    Overlaps j and N - j are conjugates, so with c_j = 1 at j = 0 and j = N/2
    and 2 otherwise, S_l = sum_{j <= N/2} c_j Re(overlap_j w^(l*j)): real, one
    complex exp per pair and modulus, added in the order of j, elementwise, so
    a modulus has the same sums alone or in an array: one modulus forms all
    its terms with one exp and adds them with ``cumsum``, which adds in order
    (a sum over the axis may not); an array adds one j at a time.
    """
    rows = tuple(sorted({l % n_heads for l in rows}))
    shift, cos, sin = _pair_weights(n_heads, rows, turn)
    # The real part mu (turn cos - 1) of an exponent is <= 0, so where it
    # overflows it is -inf, and its exponential is exactly 0; the imaginary
    # part is at most mu.
    with np.errstate(over="ignore"):
        if np.ndim(mu) == 0:
            overlap = np.exp(mu * shift)[:, None]
            return dict(zip(rows, np.cumsum(cos * overlap.real - sin * overlap.imag, axis=0)[-1]))
        axes = (1,) * np.ndim(mu)
        cos, sin = cos.reshape(cos.shape + axes), sin.reshape(sin.shape + axes)
        sums = np.zeros((len(rows),) + np.shape(mu))
        for k, one in enumerate((shift == 0.0).tolist()):
            if one:  # exp(0) = 1
                sums += cos[k]
            else:
                overlap = np.exp(mu * shift[k])
                sums += cos[k] * overlap.real - sin[k] * overlap.imag
    return dict(zip(rows, sums))


@functools.lru_cache(maxsize=64)
def _pair_weights(n: int, rows: tuple, turn: float) -> tuple:
    """The pair sums' exponent shifts turn*w^j - 1 and weights c_j w^(l*j), j <= N/2.

    Returns (shift, cos, sin), j on the first axis and the sorted rows l on the
    second of cos and sin, as read-only arrays shared by every call with the
    same N, rows and turn.  Where turn*w^j is 1 the shift is set to exactly 0:
    the rounded root's phase mu*1e-16 would grow with mu.  For l != 0 the
    weights c_j cos(2 pi l j/N) sum to 0; the last is set so the rounded ones
    do too, in the order they are added, so S_l is exactly 0 at mu = 0.
    """
    j = np.arange(n // 2 + 1)
    shift = turn * np.exp(2j * np.pi * j / n) - 1.0
    shift[shift.real == 0.0] = 0.0  # turn*w^j = 1
    # cos x = sin(pi/2 + x), and each vanishing sine or cosine is exactly 0.
    c = np.full((j.size, 1), 2.0)
    c[0] = 1.0
    if n % 2 == 0:
        c[-1] = 1.0  # j = N/2
    lj = 4 * np.multiply.outer(j, rows)
    cos, sin = c * _sin_pi(np.array([lj + n, lj]), 2 * n)
    if rows[-1] != 0:  # there are rows l != 0, so N > 1 and j has two or more entries
        first = int(rows[0] == 0)
        cos[-1, first:] = -np.cumsum(cos[:-1, first:], axis=0)[-1]
    for weights in (shift, cos, sin):
        weights.flags.writeable = False
    return shift, cos, sin


# The head-sum rows l mod N that the statistics read: <a^dag^h a^l> reads S_l
# for l <= 2.
_STAT_ROWS = (0, 1, 2)


def _state_sums(spec: StateSpec, r, rows=_STAT_ROWS, turn: float = 1.0) -> dict:
    """The state's head sums {l mod N: S_l} at the modulus or moduli r, for l in rows.

    The one place sums are formed, and the family read for them: the cat's run
    over its N heads, the mixture's over one, whose heads never interfere.  Each
    public function, command and sweep step forms the turn-1 sums once per
    state and passes them to every formula it reads, as the required ``sums``
    argument.  A head occupation that overflows is refused here, before any
    formula runs.
    """
    n = spec.n_heads
    heads = n if spec.is_coherent else 1
    sums = _head_sums(head_occupation(r, n), heads, rows, turn)
    return {l % n: sums[l % heads] for l in rows}


def _normalization(n_heads: int, sums: np.ndarray) -> float:
    value = float(n_heads * sums[0])
    if value <= 0.0:
        raise InternalConsistencyError(f"normalization must be positive, got {value}")
    return value


def normalization(alpha: PolarAmplitude, n_heads: int) -> float:
    """Normalization factor N_c = N * S_0 of the coherent superposition.

    Equals 1 for a single head and 2 + 2*exp(-2r) for two heads.
    """
    spec = StateSpec(alpha, n_heads, Family.COHERENT)
    return _normalization(n_heads, _state_sums(spec, alpha.r))


def _moment(spec: StateSpec, r, h: int, l: int, sums) -> np.ndarray:
    """<a^dag^h a^l> at the moduli r, with angle, head count and family from spec.

    The head sums leave r^((h+l)/N) e^(i(l-h)theta/N), nonzero only when N
    divides l - h, times S_l/S_0 of ``sums``, which is exactly 1 for the
    mixture.  A moment that overflows a double raises CapacityError.
    """
    n = spec.n_heads
    r = np.asarray(r, dtype=float)
    if (l - h) % n != 0:
        return np.zeros(r.shape, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        value = r ** ((h + l) / n) * cmath.exp(1j * (l - h) * spec.alpha.theta_p / n)
        value = value * sums[l % n] / sums[0]
    if not np.all(np.isfinite(value)):
        raise CapacityError(f"moment <a^dag^{h} a^{l}> overflows at r = {np.max(r):.4g}")
    return value


def moment(spec: StateSpec, h: int, l: int) -> complex:
    """Moment <a^dag^h a^l> of either family, at integer orders h, l >= 0."""
    for order in (h, l):
        if isinstance(order, bool) or not isinstance(order, (int, np.integer)) or order < 0:
            raise InvalidInputError(f"moment orders must be nonnegative integers, got {order!r}")
    r = spec.alpha.r
    return complex(_moment(spec, r, h, l, _state_sums(spec, r, (0, l))))


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
    return _moment_table(spec, _state_sums(spec, spec.alpha.r))


def _moment_table(spec: StateSpec, sums) -> MomentTable:
    r = spec.alpha.r
    return MomentTable(*(complex(_moment(spec, r, h, l, sums)) for h, l in _MOMENT_ORDERS))


# Statistic formulas over an array of moduli r, with the state's _state_sums at
# those moduli; angle, N and family come from spec.


def _mean_photon(spec: StateSpec, r, sums) -> np.ndarray:
    return _moment(spec, r, 1, 1, sums).real


def _mandel_q(spec: StateSpec, r, sums) -> np.ndarray:
    """Mandel Q = <a^dag2 a^2>/<a^dag a> - <a^dag a>; NaN where <n> = 0."""
    n = _moment(spec, r, 1, 1, sums).real
    g2 = _moment(spec, r, 2, 2, sums).real
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(n == 0.0, np.nan, g2 / n - n)


def _quadrature_variances(spec: StateSpec, r, sums) -> tuple[np.ndarray, np.ndarray]:
    """Var X1,2 = 1/2 + (<n> - |<a>|^2) +- (Re<a^2> - Re<a>^2), with the 1/2 added last.

    <a> = r e^(i theta) is nonzero for one head only.  Its |<a>|^2 = r^2 and
    Re<a>^2 = r^2 cos(2 theta) are formed from that modulus and angle exactly
    as <n> and Re<a^2> are, so a coherent state's brackets cancel to 0.
    Real arithmetic only, so an array of moduli rounds exactly like a scalar.
    A variance that overflows a double, though its moments do not, raises
    CapacityError, as a moment does.
    """
    spread = _moment(spec, r, 1, 1, sums).real
    cross = _moment(spec, r, 0, 2, sums).real
    if spec.n_heads == 1:
        a_sq = np.asarray(r, dtype=float) ** 2.0
        spread = spread - a_sq
        cross = cross - a_sq * math.cos(2.0 * spec.alpha.theta_p)
    with np.errstate(over="ignore"):
        variances = (spread + cross) + 0.5, (spread - cross) + 0.5
    if not all(np.all(np.isfinite(v)) for v in variances):
        raise CapacityError(f"quadrature variance overflows at r = {np.max(r):.4g}")
    return variances


def _parity(spec: StateSpec, r, sums) -> np.ndarray:
    """<(-1)^n>: the turn -1 head sum S_0, sum_j e^(-mu(1 + w^j)), over the state's S_0.

    For the mixture both are one head's: a coherent state's parity exp(-2 mu)
    over 1, so a one-head mixture and a one-head cat have the same parity.
    """
    return _state_sums(spec, r, (0,), turn=-1.0)[0] / sums[0]


def mean_photon(spec: StateSpec) -> float:
    return float(_mean_photon(spec, spec.alpha.r, _state_sums(spec, spec.alpha.r)))


def mandel_q(spec: StateSpec) -> float:
    """Mandel Q = <a^dag2 a^2>/<a^dag a> - <a^dag a>; sign classifies the statistics."""
    q = float(_mandel_q(spec, spec.alpha.r, _state_sums(spec, spec.alpha.r)))
    if math.isnan(q) and spec.alpha.r > 0.0:  # <n> = 0 only by rounding
        raise CapacityError(f"<n> rounds to 0 at r = {spec.alpha.r:.4g}, so Mandel Q cannot be "
                            "formed in double precision")
    if math.isnan(q):  # exactly where <n> = 0
        raise UndefinedStatisticError("Mandel Q is undefined at zero amplitude")
    return q


@dataclass(frozen=True)
class QuadratureVariances:
    """Variances of X1 = (a + a^dag)/sqrt(2) and X2 = (a - a^dag)/(sqrt(2) i)."""

    var_x1: float
    var_x2: float


def quadrature_variances(spec: StateSpec) -> QuadratureVariances:
    var_x1, var_x2 = _quadrature_variances(spec, spec.alpha.r, _state_sums(spec, spec.alpha.r))
    return QuadratureVariances(var_x1=float(var_x1), var_x2=float(var_x2))


def parity(spec: StateSpec) -> float:
    """Photon-number parity <(-1)^n>, equal to pi/2 times the Wigner origin value."""
    return float(_parity(spec, spec.alpha.r, _state_sums(spec, spec.alpha.r)))


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
    value = _fock_element(spec, m, n, _state_sums(spec, spec.alpha.r))
    return complex(value) if value.ndim == 0 else value


def _fock_element(spec: StateSpec, m: np.ndarray, n: np.ndarray, sums) -> np.ndarray:
    """p_mn at valid integer index arrays m, n, which broadcast, with the state's sums."""
    alpha, n_heads = spec.alpha, spec.n_heads
    mu = head_occupation(alpha.r, n_heads)
    if spec.is_coherent:
        allowed = (m % n_heads == 0) & (n % n_heads == 0)
        scale = n_heads / sums[0]
    else:
        allowed = (m - n) % n_heads == 0
        scale = 1.0
    # xlogy(0, 0) = 0 leaves p_00 = 1 at r = 0, and every other element 0.
    log_mag = xlogy((m + n) / n_heads, alpha.r) - mu - 0.5 * (log_factorial(m) + log_factorial(n))
    phase = np.exp(1j * (m - n) * alpha.theta_p / n_heads)
    return np.where(allowed, scale * np.exp(log_mag) * phase, 0.0j)


def pnd(spec: StateSpec, m):
    """Photon number distribution p_mm; ``m`` broadcasts like in fock_element.

    Poissonian with mean r^{2/N} for the incoherent family; supported only
    on multiples of N for the coherent family.
    """
    value = np.real(fock_element(spec, m, m))
    return float(value) if np.ndim(value) == 0 else value


def _sin_pi(num, den: int) -> np.ndarray:
    """sin(pi * num / den) for integer num, the argument folded into [0, pi/2].

    The fold keeps each value within a few ulps of its own size, and makes it
    exactly 0 wherever num / den is an integer.
    """
    q = np.asarray(num) % (2 * den)
    sign = np.where(q < den, 1.0, -1.0)
    q = q % den
    return sign * np.sin(np.pi * np.minimum(q, den - q) / den)


def _pairs(spec: StateSpec) -> tuple:
    """Head indices (k, j) of the Wigner sum's pairs: k <= j for the cat, k = j for the mixture."""
    if spec.is_coherent:
        return np.triu_indices(spec.n_heads)
    k = np.arange(spec.n_heads)
    return k, k


def _pair_table(spec: StateSpec, k: np.ndarray, j: np.ndarray, sums) -> np.ndarray:
    """Rows weight, Re m, Im m, Re d, Im d and mu sin 2 delta of the head pairs (k, j), k <= j.

    With midpoint m = (g_k + g_j)/2, difference d = g_k - g_j and
    delta = pi (k - j)/N, the pair's term of the Wigner sum is exactly

        exp(-2|beta - m|^2 + i(2 Im(conj(beta) d) - mu sin 2 delta)),

    of modulus at most 1 at every mu.  m and d are R e^(i(theta + pi(k + j))/N)
    times cos delta and 2i sin delta, never a difference of rounded heads, and
    each sine and cosine that vanishes is exactly 0.  Pair (j, k) is the
    conjugate of pair (k, j), so a pair off the diagonal weighs 2; every weight
    carries (2/pi)/N_c, N_c = N S_0 from the state's ``sums``: N for the
    mixture, which is the diagonal pairs alone.
    """
    n = spec.n_heads
    mu = head_occupation(spec.alpha.r, n)  # CapacityError where |g|^2 overflows
    rho = root_modulus(spec.alpha, n)
    s = k - j
    angle = (spec.alpha.theta_p + np.pi * (k + j)) / n
    re, im = rho * np.cos(angle), rho * np.sin(angle)
    cos_d, sin_d = _sin_pi(n + 2 * s, 2 * n), _sin_pi(s, n)  # cos x = sin(pi/2 + x)
    scale = TWO_OVER_PI / _normalization(n, sums)
    weight = np.where(s == 0, scale, 2.0 * scale)
    return np.array([
        weight, re * cos_d, im * cos_d, -2.0 * sin_d * im, 2.0 * sin_d * re,
        mu * (2.0 * sin_d * cos_d),
    ])


def _check_bound(spec: StateSpec, bound: np.ndarray) -> None:
    """Refuse values whose error bound exceeds RESIDUE_TOL: their fringe phases are lost."""
    worst = float(np.max(bound, initial=0.0))
    if not worst <= RESIDUE_TOL:  # NaN too
        raise CapacityError(
            f"Wigner value error bound {worst:.3e} exceeds {RESIDUE_TOL:g}: the fringe phase "
            f"outruns double precision at r = {spec.alpha.r:.4g}, N = {spec.n_heads}"
        )


def _live_pairs(ex: np.ndarray, ey: np.ndarray) -> np.ndarray:
    """The pairs (rows) whose envelope is not 0 at every point of either axis; the rest add
    exactly 0."""
    return ex.any(axis=1) & ey.any(axis=1)


def _envelopes(centre: np.ndarray, coords: np.ndarray) -> tuple:
    """t = coords - centre and the envelope exp(-2 t^2), per pair (row) and coordinate."""
    with np.errstate(over="ignore"):  # far out t^2 is inf and the envelope 0
        t = coords - centre[:, None]
        return t, np.exp(-2.0 * t * t)


def _pair_factors(table: np.ndarray, xs, ys, sum_growth: float) -> tuple:
    """Row stacks (a, b) of W and (c, e) of its error bound over the live pairs of table.

    Each pair term splits by axis into

        P(x) = exp(-2(x - Re m)^2 + i(2x Im d - mu sin 2 delta)),
        Q(y) = exp(-2(y - Im m)^2 - 2iy Re d),

    each of modulus at most 1, and W(x + iy) = sum w (Re P Re Q - Im P Im Q)
    = sum_q a[q, y] b[q, x], two rows per pair; the bound is sum_q c[q, y] e[q, x].
    """
    (tx, ex), (ty, ey) = _envelopes(table[1], xs), _envelopes(table[2], ys)
    live = _live_pairs(ex, ey)
    tx, ex, ty, ey = tx[live], ex[live], ty[live], ey[live]
    weight, mx, my, dx, dy, turn = table[:, live, None]
    size_m, size_d = 4.0 * np.hypot(mx, my), 2.0 * np.hypot(dx, dy)
    # Each phase is 0 where its envelope is.  An inf or NaN in a phase or a
    # bound comes with an inf or NaN bound at that value, which is refused.
    with np.errstate(over="ignore", invalid="ignore"):
        fx = np.abs(turn) + size_d * np.abs(xs) + size_m * np.abs(tx) + tx * tx + 1.0
        fy = size_d * np.abs(ys) + size_m * np.abs(ty) + ty * ty
        fx = ex * np.where(ex > 0.0, _ULPS * fx + sum_growth, 0.0)
        fy = ey * np.where(ey > 0.0, _ULPS * fy, 0.0)
        px = np.where(ex > 0.0, xs * (2.0 * dy) - turn, 0.0)
        py = np.where(ey > 0.0, ys * (-2.0 * dx), 0.0)
        wy = weight * ey
        return (
            (np.concatenate([wy * np.cos(py), -wy * np.sin(py)]),
             np.concatenate([ex * np.cos(px), ex * np.sin(px)])),
            (np.concatenate([_U * wy, _U * weight * fy]), np.concatenate([fx, ex])),
        )


def wigner_grid(spec: StateSpec, xs, ys) -> tuple:
    """W at the grid points beta = x + iy, with a bound on each value's rounding error.

    Returns (values, bound), each of shape (len(ys), len(xs)).  The N(N+1)/2
    pair terms of _pair_table split by axis (see _pair_factors), so the grid
    takes N(N+1)/2 (nx + ny) complex exps where its points would take N^2
    each, and W is one real einsum over N(N+1) rows.  A pair whose envelope
    underflows to 0 at every point of either axis adds exactly 0 and is dropped.

    The bound weights each pair's envelope by _ULPS ulps of the sizes its
    exponent is formed from: mu |sin 2 delta| + 2|d|(|x| + |y|) for the phase,
    4|m|(|x - Re m| + |y - Im m|) + |beta - m|^2 for the envelope, and 1 for
    the exps, plus sqrt(n) ulps for the sum of n terms, its typical growth.
    Where it exceeds RESIDUE_TOL, CapacityError.
    """
    xs, ys = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
    if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(ys))):
        raise InvalidInputError("phase-space points must be finite")
    return _wigner_sum(spec, xs, ys, _state_sums(spec, spec.alpha.r))


def _wigner_sum(spec: StateSpec, xs: np.ndarray, ys: np.ndarray, sums, subscripts="qy,qx->yx"):
    """W and its bound at finite float xs, ys, with the state's sums, pairs in chunks.

    A chunk has at most _PAIR_POINTS factors per axis array; ``subscripts`` contracts
    its rows: "qy,qx->yx" on the grid of axes xs, ys, "qp,qp->p" at the points xs + i ys.
    """
    values = bound = 0.0
    k, j = _pairs(spec)
    step = max(1, _PAIR_POINTS // max(1, xs.size + ys.size))
    for start in range(0, k.size, step):
        table = _pair_table(spec, k[start : start + step], j[start : start + step], sums)
        terms, errors = _pair_factors(table, xs, ys, math.sqrt(2 * k.size))
        # einsum, not @: a threaded BLAS call costs more than these small
        # products.  Past one value, einsum adds the rows in order.
        with np.errstate(over="ignore", invalid="ignore"):
            values += np.einsum(subscripts, *terms)
            bound += np.einsum(subscripts, *errors)
    _check_bound(spec, bound)
    return values, bound


def wigner(spec: StateSpec, beta):
    """Wigner function at phase-space point(s) beta (complex scalar or array).

    wigner_grid's pair sum at each point: it agrees with a grid through the
    point within the grid's error bound, not bit for bit.  Values whose error
    bound exceeds RESIDUE_TOL raise CapacityError.
    """
    beta = np.asarray(beta, dtype=complex)
    if not np.all(np.isfinite(beta)):
        raise InvalidInputError("phase-space points must be finite")
    values, _ = _wigner_sum(
        spec, beta.real.ravel(), beta.imag.ravel(), _state_sums(spec, spec.alpha.r),
        "qp,qp->p")
    values = values.reshape(beta.shape)
    return float(values) if values.ndim == 0 else values
