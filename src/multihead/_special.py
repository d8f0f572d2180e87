"""ln k!, x ln y and Poisson tails from numpy and libm, for both computation paths.

``log_factorial`` and ``xlogy`` return the bits of ``scipy.special.gammaln(k +
1)`` and ``scipy.special.xlogy``: the first is a port of cephes ``lgam`` at
integer arguments, and every log is libm's (``math.log``), which numpy's
vectorised log does not match on every input.  ``poisson_tails`` sums the
Poisson pmf upward from its saddle-point form (Loader, "Fast and accurate
computation of binomial probabilities", 2000) at levels from the mean on.  For
means up to 4200 it agrees with ``scipy.special.pdtrc`` to 1.0e-12 relative,
and with 40-digit mpmath to 1e-13; no tail is approximated, and no mean past
``fockspace.CUTOFF_MAX`` is taken.  Nothing here knows the head sums.
"""

from __future__ import annotations

import math
from functools import cache
from itertools import accumulate
from operator import mul

import numpy as np

# ln k! is tabulated for k up to the largest oracle cutoff, fockspace.CUTOFF_MAX.
_TABLE_SIZE = 4097
_LS2PI = 0.91893853320467274178  # ln sqrt(2 pi), as cephes writes it
# cephes lgam's Stirling-series coefficients in 1/x^2, for 13 <= x < 1000.
_A = (
    8.11614167470508450300e-4,
    -5.95061904284301438324e-4,
    7.93650340457716943945e-4,
    -2.77777777730099687205e-3,
    8.33333333333331927722e-2,
)
# Loader's Stirling-error series in 1/k^2: 1/12, 1/360, 1/1260, 1/1680, 1/1188.
_S = (1 / 12, 1 / 360, 1 / 1260, 1 / 1680, 1 / 1188)
# A Poisson tail sum stops once its terms fall below this fraction of it.
_NEGLIGIBLE = 2.0**-60
# ln 0! .. ln 11!, each the log of an exact double.
_SMALL = np.array([math.log(float(math.factorial(i))) for i in range(12)])


def _log(v: float) -> float:
    """libm's ln v, extended to -inf at 0 and NaN below it."""
    if v > 0.0:
        return math.log(v)
    return -math.inf if v == 0.0 else math.nan


def _libm_log(values: np.ndarray) -> np.ndarray:
    return np.fromiter(map(_log, values.ravel().tolist()), float, values.size).reshape(values.shape)


def _lgam(k: np.ndarray) -> np.ndarray:
    """ln k! as cephes lgam evaluates ln Gamma(x) at x = k + 1, for integral k >= 0 of any dtype.

    Below x = 13 it is one log of (x - 1)!, which doubles hold exactly; above,
    Stirling's (x - 1/2) ln x - x + ln sqrt(2 pi) plus a series in 1/x^2 of
    five terms below x = 1000, three up to 1e8, and none past that.
    """
    x = (k + 1).astype(float)
    q = (x - 0.5) * _libm_log(x) - x + _LS2PI
    p = 1.0 / (x * x)
    series = _A[0]
    for a in _A[1:]:
        series = series * p + a
    short = ((7.9365079365079365079365e-4 * p - 2.7777777777777777777778e-3) * p
             + 0.0833333333333333333333)
    q = np.where(x < 1000.0, q + series / x, np.where(x > 1e8, q, q + short / x))
    return np.where(x < 13.0, _SMALL[np.minimum(x, 12.0).astype(np.intp) - 1], q)


@cache
def _table() -> np.ndarray:
    table = _lgam(np.arange(_TABLE_SIZE))
    table.setflags(write=False)  # every caller shares it
    return table


def log_factorial(k):
    """ln k! for integral k >= 0 of any dtype, elementwise: the bits of scipy.special.gammaln(k + 1).

    k up to 4096 is looked up in one table; a larger k, up to a float's
    range, is evaluated where asked.
    """
    k = np.asarray(k)
    table = _table()
    far = k >= table.size
    if not np.any(far):
        return table[k.astype(np.intp, copy=False)]
    out = np.asarray(table[np.where(far, 0, k).astype(np.intp)])  # 0-d too
    out[far] = _lgam(k[far])
    return out


def xlogy(a, x):
    """a ln x with libm's log, and 0 where a = 0 and x is not NaN: scipy.special.xlogy's bits."""
    a, x = np.asarray(a, dtype=float), np.asarray(x, dtype=float)
    with np.errstate(invalid="ignore", over="ignore"):  # 0 * -inf is replaced below
        product = a * _libm_log(x)
    return np.where((a == 0) & ~np.isnan(x), 0.0, product)


def _stirling_error(k: int) -> float:
    """ln k! - ((k + 1/2) ln k - k + ln sqrt(2 pi)) for k >= 1."""
    if k <= 15:
        return float(_table()[k]) - (k + 0.5) * math.log(k) + k - _LS2PI
    kk = k * k
    return (_S[0] - (_S[1] - (_S[2] - (_S[3] - _S[4] / kk) / kk) / kk) / kk) / k


def _deviance(k: float, mu: float) -> float:
    """k ln(k/mu) + mu - k, by its series in v = (k - mu)/(k + mu) where it cancels."""
    if abs(k - mu) < 0.1 * (k + mu):
        v = (k - mu) / (k + mu)
        s, term = (k - mu) * v, 2.0 * k * v
        for j in range(3, 100, 2):
            term *= v * v
            s, last = s + term / j, s
            if s == last:
                break
        return s
    return k * math.log(k / mu) + mu - k


def _pmf(k: int, mu: float) -> float:
    """P(X = k) at k >= 1 for X ~ Poisson(mu > 0), in Loader's saddle-point form."""
    return math.exp(-_stirling_error(k) - _deviance(k, mu)) / math.sqrt(2.0 * math.pi * k)


def _ratio_sum(j: int, mu: float) -> float:
    """1 + the pmf at the levels above j >= mu, as ratios to pmf(j).

    Each term is the last times mu/(i + 1) < 1 stepping up from level i; the
    sum stops once a term is below _NEGLIGIBLE of it.
    """
    term = total = 1.0
    while term > _NEGLIGIBLE * total:
        j += 1
        term *= mu / j
        total += term
    return total


def poisson_tails(first: int, count: int, mu: float) -> np.ndarray:
    """P(X >= k) for X ~ Poisson(mu) at ``count`` levels k from ``first`` on, first >= max(mu, 1).

    mu <= fockspace.CUTOFF_MAX, as choose_cutoff ensures: at mu = 1e300, mu/k stays 1.0
    and the sum would never end.  The pmf at each level is pmf(first) times a
    running product of mu/(k + 1) < 1; the last level's tail is its pmf times
    _ratio_sum, and each level below adds its own pmf to the tail above it.
    """
    if mu == 0.0:
        return np.zeros(count)
    last = first + count - 1
    ratios = accumulate(map(mu.__truediv__, range(first + 1, last + 1)), mul, initial=1.0)
    *below, at_last = ratios  # pmf(k)/pmf(first) for k = first .. last
    sums = accumulate(reversed(below), initial=at_last * _ratio_sum(last, mu))
    return _pmf(first, mu) * np.fromiter(sums, float, count)[::-1]

