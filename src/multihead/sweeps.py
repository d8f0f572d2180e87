"""Parameter sweeps over the modulus and sign-structure extraction.

Sweeps hold the angle, head count and family fixed and scan the modulus;
threshold crossings found between adjacent samples are refined by bisection
on the underlying closed-form quantity.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from . import closed_form
from .errors import CapacityError, InvalidInputError
from .roots import PolarAmplitude
from .states import Family, StateSpec

DEFAULT_STEP = 0.01
BISECT_TOL = 1e-6
SAMPLES_MAX = 4_000_000
# Samples this close to a threshold count as sitting on it.
CROSSING_ATOL = 1e-12
# Midpoints at most in one evaluate of halving rows, unless the open intervals
# alone outnumber them.
_TREE_POINTS = 256


class Quantity(enum.Enum):
    MEAN_PHOTON = "mean-photon"
    MANDEL_Q = "mandel-q"
    VAR_X1 = "var-x1"
    VAR_X2 = "var-x2"
    PARITY = "parity"

    @classmethod
    def parse(cls, text: str) -> "Quantity":
        try:
            return cls(text.strip().lower())
        except ValueError:
            choices = ", ".join(q.value for q in cls)
            raise InvalidInputError(f"quantity must be one of {choices}") from None


@dataclass(frozen=True)
class SweepTemplate:
    """A state spec with the modulus left free."""

    theta_p: float
    n_heads: int
    family: Family

    def spec_at(self, r: float) -> StateSpec:
        return StateSpec(PolarAmplitude(r, self.theta_p), self.n_heads, self.family)


_FORMULAS = {
    Quantity.MEAN_PHOTON: closed_form._mean_photon,
    Quantity.MANDEL_Q: closed_form._mandel_q,
    Quantity.VAR_X1: lambda spec, r, sums: closed_form._quadrature_variances(spec, r, sums)[0],
    Quantity.VAR_X2: lambda spec, r, sums: closed_form._quadrature_variances(spec, r, sums)[1],
    Quantity.PARITY: closed_form._parity,
}


def evaluate(template: SweepTemplate, quantity: Quantity, r):
    """The quantity at modulus r, a scalar or an array of moduli.

    Mandel Q is NaN where it is undefined, at <n> = 0.  A negative or NaN
    modulus is refused before any formula runs; +inf raises CapacityError.
    The state's head sums at r are formed once and passed to the formula.
    """
    if not np.all(np.greater_equal(r, 0.0)):  # NaN fails it too
        raise InvalidInputError("moduli must be nonnegative numbers")
    # Any positive modulus gives the template's canonical angle; r supplies the moduli.
    spec = template.spec_at(1.0)
    values = _FORMULAS[quantity](spec, r, closed_form._state_sums(spec, r))
    return float(values) if np.ndim(r) == 0 else values


@dataclass
class SweepResult:
    quantity: Quantity
    template: SweepTemplate
    samples: np.ndarray  # (k, 2) rows of (r, value), r strictly increasing


def _sample_count(r_min: float, r_max: float, step: float) -> int:
    """Size of the grid min(r_min + i*step, r_max), refused above SAMPLES_MAX."""
    # Written so that NaN fails both checks.
    if not (0.0 <= r_min < r_max < math.inf):
        raise InvalidInputError("need 0 <= r_min < r_max, both finite")
    if not 0.0 < step < math.inf:
        raise InvalidInputError("step must be positive and finite")
    steps = (r_max - r_min) / step
    if not math.isfinite(steps) or round(steps) + 1 > SAMPLES_MAX:
        raise CapacityError(f"sweep exceeds {SAMPLES_MAX} samples")
    return round(steps) + 1


def sweep(
    template: SweepTemplate,
    quantity: Quantity,
    r_min: float,
    r_max: float,
    step: float = DEFAULT_STEP,
) -> SweepResult:
    """Evaluate the quantity on a modulus grid; undefined samples become gaps."""
    with np.errstate(over="ignore"):  # a last term past the largest double clips to r_max
        r = np.minimum(r_min + np.arange(_sample_count(r_min, r_max, step)) * step, r_max)
    values = evaluate(template, quantity, r)
    samples = np.column_stack((r, values))[~np.isnan(values)]
    return SweepResult(quantity=quantity, template=template, samples=samples)


def _halving_rows(ends: np.ndarray, levels: int) -> np.ndarray:
    """Each (lo, hi) row of ends with every midpoint of its next ``levels`` halvings, in order.

    Row k holds 2**levels + 1 points from lo to hi.  Each point a level adds
    is 0.5*a + 0.5*b of its neighbours a < b, the double that halving those
    ends in step forms.
    """
    for _ in range(levels):
        halves = np.empty((len(ends), 2 * ends.shape[1] - 1))
        halves[:, ::2] = ends
        np.add(0.5 * ends[:, :-1], 0.5 * ends[:, 1:], out=halves[:, 1::2])
        ends = halves
    return ends


def _tree_levels(intervals: int, width: float) -> int:
    """Levels of the next halving rows of ``intervals`` open intervals at most ``width`` wide.

    The halvings to BISECT_TOL, split evenly over the fewest calls that fit
    _TREE_POINTS midpoints; one level where the intervals alone do not fit.
    """
    most = max(1, int(math.log2(_TREE_POINTS / intervals + 1)))
    needed = max(1, math.ceil(math.log2(width) - math.log2(BISECT_TOL)))
    return math.ceil(needed / math.ceil(needed / most))


def _is_open(lo: float, hi: float) -> bool:
    """Whether bisection halves [lo, hi] again."""
    # Halving a normal double is exact, so this has the bits of
    # 0.5 * (lo + hi) wherever that sum is finite, and never overflows.
    mid = 0.5 * lo + 0.5 * hi
    # Past r ~ 5e9 the ends become adjacent doubles before BISECT_TOL.
    return hi - lo > BISECT_TOL and lo < mid < hi


def find_crossings(result: SweepResult, threshold: float) -> list[float]:
    """Moduli where the swept quantity crosses the threshold, refined by bisection.

    Samples within ``CROSSING_ATOL`` of the threshold count as sitting on it,
    so a quantity that is zero up to rounding noise yields no crossings.
    Every flagged interval is halved in step, down to BISECT_TOL or adjacent
    doubles.  One ``evaluate`` gives the next steps' values: it takes every
    open interval's sorted row of the midpoints its next halvings can reach,
    with the levels the intervals need split evenly over the fewest calls of
    at most ``_TREE_POINTS`` points.  Each step then binary-searches the row
    and reads the value of the midpoint it moves to, so the crossings are
    those of one ``evaluate`` per step.
    """
    if not math.isfinite(threshold):
        raise InvalidInputError("threshold must be finite")
    r = result.samples[:, 0]
    with np.errstate(over="ignore"):  # inf, as the scalar difference gives
        f = result.samples[:, 1] - threshold
    # With both ends off the threshold, differing signs are f0 * f1 < 0
    # without forming a product that can overflow.
    off, neg = np.abs(f) > CROSSING_ATOL, f < 0.0
    flagged = np.flatnonzero(off[:-1] & off[1:] & (neg[:-1] != neg[1:]))
    if not flagged.size:
        return []
    ends = list(zip(r[flagged].tolist(), r[flagged + 1].tolist()))
    below = neg[flagged].tolist()
    # An interval that closes stays closed: each round's rows are of the open ones.
    open_ = [k for k, (lo, hi) in enumerate(ends) if _is_open(lo, hi)]
    while open_:
        levels = _tree_levels(len(open_), max(ends[k][1] - ends[k][0] for k in open_))
        rows = _halving_rows(np.array([ends[k] for k in open_]), levels)
        inner = evaluate(result.template, result.quantity, rows[:, 1:-1].ravel())
        for k, row, values in zip(open_, rows.tolist(), inner.reshape(len(rows), -1).tolist()):
            lo, hi = 0, len(row) - 1  # indices into the row; values[i - 1] is row[i]'s value
            while hi - lo > 1 and _is_open(row[lo], row[hi]):
                mid = (lo + hi) // 2
                value = values[mid - 1]
                if value == threshold:  # a value on the threshold closes on the midpoint
                    lo = hi = mid
                elif below[k] == (value < threshold):  # lo keeps its side of the threshold
                    lo = mid
                else:
                    hi = mid
            ends[k] = row[lo], row[hi]
        open_ = [k for k in open_ if _is_open(*ends[k])]
    return [0.5 * lo + 0.5 * hi for lo, hi in ends]


def squeezing_window(
    theta_p: float,
    r_max: float,
    step: float = DEFAULT_STEP,
) -> list[tuple[int, tuple[float, float]]]:
    """Maximal modulus intervals where a two-head cat quadrature dips below 0.5.

    Returns (quadrature index, (lo, hi)) pairs; interval ends that coincide
    with the scan boundary are reported at the boundary sample.
    """
    if r_max <= 0.0:
        raise InvalidInputError("r_max must be positive")
    template = SweepTemplate(theta_p=theta_p, n_heads=2, family=Family.COHERENT)
    windows = []
    for j, quantity in ((1, Quantity.VAR_X1), (2, Quantity.VAR_X2)):
        result = sweep(template, quantity, step, r_max, step)
        r = result.samples[:, 0]
        edges = find_crossings(result, 0.5)
        flips = np.flatnonzero(np.diff(result.samples[:, 1] < 0.5, prepend=False))
        bounds = []
        for i in flips.tolist():
            # A window opens or closes at the first crossing in the preceding
            # sample interval, else at this sample; the first sample has none.
            r_prev, r_i = (float(r[i - 1]) if i else math.inf), float(r[i])
            bounds.append(next((e for e in edges if r_prev <= e <= r_i), r_i))
        if len(bounds) % 2:
            bounds.append(float(r[-1]))
        windows += [(j, window) for window in zip(bounds[::2], bounds[1::2])]
    return windows
