"""Parameter sweeps over the modulus and sign-structure extraction.

Sweeps hold the angle, head count and family fixed and scan the modulus;
threshold crossings found between adjacent samples are refined by bisection
on the underlying closed-form quantity.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from . import closed_form
from .errors import InvalidInputError
from .roots import PolarAmplitude
from .states import Family, StateSpec

DEFAULT_STEP = 0.01
BISECT_TOL = 1e-6


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
    Quantity.VAR_X1: lambda spec, r: closed_form._quadrature_variances(spec, r)[0],
    Quantity.VAR_X2: lambda spec, r: closed_form._quadrature_variances(spec, r)[1],
    Quantity.PARITY: closed_form._parity,
}


def evaluate(template: SweepTemplate, quantity: Quantity, r):
    """The quantity at modulus r, a scalar or an array of moduli.

    Mandel Q is NaN where it is undefined, at <n> = 0.
    """
    # Any positive modulus gives the template's canonical angle; r supplies the moduli.
    values = _FORMULAS[quantity](template.spec_at(1.0), r)
    return float(values) if np.ndim(r) == 0 else values


@dataclass
class SweepResult:
    quantity: Quantity
    template: SweepTemplate
    samples: list = field(default_factory=list)  # (r, value), r strictly increasing


def sweep(
    template: SweepTemplate,
    quantity: Quantity,
    r_min: float,
    r_max: float,
    step: float = DEFAULT_STEP,
) -> SweepResult:
    """Evaluate the quantity on a modulus grid; undefined samples become gaps."""
    if not (0.0 <= r_min < r_max):
        raise InvalidInputError("need 0 <= r_min < r_max")
    if step <= 0.0:
        raise InvalidInputError("step must be positive")
    n_steps = int(round((r_max - r_min) / step))
    r = np.minimum(r_min + np.arange(n_steps + 1) * step, r_max)
    values = evaluate(template, quantity, r)
    defined = ~np.isnan(values)
    samples = list(zip(r[defined].tolist(), values[defined].tolist()))
    return SweepResult(quantity=quantity, template=template, samples=samples)


def _bisect(template, quantity, threshold, lo, hi, f_lo):
    while hi - lo > BISECT_TOL:
        mid = 0.5 * (lo + hi)
        f_mid = evaluate(template, quantity, mid) - threshold
        if f_mid == 0.0:
            return mid
        if (f_lo < 0.0) == (f_mid < 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def find_crossings(
    result: SweepResult, threshold: float, atol: float = 1e-12
) -> list[float]:
    """Moduli where the swept quantity crosses the threshold, refined by bisection.

    Samples within ``atol`` of the threshold count as sitting on it, so a
    quantity that is zero up to rounding noise yields no crossings.
    """
    crossings = []
    for (r0, v0), (r1, v1) in zip(result.samples, result.samples[1:]):
        f0, f1 = v0 - threshold, v1 - threshold
        if abs(f0) <= atol or abs(f1) <= atol or f0 * f1 >= 0.0:
            continue
        crossings.append(_bisect(result.template, result.quantity, threshold, r0, r1, f0))
    return sorted(crossings)


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
        edges = find_crossings(result, 0.5)
        inside = None
        for idx, (r, v) in enumerate(result.samples):
            if v < 0.5 and inside is None:
                lo = r
                for e in edges:
                    if idx > 0 and result.samples[idx - 1][0] <= e <= r:
                        lo = e
                        break
                inside = lo
            elif v >= 0.5 and inside is not None:
                hi = r
                for e in edges:
                    if result.samples[idx - 1][0] <= e <= r:
                        hi = e
                        break
                windows.append((j, (inside, hi)))
                inside = None
        if inside is not None:
            windows.append((j, (inside, result.samples[-1][0])))
    return windows
