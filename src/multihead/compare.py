"""Full agreement check between the closed-form and Fock-space paths.

For one state this compares the six low-order moments, scaled by
max(1, |moment|) since they grow like r^((h+l)/N), a block of Fock
matrix elements, the photon number distribution, Wigner values on a
phase-space subgrid, and the parity; the coherent family additionally
checks the a^N eigenstate residual, scaled by max(1, |alpha|), and the
head-sum norm against the closed-form normalization factor.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import closed_form, fockspace
from .errors import CapacityError, InvalidInputError
from .states import StateSpec

TOL_DEFAULT = 1e-8

# Tail mass this small keeps truncation cross terms well under TOL_DEFAULT.
_CUTOFF_EPS = 1e-20

# Fock block 0..20, PND 0..40, and Wigner values on a 21 x 21 grid over [-3, 3]^2.
# k * 0.3 rounds the same for k and -k, so the axis is exactly mirror-symmetric
# (np.linspace(-3, 3, 21) is not, in the last bit): mirrored points and x <-> y
# swaps share |2 beta|, and the oracle's recurrence runs over 61 moduli, not 105.
_FOCK_MAX = 20
_PND_MAX = 40
_WIGNER_AXIS = np.arange(-10, 11) * 0.3
_WIGNER_POINTS = _WIGNER_AXIS + 1j * _WIGNER_AXIS[:, None]


@dataclass
class ValidationReport:
    spec: StateSpec
    tol: float
    diffs: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(d <= self.tol for d in self.diffs.values())


def validate_spec(spec: StateSpec, tol: float = TOL_DEFAULT) -> ValidationReport:
    """Run every oracle-vs-closed-form comparison for one state."""
    if not 0.0 < tol < np.inf:
        raise InvalidInputError(f"tolerance must be finite and positive, got {tol}")
    cutoff = fockspace.choose_cutoff(spec.alpha, spec.n_heads, eps=_CUTOFF_EPS)
    cutoff = max(cutoff, _PND_MAX + 8)
    state = fockspace.build_state(spec, cutoff=cutoff)
    # a^N is the one check that can refuse a built state, where its image
    # underflows; it runs before the rest, and its row is kept in its place below.
    residual = eigenstate_residual(spec, state) if spec.is_coherent else None
    report = ValidationReport(spec=spec, tol=tol)
    # The state's head sums, formed once and read by every closed-form value below.
    sums = closed_form._state_sums(spec, spec.alpha.r)

    for h, l in closed_form._MOMENT_ORDERS:
        report.diffs[f"moment({h},{l})"] = _moment_error(spec, state, h, l, sums)

    # One closed-form block over the PND's levels: its top-left corner is the
    # Fock block, and its diagonal the PND.
    rho = fockspace.density_matrix(state, _PND_MAX + 1)
    index = np.arange(_PND_MAX + 1)
    block = closed_form._fock_element(spec, index[:, None], index, sums)
    corner = slice(_FOCK_MAX + 1)
    report.diffs["fock_block"] = float(np.max(np.abs(block[corner, corner] - rho[corner, corner])))
    report.diffs["pnd"] = float(np.max(np.abs(np.real(np.diag(block)) - np.real(np.diag(rho)))))

    analytic_w, _ = closed_form._wigner_sum(spec, _WIGNER_AXIS, _WIGNER_AXIS, sums)
    oracle_w = fockspace.oracle_wigner_grid(state, _WIGNER_POINTS)
    report.diffs["wigner"] = float(np.max(np.abs(analytic_w - oracle_w)))

    analytic_parity = float(closed_form._parity(spec, spec.alpha.r, sums))
    report.diffs["parity"] = abs(analytic_parity - fockspace.oracle_parity(state))

    if spec.is_coherent:
        report.diffs["eigenstate_residual"] = residual
        n_c = closed_form._normalization(spec.n_heads, sums)
        report.diffs["head_sum_norm"] = abs(state.norm_sq - n_c) / max(1.0, n_c)

    return report


def _moment_error(spec: StateSpec, state, h: int, l: int, sums) -> float:
    """|closed-form - oracle <a^dag^h a^l>| / max(1, |closed-form moment|).

    ``sums`` is the state's ``closed_form._state_sums``.
    """
    analytic = complex(closed_form._moment(spec, spec.alpha.r, h, l, sums))
    return abs(analytic - fockspace.oracle_moment(state, h, l)) / max(1.0, abs(analytic))


def _annihilation_power(state, power: int) -> np.ndarray:
    """a^power applied to a pure state, unnormalized: level k holds the offset
    product sqrt((k+power)!/k!) c_(k+power), and the top power levels hold 0.

    Where that factor overflows a double, a is applied one power at a time.  An
    amplitude c_(k+power) below the normal doubles where c_k is above rounding
    raises CapacityError: the image cannot be formed to rounding there.
    """
    # A power at or past the cutoff reads every level, so this check refuses it.
    fockspace._check_top_occupation(fockspace._populations(state), power)
    c, k = state.amplitudes, np.arange(state.cutoff - power)
    image = np.zeros_like(c)
    with np.errstate(over="ignore", invalid="ignore"):  # inf or NaN where a factor overflows
        image[k] = fockspace._lowering_factors(k, power) * c[power:]
    far = ~np.isfinite(image)
    if far.any():
        tiny, eps = np.finfo(float).tiny, np.finfo(float).eps
        if np.any((np.abs(c[power:]) < tiny) & (np.abs(c[:-power]) > eps)):
            raise CapacityError(f"amplitudes at levels >= {power} underflow a double")
        lowered = c
        for _ in range(power):  # a|m> = sqrt(m)|m-1>
            lowered = np.sqrt(np.arange(1.0, lowered.size)) * lowered[1:]
        image[far] = lowered[far[k]]
    return image


def eigenstate_residual(spec: StateSpec, state) -> float:
    """||a^N psi - alpha psi|| / max(1, |alpha|), relative to the eigenvalue's scale."""
    image = _annihilation_power(state, spec.n_heads)
    alpha = spec.alpha.to_complex()
    return float(np.linalg.norm(image - alpha * state.amplitudes)) / max(1.0, abs(alpha))


def validation_table(report: ValidationReport) -> str:
    """Human-readable per-quantity diff table."""
    lines = []
    for name, diff in report.diffs.items():
        status = "ok" if diff <= report.tol else "MISMATCH"
        lines.append(f"{name:24s} {diff:12.3e}  {status}")
    return "\n".join(lines)
