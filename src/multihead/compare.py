"""Full agreement check between the closed-form and Fock-space paths.

For one state this compares the six low-order moments, a block of Fock
matrix elements, the photon number distribution, Wigner values on a
phase-space subgrid, and the parity; the coherent family additionally
checks the a^N eigenstate residual and the head-sum norm against the
closed-form normalization factor.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import closed_form, fockspace
from .states import StateSpec

TOL_DEFAULT = 1e-8

# Tail mass this small keeps truncation cross terms well under TOL_DEFAULT.
_CUTOFF_EPS = 1e-20

_MOMENT_ORDERS = ((1, 0), (0, 1), (1, 1), (2, 0), (0, 2), (2, 2))


@dataclass
class ValidationReport:
    spec: StateSpec
    tol: float
    diffs: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(d <= self.tol for d in self.diffs.values())

    def worst(self) -> tuple[str, float]:
        name = max(self.diffs, key=self.diffs.get)
        return name, self.diffs[name]


def _wigner_grid_points(extent: float, points: int) -> np.ndarray:
    axis = np.linspace(-extent, extent, points)
    xx, yy = np.meshgrid(axis, axis, indexing="xy")
    return xx + 1j * yy


def validate_spec(
    spec: StateSpec,
    tol: float = TOL_DEFAULT,
    fock_max: int = 20,
    pnd_max: int = 40,
    wigner_extent: float = 3.0,
    wigner_points: int = 21,
) -> ValidationReport:
    """Run every oracle-vs-closed-form comparison for one state."""
    cutoff = fockspace.choose_cutoff(spec.alpha, spec.n_heads, eps=_CUTOFF_EPS)
    cutoff = max(cutoff, pnd_max + 8)
    state = fockspace.build_state(spec, cutoff=cutoff)
    report = ValidationReport(spec=spec, tol=tol)

    for h, l in _MOMENT_ORDERS:
        diff = abs(closed_form.moment(spec, h, l) - fockspace.oracle_moment(state, h, l))
        report.diffs[f"moment({h},{l})"] = diff

    rho = fockspace.density_matrix(state)
    index = np.arange(fock_max + 1)
    block = closed_form.fock_element(spec, index[:, None], index)
    report.diffs["fock_block"] = float(
        np.max(np.abs(block - rho[: fock_max + 1, : fock_max + 1]))
    )

    diag = np.real(np.diag(rho))[: pnd_max + 1]
    analytic_pnd = closed_form.pnd(spec, np.arange(pnd_max + 1))
    report.diffs["pnd"] = float(np.max(np.abs(analytic_pnd - diag)))

    betas = _wigner_grid_points(wigner_extent, wigner_points)
    analytic_w = np.asarray(closed_form.wigner(spec, betas), dtype=float)
    oracle_w = fockspace.oracle_wigner_grid(state, betas)
    report.diffs["wigner"] = float(np.max(np.abs(analytic_w - oracle_w)))

    report.diffs["parity"] = abs(closed_form.parity(spec) - fockspace.oracle_parity(state))

    if spec.is_coherent:
        image = fockspace.apply_annihilation_power(state, spec.n_heads)
        residual = image.amplitudes - spec.alpha.to_complex() * state.amplitudes
        report.diffs["eigenstate_residual"] = float(np.linalg.norm(residual))
        norm_sq = fockspace.unnormalized_head_sum_norm_sq(spec, cutoff=cutoff)
        n_c = closed_form.normalization(spec.alpha, spec.n_heads)
        report.diffs["head_sum_norm"] = abs(norm_sq - n_c) / max(1.0, n_c)

    return report


def validation_table(report: ValidationReport) -> str:
    """Human-readable per-quantity diff table."""
    lines = []
    for name, diff in report.diffs.items():
        status = "ok" if diff <= report.tol else "MISMATCH"
        lines.append(f"{name:24s} {diff:12.3e}  {status}")
    return "\n".join(lines)
