"""The cat Wigner function against a 60-digit pair sum, from r = 6 to past mu = 350.

The reference sums the N^2 head-pair terms exp(L_(k-j) - 2(conj g_j - conj beta)(g_k - beta))
in mpmath, with exact heads and the exact overlap exponents L, at 25 random
points of the CLI's default 201 x 201 grid and on a 5 x 5 grid around head 0.
Every value must lie within the bound ``wigner_grid`` reports, and the grid
points' worst error within what the factored evaluator it replaced read on
the same kind of points (TODAY below; it refused r = 9e5 and 1e8).
"""

import math

import mpmath as mp
import numpy as np
import pytest

from multihead import Family, PolarAmplitude, StateSpec, wigner, wigner_grid

THETA = 0.7
DEFAULT_AXIS = np.linspace(-4.0, 4.0, 201) / math.sqrt(2.0)
TODAY = {(2, 6.0): 8.9e-16, (12, 3.0): 4.4e-16, (2, 350.0): 5.5e-15, (2, 1e4): 1.6e-13,
         (12, 1e30): 6.5e-12}
CASES = [(2, 6.0), (12, 3.0), (2, 350.0), (2, 1e4), (12, 1e30), (2, 9e5), (2, 1e8)]


def reference_wigner(spec, betas):
    """The cat's Wigner values at the points betas, from the uncentred pair sum at 60 digits."""
    n = spec.n_heads
    with mp.workdps(60):
        rho = mp.mpf(spec.alpha.r) ** (mp.mpf(1) / n)
        mu = rho * rho
        heads = [rho * mp.expjpi((mp.mpf(spec.alpha.theta_p) / mp.pi + 2 * k) / n)
                 for k in range(n)]
        log_overlaps = [mu * (mp.expjpi(mp.mpf(2 * j) / n) - 1) for j in range(n)]
        n_c = n * mp.fsum(mp.exp(v) for v in log_overlaps).real
        out = []
        for beta in betas:
            b = mp.mpc(beta.real, beta.imag)
            total = mp.fsum(
                mp.exp(log_overlaps[(k - j) % n]
                       - 2 * (mp.conj(heads[j]) - mp.conj(b)) * (heads[k] - b))
                for k in range(n) for j in range(n)
            )
            out.append(float(2 / mp.pi * total.real / n_c))
    return np.array(out)


@pytest.mark.parametrize("n, r", CASES, ids=[f"{n}-{r:g}" for n, r in CASES])
def test_cat_wigner_is_within_its_bound(n, r):
    spec = StateSpec(PolarAmplitude(r, THETA), n, Family.COHERENT)
    rng = np.random.default_rng(n * 1000 + round(math.log10(r) * 10))
    iy, ix = rng.integers(0, DEFAULT_AXIS.size, 25), rng.integers(0, DEFAULT_AXIS.size, 25)
    values, bound = wigner_grid(spec, DEFAULT_AXIS, DEFAULT_AXIS)
    values, bound = values[iy, ix], bound[iy, ix]
    betas = DEFAULT_AXIS[ix] + 1j * DEFAULT_AXIS[iy]
    error = np.abs(values - reference_wigner(spec, betas))
    assert np.all(error <= bound)
    assert float(f"{np.max(error):.2g}") <= TODAY.get((n, r), np.inf)  # to TODAY's two digits
    # 25 points around head 0, where the envelope is largest.
    g0 = r ** (1.0 / n) * complex(math.cos(THETA / n), math.sin(THETA / n))
    offsets = np.linspace(-1.2, 1.2, 5)
    near, near_bound = wigner_grid(spec, g0.real + offsets, g0.imag + offsets)
    near_betas = (g0.real + offsets + 1j * (g0.imag + offsets)[:, None]).ravel()
    near_error = np.abs(near.ravel() - reference_wigner(spec, near_betas))
    assert np.all(near_error <= near_bound.ravel())
    # At arbitrary points, wigner sums the same pair terms, in another order.
    at_points = wigner(spec, np.concatenate([betas, near_betas]))
    grid_error = np.abs(at_points - np.concatenate([values, near.ravel()]))
    assert np.all(grid_error <= np.concatenate([bound, near_bound.ravel()]))
