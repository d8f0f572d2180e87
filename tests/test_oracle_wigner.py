"""The Fock oracle's Wigner path: one Laguerre recurrence for every point.

``laguerre_kernel`` is the displaced-parity kernel the oracle built before
the recurrence, one associated-Laguerre matrix per phase-space point; the
tests pin the recurrence against it and the batched Wigner values against
the closed form.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.special import eval_genlaguerre, gammaln

from multihead import (
    CapacityError,
    Family,
    PolarAmplitude,
    StateSpec,
    build_coherent,
    build_state,
    choose_cutoff,
    mean_photon,
    oracle_wigner,
    wigner,
)
from multihead.fockspace import (
    WIGNER_BETA_SQ_MAX,
    displaced_parity_kernel,
    oracle_wigner_grid,
)

# Tail mass small enough that truncation stays far below the tolerances here.
CUTOFF_EPS = 1e-20


def laguerre_kernel(beta: complex, cutoff: int) -> np.ndarray:
    """D(2*beta)*Pi from closed-form associated-Laguerre matrix elements."""
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


def oracle_state(spec: StateSpec):
    return build_state(spec, cutoff=choose_cutoff(spec.alpha, spec.n_heads, eps=CUTOFF_EPS))


@pytest.mark.parametrize("cutoff", [32, 64, 154])
def test_kernel_matches_laguerre_reference(cutoff):
    rng = np.random.default_rng(cutoff)
    betas = [0.0, 0.3 + 0.1j, -1.2 + 2.0j, 3.0 * math.sqrt(2.0), 2.0 + 2.9j]
    betas += list(rng.normal(scale=2.0, size=5) + 1j * rng.normal(scale=2.0, size=5))
    for beta in betas:
        diff = np.max(np.abs(displaced_parity_kernel(beta, cutoff) - laguerre_kernel(beta, cutoff)))
        assert diff <= 1e-13, (beta, diff)


def test_scalar_is_the_grid_view():
    state = oracle_state(StateSpec(PolarAmplitude(3.0, 0.4), 3, Family.COHERENT))
    betas = np.array([0.0, 0.7 - 0.2j, -1.5 + 1.1j])
    grid = oracle_wigner_grid(state, betas)
    # Vectorised arithmetic may round a lone point differently in the last bit.
    assert [oracle_wigner(state, b) for b in betas] == pytest.approx(list(grid), abs=1e-15)


def test_kernel_trace_equals_grid_value():
    state = oracle_state(StateSpec(PolarAmplitude(10.0, 1.1), 2, Family.INCOHERENT))
    beta = 1.3 - 0.4j
    want = 2.0 / math.pi * np.trace(state.matrix @ displaced_parity_kernel(beta, state.cutoff)).real
    assert oracle_wigner(state, beta) == pytest.approx(want, abs=1e-13)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    n_heads=st.integers(1, 6),
    r=st.floats(1e-3, 60.0),
    theta=st.floats(0.0, 2 * math.pi),
    family=st.sampled_from(list(Family)),
    points=st.lists(
        st.tuples(st.floats(0.0, 3.0 * math.sqrt(2.0)), st.floats(0.0, 2 * math.pi)),
        min_size=1,
        max_size=6,
    ),
)
def test_grid_matches_closed_form(n_heads, r, theta, family, points):
    assume(n_heads > 1 or r <= 30.0)  # one head at r = 60 needs a cutoff past CUTOFF_MAX
    spec = StateSpec(PolarAmplitude(r, theta), n_heads, family)
    betas = np.array([rad * np.exp(1j * phi) for rad, phi in points])
    diff = np.max(np.abs(oracle_wigner_grid(oracle_state(spec), betas) - wigner(spec, betas)))
    assert diff <= 1e-10


def test_point_outside_the_former_cutoff_guard():
    # The oracle used to refuse |beta|^2 + <n> > cutoff/2: here 18 + 60 > 77.
    spec = StateSpec(PolarAmplitude(60.0), 2, Family.COHERENT)
    state = build_state(spec, cutoff=154)
    beta = 3.0 * math.sqrt(2.0) * np.exp(0.25j * math.pi)
    assert abs(beta) ** 2 + mean_photon(spec) > state.cutoff / 2
    assert oracle_wigner(state, beta) == pytest.approx(wigner(spec, beta), abs=1e-10)


def test_agrees_near_the_domain_limit():
    g = math.sqrt(354.0) * np.exp(0.7j)
    state = build_coherent(g, 547, eps=CUTOFF_EPS)
    for beta in (g, 0.99 * g + 0.1j, 0.98 * g):
        want = 2.0 / math.pi * math.exp(-2.0 * abs(g - beta) ** 2)
        assert oracle_wigner(state, beta) == pytest.approx(want, abs=1e-12)


def test_points_past_the_domain_limit_raise():
    state = build_coherent(0.0, 32)
    assert 2.0 * WIGNER_BETA_SQ_MAX == pytest.approx(708.4, abs=0.1)
    past = math.sqrt(WIGNER_BETA_SQ_MAX) * 1.001
    with pytest.raises(CapacityError):
        oracle_wigner(state, past)
    with pytest.raises(CapacityError):
        oracle_wigner_grid(state, np.array([0.0, 1.0j, past * 1j]))
    with pytest.raises(CapacityError):
        displaced_parity_kernel(past, 32)
    with pytest.raises(CapacityError):
        oracle_wigner(state, complex(math.nan, 0.0))
