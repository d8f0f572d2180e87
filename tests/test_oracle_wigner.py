"""The Fock oracle's Wigner path: one Laguerre recurrence for every point.

``laguerre_kernel`` is the displaced-parity kernel the oracle built before
the recurrence, one associated-Laguerre matrix per phase-space point; the
tests pin the recurrence against it and the batched Wigner values against
the closed form.  ``reference_oracle_wigner_grid`` is the grid as it was
summed before the recurrence ran once per distinct |2 beta|: one row per
point; the de-duplicated grid must equal it bit for bit.
``exp_phase_reference`` sums each diagonal with its own phase, where the
oracle sums them by Horner's rule; the two must agree to rounding.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.special import eval_genlaguerre, gammaln, xlogy

from multihead import (
    CapacityError,
    Family,
    FockVector,
    PolarAmplitude,
    StateSpec,
    build_coherent,
    build_state,
    choose_cutoff,
    mean_photon,
    oracle_wigner,
    wigner,
)
from multihead import fockspace
from multihead.compare import _WIGNER_AXIS, _WIGNER_POINTS
from multihead.fockspace import (
    WIGNER_BETA_SQ_MAX,
    _displacement_points,
    density_matrix,
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


def reference_displacement_diagonals(alpha: np.ndarray, cutoff: int):
    """f_p^(d) for p = 0..cutoff-1, one row per complex point alpha."""
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


def reference_acc(state, alpha: np.ndarray) -> np.ndarray:
    """sum_p (-1)^p f_p^(d) rho_(p,p+d) with the p-loop run once per point: points x d."""
    cutoff, rho = state.cutoff, density_matrix(state, state.cutoff)
    acc = np.zeros((alpha.size, cutoff), dtype=complex)
    for p, f in enumerate(reference_displacement_diagonals(alpha, cutoff)):
        acc[:, : cutoff - p] += f * ((-1) ** p * rho[p, p:])
    return acc


def reference_oracle_wigner_grid(state, betas: np.ndarray) -> np.ndarray:
    """The oracle Wigner grid with the p-loop run once per point, and each
    point's diagonals summed by Horner's rule in e^(i arg 2 beta)."""
    alpha = _displacement_points(betas)
    acc = reference_acc(state, alpha)
    acc[:, 1:] *= 2.0
    z = np.exp(1j * np.angle(alpha))
    total = acc[:, -1].copy()
    for d in range(state.cutoff - 2, -1, -1):
        total *= z
        total += acc[:, d]
    return (2.0 / math.pi * total.real).reshape(np.shape(betas))


def exp_phase_reference(state, betas: np.ndarray) -> np.ndarray:
    """The oracle Wigner grid summed term by term, each diagonal d with its own
    phase e^(i d arg 2 beta)."""
    alpha = _displacement_points(betas)
    acc = reference_acc(state, alpha)
    d = np.arange(state.cutoff)
    acc *= np.exp(1j * np.multiply.outer(np.angle(alpha), d))
    values = np.sum(np.real(acc) * np.where(d == 0, 1.0, 2.0), axis=1)
    return (2.0 / math.pi * values).reshape(np.shape(betas))


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
    rho = density_matrix(state, state.cutoff)
    want = 2.0 / math.pi * np.trace(rho @ displaced_parity_kernel(beta, state.cutoff)).real
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


RING = 1.7 * np.exp(2j * math.pi * np.arange(16) / 16)
# The ring at three radii: scaling by a power of two keeps every angle's bits,
# so 48 points share 16 phases.
RINGS = np.concatenate([scale * RING for scale in (0.5, 1.0, 2.0)])
SIGNED_ZEROS = np.array(
    [0.0, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0), 1e-3, -1e-3j, -1e-3]
)
# The largest state validate-oracle builds: the two-head cat at r = 60.
LARGEST_ORACLE_SPEC = StateSpec(PolarAmplitude(60.0, 0.7), 2, Family.COHERENT)


# A pure state and a mixture whose rho spans several row blocks and ends inside one.
MANY_BLOCK_SPECS = [
    StateSpec(PolarAmplitude(200.0, 0.7), 2, Family.COHERENT),
    StateSpec(PolarAmplitude(150.0, 3.0), 2, Family.INCOHERENT),
]


def test_the_added_point_set_and_state():
    alpha = _displacement_points(RINGS)
    assert (alpha.size, np.unique(np.angle(alpha)).size) == (48, 16)
    assert oracle_state(LARGEST_ORACLE_SPEC).cutoff == 154
    cutoffs = [oracle_state(spec).cutoff for spec in MANY_BLOCK_SPECS]
    assert [(c // fockspace._RHO_BLOCK, c % fockspace._RHO_BLOCK) for c in cutoffs] == [
        (5, 34),
        (4, 30),
    ]


@pytest.mark.parametrize(
    "points", [_WIGNER_POINTS, RING, RINGS, SIGNED_ZEROS], ids=["validate", "ring", "rings", "zeros"]
)
@pytest.mark.parametrize(
    "spec",
    [
        StateSpec(PolarAmplitude(0.05, 0.7), 12, Family.COHERENT),
        StateSpec(PolarAmplitude(math.sqrt(2.0), 0.7), 2, Family.COHERENT),
        StateSpec(PolarAmplitude(10.0, 3.0), 3, Family.COHERENT),
        StateSpec(PolarAmplitude(3.0), 1, Family.INCOHERENT),
        StateSpec(PolarAmplitude(60.0, 0.7), 4, Family.INCOHERENT),
        LARGEST_ORACLE_SPEC,
        *MANY_BLOCK_SPECS,
    ],
    ids=lambda spec: f"{spec.family.value}-{spec.n_heads}-{spec.alpha.r:g}",
)
def test_grid_equals_the_per_point_reference(spec, points):
    # Pure (coherent) and stacked (incoherent) states; the values must keep every bit.
    state = oracle_state(spec)
    assert state.amplitudes.ndim == (1 if spec.is_coherent else 2)
    got, want = oracle_wigner_grid(state, points), reference_oracle_wigner_grid(state, points)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()  # the signs of zeros too


@pytest.mark.parametrize(
    "spec, points",
    [
        (LARGEST_ORACLE_SPEC, _WIGNER_POINTS),
        *[(spec, _WIGNER_POINTS) for spec in MANY_BLOCK_SPECS],
        (StateSpec(PolarAmplitude(1600.0, 0.7), 2, Family.COHERENT), RINGS),
    ],
    ids=["largest-oracle", "many-blocks-pure", "many-blocks-mixture", "cat-1600-rings"],
)
def test_horner_sum_agrees_with_the_per_term_phases(spec, points):
    state = oracle_state(spec)
    diff = np.max(np.abs(oracle_wigner_grid(state, points) - exp_phase_reference(state, points)))
    assert diff <= 1e-13, (state.cutoff, diff)


@pytest.mark.parametrize("gammas", [[0.7 + 0.2j], [0.7 + 0.2j, -0.3j, 1.1]], ids=["pure", "mixture"])
def test_grid_forms_no_cutoff_squared_rho(gammas):
    cutoff = 2000
    rows = [build_coherent(g, cutoff).amplitudes for g in gammas]
    state = FockVector(cutoff, rows[0] if len(rows) == 1 else np.array(rows), 0.0)
    points = np.array([0.0, 0.5 + 0.5j, -1.2j])
    tracemalloc.start()
    try:
        oracle_wigner_grid(state, points)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < cutoff**2 * 16 / 4, peak


@pytest.mark.parametrize("gammas", [[0.7 + 0.2j], [0.7 + 0.2j, -0.3j, 1.1]], ids=["pure", "mixture"])
def test_phase_stage_holds_only_arrays_of_the_points(gammas):
    # 600 points on eight distinct moduli: the recurrence stays small, while
    # one points x cutoff complex array is 19.2 MB.
    cutoff = 2000
    rows = [build_coherent(g, cutoff).amplitudes for g in gammas]
    state = FockVector(cutoff, rows[0] if len(rows) == 1 else np.array(rows), 0.0)
    points = np.multiply.outer([0.25, 0.75], np.exp(2j * np.pi * np.arange(300) / 300)).ravel()
    moduli = np.unique(np.abs(_displacement_points(points))).size
    assert (points.size, moduli) == (600, 8)
    tracemalloc.start()
    try:
        oracle_wigner_grid(state, points)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # The stages run one after the other.  Forming rho holds at most three
    # blocks of rows (the one in use, the sum being formed and one outer
    # product) beside the level x modulus sums and the recurrence's buffers;
    # the Horner stage holds a few arrays of the points.
    rho_block = fockspace._RHO_BLOCK * cutoff * 16
    assert peak < 3 * rho_block + 6 * cutoff * moduli * 16 + 4 * points.size * 16, peak


def test_recurrence_runs_once_per_distinct_modulus(monkeypatch):
    rows = []
    original = fockspace._displacement_diagonals

    def counting(radii, cutoff):
        rows.append(len(radii))
        return original(radii, cutoff)

    monkeypatch.setattr(fockspace, "_displacement_diagonals", counting)
    state = build_coherent(0.5 + 0.5j, 32)
    oracle_wigner_grid(state, _WIGNER_POINTS)
    # The axis is exactly mirror-symmetric, so the 441 points fall on 61 moduli:
    # x <-> y swaps and sign flips share |2 beta|, which would split to 105 on
    # np.linspace(-3, 3, 21), whose mirror points can differ in the last bit.
    assert (_WIGNER_POINTS.size, rows) == (441, [61])


def test_validate_axis_is_exactly_mirror_symmetric():
    assert _WIGNER_AXIS.shape == (21,)
    assert np.array_equal(_WIGNER_AXIS, -_WIGNER_AXIS[::-1])
    assert (_WIGNER_AXIS[0], _WIGNER_AXIS[-1]) == (-3.0, 3.0)
    assert np.max(np.abs(_WIGNER_AXIS - np.linspace(-3.0, 3.0, 21))) <= 1e-15
