import ast
import math
from pathlib import Path

import numpy as np
import pytest
from scipy.special import pdtrc
from scipy.stats import poisson

import multihead
from multihead import closed_form, fockspace
from multihead import (
    CapacityError,
    CutoffInsufficientError,
    Family,
    PolarAmplitude,
    StateSpec,
    TruncationError,
    build_coherent,
    build_state,
    choose_cutoff,
    mean_photon,
    nth_roots,
    moment,
    normalization,
    oracle_moment,
    oracle_parity,
    oracle_wigner,
    validate_spec,
    wigner,
)
from multihead.closed_form import _state_sums
from multihead.compare import TOL_DEFAULT, _moment_error
from multihead.roots import head_occupation
from multihead.fockspace import (
    CUTOFF_MAX,
    CUTOFF_MIN,
    FockVector,
    _annihilation_power,
    density_matrix,
    eigenstate_residual,
    oracle_wigner_grid,
)

ALPHA = PolarAmplitude.from_cartesian(1.0, 1.0)


def reference_choose_cutoff(alpha, n_heads, eps):
    """choose_cutoff as it was written with scipy.stats.poisson.sf."""
    if not (0.0 < eps < 1.0):
        raise TruncationError(f"eps must lie in (0, 1), got {eps}")
    mean = alpha.r ** (2.0 / n_heads) if alpha.r > 0.0 else 0.0
    d = max(1, int(math.ceil(mean)))
    while poisson.sf(d - 1, mean) >= eps:
        d += 1
        if d > CUTOFF_MAX:
            raise CapacityError(f"cutoff for mean occupation {mean:.3g} exceeds {CUTOFF_MAX}")
    d = ((d + n_heads - 1) // n_heads) * n_heads + 4 * n_heads
    d = max(d, CUTOFF_MIN)
    if d > CUTOFF_MAX:
        raise CapacityError(f"required cutoff {d} exceeds {CUTOFF_MAX}")
    return d


def scan_choose_cutoff(alpha, n_heads, eps):
    """choose_cutoff as a scan with one scalar pdtrc call per level."""
    if not (0.0 < eps < 1.0):
        raise TruncationError(f"eps must lie in (0, 1), got {eps}")
    mean = head_occupation(alpha.r, n_heads)
    if mean > CUTOFF_MAX:  # every level up to the cap lies below the mean
        raise CapacityError(f"cutoff for mean occupation {mean:.3g} exceeds {CUTOFF_MAX}")
    d = max(1, int(math.ceil(mean)))
    while pdtrc(d - 1, mean) >= eps:
        d += 1
        if d > CUTOFF_MAX:
            raise CapacityError(f"cutoff for mean occupation {mean:.3g} exceeds {CUTOFF_MAX}")
    d = ((d + n_heads - 1) // n_heads) * n_heads + 4 * n_heads
    d = max(d, CUTOFF_MIN)
    if d > CUTOFF_MAX:
        raise CapacityError(f"required cutoff {d} exceeds {CUTOFF_MAX}")
    return d


def cutoff_or_error(choose, alpha, n_heads, eps):
    try:
        return choose(alpha, n_heads, eps)
    except CapacityError as exc:
        return str(exc)


POISSON_GRID = [
    (n, r, eps)
    for n in (1, 2, 3, 4, 6, 12)
    for r in (0.0, 1e-3, math.sqrt(2), 10.0, 60.0, 1600.0)
    for eps in (1e-12, 1e-20)
]


class TestChooseCutoff:
    def test_floor_dominates_at_small_mean(self):
        assert choose_cutoff(ALPHA, 2, 1e-12) >= 32

    def test_vacuum(self):
        assert choose_cutoff(PolarAmplitude(0.0), 1, 1e-12) == 32

    def test_capacity_error_for_huge_mean(self):
        with pytest.raises(CapacityError):
            choose_cutoff(PolarAmplitude(100.0), 1, 1e-12)

    @pytest.mark.parametrize("eps", [1e-20, 0.9])
    @pytest.mark.parametrize("mean", [4097.0, 1e4, 1e300])
    def test_a_mean_past_the_cap_is_refused_before_any_tail(self, monkeypatch, mean, eps):
        def fail(*args):
            raise AssertionError("a tail was summed")

        monkeypatch.setattr(fockspace, "poisson_tails", fail)
        alpha = PolarAmplitude(math.sqrt(mean))
        want = f"cutoff for mean occupation {head_occupation(alpha.r, 1):.3g} exceeds {CUTOFF_MAX}"
        with pytest.raises(CapacityError) as refusal:
            choose_cutoff(alpha, 1, eps)
        assert str(refusal.value) == want

    def test_multiple_of_heads_plus_margin(self):
        d = choose_cutoff(PolarAmplitude(3.0), 5, 1e-12)
        assert (d - 20) % 5 == 0 or d % 5 == 0

    def test_equals_the_poisson_sf_scan(self):
        # The capacity cases (N = 1 at r = 1600, and at r = 60 with eps 1e-20)
        # must raise the same error.
        errors = 0
        for n, r, eps in POISSON_GRID:
            alpha = PolarAmplitude(r, 0.3)
            got = cutoff_or_error(choose_cutoff, alpha, n, eps)
            assert got == cutoff_or_error(reference_choose_cutoff, alpha, n, eps), (n, r, eps)
            errors += isinstance(got, str)
        assert errors >= 3

    def test_equals_the_scalar_scan(self):
        # Means from 0 to past the cap, both sides of every integer level
        # that ends a scan, and a mean so large that only its first level is tried.
        means = np.concatenate([
            np.linspace(0.0, 4300.0, 173),
            [1e-300, 0.5, 1.0, 1.0 + 2e-16, 7.0 - 1e-12, 7.0, 60.0, 3900.5, 4096.0, 4097.0, 1e300],
        ])
        outcomes = set()
        for mean in means.tolist():
            for n in (1, 3) if mean < 1e200 else (1,):
                alpha = PolarAmplitude(mean ** (n / 2.0))
                for eps in (1e-300, 1e-20, 1e-12, 0.5, 0.9):
                    got = cutoff_or_error(choose_cutoff, alpha, n, eps)
                    want = cutoff_or_error(scan_choose_cutoff, alpha, n, eps)
                    assert got == want, (mean, n, eps)
                    outcomes.add(got.split()[0] if isinstance(got, str) else "fits")
        # Both refusals occur: no level fits, and the level that fits is past the cap.
        assert outcomes == {"fits", "cutoff", "required"}


class TestBuildCoherent:
    def test_vacuum(self):
        v = build_coherent(0.0, 32)
        assert v.amplitudes[0] == 1.0
        assert np.all(v.amplitudes[1:] == 0.0)

    def test_ground_amplitude(self):
        v = build_coherent(1.0, 40)
        assert v.amplitudes[0] == pytest.approx(math.exp(-0.5), abs=1e-15)

    def test_overlaps_match_closed_form(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            g1 = complex(*rng.normal(scale=1.2, size=2))
            g2 = complex(*rng.normal(scale=1.2, size=2))
            v1 = build_coherent(g1, 64)
            v2 = build_coherent(g2, 64)
            overlap = np.vdot(v1.amplitudes, v2.amplitudes)
            want = np.exp(-(abs(g1) ** 2 + abs(g2) ** 2) / 2 + np.conj(g1) * g2)
            assert overlap == pytest.approx(want, abs=1e-10)

    def test_tail_bound_is_tight(self):
        v = build_coherent(1.5, 48)
        assert 0.0 <= v.tail_bound < 1e-10

    def test_tail_bound_is_the_poisson_tail(self):
        # 1 - ||c||^2 would read rounding noise (~1e-13) here.
        spec = StateSpec(PolarAmplitude(1600.0), 2, Family.COHERENT)
        state = build_state(spec, cutoff=1994, eps=1e-20)
        assert 0.0 < state.tail_bound < 1e-20

    def test_too_small_cutoff_raises(self):
        with pytest.raises(TruncationError):
            build_coherent(5.0, 40)

    def test_tail_bound_agrees_with_poisson_sf(self):
        # The tail is summed in multihead._special, not taken from scipy, so it
        # agrees to a tolerance (3.0e-13 at worst on this grid), not bit for bit.
        checked = 0
        for n, r, eps in POISSON_GRID:
            alpha = PolarAmplitude(r, 0.3)
            try:
                cutoff = choose_cutoff(alpha, n, eps)
            except CapacityError:
                continue
            for g in nth_roots(alpha, n):
                tail = build_coherent(g, cutoff, eps).tail_bound
                want = float(poisson.sf(cutoff - 1, abs(g) ** 2))
                assert tail == pytest.approx(want, rel=1e-11, abs=0.0), (n, r, eps, g)
                checked += 1
        assert checked > 100

    @pytest.mark.parametrize("gamma, cutoff", [(0.0, 0), (1.0, 0), (math.sqrt(10.5), 1),
                                               (math.sqrt(10.5), 5), (math.sqrt(10.5), 10)])
    def test_a_cutoff_below_the_mean_bounds_the_tail_by_one(self, gamma, cutoff):
        # Cutoff 0 keeps no level at all.  At or below a Poisson median (mean
        # 10.5) the tail mass is at least 1/2, so its bound is 1, and even
        # eps = 0.9 refuses it.
        with pytest.raises(TruncationError, match="tail mass 1.000e\\+00"):
            build_coherent(gamma, cutoff, eps=0.9)

    @pytest.mark.parametrize("family", list(Family))
    def test_state_at_cutoff_zero_raises(self, family):
        with pytest.raises(TruncationError):
            build_state(StateSpec(ALPHA, 2, family), cutoff=0)


class TestBuildState:
    def test_single_head_reduces_to_coherent(self):
        spec = StateSpec(ALPHA, 1, Family.COHERENT)
        state = build_state(spec, cutoff=48)
        direct = build_coherent(ALPHA.to_complex(), 48)
        assert np.max(np.abs(state.amplitudes - direct.amplitudes)) < 1e-12

    def test_cat_support_is_multiples_of_heads(self):
        spec = StateSpec(ALPHA, 3, Family.COHERENT)
        state = build_state(spec)
        off = [abs(c) for m, c in enumerate(state.amplitudes) if m % 3 != 0]
        assert max(off) < 1e-12

    def test_mixture_diagonal_is_poissonian(self):
        spec = StateSpec(ALPHA, 3, Family.INCOHERENT)
        state = build_state(spec)
        rho = density_matrix(state, state.cutoff)
        mu = ALPHA.r ** (2.0 / 3)
        for m in range(15):
            want = mu**m * math.exp(-mu) / math.factorial(m)
            assert rho[m, m].real == pytest.approx(want, abs=1e-12)

    def test_mixture_density_properties(self):
        state = build_state(StateSpec(ALPHA, 4, Family.INCOHERENT))
        assert state.amplitudes.shape == (4, state.cutoff)
        rho = density_matrix(state, state.cutoff)
        assert np.max(np.abs(rho - rho.conj().T)) < 1e-12
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-10)
        eigs = np.linalg.eigvalsh(rho)
        assert eigs.min() >= -1e-10

    @pytest.mark.parametrize("family", list(Family))
    def test_large_modulus_does_not_underflow(self, family):
        # exp(-|gamma|^2/2) alone underflows to 0 once |gamma|^2 exceeds ~1490
        spec = StateSpec(PolarAmplitude(1600.0), 2, family)
        state = build_state(spec, cutoff=choose_cutoff(spec.alpha, 2, eps=1e-20))
        want = mean_photon(spec)
        assert abs(oracle_moment(state, 1, 1) - want) <= TOL_DEFAULT * want

    def test_head_sum_norm_matches_normalization(self):
        for n in range(1, 6):
            spec = StateSpec(ALPHA, n, Family.COHERENT)
            norm_sq = build_state(spec).norm_sq
            assert norm_sq == pytest.approx(normalization(ALPHA, n), rel=1e-10)


def reference_mixture(spec, cutoff):
    """The mixture's density matrix as it was built before states became row stacks."""
    rho = np.zeros((cutoff, cutoff), dtype=complex)
    for g in nth_roots(spec.alpha, spec.n_heads):
        v = build_coherent(g, cutoff).amplitudes
        rho += np.outer(v, v.conj())
    rho /= spec.n_heads
    return rho


ONE_FORMAT_CASES = [(n, r) for n in (1, 2, 3, 12) for r in (0.0, 0.5, math.sqrt(2), 10.0)]


class TestOneStateFormat:
    """A 1-D FockVector is a pure state; an (M, cutoff) stack is the mixture of its rows."""

    @pytest.mark.parametrize("n,r", ONE_FORMAT_CASES)
    def test_mixture_is_the_head_rows(self, n, r):
        spec = StateSpec(PolarAmplitude(r, 0.7), n, Family.INCOHERENT)
        state = build_state(spec)
        assert state.amplitudes.shape == (n, state.cutoff)
        heads = [build_coherent(g, state.cutoff).amplitudes for g in nth_roots(spec.alpha, n)]
        assert np.array_equal(state.amplitudes, heads)

    @pytest.mark.parametrize("n,r", ONE_FORMAT_CASES)
    def test_density_matrix_equals_the_summed_outer_products(self, n, r):
        spec = StateSpec(PolarAmplitude(r, 0.7), n, Family.INCOHERENT)
        state = build_state(spec)
        rho = density_matrix(state, state.cutoff)
        assert np.array_equal(rho, reference_mixture(spec, state.cutoff))

    @pytest.mark.parametrize("family", list(Family))
    @pytest.mark.parametrize("levels", [1, 21, 41])
    def test_levels_give_the_leading_block(self, family, levels):
        state = build_state(StateSpec(PolarAmplitude(3.0, 0.7), 3, family))
        full = density_matrix(state, state.cutoff)
        assert np.array_equal(density_matrix(state, levels), full[:levels, :levels])

    def test_pure_density_matrix_is_the_outer_product(self):
        state = build_state(StateSpec(PolarAmplitude(3.0, 0.7), 3, Family.COHERENT))
        c = state.amplitudes
        assert np.array_equal(density_matrix(state, state.cutoff), np.outer(c, c.conj()))

    @pytest.mark.parametrize("n", [1, 2, 3, 12])
    def test_pure_state_equals_its_one_row_stack(self, n):
        spec = StateSpec(PolarAmplitude(2.0, 0.7), n, Family.COHERENT)
        pure = build_state(spec, cutoff=choose_cutoff(spec.alpha, n, eps=1e-20))
        stack = FockVector(pure.cutoff, pure.amplitudes[None, :], pure.tail_bound)
        for h, l in ((1, 0), (0, 1), (1, 1), (2, 0), (0, 2), (2, 2), (2, 1)):
            assert oracle_moment(stack, h, l) == oracle_moment(pure, h, l)
        assert oracle_parity(stack) == oracle_parity(pure)
        betas = np.array([0.0, 0.7 - 0.2j, -1.5 + 1.1j, 2.0j])
        assert np.array_equal(oracle_wigner_grid(stack, betas), oracle_wigner_grid(pure, betas))


class TestOracleMoment:
    def test_vacuum(self):
        v = build_coherent(0.0, 32)
        assert oracle_moment(v, 1, 1) == 0

    def test_coherent_mean(self):
        g = 0.8 - 0.6j
        v = build_coherent(g, 48)
        assert oracle_moment(v, 1, 1) == pytest.approx(abs(g) ** 2, abs=1e-10)

    def test_two_head_cat_mean(self):
        spec = StateSpec(ALPHA, 2, Family.COHERENT)
        state = build_state(spec)
        want = ALPHA.r * math.tanh(ALPHA.r)
        assert oracle_moment(state, 1, 1) == pytest.approx(want, abs=1e-8)

    def test_matches_closed_form_three_heads(self):
        spec = StateSpec(ALPHA, 3, Family.COHERENT)
        state = build_state(spec)
        assert oracle_moment(state, 1, 1) == pytest.approx(moment(spec, 1, 1), abs=1e-8)

    def test_cutoff_doubling_is_stable(self):
        spec = StateSpec(ALPHA, 2, Family.COHERENT)
        d = choose_cutoff(ALPHA, 2)
        small = build_state(spec, cutoff=d)
        large = build_state(spec, cutoff=2 * d)
        for h, l in ((1, 1), (2, 2), (2, 0)):
            assert oracle_moment(small, h, l) == pytest.approx(
                oracle_moment(large, h, l), abs=1e-10
            )

    def test_moment_error_is_relative_to_the_moment(self):
        # At r = 30 the exact state's moment(2,2) = r^4 = 8.1e5 is off by ~1e-7
        # absolute, 1.7e-13 relative.
        spec = StateSpec(PolarAmplitude(30.0), 1, Family.INCOHERENT)
        cutoff = choose_cutoff(spec.alpha, 1, eps=1e-20)
        exact = build_state(spec, cutoff=cutoff)
        off_spec = StateSpec(PolarAmplitude(30.0 * (1 + 1e-6)), 1, Family.INCOHERENT)
        off = build_state(off_spec, cutoff=cutoff)
        sums = _state_sums(spec, spec.alpha.r)
        for h, l in ((1, 0), (1, 1), (2, 2)):
            assert _moment_error(spec, exact, h, l, sums) <= TOL_DEFAULT
            assert _moment_error(spec, off, h, l, sums) > TOL_DEFAULT


def matrix_annihilation(cutoff):
    """The dense truncated a that the ladder operators used to be built from."""
    return np.diag(np.sqrt(np.arange(1.0, cutoff)), k=1)


def matrix_moment(state, h, l):
    a = matrix_annihilation(state.cutoff)
    if state.amplitudes.ndim == 1:
        left = state.amplitudes.copy()
        for _ in range(h):
            left = a @ left
        right = state.amplitudes.copy()
        for _ in range(l):
            right = a @ right
        return complex(np.vdot(left, right))
    op = np.linalg.matrix_power(a, h).conj().T @ np.linalg.matrix_power(a, l)
    return complex(np.trace(density_matrix(state, state.cutoff) @ op))


@pytest.mark.parametrize("family", list(Family))
@pytest.mark.parametrize("cutoff,heads,r", [(64, 2, 10.0), (154, 2, 60.0), (154, 12, 60.0)])
def test_ladder_actions_equal_the_matrix_form(family, cutoff, heads, r):
    spec = StateSpec(PolarAmplitude(r, 0.4), heads, family)
    state = build_state(spec, cutoff=cutoff)
    for h, l in ((1, 0), (0, 1), (1, 1), (2, 0), (0, 2), (2, 2), (2, 1)):
        want = matrix_moment(state, h, l)
        assert abs(oracle_moment(state, h, l) - want) <= 1e-13 * max(1.0, abs(want))
    if family is Family.COHERENT:
        # (k + 12)!/k! passes 2**63 here, so the factors must not be integer products.
        want = np.linalg.matrix_power(matrix_annihilation(cutoff), heads) @ state.amplitudes
        got = _annihilation_power(state, heads)
        assert np.max(np.abs(got - want)) <= 1e-13 * max(1.0, np.max(np.abs(want)))


class TestAnnihilationPower:
    def test_cat_is_eigenstate(self):
        spec = StateSpec(ALPHA, 3, Family.COHERENT)
        state = build_state(spec)
        image = _annihilation_power(state, 3)
        residual = image - ALPHA.to_complex() * state.amplitudes
        assert np.linalg.norm(residual) < 1e-8

    def test_residual_is_relative_to_the_eigenvalue(self):
        # The absolute residual of the exact state is ~5e-8 at |alpha| = 1600.
        spec = StateSpec(PolarAmplitude(1600.0), 2, Family.COHERENT)
        cutoff = choose_cutoff(spec.alpha, 2, eps=1e-20)
        assert eigenstate_residual(spec, build_state(spec, cutoff=cutoff)) <= TOL_DEFAULT
        off = StateSpec(PolarAmplitude(1600.0 * (1 + 1e-6)), 2, Family.COHERENT)
        assert eigenstate_residual(spec, build_state(off, cutoff=cutoff)) > TOL_DEFAULT

    def test_vacuum_annihilates(self):
        v = build_coherent(0.0, 32)
        image = _annihilation_power(v, 1)
        assert np.linalg.norm(image) == 0.0

    def test_coherent_eigenstate(self):
        g = 0.5 + 0.25j
        v = build_coherent(g, 48)
        image = _annihilation_power(v, 1)
        assert np.linalg.norm(image - g * v.amplitudes) < 1e-10

    @pytest.mark.parametrize("r", [0.5, 1.0, 3.0])
    @pytest.mark.parametrize("heads", [1, 2, 3, 4])
    def test_mixture_is_a_mixture_of_eigenstates(self, heads, r):
        # Each row is a head, an N-th root of alpha: a^N takes it to alpha times itself.
        spec = StateSpec(PolarAmplitude(r, 0.7), heads, Family.INCOHERENT)
        cutoff = max(choose_cutoff(spec.alpha, heads, eps=1e-20), 48)
        assert eigenstate_residual(spec, build_state(spec, cutoff=cutoff)) <= TOL_DEFAULT

    @staticmethod
    def row_and_stack(spec):
        """The cat at validate's cutoff, and the same amplitudes as a one-row stack."""
        row = build_state(spec, cutoff=choose_cutoff(spec.alpha, spec.n_heads, eps=1e-20))
        return row, FockVector(row.cutoff, row.amplitudes[None, :], row.tail_bound, row.norm_sq)

    # From N = 170 the factors sqrt((k+N)!/k!) overflow and a is applied power by power.
    @pytest.mark.parametrize("heads", [2, 3, 170, 300])
    def test_one_row_stack_is_its_row(self, heads):
        spec = StateSpec(PolarAmplitude(1.0), heads, Family.COHERENT)
        row, stack = self.row_and_stack(spec)
        image = _annihilation_power(row, heads)
        assert np.array_equal(_annihilation_power(stack, heads), image[None, :])
        assert eigenstate_residual(spec, stack) == eigenstate_residual(spec, row)

    # From N = 301 the level-N amplitude, about 1/sqrt(N!), underflows a double.
    @pytest.mark.parametrize("heads", [301, 512])
    def test_one_row_stack_refuses_as_its_row(self, heads):
        row, stack = self.row_and_stack(StateSpec(PolarAmplitude(1.0), heads, Family.COHERENT))
        messages = []
        for state in (row, stack):
            with pytest.raises(CapacityError, match="underflow") as refused:
                _annihilation_power(state, heads)
            messages.append(str(refused.value))
        assert messages[0] == messages[1]


class TestOracleWigner:
    def test_vacuum_origin(self):
        v = build_coherent(0.0, 32)
        assert oracle_wigner(v, 0.0) == pytest.approx(2 / math.pi, abs=1e-12)

    def test_coherent_center(self):
        g = ALPHA.to_complex()
        v = build_coherent(g, 64)
        assert oracle_wigner(v, g) == pytest.approx(2 / math.pi, abs=1e-8)

    def test_coherent_gaussian_profile(self):
        g = 0.4 - 1.1j
        v = build_coherent(g, 64)
        for b in (0.0, 0.3 + 0.2j, -1.0 + 0.5j):
            want = 2 / math.pi * math.exp(-2 * abs(g - b) ** 2)
            assert oracle_wigner(v, b) == pytest.approx(want, abs=1e-10)

    def test_two_head_cat_grid_matches_closed_form(self):
        spec = StateSpec(ALPHA, 2, Family.COHERENT)
        state = build_state(spec)
        axis = np.linspace(-2.5, 2.5, 9)
        grid = axis[:, None] + 1j * axis[None, :]
        oracle = oracle_wigner_grid(state, grid)
        analytic = np.asarray(wigner(spec, grid))
        assert np.max(np.abs(oracle - analytic)) < 1e-8

    def test_parity_from_origin(self):
        state = build_state(StateSpec(PolarAmplitude(1.0), 3, Family.INCOHERENT))
        assert oracle_parity(state) == pytest.approx(math.exp(-2.0), abs=1e-8)


PARITY_CASES = [
    (n, r, family)
    for n in (1, 2, 3, 12)
    # One head at r = 60 needs a cutoff past CUTOFF_MAX, so it stops at r = 30.
    for r in (0.0, 0.5, math.sqrt(2), 10.0, 30.0 if n == 1 else 60.0)
    for family in Family
]


@pytest.mark.parametrize("n,r,family", PARITY_CASES)
def test_parity_diagonal_equals_the_wigner_origin(n, r, family):
    # pi/2 W(0) = Tr[rho Pi] is how the parity was computed before it was read
    # off the diagonal.
    state = build_state(StateSpec(PolarAmplitude(r, 0.7), n, family))
    assert abs(oracle_parity(state) - math.pi / 2.0 * oracle_wigner(state, 0.0)) <= 1e-13


class TestTopLevelsHoldingMass:
    """States cut at 32 levels around a mean occupation of 9 keep ~1e-8 in the top levels."""

    @pytest.mark.parametrize("family", list(Family))
    def test_oracle_moment_raises(self, family):
        state = build_state(StateSpec(PolarAmplitude(9.0), 2, family), cutoff=32, eps=1e-6)
        assert state.amplitudes.ndim == (1 if family is Family.COHERENT else 2)
        with pytest.raises(CutoffInsufficientError):
            oracle_moment(state, 1, 1)

    @pytest.mark.parametrize("heads", [1, 2])
    def test_apply_annihilation_power_raises(self, heads):
        spec = StateSpec(PolarAmplitude(3.0**heads), heads, Family.COHERENT)
        state = build_state(spec, cutoff=32, eps=1e-6)
        # A power at the cutoff reads every level.
        for power in (heads, state.cutoff):
            with pytest.raises(CutoffInsufficientError):
                _annihilation_power(state, power)


def test_validate_refuses_an_underflowing_cat_before_the_other_checks(monkeypatch):
    # The 512-head cat's a^N image underflows a double; no Wigner grid or moment is formed.
    def fail(*args):
        raise AssertionError("work done before the refusal")

    monkeypatch.setattr(fockspace, "oracle_wigner_grid", fail)
    monkeypatch.setattr(fockspace, "oracle_moment", fail)
    monkeypatch.setattr(closed_form, "_wigner_sum", fail)
    with pytest.raises(CapacityError, match="underflow"):
        validate_spec(StateSpec(PolarAmplitude(1.0), 512, Family.COHERENT))


SRC = Path(multihead.__file__).resolve().parent


def _imported_names(module: str) -> set:
    """Every module and name that ``src/multihead/<module>.py`` imports."""
    imported = set()
    for node in ast.walk(ast.parse((SRC / f"{module}.py").read_text())):
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    return imported


def test_oracle_imports_nothing_from_closed_form():
    imported = _imported_names("fockspace")
    assert not any("closed_form" in name for name in imported), imported


def test_the_oracle_owns_its_privates():
    # compare only compares: the oracle's values, the a^N image included, come
    # through fockspace's public functions, and fockspace needs nothing of compare.
    imported = _imported_names("fockspace")
    assert not any("compare" in name for name in imported), imported
    tree = ast.parse((SRC / "compare.py").read_text())
    read = [
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "fockspace"
        and node.attr.startswith("_")
    ]
    read += [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("fockspace")
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert read == []


def test_every_public_name_resolves():
    for name in multihead.__all__:
        assert hasattr(multihead, name), name
