import math

import numpy as np
import pytest

from multihead import (
    CapacityError,
    Family,
    PolarAmplitude,
    StateSpec,
    TruncationError,
    apply_annihilation_power,
    build_coherent,
    build_state,
    choose_cutoff,
    mean_photon,
    moment,
    normalization,
    oracle_moment,
    oracle_parity,
    oracle_wigner,
    wigner,
)
from multihead.compare import TOL_DEFAULT
from multihead.fockspace import FockDensity, FockVector, oracle_wigner_grid, unnormalized_head_sum_norm_sq

ALPHA = PolarAmplitude.from_cartesian(1.0, 1.0)


class TestChooseCutoff:
    def test_floor_dominates_at_small_mean(self):
        assert choose_cutoff(ALPHA, 2, 1e-12) >= 32

    def test_vacuum(self):
        assert choose_cutoff(PolarAmplitude(0.0), 1, 1e-12) == 32

    def test_capacity_error_for_huge_mean(self):
        with pytest.raises(CapacityError):
            choose_cutoff(PolarAmplitude(100.0), 1, 1e-12)

    def test_multiple_of_heads_plus_margin(self):
        d = choose_cutoff(PolarAmplitude(3.0), 5, 1e-12)
        assert (d - 20) % 5 == 0 or d % 5 == 0


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
        mu = ALPHA.r ** (2.0 / 3)
        for m in range(15):
            want = mu**m * math.exp(-mu) / math.factorial(m)
            assert state.matrix[m, m].real == pytest.approx(want, abs=1e-12)

    def test_mixture_density_properties(self):
        state = build_state(StateSpec(ALPHA, 4, Family.INCOHERENT))
        assert isinstance(state, FockDensity)
        assert np.max(np.abs(state.matrix - state.matrix.conj().T)) < 1e-12
        assert state.trace() == pytest.approx(1.0, abs=1e-10)
        eigs = np.linalg.eigvalsh(state.matrix)
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
            norm_sq = unnormalized_head_sum_norm_sq(spec)
            assert norm_sq == pytest.approx(normalization(ALPHA, n), rel=1e-10)


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


class TestAnnihilationPower:
    def test_cat_is_eigenstate(self):
        spec = StateSpec(ALPHA, 3, Family.COHERENT)
        state = build_state(spec)
        image = apply_annihilation_power(state, 3)
        residual = image.amplitudes - ALPHA.to_complex() * state.amplitudes
        assert np.linalg.norm(residual) < 1e-8

    def test_vacuum_annihilates(self):
        v = build_coherent(0.0, 32)
        image = apply_annihilation_power(v, 1)
        assert np.linalg.norm(image.amplitudes) == 0.0

    def test_coherent_eigenstate(self):
        g = 0.5 + 0.25j
        v = build_coherent(g, 48)
        image = apply_annihilation_power(v, 1)
        assert np.linalg.norm(image.amplitudes - g * v.amplitudes) < 1e-10


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
