import math

import numpy as np
import pytest

from multihead import (
    Family,
    PolarAmplitude,
    StateSpec,
    UndefinedStatisticError,
    mandel_q,
    mean_photon,
    moment,
    moment_table,
    normalization,
    parity,
    quadrature_variances,
    wigner,
)
from test_acceptance import wigner_two_head_coherent

ALPHA = PolarAmplitude.from_cartesian(1.0, 1.0)


def spec(n, family, alpha=ALPHA):
    return StateSpec(alpha, n, family)


def random_amplitudes(seed, count=20, r_max=4.0):
    rng = np.random.default_rng(seed)
    return [
        PolarAmplitude(rng.uniform(0.05, r_max), rng.uniform(0.0, 2 * math.pi))
        for _ in range(count)
    ]


class TestNormalization:
    def test_single_head_is_one(self):
        for a in random_amplitudes(1, count=5):
            assert normalization(a, 1) == pytest.approx(1.0, abs=1e-14)

    def test_two_heads_closed_form(self):
        for a in random_amplitudes(2, count=5):
            assert normalization(a, 2) == pytest.approx(2 + 2 * math.exp(-2 * a.r), rel=1e-14)

    def test_zero_amplitude(self):
        assert normalization(PolarAmplitude(0.0), 3) == pytest.approx(9.0, abs=1e-12)


class TestIncoherentMoments:
    def test_four_heads_n_mean(self):
        assert moment(spec(4, Family.INCOHERENT), 1, 1) == pytest.approx(ALPHA.r ** 0.5, abs=1e-14)

    def test_two_heads_a_dag2(self):
        want = ALPHA.to_complex().conjugate()
        assert moment(spec(2, Family.INCOHERENT), 2, 0) == pytest.approx(want, abs=1e-14)

    def test_three_heads_a_dag_vanishes(self):
        assert moment(spec(3, Family.INCOHERENT), 1, 0) == 0

    @pytest.mark.parametrize("n", range(1, 9))
    def test_diagonal_moments_exact(self, n):
        for a in random_amplitudes(n, count=5, r_max=10.0):
            s = StateSpec(a, n, Family.INCOHERENT)
            assert moment(s, 1, 1) == pytest.approx(a.r ** (2.0 / n), abs=1e-12)
            assert moment(s, 2, 2) == pytest.approx(a.r ** (4.0 / n), rel=1e-12)


class TestCoherentMoments:
    def test_two_heads_n_mean(self):
        want = ALPHA.r * math.tanh(ALPHA.r)
        assert moment(spec(2, Family.COHERENT), 1, 1) == pytest.approx(want, abs=1e-13)

    def test_two_heads_second_factorial(self):
        assert moment(spec(2, Family.COHERENT), 2, 2) == pytest.approx(ALPHA.r ** 2, rel=1e-13)

    def test_single_head_reduces_to_powers(self):
        a = ALPHA.to_complex()
        want = a.conjugate() ** 2 * a
        assert moment(spec(1, Family.COHERENT), 2, 1) == pytest.approx(want, rel=1e-13)


class TestMomentTable:
    def test_single_head(self):
        t = moment_table(spec(1, Family.INCOHERENT))
        assert t.a == pytest.approx(1 + 1j, abs=1e-13)
        assert t.n_mean == pytest.approx(2.0, abs=1e-13)

    def test_five_head_mixture(self):
        t = moment_table(spec(5, Family.INCOHERENT))
        assert t.a == 0
        assert t.a_dag2 == 0
        assert t.n_mean == pytest.approx(ALPHA.r ** 0.4, abs=1e-13)

    def test_four_head_cat_vanishing(self):
        t = moment_table(spec(4, Family.COHERENT))
        assert abs(t.a) < 1e-13
        assert abs(t.a2) < 1e-13

    @pytest.mark.parametrize("n", range(1, 7))
    @pytest.mark.parametrize("family", list(Family))
    def test_hermitian_pairing(self, n, family):
        s = spec(n, family)
        for h in range(4):
            for l in range(4):
                if h + l > 6:
                    continue
                assert moment(s, h, l) == pytest.approx(moment(s, l, h).conjugate(), abs=1e-12)

    @pytest.mark.parametrize("n", range(3, 7))
    @pytest.mark.parametrize("family", list(Family))
    def test_low_moments_vanish_for_three_plus_heads(self, n, family):
        t = moment_table(spec(n, family))
        for value in (t.a, t.a_dag, t.a2, t.a_dag2):
            assert abs(value) < 1e-12


class TestMeanPhoton:
    def test_three_head_mixture(self):
        assert mean_photon(spec(3, Family.INCOHERENT)) == pytest.approx(2 ** (1 / 3), abs=1e-13)

    def test_two_head_cat_unit_modulus(self):
        s = StateSpec(PolarAmplitude(1.0), 2, Family.COHERENT)
        assert mean_photon(s) == pytest.approx(math.tanh(1.0), abs=1e-13)

    def test_single_head(self):
        assert mean_photon(spec(1, Family.COHERENT)) == pytest.approx(2.0, abs=1e-13)


class TestMandelQ:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_mixture_is_poissonian(self, n):
        for a in random_amplitudes(n + 20, count=5, r_max=10.0):
            assert abs(mandel_q(StateSpec(a, n, Family.INCOHERENT))) < 1e-10

    def test_two_head_cat_super_poissonian(self):
        s = StateSpec(PolarAmplitude(1.0), 2, Family.COHERENT)
        assert mandel_q(s) > 0

    def test_three_head_cat_sub_poissonian_window(self):
        s = StateSpec(PolarAmplitude(10.0), 3, Family.COHERENT)
        assert mandel_q(s) < 0

    def test_zero_amplitude_is_undefined(self):
        with pytest.raises(UndefinedStatisticError):
            mandel_q(StateSpec(PolarAmplitude(0.0), 2, Family.COHERENT))


class TestQuadratureVariances:
    def test_single_head_is_vacuum_limited(self):
        v = quadrature_variances(spec(1, Family.COHERENT))
        assert v.var_x1 == pytest.approx(0.5, abs=1e-12)
        assert v.var_x2 == pytest.approx(0.5, abs=1e-12)

    def test_two_head_mixture(self):
        v = quadrature_variances(spec(2, Family.INCOHERENT))
        re_conj = ALPHA.to_complex().conjugate().real
        assert v.var_x1 == pytest.approx(ALPHA.r + re_conj + 0.5, abs=1e-12)
        assert v.var_x2 == pytest.approx(ALPHA.r - re_conj + 0.5, abs=1e-12)

    def test_two_head_cat(self):
        v = quadrature_variances(spec(2, Family.COHERENT))
        base = ALPHA.r * math.tanh(ALPHA.r)
        re_conj = ALPHA.to_complex().conjugate().real
        assert v.var_x1 == pytest.approx(base + re_conj + 0.5, abs=1e-12)
        assert v.var_x2 == pytest.approx(base - re_conj + 0.5, abs=1e-12)

    @pytest.mark.parametrize("n", range(1, 7))
    @pytest.mark.parametrize("family", list(Family))
    def test_uncertainty_product(self, n, family):
        for a in random_amplitudes(n + 40, count=5):
            v = quadrature_variances(StateSpec(a, n, family))
            assert v.var_x1 > 0 and v.var_x2 > 0
            assert v.var_x1 * v.var_x2 >= 0.25 - 1e-10


class TestParity:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_mixture_pinch_at_unit_modulus(self, n):
        s = StateSpec(PolarAmplitude(1.0), n, Family.INCOHERENT)
        assert parity(s) == pytest.approx(math.exp(-2.0), abs=1e-12)

    @pytest.mark.parametrize("n", (2, 4, 6))
    def test_even_cat_parity_is_one(self, n):
        assert parity(spec(n, Family.COHERENT)) == pytest.approx(1.0, abs=1e-12)

    def test_vacuum_parity(self):
        s = StateSpec(PolarAmplitude(0.0), 5, Family.COHERENT)
        assert parity(s) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("n", range(1, 13))
    @pytest.mark.parametrize("family", list(Family))
    def test_closed_form_equals_wigner_origin_value(self, n, family):
        for a in random_amplitudes(n + 100, count=5, r_max=30.0):
            s = StateSpec(a, n, family)
            assert parity(s) == pytest.approx(math.pi / 2 * wigner(s, 0.0), abs=1e-12)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_mixture_matches_gaussian_origin_value(self, n):
        for a in random_amplitudes(n + 60, count=5):
            s = StateSpec(a, n, Family.INCOHERENT)
            assert parity(s) == pytest.approx(math.exp(-2 * a.r ** (2 / n)), abs=1e-12)


class TestWignerScalar:
    def test_gaussian_center(self):
        assert wigner(spec(1, Family.COHERENT), ALPHA.to_complex()) == pytest.approx(
            2 / math.pi, abs=1e-13
        )

    @pytest.mark.parametrize("n", range(1, 7))
    def test_mixture_origin_value(self, n):
        for a in random_amplitudes(n + 80, count=3):
            s = StateSpec(a, n, Family.INCOHERENT)
            want = 2 / math.pi * math.exp(-2 * a.r ** (2 / n))
            assert wigner(s, 0.0) == pytest.approx(want, abs=1e-13)

    @pytest.mark.parametrize("r", [355.0, 400.0, 1600.0])
    def test_two_head_cat_is_finite_at_large_modulus(self, r):
        # The head overlap exp(-2r) underflows here while the pair factor overflows.
        a = PolarAmplitude(r, 0.4)
        g = math.sqrt(r) * np.exp(0.2j)
        axis = np.linspace(-3.0, 3.0, 7)
        pts = np.concatenate([[g, -g, 0.99 * g, 0.0], axis + 1j * axis[::-1]])
        values = np.asarray(wigner(spec(2, Family.COHERENT, a), pts))
        assert np.all(np.isfinite(values))
        assert np.max(np.abs(values - wigner_two_head_coherent(a, pts))) <= 1e-12

    def test_two_head_cat_has_negative_region(self):
        s = spec(2, Family.COHERENT)
        axis = np.linspace(-2, 2, 101)
        grid = axis[:, None] + 1j * axis[None, :]
        assert np.min(wigner(s, grid)) < -0.01

    @pytest.mark.parametrize("family", list(Family))
    @pytest.mark.parametrize("n", range(1, 7))
    def test_bound_and_mixture_nonnegativity(self, n, family):
        rng = np.random.default_rng(n)
        pts = rng.normal(scale=2.0, size=50) + 1j * rng.normal(scale=2.0, size=50)
        values = np.asarray(wigner(spec(n, family), pts))
        assert np.max(np.abs(values)) <= 2 / math.pi + 1e-12
        if family is Family.INCOHERENT:
            assert np.min(values) >= -1e-14
