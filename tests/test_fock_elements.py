import math

import numpy as np
import pytest
from scipy.stats import poisson

from multihead import (
    Family,
    InvalidInputError,
    PolarAmplitude,
    StateSpec,
    build_state,
    fock_element,
    pnd,
)

ALPHA = PolarAmplitude.from_cartesian(1.0, 1.0)


class TestFockElements:
    @pytest.mark.parametrize("n", range(1, 6))
    def test_mixture_diagonal_is_poissonian(self, n):
        s = StateSpec(ALPHA, n, Family.INCOHERENT)
        mu = ALPHA.r ** (2.0 / n)
        for m in range(12):
            want = mu**m * math.exp(-mu) / math.factorial(m)
            assert fock_element(s, m, m) == pytest.approx(want, rel=1e-12)

    def test_cat_off_support_vanishes(self):
        s = StateSpec(ALPHA, 3, Family.COHERENT)
        assert fock_element(s, 1, 0) == 0
        assert fock_element(s, 1, 2) == 0
        assert fock_element(s, 3, 4) == 0

    def test_three_head_cat_is_nearly_two_fock_states(self):
        s = StateSpec(ALPHA, 3, Family.COHERENT)
        assert pnd(s, 0) == pytest.approx(0.75, abs=0.05)
        assert pnd(s, 3) == pytest.approx(0.25, abs=0.05)

    @pytest.mark.parametrize("family", list(Family))
    def test_hermitian_pairing(self, family):
        s = StateSpec(ALPHA, 3, family)
        for m in range(8):
            for n in range(8):
                assert fock_element(s, m, n) == pytest.approx(
                    fock_element(s, n, m).conjugate(), abs=1e-14
                )

    @pytest.mark.parametrize("family", list(Family))
    def test_diagonal_equals_pnd(self, family):
        s = StateSpec(ALPHA, 4, family)
        for m in range(20):
            assert fock_element(s, m, m) == pytest.approx(pnd(s, m), abs=1e-12)

    def test_large_index_no_overflow(self):
        s = StateSpec(PolarAmplitude(3.5), 2, Family.INCOHERENT)
        value = fock_element(s, 120, 120)
        assert 0 <= value.real < 1e-30
        assert math.isfinite(value.real)

    def test_vacuum_seed(self):
        s = StateSpec(PolarAmplitude(0.0), 3, Family.COHERENT)
        assert fock_element(s, 0, 0) == 1
        assert fock_element(s, 2, 2) == 0


class TestPnd:
    @pytest.mark.parametrize("n", range(1, 6))
    def test_mixture_normalizes(self, n):
        s = StateSpec(ALPHA, n, Family.INCOHERENT)
        mu = ALPHA.r ** (2.0 / n)
        cutoff = 60
        total = sum(pnd(s, m) for m in range(cutoff)) + poisson.sf(cutoff - 1, mu)
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_cat_support_only_on_multiples(self):
        s = StateSpec(ALPHA, 4, Family.COHERENT)
        assert pnd(s, 6) == 0
        for m in range(30):
            if m % 4 != 0:
                assert pnd(s, m) == 0

    def test_two_head_cat_ground_weight(self):
        # direct substitution of the support formula, cross-checked by the oracle
        s = StateSpec(PolarAmplitude(1.0), 2, Family.COHERENT)
        want = 4 * math.exp(-1.0) / (2 + 2 * math.exp(-2.0))
        assert pnd(s, 0) == pytest.approx(want, rel=1e-13)
        state = build_state(s)
        assert abs(state.amplitudes[0]) ** 2 == pytest.approx(want, abs=1e-12)

    def test_cat_normalizes_on_support(self):
        s = StateSpec(ALPHA, 3, Family.COHERENT)
        total = sum(pnd(s, 3 * k) for k in range(40))
        assert total == pytest.approx(1.0, abs=1e-10)


class TestIndexArrays:
    @pytest.mark.parametrize("family", list(Family))
    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    @pytest.mark.parametrize("r", [0.0, 0.3, 2.0, 40.0])
    def test_arrays_equal_scalar_calls(self, family, n, r):
        s = StateSpec(PolarAmplitude(r, 0.9), n, family)
        index = np.arange(16)
        block = fock_element(s, index[:, None], index)
        assert block.shape == (16, 16)
        assert block.tolist() == [[fock_element(s, m, k) for k in index] for m in index]
        assert pnd(s, index).tolist() == [pnd(s, m) for m in index]

    def test_scalar_types_are_kept(self):
        s = StateSpec(ALPHA, 2, Family.COHERENT)
        assert type(fock_element(s, 2, 0)) is complex
        assert type(pnd(s, 2)) is float

    def test_negative_index_in_array_raises(self):
        s = StateSpec(ALPHA, 2, Family.COHERENT)
        with pytest.raises(InvalidInputError):
            fock_element(s, np.array([0, -1]), 0)
