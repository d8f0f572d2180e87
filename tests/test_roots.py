import cmath
import math

import numpy as np
import pytest

from multihead import InvalidInputError, PolarAmplitude, nth_roots, root_sum


class TestFromCartesian:
    def test_unit_diagonal(self):
        a = PolarAmplitude.from_cartesian(1.0, 1.0)
        assert a.r == pytest.approx(math.sqrt(2), abs=1e-15)
        assert a.theta_p == pytest.approx(math.pi / 4, abs=1e-15)

    def test_real_axis(self):
        a = PolarAmplitude.from_cartesian(1.0, 0.0)
        assert (a.r, a.theta_p) == (1.0, 0.0)

    def test_negative_imaginary_remapped(self):
        a = PolarAmplitude.from_cartesian(0.0, -2.0)
        assert a.r == pytest.approx(2.0, abs=1e-15)
        assert a.theta_p == pytest.approx(3 * math.pi / 2, abs=1e-15)

    def test_round_trip(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            x, y = rng.normal(scale=3.0, size=2)
            a = PolarAmplitude.from_cartesian(x, y)
            assert a.x == pytest.approx(x, abs=1e-12)
            assert a.y == pytest.approx(y, abs=1e-12)

    def test_nonfinite_rejected(self):
        with pytest.raises(InvalidInputError):
            PolarAmplitude.from_cartesian(math.nan, 0.0)
        with pytest.raises(InvalidInputError):
            PolarAmplitude.from_cartesian(0.0, math.inf)

    def test_zero_is_canonical(self):
        assert PolarAmplitude.from_cartesian(0.0, 0.0).theta_p == 0.0
        assert PolarAmplitude(0.0, 2.5).theta_p == 0.0

    def test_negative_modulus_rejected(self):
        with pytest.raises(InvalidInputError):
            PolarAmplitude(-1.0, 0.0)


class TestNthRoots:
    def test_two_roots_of_one_plus_i(self):
        a = PolarAmplitude.from_cartesian(1.0, 1.0)
        roots = nth_roots(a, 2)
        expect = [
            2 ** 0.25 * cmath.exp(1j * math.pi / 8),
            2 ** 0.25 * cmath.exp(1j * 9 * math.pi / 8),
        ]
        for got, want in zip(roots, expect):
            assert got == pytest.approx(want, abs=1e-14)

    def test_single_root_is_alpha(self):
        a = PolarAmplitude.from_cartesian(1.0, 1.0)
        (root,) = nth_roots(a, 1)
        assert root == pytest.approx(1 + 1j, abs=1e-14)

    def test_zero_amplitude(self):
        roots = nth_roots(PolarAmplitude(0.0), 4)
        assert all(z == 0 for z in roots)

    def test_invalid_head_count(self):
        with pytest.raises(InvalidInputError):
            nth_roots(PolarAmplitude.from_cartesian(1.0, 0.0), 0)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_roots_power_back_to_alpha(self, n):
        rng = np.random.default_rng(n)
        for _ in range(10):
            r = rng.uniform(0.01, 10.0)
            theta = rng.uniform(0.0, 2 * math.pi)
            a = PolarAmplitude(r, theta)
            for z in nth_roots(a, n):
                assert abs(z**n - a.to_complex()) < 1e-10 * max(1.0, r)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_rotational_closure(self, n):
        a = PolarAmplitude.from_cartesian(0.3, -1.7)
        roots = nth_roots(a, n)
        rotated = sorted((z * cmath.exp(2j * math.pi / n) for z in roots), key=lambda z: cmath.phase(z))
        original = sorted(roots, key=lambda z: cmath.phase(z))
        for got, want in zip(rotated, original):
            assert got == pytest.approx(want, abs=1e-12)


class TestRootSum:
    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_sum_vanishes(self, n):
        rng = np.random.default_rng(n + 100)
        for _ in range(10):
            a = PolarAmplitude(rng.uniform(0.0, 10.0), rng.uniform(0.0, 2 * math.pi))
            assert abs(root_sum(nth_roots(a, n))) < 1e-12

    def test_single_head_sum_is_alpha(self):
        a = PolarAmplitude.from_cartesian(1.0, 1.0)
        assert root_sum(nth_roots(a, 1)) == pytest.approx(1 + 1j, abs=1e-14)
