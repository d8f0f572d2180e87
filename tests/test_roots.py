import cmath
import math

import numpy as np
import pytest

from multihead import (
    CapacityError,
    Family,
    InvalidInputError,
    PolarAmplitude,
    StateSpec,
    nth_roots,
    root_sum,
)
from multihead.cli import main
from multihead.roots import HEADS_MAX, check_head_count, head_occupation


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
            z = a.to_complex()
            assert z.real == pytest.approx(x, abs=1e-12)
            assert z.imag == pytest.approx(y, abs=1e-12)

    def test_nonfinite_rejected(self):
        with pytest.raises(InvalidInputError):
            PolarAmplitude.from_cartesian(math.nan, 0.0)
        with pytest.raises(InvalidInputError):
            PolarAmplitude.from_cartesian(0.0, math.inf)

    def test_zero_is_canonical(self):
        assert PolarAmplitude.from_cartesian(0.0, 0.0).theta_p == 0.0
        assert PolarAmplitude(0.0, 2.5).theta_p == 0.0

    def test_negative_zero_modulus_is_stored_as_plus_zero(self):
        assert math.copysign(1.0, PolarAmplitude(-0.0, 1.0).r) == 1.0
        assert PolarAmplitude(-0.0, 1.0) == PolarAmplitude(0.0)

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

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 7])
    def test_zero_amplitude_roots_are_unsigned_zeros(self, n):
        # 0 * e^(i phi) would carry the signs of cos phi and sin phi.
        roots = nth_roots(PolarAmplitude(0.0), n)
        assert [(math.copysign(1.0, z.real), math.copysign(1.0, z.imag)) for z in roots] == [
            (1.0, 1.0)
        ] * n

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_cli_prints_no_negative_zero_at_alpha_zero(self, capsys, fmt):
        assert main(["roots", "--alpha", "0", "--heads", "3", "--format", fmt]) == 0
        out = capsys.readouterr().out
        if fmt == "text":
            assert out == "+0+0i\n" * 3
        else:
            assert "-0" not in out
            assert out.count('"re": 0,') == 4

    def test_cli_prints_stats_at_minus_zero_as_at_zero(self, capsys):
        outs = []
        for alpha in ("--alpha=-0@1", "--alpha=0"):
            assert main(["stats", alpha, "--heads", "2", "--family", "coherent"]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]
        assert '"r": 0,' in outs[0]

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


class TestHeadCount:
    """One check, shared by StateSpec and nth_roots, runs before anything is allocated."""

    @pytest.mark.parametrize("n", [0, -1, 2.0, "3", None, True, False])
    def test_not_a_positive_integer_is_invalid(self, n):
        with pytest.raises(InvalidInputError):
            check_head_count(n)
        with pytest.raises(InvalidInputError):
            nth_roots(PolarAmplitude(1.0), n)
        with pytest.raises(InvalidInputError):
            StateSpec(PolarAmplitude(1.0), n, Family.COHERENT)

    @pytest.mark.parametrize("n", [HEADS_MAX + 1, 1 << 40])
    def test_above_the_limit_is_capacity_error(self, n):
        with pytest.raises(CapacityError, match=f"head count {n} exceeds {HEADS_MAX}"):
            check_head_count(n)
        with pytest.raises(CapacityError):
            nth_roots(PolarAmplitude(1.0), n)
        for family in Family:
            with pytest.raises(CapacityError):
                StateSpec(PolarAmplitude(1.0), n, family)

    def test_the_limit_itself_is_accepted(self):
        check_head_count(HEADS_MAX)
        assert StateSpec(PolarAmplitude(2.0), HEADS_MAX, Family.COHERENT).n_heads == HEADS_MAX
        assert len(nth_roots(PolarAmplitude(2.0, 0.3), HEADS_MAX)) == HEADS_MAX


class TestHeadOccupation:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 12])
    def test_a_scalar_has_the_bits_it_has_in_an_array(self, n):
        # One power for both: Python's float power rounds differently from
        # numpy's for about 5 % of moduli at N = 3 and 12.
        r = np.random.default_rng(n).uniform(0.0, 100.0, 200)
        in_array = head_occupation(r, n)
        assert np.array_equal(in_array, r ** (2.0 / n))
        for x, want in zip(r, in_array):
            for scalar in (float(x), np.float64(x), np.asarray(x)):
                mu = head_occupation(scalar, n)
                assert type(mu) is float and mu == want
        assert head_occupation(0.0, n) == 0.0

    @pytest.mark.parametrize("r,n", [(1e200, 1), (1e155, 1), (1.0e308, 1)])
    def test_overflow_is_capacity_error(self, r, n):
        with pytest.raises(CapacityError, match="overflows"):
            head_occupation(r, n)
        with pytest.raises(CapacityError, match="overflows"):
            head_occupation(np.array([1.0, r]), n)

    def test_largest_double_is_finite_for_two_heads(self):
        assert head_occupation(1.0e308, 2) == 1.0e308
