import math

import pytest

from multihead import Family, Quantity, SweepTemplate, find_crossings, squeezing_window, sweep
from multihead.errors import InvalidInputError
from multihead.sweeps import evaluate


def template(n, family, theta=0.0):
    return SweepTemplate(theta_p=theta, n_heads=n, family=family)


class TestSweep:
    def test_mixture_mean_photon_is_one_at_unit_modulus(self):
        for n in range(1, 7):
            res = sweep(template(n, Family.INCOHERENT), Quantity.MEAN_PHOTON, 0.5, 1.5, 0.25)
            value = dict(res.samples)[1.0]
            assert value == pytest.approx(1.0, abs=1e-12)

    def test_mixture_mean_photon_ordering_flips_at_unit_modulus(self):
        below = [
            dict(sweep(template(n, Family.INCOHERENT), Quantity.MEAN_PHOTON, 0.5, 0.5001, 0.0001).samples)[0.5]
            for n in range(1, 7)
        ]
        above = [
            dict(sweep(template(n, Family.INCOHERENT), Quantity.MEAN_PHOTON, 2.0, 2.0001, 0.0001).samples)[2.0]
            for n in range(1, 7)
        ]
        assert below == sorted(below)
        assert above == sorted(above, reverse=True)

    def test_cat_mean_photon_decreases_with_heads(self):
        for r in (0.5, 1.0, 2.5, 4.0):
            values = [
                dict(sweep(template(n, Family.COHERENT), Quantity.MEAN_PHOTON, r, r + 1e-4, 1e-4).samples)[r]
                for n in range(1, 7)
            ]
            assert values == sorted(values, reverse=True)

    @pytest.mark.parametrize("quantity", list(Quantity))
    @pytest.mark.parametrize("family", list(Family))
    def test_samples_equal_scalar_evaluation_on_the_stepped_grid(self, quantity, family):
        r_min, r_max, step = 0.0, 7.0, 0.03
        for n in (1, 2, 3, 5, 12):
            tpl = template(n, family, theta=2.1)
            res = sweep(tpl, quantity, r_min, r_max, step)
            grid = [min(r_min + i * step, r_max) for i in range(int(round(r_max / step)) + 1)]
            if quantity is Quantity.MANDEL_Q:
                grid = grid[1:]  # undefined at r = 0
            assert [r for r, _ in res.samples] == grid
            assert [v for _, v in res.samples] == [evaluate(tpl, quantity, r) for r in grid]

    def test_mandel_q_gap_at_zero_modulus(self):
        res = sweep(template(2, Family.COHERENT), Quantity.MANDEL_Q, 0.0, 0.1, 0.05)
        assert all(r > 0 for r, _ in res.samples)

    def test_bad_range_rejected(self):
        with pytest.raises(InvalidInputError):
            sweep(template(2, Family.COHERENT), Quantity.MEAN_PHOTON, 2.0, 1.0, 0.1)


class TestFindCrossings:
    def test_three_head_cat_mandel_crossings(self):
        res = sweep(template(3, Family.COHERENT), Quantity.MANDEL_Q, 0.01, 25.0, 0.01)
        crossings = find_crossings(res, 0.0)
        assert len(crossings) == 2
        assert crossings[0] == pytest.approx(5.23972, abs=1e-3)
        assert crossings[1] == pytest.approx(17.1512, abs=1e-3)

    def test_mixture_mandel_has_no_crossings(self):
        res = sweep(template(4, Family.INCOHERENT), Quantity.MANDEL_Q, 0.01, 20.0, 0.01)
        assert find_crossings(res, 0.0) == []

    def test_crossings_stable_under_step_halving(self):
        tpl = template(3, Family.COHERENT)
        coarse = find_crossings(sweep(tpl, Quantity.MANDEL_Q, 0.01, 25.0, 0.02), 0.0)
        fine = find_crossings(sweep(tpl, Quantity.MANDEL_Q, 0.01, 25.0, 0.01), 0.0)
        assert len(coarse) == len(fine)
        for a, b in zip(coarse, fine):
            assert abs(a - b) < 1e-6

    def test_parity_sweep_passes_through_common_point(self):
        for n in range(1, 7):
            res = sweep(template(n, Family.INCOHERENT), Quantity.PARITY, 0.5, 1.5, 0.25)
            assert dict(res.samples)[1.0] == pytest.approx(math.exp(-2.0), abs=1e-12)


class TestSqueezingWindow:
    def test_quarter_turn_window_closes_at_atanh(self):
        windows = squeezing_window(math.pi / 4, 5.0)
        assert len(windows) == 1
        j, (lo, hi) = windows[0]
        assert j == 2
        assert hi == pytest.approx(math.atanh(math.cos(math.pi / 4)), abs=1e-5)

    def test_zero_angle_squeezes_second_quadrature_throughout(self):
        windows = squeezing_window(0.0, 4.0)
        assert windows == [(2, (pytest.approx(0.01), pytest.approx(4.0)))]

    def test_half_turn_squeezes_first_quadrature(self):
        windows = squeezing_window(math.pi, 4.0)
        assert [j for j, _ in windows] == [1]

    def test_right_angle_has_no_window(self):
        assert squeezing_window(math.pi / 2, 4.0) == []

    def test_no_window_for_two_head_mixture_or_three_plus_heads(self):
        for n, family in [(2, Family.INCOHERENT)] + [
            (n, f) for n in (3, 4, 5) for f in Family
        ]:
            for theta in (0.0, math.pi / 4, math.pi):
                tpl = template(n, family, theta)
                for quantity in (Quantity.VAR_X1, Quantity.VAR_X2):
                    res = sweep(tpl, quantity, 0.05, 6.0, 0.05)
                    assert min(v for _, v in res.samples) >= 0.5 - 1e-10
