import math

import numpy as np
import pytest

from multihead import Family, Quantity, SweepTemplate, find_crossings, squeezing_window, sweep
from multihead import sweeps
from multihead.errors import CapacityError, InvalidInputError
from multihead.sweeps import evaluate


def reference_bisect(result, threshold, lo, hi, f_lo):
    """One flagged interval refined as it was written: a scalar loop, one evaluate a step."""
    def midpoint(lo, hi):
        total = lo + hi
        return 0.5 * total if math.isfinite(total) else 0.5 * lo + 0.5 * hi

    while hi - lo > sweeps.BISECT_TOL:
        mid = midpoint(lo, hi)
        if mid == lo or mid == hi:  # lo and hi are adjacent doubles, past r ~ 5e9
            break
        f_mid = sweeps.evaluate(result.template, result.quantity, mid) - threshold
        if f_mid == 0.0:
            return mid
        if (f_lo < 0.0) == (f_mid < 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return midpoint(lo, hi)


def reference_find_crossings(result, threshold, atol=1e-12):
    """find_crossings as it was written: a pairwise loop over a list of (r, value) floats."""
    if not math.isfinite(threshold):
        raise InvalidInputError("threshold must be finite")
    samples = result.samples.tolist()
    crossings = []
    for (r0, v0), (r1, v1) in zip(samples, samples[1:]):
        f0, f1 = v0 - threshold, v1 - threshold
        if abs(f0) <= atol or abs(f1) <= atol or f0 * f1 >= 0.0:
            continue
        crossings.append(reference_bisect(result, threshold, r0, r1, f0))
    return sorted(crossings)


def reference_squeezing_window(theta_p, r_max, step=0.01):
    """squeezing_window as it was written with one edge scan for entry and one for exit."""
    if r_max <= 0.0:
        raise InvalidInputError("r_max must be positive")
    tpl = SweepTemplate(theta_p=theta_p, n_heads=2, family=Family.COHERENT)
    windows = []
    for j, quantity in ((1, Quantity.VAR_X1), (2, Quantity.VAR_X2)):
        result = sweep(tpl, quantity, step, r_max, step)
        edges = find_crossings(result, 0.5)
        inside = None
        for idx, (r, v) in enumerate(result.samples):
            if v < 0.5 and inside is None:
                lo = r
                for e in edges:
                    if idx > 0 and result.samples[idx - 1][0] <= e <= r:
                        lo = e
                        break
                inside = lo
            elif v >= 0.5 and inside is not None:
                hi = r
                for e in edges:
                    if result.samples[idx - 1][0] <= e <= r:
                        hi = e
                        break
                windows.append((j, (inside, hi)))
                inside = None
        if inside is not None:
            windows.append((j, (inside, result.samples[-1][0])))
    return windows


def template(n, family, theta=0.0):
    return SweepTemplate(theta_p=theta, n_heads=n, family=family)


def record_evaluate(monkeypatch):
    """The moduli of every sweeps.evaluate call from here on, each as an array."""
    calls = []
    original = sweeps.evaluate

    def recording(tpl, quantity, r):
        calls.append(np.array(r))
        return original(tpl, quantity, r)

    monkeypatch.setattr(sweeps, "evaluate", recording)
    return calls


def assert_halving_row(row):
    """row's 2**L + 1 points are its ends' L halvings: each point a level adds is
    0.5*a + 0.5*b of its neighbours a < b at that level."""
    span = len(row) - 1
    while span > 1:
        half = span // 2
        assert (row[half::span] == 0.5 * row[:-half:span] + 0.5 * row[span::span]).all()
        span = half


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

    @pytest.mark.parametrize(
        "r_min,r_max,step",
        [(math.nan, 1.0, 0.1), (0.0, math.inf, 0.1), (0.0, 1.0, math.nan), (0.0, 1.0, math.inf)],
    )
    def test_non_finite_grid_rejected(self, r_min, r_max, step):
        with pytest.raises(InvalidInputError):
            sweep(template(2, Family.COHERENT), Quantity.MEAN_PHOTON, r_min, r_max, step)

    @pytest.mark.parametrize("r_min,r_max,step", [(0.0, 1e300, 1e-300), (0.0, 1.0, 1e-13)])
    def test_oversized_grid_is_capacity_error(self, r_min, r_max, step):
        with pytest.raises(CapacityError, match="sweep exceeds 4000000 samples"):
            sweep(template(2, Family.COHERENT), Quantity.MEAN_PHOTON, r_min, r_max, step)

    def test_oversized_squeezing_window_is_capacity_error(self):
        with pytest.raises(CapacityError):
            squeezing_window(0.0, 1.0, 1e-13)

    def test_sample_cap_boundary(self):
        assert sweeps._sample_count(0.0, 3_999_999.0, 1.0) == sweeps.SAMPLES_MAX == 4_000_000
        with pytest.raises(CapacityError):
            sweeps._sample_count(0.0, 4_000_000.0, 1.0)


BAD_MODULI = [-1.0, math.nan, np.array([0.5, -1.0]), np.array([1.0, math.nan])]


class TestEvaluateRefusals:
    """evaluate refuses what _sample_count refuses on a grid, before any formula runs."""

    @pytest.mark.parametrize("r", BAD_MODULI, ids=["-1", "nan", "array-1", "array-nan"])
    @pytest.mark.parametrize("family", list(Family), ids=lambda f: f.value)
    @pytest.mark.parametrize("quantity", list(Quantity), ids=lambda q: q.value)
    def test_negative_or_nan_modulus_is_invalid_input(self, quantity, family, r):
        for n in (2, 3):
            with pytest.raises(InvalidInputError, match="nonnegative"):
                evaluate(template(n, family, 0.7), quantity, r)

    @pytest.mark.parametrize("r", [math.inf, np.array([1.0, math.inf])], ids=["inf", "array-inf"])
    @pytest.mark.parametrize("family", list(Family), ids=lambda f: f.value)
    @pytest.mark.parametrize("quantity", list(Quantity), ids=lambda q: q.value)
    def test_infinite_modulus_stays_a_capacity_error(self, quantity, family, r):
        with pytest.raises(CapacityError):
            evaluate(template(2, family, 0.7), quantity, r)


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

    @pytest.mark.parametrize("threshold", [math.nan, math.inf, -math.inf])
    def test_non_finite_threshold_rejected(self, threshold):
        res = sweep(template(3, Family.COHERENT), Quantity.MANDEL_Q, 0.01, 0.3, 0.01)
        with pytest.raises(InvalidInputError):
            find_crossings(res, threshold)

    @pytest.mark.parametrize("quantity", list(Quantity))
    @pytest.mark.parametrize("family", list(Family))
    def test_equals_the_pairwise_reference(self, quantity, family):
        for n in (1, 2, 3, 12):
            res = sweep(template(n, family), quantity, 0.0, 25.0, 0.05)
            for threshold in (0.0, 0.5, 1.0, math.exp(-2.0)):
                got = find_crossings(res, threshold)
                assert got == reference_find_crossings(res, threshold), (n, threshold)

    def test_sample_on_the_threshold_equals_the_pairwise_reference(self):
        for n in range(1, 7):
            res = sweep(template(n, Family.INCOHERENT), Quantity.MEAN_PHOTON, 0.0, 1.0, 0.25)
            assert abs(dict(res.samples)[1.0] - 1.0) <= 1e-12
            assert find_crossings(res, 1.0) == reference_find_crossings(res, 1.0)

    @pytest.mark.parametrize("step", [1e200, 5e199])
    def test_huge_moduli_equal_the_pairwise_reference(self, step):
        # Products of adjacent differences overflow here; the sign test must not.
        for n in (2, 3, 12):
            for family in Family:
                res = sweep(template(n, family), Quantity.VAR_X1, 0.0, 1e200, step)
                for t in (0.0, 0.5, 1.0):
                    assert find_crossings(res, t) == reference_find_crossings(res, t)

    def test_bisection_stops_at_adjacent_doubles(self):
        # <n> = r^2 for one head; past r ~ 5e9 adjacent doubles are wider than BISECT_TOL.
        res = sweep(template(1, Family.COHERENT), Quantity.MEAN_PHOTON, 1e10, 2e10, 1e9)
        assert find_crossings(res, 2e20) == [pytest.approx(math.sqrt(2e20), rel=1e-15)]

    def test_grid_and_bisection_near_the_largest_double(self):
        # The last grid term and the bisection sum lo + hi both pass the largest double.
        res = sweep(template(12, Family.INCOHERENT), Quantity.MEAN_PHOTON, 1.6e308, 1.79e308, 1e307)
        assert res.samples[:, 0].tolist() == [1.6e308, 1.6e308 + 1e307, 1.79e308]
        (crossing,) = find_crossings(res, 2.37e51)
        assert math.isfinite(crossing)
        assert crossing ** (1 / 6) == pytest.approx(2.37e51, rel=1e-12)

    def test_every_open_interval_is_halved_in_one_evaluate(self, monkeypatch):
        res = sweep(template(3, Family.COHERENT, 0.4), Quantity.MANDEL_Q, 0.0, 25.0)
        calls = record_evaluate(monkeypatch)
        got = find_crossings(res, 0.0)
        assert got == [5.2397158813476565, 17.151165466308598]
        # The 14 halvings of a 0.01 step, in two calls: each holds both intervals'
        # sorted interior halving points of 7 levels, 127 midpoints, the second
        # row inside the last halving of the first.
        assert [r.shape for r in calls] == [(2 * 127,)] * 2
        r = res.samples[:, 0]
        for k, crossing in enumerate(got):
            i = np.searchsorted(r, crossing)
            ends = r[i - 1], r[i]  # the sample interval the first row halves
            for call in calls:
                row = np.concatenate(([ends[0]], call.reshape(2, 127)[k], [ends[1]]))
                assert (np.diff(row) > 0).all()
                assert_halving_row(row)
                j = np.searchsorted(row, crossing)
                ends = row[j - 1], row[j]
        calls.clear()
        assert reference_find_crossings(res, 0.0) == got
        assert [r.shape for r in calls] == [()] * 28

    def test_many_intervals_split_their_halvings_over_smaller_trees(self, monkeypatch):
        # The four-head cat's Mandel Q crosses zero near r = (k pi)^2: 8 intervals of
        # 0.5 need 19 halvings, but 8 trees of 7 levels would pass _TREE_POINTS.
        res = sweep(template(4, Family.COHERENT), Quantity.MANDEL_Q, 0.0, 900.0, 0.5)
        calls = record_evaluate(monkeypatch)
        got = find_crossings(res, 0.0)
        sizes = [r.size for r in calls]
        assert [round(r / math.pi**2) for r in got] == [k * k for k in range(1, 9)]
        assert sizes[:2] == [8 * 31] * 2 and max(sizes) <= sweeps._TREE_POINTS
        assert len(sizes) == 4
        assert reference_find_crossings(res, 0.0) == got

    def test_more_intervals_than_tree_points_take_one_level_a_call(self, monkeypatch):
        # Samples of alternating sign flag every interval; each step reads the
        # quantity itself, r^2 for one head, so each interval closes on an end.
        n = sweeps._TREE_POINTS + 44
        r = np.arange(n + 1.0)
        res = sweeps.SweepResult(Quantity.MEAN_PHOTON, template(1, Family.COHERENT),
                                 np.column_stack((r, (-1.0) ** r)))
        calls = record_evaluate(monkeypatch)
        got = find_crossings(res, 0.0)
        assert [r.size for r in calls] == [n] * 20  # 1 / 2^20 < BISECT_TOL
        assert got == reference_find_crossings(res, 0.0)

    def test_an_uncrossed_threshold_evaluates_nothing(self, monkeypatch):
        # <n> = r^2 for one head, below 4 over the whole sweep.
        res = sweep(template(1, Family.COHERENT), Quantity.MEAN_PHOTON, 0.0, 1.5, 0.05)
        assert res.samples[:, 1].max() < 4.0

        def refuse(*args):
            raise AssertionError("evaluate called with no flagged interval")

        monkeypatch.setattr(sweeps, "evaluate", refuse)
        assert find_crossings(res, 4.0) == []

    @pytest.mark.parametrize("family", list(Family), ids=lambda f: f.value)
    def test_an_exact_zero_at_a_midpoint_is_returned(self, family):
        # <n> = r^2 for one head, so the first midpoint sits on the threshold.
        res = sweep(template(1, family), Quantity.MEAN_PHOTON, 1.0, 3.0, 2.0)
        assert find_crossings(res, 4.0) == [2.0]

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

    @pytest.mark.parametrize("r_max", [0.5, 2.0, 5.0])
    def test_equals_the_two_scan_reference(self, r_max):
        for k in range(16):
            theta = k * math.pi / 8
            assert squeezing_window(theta, r_max) == reference_squeezing_window(theta, r_max), k

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
