import math

import numpy as np
import pytest

from multihead import (
    CapacityError,
    Family,
    PolarAmplitude,
    StateSpec,
    UndefinedStatisticError,
    build_state,
    mandel_q,
    mean_photon,
    moment,
    moment_table,
    normalization,
    parity,
    quadrature_variances,
    wigner,
    wigner_grid,
)
from multihead import closed_form
from multihead.closed_form import (
    RESIDUE_TOL,
    TWO_OVER_PI,
    _envelopes,
    _head_sums,
    _live_pairs,
    _pair_factors,
    _pair_table,
    _pairs,
    _state_sums,
)
from multihead.errors import InvalidInputError
from multihead.fockspace import oracle_wigner_grid
from multihead.roots import nth_roots, root_modulus
from multihead.sweeps import Quantity, SweepTemplate, evaluate
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


class TestMomentOrders:
    @pytest.mark.parametrize("h,l", [(-1, 0), (0, -2), (1.5, 1.5), (1.5, 0), (math.nan, 0),
                                     (0, 2.0), (True, 0), (1, False), ("1", 1), (None, 0)])
    def test_not_a_nonnegative_integer_is_invalid(self, h, l):
        with pytest.raises(InvalidInputError):
            moment(spec(3, Family.COHERENT), h, l)

    @pytest.mark.parametrize("family", list(Family))
    def test_numpy_integer_orders_are_the_python_ones(self, family):
        s = spec(2, family)
        for h, l in ((0, 0), (1, 1), (2, 0), (3, 1)):
            assert moment(s, np.int64(h), np.uint8(l)) == moment(s, h, l)


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

    @pytest.mark.parametrize("n,r", [(2, 1e-30), (3, 1e-30), (1, 5e-324)])
    def test_a_mean_that_rounds_to_zero_is_a_capacity_error(self, n, r):
        s = StateSpec(PolarAmplitude(r, 0.7), n, Family.COHERENT)
        with pytest.raises(CapacityError, match=f"rounds to 0 at r = {r:.4g}"):
            mandel_q(s)


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

    @pytest.mark.parametrize("family", list(Family))
    @pytest.mark.parametrize("r", [1e8, 1e10, 1e16, 1e100])
    def test_coherent_state_is_exactly_vacuum_limited(self, family, r):
        # <n> - |<a>|^2 and Re<a^2> - Re<a>^2 cancel exactly; the 1/2 used to be
        # swamped by r^2 (3.5 at r = 1e8, -16383.5 at r = 1e10).
        v = quadrature_variances(StateSpec(PolarAmplitude(r, 0.3), 1, family))
        assert (v.var_x1, v.var_x2) == (0.5, 0.5)

    @pytest.mark.parametrize("family", list(Family))
    @pytest.mark.parametrize("r", [1e16, 1e100])
    def test_two_heads_keep_the_half_at_large_modulus(self, family, r):
        # var_x2 - 1/2 is 0 for the mixture and r(tanh r - 1) for the cat: both
        # far below an ulp of <n> = r, which the 1/2 used to be added to first.
        v = quadrature_variances(StateSpec(PolarAmplitude(r), 2, family))
        assert v.var_x2 == 0.5
        assert v.var_x1 == pytest.approx(2.0 * r, rel=1e-15)

    @pytest.mark.parametrize("n", range(1, 7))
    @pytest.mark.parametrize("family", list(Family))
    def test_uncertainty_product(self, n, family):
        large = [PolarAmplitude(1e8, 0.3), PolarAmplitude(1e10, 0.3), PolarAmplitude(1e16),
                 PolarAmplitude(1e100)]
        for a in random_amplitudes(n + 40, count=5) + large:
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


def reference_parity_sums(mu, n):
    """The parity's head sum S_0 as it was formed before the exact-cancel exponent:
    sum_j exp(mu*(-w^j - 1)) with every w^j rounded."""
    omega = np.exp(2j * np.pi * np.arange(n) / n)
    return n * np.fft.ifft(np.exp(np.multiply.outer(mu, -omega - 1.0)), axis=-1)


class TestParityAtLargeModulus:
    """-w^(N/2) = 1 exactly; its rounded phase mu*1e-16 used to swamp the parity sum."""

    @pytest.mark.parametrize("n", [2, 4, 6, 12])
    @pytest.mark.parametrize("r", [1e6, 1e20, 1e100, 1e200])
    def test_even_cat_parity_is_one(self, n, r):
        s = StateSpec(PolarAmplitude(r, 0.7), n, Family.COHERENT)
        assert parity(s) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 12])
    def test_sum_is_unchanged_where_the_rounded_phase_passed(self, n):
        # Up to mu = 1e5 the rounded phase was below RESIDUE_TOL; there the pair
        # sum must agree with the real part of the full sum to 4N eps.
        mu = np.concatenate([[0.0, 1e-300, 1e-12], np.geomspace(1e-6, 1e5, 400)])
        want = reference_parity_sums(mu, n)[..., 0]
        assert np.max(np.abs(want.imag)) <= 1e-10 * max(1.0, np.max(np.abs(want)))
        got = _head_sums(mu, n, (0,), turn=-1.0)[0]
        assert np.max(np.abs(got - want.real)) <= 4 * n * np.finfo(float).eps


class TestOverflow:
    """Moduli whose moments or head occupation overflow a double raise CapacityError."""

    @pytest.mark.parametrize("family", list(Family))
    @pytest.mark.parametrize("r,n", [(1e100, 1), (1e200, 1), (1e160, 2), (1e200, 2)])
    def test_overflowing_moment_is_capacity_error(self, family, r, n):
        s = StateSpec(PolarAmplitude(r), n, family)
        with pytest.raises(CapacityError, match="overflows"):
            moment(s, 2, 2)
        with pytest.raises(CapacityError, match="overflows"):
            mandel_q(s)

    @pytest.mark.parametrize("family", list(Family))
    def test_overflowing_occupation_is_capacity_error(self, family):
        s = StateSpec(PolarAmplitude(1e200), 1, family)
        for f in (lambda: normalization(s.alpha, 1), lambda: parity(s), lambda: wigner(s, 0.0)):
            with pytest.raises(CapacityError, match="overflows"):
                f()

    @pytest.mark.parametrize("family", list(Family))
    def test_finite_moments_are_returned(self, family):
        s = StateSpec(PolarAmplitude(1e100), 2, family)
        assert moment(s, 2, 2) == pytest.approx(1e200, rel=1e-15)
        assert mean_photon(s) == pytest.approx(1e100, rel=1e-15)


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


def reference_cat_wigner(s, beta):
    """The coherent Wigner as the N^2 pair loop: one exp per head pair and point."""
    beta = np.asarray(beta, dtype=complex)
    n = s.n_heads
    heads = nth_roots(s.alpha, n)
    log_overlaps = root_modulus(s.alpha, n) ** 2 * (np.exp(2j * np.pi * np.arange(n) / n) - 1.0)
    total = np.zeros(beta.shape, dtype=complex)
    for k1, g1 in enumerate(heads):
        for k2, g2 in enumerate(heads):
            total += np.exp(
                log_overlaps[(k1 - k2) % n] - 2.0 * (np.conj(g2) - np.conj(beta)) * (g1 - beta)
            )
    size = np.max(np.abs(total), initial=1.0)
    assert np.max(np.abs(total.imag), initial=0.0) <= RESIDUE_TOL * size
    return TWO_OVER_PI * total.real / normalization(s.alpha, n)


# mu = r^(2/N), on both sides of 350; None stands for r = 1e-3.
CAT_MU = [None, 1e-3, 0.5, 3.5, 30.0, 120.0, 340.0, 360.0, 1000.0]


class TestCatWignerPairTable:
    """The centred pair sum, at points and on grids, against the plain N^2 pair loop."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 12])
    @pytest.mark.parametrize("mu", CAT_MU)
    def test_equals_the_pair_loop(self, n, mu):
        mu = 1e-3 ** (2.0 / n) if mu is None else mu
        s = StateSpec(PolarAmplitude(mu ** (n / 2.0), 0.37), n, Family.COHERENT)
        heads = np.array(nth_roots(s.alpha, n))
        axis = np.linspace(-4.0, 4.0, 21) / math.sqrt(2.0)
        grid = (axis + 1j * axis[:, None]).ravel()
        midpoints = ((heads + heads[:, None]) / 2.0).ravel()
        points = np.concatenate([grid, heads, midpoints])
        tol = 64 * np.finfo(float).eps * (1.0 + mu)
        assert np.max(np.abs(wigner(s, points) - reference_cat_wigner(s, points))) <= tol
        values, _ = wigner_grid(s, axis, axis)
        assert np.max(np.abs(values.ravel() - reference_cat_wigner(s, grid))) <= tol

    @pytest.mark.parametrize("family", list(Family))
    @pytest.mark.parametrize("n, r", [(2, 1600.0), (3, 64000.0), (12, 40.0**12)])
    def test_pruning_is_exact(self, n, r, family, monkeypatch):
        # Heads 40 apart: on a grid around head 0 most pairs' envelopes underflow to 0.
        s = StateSpec(PolarAmplitude(r, 0.7), n, family)
        g0 = nth_roots(s.alpha, n)[0]
        xs, ys = g0.real + np.linspace(-3.0, 3.0, 31), g0.imag + np.linspace(-3.0, 3.0, 23)
        table = _pair_table(s, *_pairs(s), _state_sums(s, s.alpha.r))
        dropped = ~_live_pairs(_envelopes(table[1], xs)[1], _envelopes(table[2], ys)[1])
        assert 0 < np.count_nonzero(dropped) < dropped.size
        values, bound = wigner_grid(s, xs, ys)
        # The unpruned sum, over every pair.
        monkeypatch.setattr(closed_form, "_live_pairs", lambda ex, ey: np.ones(len(ex), bool))
        terms, errors = _pair_factors(table, xs, ys, math.sqrt(2 * dropped.size))
        assert terms[0].shape[0] == 2 * dropped.size
        with np.errstate(over="ignore", invalid="ignore"):
            assert values.tobytes() == np.einsum("qy,qx->yx", *terms).tobytes()
            assert bound.tobytes() == np.einsum("qy,qx->yx", *errors).tobytes()

    @pytest.mark.parametrize("family", list(Family))
    @pytest.mark.parametrize("n", [2, 12])
    def test_row_blocks_have_the_bits_and_points_the_bound_of_the_whole_grid(
        self, n, family, monkeypatch
    ):
        s = StateSpec(PolarAmplitude(30.0, 0.7), n, family)
        axis = np.linspace(-6.0, 6.0, 241)
        values, bound = wigner_grid(s, axis, axis)
        for rows in (slice(0, 60), slice(60, 200), slice(200, 241)):
            block = wigner_grid(s, axis, axis[rows])
            assert block[0].tobytes() == values[rows].tobytes()
            assert block[1].tobytes() == bound[rows].tobytes()
        # The 241^2 points sum their pairs in one chunk at N = 2 and in several at N = 12.
        tables = []
        original = closed_form._pair_table
        monkeypatch.setattr(
            closed_form, "_pair_table", lambda *args: tables.append(1) or original(*args))
        points = wigner(s, axis + 1j * axis[:, None])
        assert (len(tables) > 1) == (n == 12)
        assert np.all(np.abs(points - values) <= bound)

    @pytest.mark.parametrize("family", list(Family))
    @pytest.mark.parametrize("beta", [1e160, 1e200j, 1.7e308, -1e307 + 1e154j])
    def test_far_out_points_are_zero(self, family, beta):
        # |beta|^2 overflows there; no warning escapes and no NaN comes back.
        s = StateSpec(PolarAmplitude.from_cartesian(1.0, 1.0), 3, family)
        assert wigner(s, np.array([beta, 0.0]))[0] == 0.0
        values, bound = wigner_grid(s, np.array([beta.real, 0.0]), np.array([beta.imag, 0.0]))
        assert values[0, 0] == bound[0, 0] == 0.0 and values[1, 1] > 0.0


class TestEmptyInput:
    """An empty point or modulus array gives an empty result for both families."""

    @pytest.mark.parametrize("family", list(Family))
    def test_wigner(self, family):
        out = wigner(spec(3, family), np.empty(0, dtype=complex))
        assert out.shape == (0,) and out.dtype == float
        values, bound = wigner_grid(spec(3, family), np.empty(0), np.linspace(-1.0, 1.0, 4))
        assert values.shape == bound.shape == (4, 0)

    @pytest.mark.parametrize("quantity", list(Quantity))
    @pytest.mark.parametrize("family", list(Family))
    def test_evaluate(self, family, quantity):
        template = SweepTemplate(theta_p=0.4, n_heads=3, family=family)
        assert evaluate(template, quantity, np.empty(0)).shape == (0,)

    @pytest.mark.parametrize("family", list(Family))
    def test_oracle_wigner_grid(self, family):
        state = build_state(spec(3, family), cutoff=48)
        assert oracle_wigner_grid(state, np.empty(0, dtype=complex)).shape == (0,)
        assert oracle_wigner_grid(state, np.empty((0, 4), dtype=complex)).shape == (0, 4)
