"""The circulant head sum behind every closed-form moment.

``reference_moment`` is the explicit N^2 head-pair double sum that the
closed forms used before they were reduced to one circulant sum S_l; the
tests pin the reduced form against it and against an mpmath evaluation of
the same double sum at 40 digits.  ``closed_form._head_sums`` adds the sum's
conjugate terms j and N - j as one real pair term; ``full_sums`` keeps all N
complex terms, and the tests pin the pair sums against it and against 40-digit
sums.  The mixture's heads never interfere, so its sums are one head's; the
tests pin its parity to the bits of a lone coherent state's exp(-2 mu).
"""

import math
from dataclasses import astuple

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multihead import Family, PolarAmplitude, StateSpec, moment
from multihead.closed_form import (
    RESIDUE_TOL, _head_sums, _parity, _state_sums, moment_table)
from multihead.roots import head_occupation, root_angles

EPS = np.finfo(float).eps
# Both the double sum and the circulant sum stayed within 11 eps of this scale.
BOUND_EPS = 64


def _head_weights(mu: float, n_heads: int) -> np.ndarray:
    """Overlap weights exp(mu*(exp(2*pi*i*(k1-k2)/N) - 1)) as an N x N matrix."""
    k = np.arange(n_heads)
    delta = k[:, None] - k[None, :]
    return np.exp(mu * (np.exp(2j * np.pi * delta / n_heads) - 1.0))


def reference_moment(spec: StateSpec, h: int, l: int) -> complex:
    """<a^dag^h a^l> from the N^2 double sum over head pairs (mixture: N heads)."""
    alpha, n_heads = spec.alpha, spec.n_heads
    if not spec.is_coherent:
        if (l - h) % n_heads != 0:
            return 0j
        return alpha.r ** ((h + l) / n_heads) * np.exp(1j * (l - h) * alpha.theta_p / n_heads)
    if alpha.r == 0.0:
        return complex(1.0 if h == l == 0 else 0.0)
    phases = np.array(root_angles(alpha, n_heads))
    w = _head_weights(alpha.r ** (2.0 / n_heads), n_heads)
    total = np.einsum("i,ij,j->", np.exp(1j * l * phases), w, np.exp(-1j * h * phases))
    return complex(alpha.r ** ((h + l) / n_heads) * total / w.sum().real)


def _exact_pairs(spec: StateSpec) -> list:
    """(g1, g2, <g2|g1>) for each head pair at 40 significant digits; the mixture's
    diagonal pairs weigh 1."""
    mpmath.mp.dps = 40
    n = spec.n_heads
    r, theta = mpmath.mpf(spec.alpha.r), mpmath.mpf(spec.alpha.theta_p)
    rho = r ** (mpmath.mpf(1) / n)
    heads = [rho * mpmath.expj((2 * mpmath.pi * k + theta) / n) for k in range(n)]
    if not spec.is_coherent:
        return [(g, g, mpmath.mpf(1)) for g in heads]
    return [
        (g1, g2, mpmath.exp(-(abs(g1) ** 2 + abs(g2) ** 2) / 2 + mpmath.conj(g2) * g1))
        for g1 in heads
        for g2 in heads
    ]


def exact_moments(spec: StateSpec, orders) -> list:
    """The double sum at 40 significant digits for each (h, l) in orders, as mpmath values."""
    pairs = _exact_pairs(spec)
    norm = sum(w for _, _, w in pairs)
    return [sum(w * mpmath.conj(g2) ** h * g1**l for g1, g2, w in pairs) / norm for h, l in orders]


def exact_statistics(spec: StateSpec) -> dict:
    """<n>, Mandel Q, both quadrature variances and the parity at 40 digits, as mpmath values.

    Q and the variances are formed from the 40-digit moments, so a small
    difference of large moments keeps its digits.
    """
    a, n_mean, a2, g2 = exact_moments(spec, [(0, 1), (1, 1), (0, 2), (2, 2)])
    n_mean = n_mean.real
    spread, cross = n_mean - abs(a) ** 2, (a2 - a**2).real
    # The parity operator between two heads flips the sign of conj(g2) g1 in <g2|g1>.
    pairs = _exact_pairs(spec)
    parity = sum(w * mpmath.exp(-2 * mpmath.conj(g2) * g1) for g1, g2, w in pairs)
    return {
        "mean_photon": n_mean,
        "mandel_q": g2.real / n_mean - n_mean if n_mean else None,
        "var_x1": spread + cross + mpmath.mpf(1) / 2,
        "var_x2": spread - cross + mpmath.mpf(1) / 2,
        "parity": (parity / sum(w for _, _, w in pairs)).real,
    }


def _scale(spec: StateSpec, h: int, l: int) -> float:
    return max(1.0, spec.alpha.r ** ((h + l) / spec.n_heads))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    n_heads=st.integers(1, 12),
    r=st.floats(1e-3, 60.0),
    theta=st.floats(0.0, 2 * math.pi),
    h=st.integers(0, 3),
    l=st.integers(0, 3),
    family=st.sampled_from(list(Family)),
)
def test_circulant_sum_matches_double_sum(n_heads, r, theta, h, l, family):
    spec = StateSpec(PolarAmplitude(r, theta), n_heads, family)
    diff = abs(moment(spec, h, l) - reference_moment(spec, h, l))
    assert diff <= BOUND_EPS * EPS * _scale(spec, h, l)


def test_moments_match_high_precision_double_sum():
    rng = np.random.default_rng(2109)
    orders = [(h, l) for h in range(4) for l in range(4)]
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(1, 13))
        alpha = PolarAmplitude(math.exp(rng.uniform(math.log(1e-3), math.log(60.0))),
                               rng.uniform(0.0, 2 * math.pi))
        spec = StateSpec(alpha, n, Family.COHERENT if rng.random() < 0.75 else Family.INCOHERENT)
        for (h, l), want in zip(orders, exact_moments(spec, orders)):
            worst = max(worst, abs(moment(spec, h, l) - want) / (EPS * _scale(spec, h, l)))
    assert worst <= BOUND_EPS


def test_exact_statistics_keep_a_small_mandel_q():
    # Q = 2r / sinh 2r for the two-head cat: about 3.4e-16 at r = 20, where <n> = r tanh r
    # rounds to 20 in a double and a Q formed from double moments reads 0.
    r = mpmath.mpf(20)
    stats = exact_statistics(StateSpec(PolarAmplitude(20.0, 0.3), 2, Family.COHERENT))
    assert abs(stats["mandel_q"] / (2 * r / mpmath.sinh(2 * r)) - 1) < mpmath.mpf(10) ** -20
    assert abs(stats["parity"] - 1) < mpmath.mpf(10) ** -30


# Head counts for the pair-sum tests, and moduli from the vacuum past mu = 1e5.
PAIR_HEADS = list(range(1, 13)) + [64]
MU = np.array([0.0, 1e-300, 1e-12, 1e-6, 1e-3, 0.05, 0.5, 1.0, 2.5, 7.0, 30.0, 120.0, 1e3, 1e5])


def full_sums(mu, n_heads: int, turn: float) -> np.ndarray:
    """All N complex terms sum_j w^(l*j) exp(mu*(turn*w^j - 1)), l on the last axis.

    The exponent is exactly 0 where turn*w^j = 1, as in the pair sums.
    """
    w = np.exp(2j * np.pi * np.arange(n_heads) / n_heads)
    shift = np.where(turn * w.real == 1.0, 0.0, turn * w - 1.0)
    overlaps = np.exp(np.multiply.outer(mu, shift))
    k = np.arange(n_heads)
    phases = np.exp(2j * np.pi * (np.multiply.outer(k, k) % n_heads) / n_heads)
    return np.einsum("mj,lj->ml", overlaps, phases)


def pair_sums(mu, n_heads: int, turn: float) -> np.ndarray:
    """The pair sums S_0 .. S_(N-1) on the last axis."""
    sums = _head_sums(mu, n_heads, range(n_heads), turn)
    return np.stack([sums[l] for l in range(n_heads)], axis=-1)


@pytest.mark.parametrize("n", PAIR_HEADS)
def test_pair_sums_add_up_to_n(n):
    # sum_l S_l = N overlap_0 = N.
    assert np.max(np.abs(pair_sums(MU, n, 1.0).sum(axis=-1) - n)) <= 4 * n * EPS


@pytest.mark.parametrize("turn", [1.0, -1.0])
@pytest.mark.parametrize("n", PAIR_HEADS)
def test_pair_sums_are_exact_at_the_vacuum(n, turn):
    sums = pair_sums(0.0, n, turn)
    assert sums.tolist() == [float(n)] + [0.0] * (n - 1)
    assert not np.any(np.signbit(sums))  # no -0, which would print as "-0"


@pytest.mark.parametrize("turn", [1.0, -1.0])
@pytest.mark.parametrize("n", PAIR_HEADS)
def test_pair_sums_are_the_real_full_sums(n, turn):
    full = full_sums(MU, n, turn)
    # The full sum's terms j and N - j are conjugates up to rounding.
    assert np.max(np.abs(full.imag)) <= RESIDUE_TOL * max(1.0, np.max(np.abs(full)))
    assert np.max(np.abs(pair_sums(MU, n, turn) - full.real)) <= 4 * n * EPS
    # A modulus alone has its sums' bits in the array.
    for k in (1, 6, 11):
        assert pair_sums(MU[k], n, turn).tolist() == pair_sums(MU, n, turn)[k].tolist()


@pytest.mark.parametrize("turn", [1.0, -1.0])
@pytest.mark.parametrize("n", PAIR_HEADS)
def test_a_lone_modulus_adds_its_terms_in_order(n, turn):
    # One modulus forms its terms at once; they are added in the order of j as
    # an array's are, for a lone row too, where a sum over the j axis would
    # add pairwise.
    whole = pair_sums(MU, n, turn)
    for k in (1, 6, 11):
        assert _head_sums(MU[k], n, (0,), turn)[0] == whole[k, 0]


def exact_sum(mu: float, n_heads: int, l: int, turn: int):
    """S_l at the double mu to 40 significant digits, from all N terms."""
    mpmath.mp.dps = 40
    total = 0
    for j in range(n_heads):
        w = mpmath.expj(2 * mpmath.pi * j / n_heads)
        total += mpmath.expj(2 * mpmath.pi * (l * j % n_heads) / n_heads) * mpmath.exp(
            mpmath.mpf(mu) * (turn * w - 1))
    return total.real


@pytest.mark.parametrize("n", [3, 4, 5, 6, 8, 12])
def test_pair_sums_match_high_precision_sums(n):
    # The statistics' rows and the parity's sum, r from 1e-3 to 1e3.
    for r in np.geomspace(1e-3, 1e3, 13).tolist():
        mu = head_occupation(r, n)
        sums = _head_sums(mu, n, (0, 1, 2))
        for l, value in sums.items():
            assert abs(value - exact_sum(mu, n, l, 1)) <= 4 * n * EPS
        assert abs(_head_sums(mu, n, (0,), -1.0)[0] - exact_sum(mu, n, 0, -1)) <= 4 * n * EPS


MIXTURE_HEADS = [1, 2, 3, 5, 12]
# One modulus, a sweep's 2,501 moduli r = 0 .. 25, and the edges of r.
MIXTURE_MODULI = [2.5, np.linspace(0.0, 25.0, 2501), 1e-300, 1e100]


def mixture(n: int) -> StateSpec:
    return StateSpec(PolarAmplitude(1.0, 0.7), n, Family.INCOHERENT)


def coherent_state_parity(r, n: int):
    """A lone coherent state's parity exp(-2 mu) from one complex exp: the bits the
    mixture's parity keeps."""
    with np.errstate(over="ignore"):  # -2 mu overflows only to -inf, whose exp is 0
        return np.exp(head_occupation(r, n) * (-2.0 + 0j)).real


@pytest.mark.parametrize("r", MIXTURE_MODULI, ids=["one", "grid", "1e-300", "1e100"])
@pytest.mark.parametrize("n", MIXTURE_HEADS)
def test_mixture_sums_are_one_heads(n, r):
    spec = mixture(n)
    sums = _state_sums(spec, r)
    assert sorted(sums) == sorted({l % n for l in (0, 1, 2)})
    for l in (0, 1, 2):
        assert np.all(np.asarray(sums[l % n]) == 1.0)
    got = np.asarray(_parity(spec, r, sums), dtype=float)
    assert got.tobytes() == np.asarray(coherent_state_parity(r, n), dtype=float).tobytes()


@pytest.mark.parametrize("n, r", [(1, 1.2e154), (2, 1e308)])
def test_mixture_parity_is_zero_where_two_mu_overflows(n, r):
    with np.errstate(over="ignore"):
        assert -2.0 * head_occupation(r, n) == -math.inf
    for moduli in (r, np.array([0.0, 1.0, r])):
        spec = mixture(n)
        got = np.asarray(_parity(spec, moduli, _state_sums(spec, moduli)))
        assert got.tobytes() == np.asarray(coherent_state_parity(moduli, n)).tobytes()
        assert np.atleast_1d(got)[-1] == 0.0


@pytest.mark.parametrize("alpha", [PolarAmplitude(1e-200, 2.0), PolarAmplitude(5e-324, 2.0),
                                   PolarAmplitude(1.0, 0.7), PolarAmplitude(3.0, -2.5)])
def test_one_head_mixture_has_the_one_head_cats_moments(alpha):
    # The same coherent state: every moment's bits agree, the signed zeros of
    # underflowed moments included (their phases are negative at theta = 2).
    tables = [moment_table(StateSpec(alpha, 1, family)) for family in Family]
    mixture_bits, cat_bits = (np.array(astuple(t)).tobytes() for t in tables)
    assert mixture_bits == cat_bits
