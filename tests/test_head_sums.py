"""The circulant head sum behind every closed-form moment.

``reference_moment`` is the explicit N^2 head-pair double sum that the
closed forms used before they were reduced to one circulant sum S_l; the
tests pin the reduced form against it and against an mpmath evaluation of
the same double sum at 40 digits.
"""

import math

import mpmath
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from multihead import Family, PolarAmplitude, StateSpec, moment
from multihead.roots import root_angles

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


def exact_moments(spec: StateSpec, orders) -> list:
    """The double sum at 40 significant digits for each (h, l) in orders."""
    mpmath.mp.dps = 40
    n = spec.n_heads
    r, theta = mpmath.mpf(spec.alpha.r), mpmath.mpf(spec.alpha.theta_p)
    rho = r ** (mpmath.mpf(1) / n)
    heads = [rho * mpmath.expj((2 * mpmath.pi * k + theta) / n) for k in range(n)]
    if spec.is_coherent:
        pairs = [
            (g1, g2, mpmath.exp(-(abs(g1) ** 2 + abs(g2) ** 2) / 2 + mpmath.conj(g2) * g1))
            for g1 in heads
            for g2 in heads
        ]
    else:
        pairs = [(g, g, mpmath.mpf(1)) for g in heads]
    norm = sum(w for _, _, w in pairs)
    return [
        complex(sum(w * mpmath.conj(g2) ** h * g1**l for g1, g2, w in pairs) / norm)
        for h, l in orders
    ]


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
