"""Work formed once: the head sums of a scalar mu, and of a sweep's array of mu.

``closed_form`` keeps the head sums of each scalar (mu, N, turn) in a small
cache.  Every quantity that reads them must return the same bits whether an
earlier call formed them or not, in any call order, and the kept arrays must
be read-only.  A sweep's statistic forms the sums of its array of mu once and
passes them to each moment it reads.  The oracle keeps nothing: a
``FockVector`` stays its four fields however often it is read.
"""

import random

import numpy as np
import pytest

from multihead import (
    Family,
    Quantity,
    SweepTemplate,
    PolarAmplitude,
    StateSpec,
    build_state,
    fock_element,
    fockspace,
    moment,
    normalization,
    oracle_moment,
    oracle_parity,
    parity,
    sweep,
    validate_spec,
    wigner,
)
from multihead import closed_form
from multihead.closed_form import _head_sums, _kept_head_sums
from multihead.compare import _annihilation_power
from multihead.fockspace import oracle_wigner_grid

POINTS = np.array([0.0, 0.4 - 1.1j, 1.5 + 0.2j, -2.0 + 0.7j])
INDEX = np.arange(13)
SPECS = [
    StateSpec(PolarAmplitude(2.5, 0.7), 3, Family.COHERENT),
    StateSpec(PolarAmplitude(10.0, 3.0), 2, Family.COHERENT),
    StateSpec(PolarAmplitude(0.05, 1.1), 6, Family.COHERENT),
    StateSpec(PolarAmplitude(3.0, 0.4), 4, Family.INCOHERENT),
]


def calls(spec, state):
    """Each quantity that reads head sums or populations, as a no-argument call."""
    return {
        "moment": lambda: [moment(spec, h, l) for h, l in ((1, 1), (0, 3), (3, 0), (2, 2), (0, 6))],
        "normalization": lambda: normalization(spec.alpha, spec.n_heads),
        "parity": lambda: parity(spec),
        "fock_element": lambda: fock_element(spec, INDEX[:, None], INDEX),
        "wigner": lambda: wigner(spec, POINTS),
        "oracle_moment": lambda: [oracle_moment(state, h, l) for h, l in ((1, 1), (0, 2), (2, 2))],
        "oracle_parity": lambda: oracle_parity(state),
    }


def fresh(spec):
    """A newly built state, after forgetting every kept head sum."""
    _kept_head_sums.cache_clear()
    return build_state(spec, cutoff=64)


def bits(value) -> bytes:
    return np.asarray(value).tobytes()


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: f"{s.family.value}-{s.n_heads}-{s.alpha.r:g}")
def test_same_bits_in_any_call_order(spec):
    names = list(calls(spec, None))
    want = {name: bits(calls(spec, fresh(spec))[name]()) for name in names}
    rng = random.Random(13)
    orders = [names, names[::-1]] + [rng.sample(names, len(names)) for _ in range(24)]
    for order in orders:
        quantities = calls(spec, fresh(spec))
        for name in order + order:  # the second pass reads only what the first kept
            assert bits(quantities[name]()) == want[name], (order, name)


def test_kept_head_sums_are_read_only():
    _kept_head_sums.cache_clear()
    sums = _head_sums(1.7, 3)
    assert not sums.flags.writeable
    with pytest.raises(ValueError):
        sums[0] = 0.0
    # An np.float64 mu is a float too and finds the same entry; turn is part of the key.
    assert _head_sums(np.float64(1.7), 3) is sums
    assert _head_sums(1.7, 3, turn=-1.0) is not sums
    assert _kept_head_sums.cache_info().currsize == 2


def test_arrays_of_mu_are_not_kept():
    _kept_head_sums.cache_clear()
    mu = np.array([0.3, 1.7, 9.0])
    sums = _head_sums(mu, 3)
    assert sums.flags.writeable
    zero_d = _head_sums(np.asarray(1.7), 3)
    assert zero_d.flags.writeable
    assert _kept_head_sums.cache_info().currsize == 0
    # Kept or not, a mu's sums have the same bits, alone or in an array.
    assert bits(_head_sums(1.7, 3)) == bits(zero_d) == bits(sums[1])


@pytest.mark.parametrize("spec", [SPECS[0], SPECS[3]], ids=["coherent", "incoherent"])
def test_oracle_readers_keep_nothing_on_the_state(monkeypatch, spec):
    states = []

    def kept_build_state(*args, **kwargs):
        states.append(build_state(*args, **kwargs))
        return states[-1]

    monkeypatch.setattr(fockspace, "build_state", kept_build_state)
    assert validate_spec(spec).passed
    state = fresh(spec)
    oracle_moment(state, 1, 1)
    oracle_parity(state)
    oracle_wigner_grid(state, POINTS)
    if spec.is_coherent:
        _annihilation_power(state, spec.n_heads)
    fields = {"cutoff", "amplitudes", "tail_bound", "norm_sq"}
    assert [set(vars(s)) for s in states + [state]] == [fields, fields]


@pytest.mark.parametrize("spec, formed", [(SPECS[0], 2), (SPECS[3], 0)])
def test_validate_forms_each_head_sum_once(spec, formed):
    # The coherent family's sums at turn 1 and turn -1; the mixture reads none.
    _kept_head_sums.cache_clear()
    assert validate_spec(spec).passed
    info = _kept_head_sums.cache_info()
    assert (info.misses, info.hits > 0) == (formed, formed > 0)


@pytest.mark.parametrize(
    "quantity, heads",
    [("mandel-q", 2), ("mandel-q", 3), ("mandel-q", 6), ("var-x1", 2), ("var-x2", 2)],
)
def test_a_coherent_sweep_forms_its_head_sums_once(monkeypatch, quantity, heads):
    shapes = []
    original = closed_form._head_sums

    def counting(mu, n_heads, turn=1.0):
        if np.ndim(mu):
            shapes.append((np.shape(mu), turn))
        return original(mu, n_heads, turn)

    monkeypatch.setattr(closed_form, "_head_sums", counting)
    sweep(SweepTemplate(0.7, heads, Family.COHERENT), Quantity(quantity), 0.0, 25.0)
    assert shapes == [((2501,), 1.0)]
