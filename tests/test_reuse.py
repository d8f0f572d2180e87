"""Work formed once per state, and nothing kept between calls.

``closed_form._state_sums`` forms the head sums of either family, the
mixture's over one head; each public function, command and sweep step forms
them once per state and passes them to every formula that reads them, so
``validate`` and ``stats`` form two sets of sums (the parity adds its own at
turn -1), ``wigner`` and ``fock`` one, for both families.  Nothing is kept
between calls, so every quantity returns the same bits in any call order.  A
sweep's statistic forms the sums of its array of mu once.  The oracle keeps
nothing either: a ``FockVector`` stays its four fields however often it is
read.
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
    pnd,
    sweep,
    validate_spec,
    wigner,
    wigner_grid,
)
from multihead import closed_form
from multihead.cli import main
from multihead.fockspace import _annihilation_power, oracle_wigner_grid

POINTS = np.array([0.0, 0.4 - 1.1j, 1.5 + 0.2j, -2.0 + 0.7j])
AXIS = np.linspace(-2.0, 2.0, 5)
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
        "wigner_grid": lambda: wigner_grid(spec, AXIS, AXIS),
        "pnd": lambda: pnd(spec, INDEX),
        "oracle_moment": lambda: [oracle_moment(state, h, l) for h, l in ((1, 1), (0, 2), (2, 2))],
        "oracle_parity": lambda: oracle_parity(state),
    }


def fresh(spec):
    """A newly built state."""
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


def formed_turns(monkeypatch) -> list:
    """The turn of each set of head sums formed from now on, in order."""
    turns = []
    original = closed_form._head_sums

    def counting(mu, n_heads, rows, turn=1.0):
        turns.append(turn)
        return original(mu, n_heads, rows, turn)

    monkeypatch.setattr(closed_form, "_head_sums", counting)
    return turns


# libm's and numpy's powers round this cat's mu apart: a second mu would form a third vector.
CAT_30 = StateSpec(PolarAmplitude(30.0, 0.7), 12, Family.COHERENT)


@pytest.mark.parametrize(
    "spec, formed",
    [(SPECS[0], [1.0, -1.0]), (CAT_30, [1.0, -1.0]), (SPECS[3], [1.0, -1.0])],
    ids=["coherent", "coherent-30-12", "incoherent"],
)
def test_validate_forms_each_head_sum_once(monkeypatch, spec, formed):
    # The state's sums at turn 1, then the parity's at turn -1; the mixture's over one head.
    turns = formed_turns(monkeypatch)
    assert validate_spec(spec).passed
    assert turns == formed


@pytest.mark.parametrize("family", ["coherent", "incoherent"])
@pytest.mark.parametrize(
    "command, formed", [("stats", 2), ("validate", 2), ("wigner", 1), ("fock", 1)]
)
def test_each_command_forms_its_head_sums_once(capsys, monkeypatch, command, formed, family):
    turns = formed_turns(monkeypatch)
    assert main([command, "--alpha", "1+1i", "--heads", "3", "--family", family]) == 0
    assert len(turns) == formed


@pytest.mark.parametrize(
    "quantity, heads",
    [("mandel-q", 2), ("mandel-q", 3), ("mandel-q", 6), ("var-x1", 2), ("var-x2", 2)],
)
def test_a_coherent_sweep_forms_its_head_sums_once(monkeypatch, quantity, heads):
    shapes = []
    original = closed_form._head_sums

    def counting(mu, n_heads, rows, turn=1.0):
        if np.ndim(mu):
            shapes.append((np.shape(mu), turn))
        return original(mu, n_heads, rows, turn)

    monkeypatch.setattr(closed_form, "_head_sums", counting)
    sweep(SweepTemplate(0.7, heads, Family.COHERENT), Quantity(quantity), 0.0, 25.0)
    assert shapes == [((2501,), 1.0)]
