"""Acceptance suite: one test per exit criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines alongside the pytest verdicts.
"""

import cmath
import math
import time

import numpy as np
import pytest

from multihead import (
    Family,
    PolarAmplitude,
    Quantity,
    StateSpec,
    SweepTemplate,
    build_state,
    find_crossings,
    mandel_q,
    moment_table,
    parity,
    pnd,
    sweep,
    validate_spec,
    wigner,
)
from multihead.compare import _annihilation_power

ALPHA = PolarAmplitude.from_cartesian(1.0, 1.0)


def wigner_two_head_incoherent(alpha: PolarAmplitude, beta):
    """Two-head incoherent Wigner function in its explicit two-Gaussian form."""
    beta = np.asarray(beta, dtype=complex)
    g = math.sqrt(alpha.r) * cmath.exp(1j * alpha.theta_p / 2.0)
    out = (
        np.exp(-2.0 * np.abs(g - beta) ** 2) + np.exp(-2.0 * np.abs(-g - beta) ** 2)
    ) / math.pi
    return float(out) if out.ndim == 0 else out


def wigner_two_head_coherent(alpha: PolarAmplitude, beta):
    """Two-head cat Wigner function: two Gaussians plus the interference fringe."""
    beta = np.asarray(beta, dtype=complex)
    r = alpha.r
    g = math.sqrt(r) * cmath.exp(1j * alpha.theta_p / 2.0)
    denom = math.pi * (1.0 + math.exp(-2.0 * r))
    gauss = np.exp(-2.0 * np.abs(g - beta) ** 2) + np.exp(-2.0 * np.abs(-g - beta) ** 2)
    cross = np.exp(-2.0 * np.conj(g) * beta + 2.0 * g * np.conj(beta) - 2.0 * np.abs(beta) ** 2)
    fringe = np.real(cross + np.conj(cross))  # z + conj(z) is real by construction
    out = (gauss + fringe) / denom
    return float(out) if out.ndim == 0 else out


def report(number, name, ok):
    print(f"ACCEPTANCE {number} ({name}): {'PASS' if ok else 'FAIL'}")
    return ok


def random_amplitudes(seed, count, r_max):
    rng = np.random.default_rng(seed)
    return [
        PolarAmplitude(rng.uniform(1e-3, r_max), rng.uniform(0.0, 2 * math.pi))
        for _ in range(count)
    ]


def test_criterion_1_table_closure():
    start = time.perf_counter()
    worst = 0.0
    for n in range(1, 7):
        for a in random_amplitudes(n, 20, 4.0):
            t = moment_table(StateSpec(a, n, Family.INCOHERENT))
            alpha = a.to_complex()
            if n == 1:
                expect = (np.conj(alpha), alpha, a.r**2, np.conj(alpha) ** 2, alpha**2, a.r**4)
            elif n == 2:
                expect = (0.0, 0.0, a.r, np.conj(alpha), alpha, a.r**2)
            else:
                expect = (0.0, 0.0, a.r ** (2 / n), 0.0, 0.0, a.r ** (4 / n))
            got = (t.a_dag, t.a, t.n_mean, t.a_dag2, t.a2, t.a_dag2_a2)
            worst = max(worst, max(abs(g - e) for g, e in zip(got, expect)))
            tc = moment_table(StateSpec(a, n, Family.COHERENT))
            if n == 1:
                cat = (np.conj(alpha), alpha, a.r**2, np.conj(alpha) ** 2, alpha**2, a.r**4)
                got_c = (tc.a_dag, tc.a, tc.n_mean, tc.a_dag2, tc.a2, tc.a_dag2_a2)
                worst = max(worst, max(abs(g - e) for g, e in zip(got_c, cat)))
            elif n == 2:
                worst = max(worst, abs(tc.n_mean - a.r * math.tanh(a.r)))
                worst = max(worst, abs(tc.a_dag2_a2 - a.r**2))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-10 and elapsed < 1.0
    assert report(1, "table closure", ok), f"worst diff {worst:.3e}, {elapsed:.2f}s"


def test_criterion_2_oracle_equivalence():
    start = time.perf_counter()
    amplitudes = [
        PolarAmplitude(0.5),
        ALPHA,
        PolarAmplitude(2.0, math.pi / 3),
        PolarAmplitude(3.0),
    ]
    failures = []
    for n in range(1, 7):
        for family in Family:
            for a in amplitudes:
                rep = validate_spec(StateSpec(a, n, family))
                if not rep.passed:
                    worst = max(rep.diffs.items(), key=lambda item: item[1])
                    failures.append((n, family.value, a, worst))
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 60.0
    assert report(2, "oracle equivalence", ok), f"failures {failures}, {elapsed:.1f}s"


def test_criterion_3_mandel_crossings():
    start = time.perf_counter()
    tpl3 = SweepTemplate(0.0, 3, Family.COHERENT)
    c3 = find_crossings(sweep(tpl3, Quantity.MANDEL_Q, 0.01, 25.0, 0.01), 0.0)
    ok3 = (
        len(c3) == 2
        and abs(c3[0] - 5.23972) < 1e-3
        and abs(c3[1] - 17.1512) < 1e-3
    )

    tpl4 = SweepTemplate(0.0, 4, Family.COHERENT)
    c4 = find_crossings(sweep(tpl4, Quantity.MANDEL_Q, 0.01, 100.0, 0.01), 0.0)
    # the crossing set lands on (k*pi)^2; the sign pattern between the
    # crossings alternates super/sub/super/sub, so the published interval
    # wording is self-contradictory while the three boundary values are real
    candidates = (9.8696, 39.4784, 88.8264)
    ok4 = len(c4) == 3 and all(abs(c - ref) < 1e-3 for c, ref in zip(c4, candidates))
    signs = [
        mandel_q(tpl4.spec_at(r)) for r in (5.0, 20.0, 60.0, 95.0)
    ]
    ok4 = ok4 and signs[0] > 0 and signs[1] < 0 and signs[2] > 0 and signs[3] < 0
    print(f"  4-head cat crossings {[round(c, 4) for c in c4]} "
          f"(reference {candidates} confirmed; quoted interval text refuted)")
    elapsed = time.perf_counter() - start
    ok = ok3 and ok4 and elapsed < 30.0
    assert report(3, "Mandel-Q crossings (3- and 4-head cats)", ok), (c3, c4, elapsed)


def test_criterion_3_two_head_cat_crossing():
    # As stated this expects a zero crossing of the two-head cat Mandel Q at
    # 11.7069.  No such crossing exists: Q = r*(1 - tanh(r)^2)/tanh(r) > 0
    # for every finite r > 0, so Q only approaches 0 from above.  The
    # assertion is kept faithful to the stated criterion and fails honestly.
    tpl2 = SweepTemplate(0.0, 2, Family.COHERENT)
    c2 = find_crossings(sweep(tpl2, Quantity.MANDEL_Q, 0.01, 20.0, 0.01), 0.0)
    q_at_quote = mandel_q(tpl2.spec_at(11.7069))
    ok = len(c2) == 1 and abs(c2[0] - 11.7069) < 1e-3
    assert report(3, "two-head cat Mandel-Q crossing at 11.7069", ok), (
        f"no zero crossing found (Q(11.7069) = {q_at_quote:.3e} > 0; "
        "Q = r*(1-tanh(r)^2)/tanh(r) is strictly positive for finite r)"
    )


def test_criterion_4_mixture_poissonian_invariance():
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 9))
        a = PolarAmplitude(rng.uniform(1e-3, 10.0), rng.uniform(0.0, 2 * math.pi))
        worst = max(worst, abs(mandel_q(StateSpec(a, n, Family.INCOHERENT))))
    ok = worst < 1e-10
    assert report(4, "mixture Poissonian invariance", ok), f"worst |Q| = {worst:.3e}"


def test_criterion_5_squeezing_exclusivity():
    thetas = (0.0, math.pi / 4, math.pi / 2, math.pi)
    no_squeeze = [(2, Family.INCOHERENT)] + [
        (n, f) for n in (3, 4, 5, 6) for f in Family
    ]
    floor_ok = True
    for n, family in no_squeeze:
        for theta in thetas:
            tpl = SweepTemplate(theta, n, family)
            for quantity in (Quantity.VAR_X1, Quantity.VAR_X2):
                res = sweep(tpl, quantity, 0.02, 10.0, 0.02)
                floor_ok = floor_ok and min(v for _, v in res.samples) >= 0.5 - 1e-10

    tpl2 = SweepTemplate(math.pi / 4, 2, Family.COHERENT)
    res = sweep(tpl2, Quantity.VAR_X2, 0.01, 5.0, 0.01)
    window_min = min(v for _, v in res.samples)
    edges = find_crossings(res, 0.5)
    # regression value: the window closes where tanh(r) = cos(theta_p)
    edge_ok = len(edges) == 1 and abs(edges[0] - math.atanh(math.cos(math.pi / 4))) < 1e-5
    ok = floor_ok and window_min < 0.5 and edge_ok
    assert report(5, "squeezing exclusivity", ok), (window_min, edges)


def test_criterion_6_parity_pinch_point():
    pinch_ok = all(
        abs(parity(StateSpec(PolarAmplitude(1.0), n, Family.INCOHERENT)) - 0.135335) < 1e-6
        for n in range(1, 7)
    )
    even_ok = True
    for n in (2, 4, 6):
        for r in np.linspace(0.05, 4.0, 30):
            p = parity(StateSpec(PolarAmplitude(float(r)), n, Family.COHERENT))
            even_ok = even_ok and abs(p - 1.0) < 1e-10
    ok = pinch_ok and even_ok
    assert report(6, "parity pinch point", ok)


def test_criterion_7_eigenstate_property():
    worst = 0.0
    for n in range(1, 7):
        spec = StateSpec(ALPHA, n, Family.COHERENT)
        state = build_state(spec)
        image = _annihilation_power(state, n)
        residual = np.linalg.norm(image - ALPHA.to_complex() * state.amplitudes)
        worst = max(worst, residual)
    ok = worst < 1e-8
    assert report(7, "annihilation-power eigenstate", ok), f"worst residual {worst:.3e}"


def test_criterion_8_wigner_structure():
    start = time.perf_counter()
    axis = np.linspace(-4.0, 4.0, 201)
    xx, yy = np.meshgrid(axis, axis, indexing="xy")
    betas = (xx + 1j * yy) / math.sqrt(2.0)
    # grid coordinates are sqrt(2) times the phase-space coordinate, so one
    # grid cell covers dx*dy/2 of phase-space area
    cell = (axis[1] - axis[0]) ** 2 / 2.0
    rng = np.random.default_rng(8)
    sample = rng.normal(scale=1.5, size=100) + 1j * rng.normal(scale=1.5, size=100)
    ok = True
    for n in range(2, 6):
        for family in Family:
            spec = StateSpec(ALPHA, n, family)
            grid = np.asarray(wigner(spec, betas))
            if family is Family.INCOHERENT:
                ok = ok and grid.min() >= -1e-14
            else:
                ok = ok and grid.min() < -0.01
            ok = ok and abs(grid.sum() * cell - 1.0) < 1e-3
            rotated = np.asarray(wigner(spec, sample * np.exp(2j * math.pi / n)))
            ok = ok and np.max(np.abs(rotated - np.asarray(wigner(spec, sample)))) < 1e-10
    ok = ok and np.max(np.abs(
        np.asarray(wigner(StateSpec(ALPHA, 2, Family.INCOHERENT), betas))
        - wigner_two_head_incoherent(ALPHA, betas)
    )) < 1e-12
    ok = ok and np.max(np.abs(
        np.asarray(wigner(StateSpec(ALPHA, 2, Family.COHERENT), betas))
        - wigner_two_head_coherent(ALPHA, betas)
    )) < 1e-12
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 120.0
    assert report(8, "Wigner structure", ok), f"{elapsed:.1f}s"


def test_criterion_9_pnd_support_and_composition():
    support_ok = all(
        pnd(StateSpec(ALPHA, n, Family.COHERENT), m) == 0.0
        for n in range(2, 7)
        for m in range(40)
        if m % n != 0
    )
    spec3 = StateSpec(ALPHA, 3, Family.COHERENT)
    composition_ok = abs(pnd(spec3, 0) - 0.75) < 0.05 and abs(pnd(spec3, 3) - 0.25) < 0.05
    ok = support_ok and composition_ok
    assert report(9, "PND support and three-head composition", ok)
