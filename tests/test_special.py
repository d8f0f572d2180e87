"""ln k!, xlogy and the Poisson tails of multihead._special against scipy and mpmath."""

import ast
import math
from pathlib import Path

import mpmath
import numpy as np
import pytest
from scipy.special import gammaln, pdtrc
from scipy.special import xlogy as scipy_xlogy

import multihead
from multihead._special import log_factorial, poisson_tails, xlogy

# Agreement with scipy.special.pdtrc: the worst measured is 1.0e-12 (mu = 340,
# k = 590), where pdtrc itself is off by 1.0e-12 and these sums by 2e-14.
TAIL_RTOL = 1e-11


def bits(values):
    return np.asarray(values, dtype=float).view(np.int64)


class TestLogFactorial:
    def test_equals_gammaln_bits_through_200000(self):
        k = np.arange(200_001)
        assert np.array_equal(bits(log_factorial(k)), bits(gammaln(k + 1)))

    @pytest.mark.parametrize("x", [12, 13, 999, 1000, 10**8, 10**8 + 1, 10**12])
    def test_equals_gammaln_bits_at_the_branch_edges(self, x):
        # x = k + 1 is cephes lgam's argument: its branches change at 13, 1000 and 1e8.
        k = np.array([x - 2, x - 1, x])
        assert np.array_equal(bits(log_factorial(k)), bits(gammaln(k + 1)))
        assert log_factorial(x - 1) == gammaln(x)

    def test_mixed_levels_in_and_past_the_table(self):
        k = np.array([[0, 5000], [4096, 10**9]])
        assert np.array_equal(bits(log_factorial(k)), bits(gammaln(k + 1)))
        assert log_factorial(k).shape == (2, 2)

    def test_random_large_levels(self):
        k = np.random.default_rng(7).integers(0, 10**15, 20_000)
        assert np.array_equal(bits(log_factorial(k)), bits(gammaln(k + 1)))

    def test_float_and_uint64_levels(self):
        # Integral floats, and uint64 levels past int64's range, are levels like any other.
        for k in (np.array([0.0, 12.0, 5000.0, 1e20]), np.array([10**19, 2**63], dtype=np.uint64)):
            assert np.array_equal(bits(log_factorial(k)), bits(gammaln(k + 1)))
        assert log_factorial(np.uint64(10**19)) == gammaln(np.uint64(10**19 + 1))


class TestXlogy:
    def test_equals_scipy_bits(self):
        specials = np.array([0.0, 5e-324, 2.2250738585072014e-308, 1e-300, 1.0, 1e300, np.inf, np.nan])
        rng = np.random.default_rng(3)
        x = np.concatenate([specials, rng.random(500) * 10.0 ** rng.integers(-320, 300, 500)])
        a = np.concatenate([[0.0, -0.0, 1.0, -2.5, 1e-300, 1e308, np.nan], rng.normal(size=200) * 50])
        got = xlogy(a[:, None], x[None, :])
        with np.errstate(all="ignore"):
            want = scipy_xlogy(a[:, None], x[None, :])
        assert np.array_equal(bits(got), bits(want))

    def test_zero_times_log_zero_and_log_zero(self):
        assert xlogy(0.0, 0.0) == 0.0
        assert xlogy(2.0, 0.0) == -np.inf
        assert np.isnan(xlogy(0.0, np.nan))


def tail_grid():
    means = np.concatenate([[0.0, 1e-300, 1e-6, 1e-3, 0.5, 1.0], np.geomspace(1.5, 4200.0, 40)])
    for mu in means.tolist():
        first = max(1, math.ceil(mu))
        yield mu, first, int(10 * math.sqrt(mu) + 81)


class TestPoissonTail:
    @pytest.mark.parametrize("mu, first, count", list(tail_grid()))
    def test_agrees_with_pdtrc(self, mu, first, count):
        levels = np.arange(first, first + count)
        want = pdtrc(levels - 1, mu)
        got = poisson_tails(first, count, mu)
        assert np.all(np.abs(got - want) <= TAIL_RTOL * want + 1e-300), mu

    @pytest.mark.parametrize("mu, k", [(339.8829431438127, 590), (3989.0, 4690), (60.0, 200), (1e6, 10**6)])
    def test_agrees_with_mpmath(self, mu, k):
        with mpmath.workdps(40):
            exact = mpmath.gammainc(k, 0, mu, regularized=True)  # P(Gamma(k) <= mu) = P(X >= k)
            assert abs(poisson_tails(k, 1, mu)[0] / exact - 1) < 1e-13

    def test_edges(self):
        assert poisson_tails(1, 1, 0.0)[0] == 0.0
        assert np.array_equal(poisson_tails(1, 3, 0.0), np.zeros(3))


def imported_modules(path):
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            names.add("." * node.level + (node.module or ""))
        elif isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
    return names


def test_no_module_imports_scipy():
    for path in Path(multihead.__file__).resolve().parent.glob("*.py"):
        assert not any(n.split(".")[0] == "scipy" for n in imported_modules(path)), path.name


def test_special_knows_no_other_module_of_the_package():
    # Both computation paths use it, so it must hold none of their formulas.
    path = Path(multihead.__file__).resolve().parent / "_special.py"
    assert imported_modules(path) == {"__future__", "math", "functools", "itertools", "operator", "numpy"}
