"""Adaptive segment quadrature: the Kronrod rule, batch bound, budget
exhaustion, several segments in one call; and the Newton noise floor of the
moment stage."""

import cmath
import math
import tracemalloc

import numpy as np
import pytest

import sinecomb.zeros
from sinecomb import (ExpPolynomial, Rect, SineProduct, expand_sine_product,
                      find_zeros_report, zero_strip_estimate)
from sinecomb.quadrature import BATCH_PANELS, W, X, integrate_segment
from sinecomb.zeros import _Search

from test_overflow import twelve_terms


# -- the rule ----------------------------------------------------------------------

@pytest.mark.parametrize("column, degree", [(0, 22), (1, 13)])
def test_rule_is_exact_on_polynomials(column, degree):
    # K15 has degree 3 * 7 + 1 = 22, the G7 rule at its odd nodes 2 * 7 - 1
    for d in range(degree + 1):
        exact = (1.0 - (-1.0) ** (d + 1)) / (d + 1)
        assert abs(W[:, column] @ X ** d - exact) <= 1e-15
    assert np.all(W[0::2, 1] == 0)
    assert abs(W[:, column] @ X ** (degree + 1) - 2.0 / (degree + 2)) > 1e-6


def test_integrand_calls_take_whole_panels():
    z0 = 0.5 + 3e-4j
    sizes = []
    integrate_segment(_counted(lambda z: 1.0 / (z - z0), sizes), 0.0, 1.0, 1e-14,
                      max_panels=3000)
    assert all(n % X.size == 0 and 0 < n <= 16 * BATCH_PANELS for n in sizes)
    assert max(sizes) == 16 * BATCH_PANELS // X.size * X.size


def test_three_factor_search_node_count(monkeypatch):
    # the reference 3-factor product on +-25.3: 102,624 integrand nodes with
    # the former GL8/GL16 pair of 24 nodes a panel, 85,860 nodes in 114
    # calls with K15 and one call per split; 82,050 nodes in 65 calls with
    # one call per level of the cell tree and the top and bottom integrated
    # once; the same nodes in 15 calls with the moments of a whole level in
    # one call per row count
    factors = [(math.pi, 0.0, 1), (math.sqrt(2) * math.pi, 0.3, 1),
               (math.sqrt(3) * math.pi, 1.1, 2)]
    p = expand_sine_product(SineProduct.from_factors(1.0, 0.0, factors))
    strip = zero_strip_estimate(p)
    rect = Rect(-25.3, 25.3, strip.alpha - strip.eta, strip.beta + strip.eta)
    sizes, calls = [], []

    def counted(f, *args, **kwargs):
        calls.append(1)
        return integrate_segment(_counted(f, sizes), *args, **kwargs)

    monkeypatch.setattr(sinecomb.zeros, "integrate_segment", counted)
    measure, _ = find_zeros_report(p, rect)
    assert measure.total_mass() == sum(
        m * sum(abs(k * math.pi - beta) < 25.3 * alpha for k in range(-100, 101))
        for alpha, beta, m in factors)
    assert all(n % X.size == 0 and n <= 16 * BATCH_PANELS for n in sizes)
    assert sum(sizes) < 83_000
    assert len(calls) <= 20


# -- one segment ---------------------------------------------------------------------

def test_near_pole_calls_stay_bounded_and_sum_every_panel():
    # at tol 1e-14 the rounding noise of 1/(z - z0) near the pole exceeds
    # the panel share of the tolerance, so panels split until the budget runs
    # out; every panel of the last level must still be evaluated and summed
    z0 = 0.5 + 3e-4j
    sizes = []

    def f(z):
        sizes.append(z.size)
        return 1.0 / (z - z0)

    value, err = integrate_segment(f, 0.0, 1.0, 1e-14, max_panels=20000)
    exact = cmath.log(1.0 - z0) - cmath.log(-z0)
    assert max(sizes) <= 16 * BATCH_PANELS
    assert sum(sizes) > 24 * 10000  # the budget ran out: most panels summed
    assert abs(value - exact) <= 1e-12
    assert err < 1e-12


# -- several segments in one call --------------------------------------------------

def _moment_rows(p, rows, c=0.2 + 0.1j, r=1.5):
    """p'/p times the powers ((z - c)/r)^k, k < rows, as a (rows, n) array."""
    def f(z):
        out = np.empty((rows, z.size), dtype=complex)
        out[0] = p.log_ratio(z)
        out[1:] = (z - c) / r
        return np.cumprod(out, axis=0, out=out)
    return f


def _counted(f, sizes):
    def g(z):
        sizes.append(z.size)
        return f(z)
    return g


@pytest.mark.parametrize("rows", [1, 6])
@pytest.mark.parametrize("tol, budget", [(2e-6, 8000), (1e-10, 250), (1e-13, 300)])
def test_batched_call_matches_separate_calls(rows, tol, budget):
    # the edges of a box around three zeros of sin(pi z) sin(sqrt2 pi z + 0.3),
    # the right one passing 1e-3 from the zero at 1, and a zero-free segment
    p = expand_sine_product(SineProduct.from_factors(
        1.0, 0.0, [(math.pi, 0.0, 1), (math.sqrt(2) * math.pi, 0.3, 1)]))
    f = p.log_ratio if rows == 1 else _moment_rows(p, rows)
    corners = np.array([-0.5 - 0.5j, 1.001 - 0.5j, 1.001 + 0.5j, -0.5 + 0.5j])
    a = np.append(corners, 2.1 + 3j)
    b = np.append(np.roll(corners, -1), 2.8 + 3.2j)
    batched_sizes, separate_sizes = [], []
    values, err = integrate_segment(_counted(f, batched_sizes), a, b, tol,
                                    max_panels=budget)
    separate, errs = zip(*(integrate_segment(_counted(f, separate_sizes),
                                             a[s], b[s], tol, max_panels=budget)
                           for s in range(a.size)))
    separate = np.stack(separate, axis=-1)
    assert values.shape == ((a.size,) if rows == 1 else (rows, a.size))
    assert sum(batched_sizes) == sum(separate_sizes)
    assert len(batched_sizes) < len(separate_sizes)
    assert np.all(np.abs(values - separate) <= 1e-14 * np.abs(separate))
    assert err == pytest.approx(sum(errs), rel=1e-14)


def test_exhausted_segment_does_not_cut_short_a_clean_one():
    # 40 panels cannot resolve a pole 3e-4 off the first segment; the clean
    # second segment must still refine to its tolerance in the same call
    z0 = 0.5 + 3e-4j

    def f(z):
        return 1.0 / (z - z0)

    a = np.array([0.0, 2.0 + 1.0j])
    b = np.array([1.0, 3.0 + 1.5j])
    sizes, near_sizes, clean_sizes = [], [], []
    values, err = integrate_segment(_counted(f, sizes), a, b, 1e-14,
                                    max_panels=40)
    near, near_err = integrate_segment(_counted(f, near_sizes), a[0], b[0],
                                       1e-14, max_panels=40)
    clean, clean_err = integrate_segment(_counted(f, clean_sizes), a[1], b[1],
                                         1e-14, max_panels=40)
    assert near_err > 1e-6  # the budget ran out on the near-pole segment
    assert clean_err <= 1e-14
    assert values[0] == near and values[1] == clean
    assert sum(sizes) == sum(near_sizes) + sum(clean_sizes)
    exact = cmath.log(b[1] - z0) - cmath.log(a[1] - z0)
    assert abs(values[1] - exact) <= 1e-14
    assert err == near_err + clean_err


def test_many_segments_stay_within_a_memory_bound():
    # 2,000 unit segments, each passing 3e-4 from a pole, refine to 60
    # panels each in one call; building the nodes of all live panels of a
    # level at once took 13.5 MB here, one batch at a time takes 7.3 MB
    n = 2000
    a = np.arange(n) + 0j

    def f(z):
        return 1.0 / (z - (np.floor(z.real) + 0.5 + 3e-4j))

    tracemalloc.start()
    try:
        values, err = integrate_segment(f, a, a + 1.0, 1e-10, max_panels=60)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10e6
    exact = cmath.log(0.5 - 3e-4j) - cmath.log(-0.5 - 3e-4j)
    assert np.abs(values - exact).max() <= err


def test_four_segments_share_the_batch_bound():
    # a pole 3e-4 off each side of the unit square: every edge refines deep
    poles = np.array([0.5 + 3e-4j, 1.0 - 3e-4 + 0.5j, 0.5 + 1j - 3e-4j, 3e-4 + 0.5j])
    sizes = []

    def f(z):
        sizes.append(z.size)
        return (1.0 / np.subtract.outer(z, poles)).sum(axis=1)

    corners = np.array([0, 1, 1 + 1j, 1j])
    values, err = integrate_segment(f, corners, np.roll(corners, -1), 1e-12,
                                    max_panels=4000)
    assert max(sizes) <= 16 * BATCH_PANELS
    assert sum(sizes) > 4 * 16 * BATCH_PANELS
    assert abs(values.sum() - 4 * 2j * math.pi) <= 1e-9


@pytest.mark.parametrize("a, b, shape", [
    (0.5 + 1j, 0.5 + 1j, (3,)),
    (np.array([0.0, 1.0]), np.array([0.0, 1.0 + 1j]), (3, 2)),
    (np.array([1.0, 1j]), np.array([1.0, 1j]), (3, 2)),
])
def test_zero_length_segment_keeps_the_row_shape(a, b, shape):
    f = _moment_rows(ExpPolynomial.from_terms([(0.0, 1.0), (1.0, 0.5)]), 3)
    values, err = integrate_segment(f, a, b, 1e-10)
    assert values.shape == shape
    zero = (np.ravel(a) == np.ravel(b))
    assert np.all(values.reshape(3, -1)[:, zero] == 0)
    if not zero.all():
        assert np.abs(values.reshape(3, -1)[:, ~zero]).min() > 0


# -- Newton noise floor ------------------------------------------------------------

def _newton_noise_by_log_abs(p, z, mult):
    """The noise floor from the logs of |p^(m)| and of p^(m-1)'s largest term."""
    q = p
    for _ in range(mult - 1):
        q = q.derivative()
    point = np.array([z])
    _, log_scale = q.log_abs(point)
    log_slope, _ = q.derivative().log_abs(point)
    return q.n_terms * 2.0 ** -52 * math.exp(log_scale[0] - log_slope[0])


@pytest.mark.parametrize("mult", [1, 2, 3, 4, 5])
def test_newton_noise_matches_the_log_abs_formula(mult):
    p = twelve_terms()
    search = _Search(p, Rect(-1.3, 1.1, -3.0, 0.5), 1e-12)
    for z in (0.3 - 0.2j, -1.1 + 0.35j, 0.9 - 2.5j, -0.45 - 1.0j):
        noise = search._newton_noise(z, mult)
        assert noise == pytest.approx(_newton_noise_by_log_abs(p, z, mult),
                                      rel=1e-12)
    for z in (0.2 + 40j, 0.2 - 40j, -1.0 - 40j):
        assert 0 < search._newton_noise(z, mult) < math.inf
