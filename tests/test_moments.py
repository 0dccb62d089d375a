"""Moment stage of the zero search: zeros of multiplicity 3 to 5, near
double zeros, a high-multiplicity corpus, and an mpmath oracle on generic
exponential polynomials."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sinecomb import (
    ExpPolynomial,
    FactorConfig,
    Rect,
    SineProduct,
    count_zeros,
    expand_sine_product,
    factor,
    find_zeros,
    find_zeros_report,
    zero_strip_estimate,
)
from sinecomb.errors import QuadratureFailureError
from sinecomb.zeros import CLUSTER_TOL, MOMENT_MAX, _boundary_ok, _Search

from conftest import random_sine_product
from test_factorize import assert_factors_fast, assert_products_close

PI = math.pi


def sine_power(m: int) -> SineProduct:
    return SineProduct.from_factors(1.0, 0.0, [(PI, 0.0, m)])


def corpus_rect(s: SineProduct) -> Rect:
    """The search rectangle ``factor`` uses on the corpus window."""
    p = expand_sine_product(s)
    alpha_min = min(alpha for alpha, _, _ in s.factors)
    half = max(7.0, 3.6 * PI / alpha_min)
    strip = zero_strip_estimate(p)
    return Rect(-half, half, strip.alpha - strip.eta, strip.beta + strip.eta)


def closed_form_zeros(s: SineProduct, rect: Rect) -> list[list]:
    """[location, multiplicity] of the zeros (k*pi - beta)/alpha in rect,
    coincident ones merged, sorted by location."""
    found = []
    for alpha, beta, mult in s.factors:
        k_lo = math.ceil((rect.x_min * alpha + beta) / PI)
        k_hi = math.floor((rect.x_max * alpha + beta) / PI)
        found += [[(k * PI - beta) / alpha, mult] for k in range(k_lo, k_hi + 1)]
    merged = []
    for z, mult in sorted(found):
        if merged and z - merged[-1][0] < CLUSTER_TOL:
            merged[-1][1] += mult
        else:
            merged.append([z, mult])
    return merged


class TestOddMultiplicity:
    @pytest.mark.parametrize("half", [1.3, 3.3])
    @pytest.mark.parametrize("m", [3, 4, 5])
    def test_sine_power_zeros(self, m, half):
        p = expand_sine_product(sine_power(m))
        measure = find_zeros(p, Rect(-half, half, -1.0, 1.0))
        k = int(half)
        assert [round(z.real) for z in measure.locations] == list(range(-k, k + 1))
        for z, mass in measure.atoms:
            assert abs(z - round(z.real)) <= 1e-9
            assert mass == m

    @pytest.mark.parametrize("m", [3, 5])
    def test_factor_sine_power(self, m):
        s = sine_power(m)
        out = factor(expand_sine_product(s), FactorConfig(window=(-3.3, 3.3)))
        assert out.verdict == "sine_product"
        assert_products_close(out.result.product, s)


#: Two double zeros 9e-4 apart near 4.4206: factors (0.9149, 2.2397, 2) and
#: (2.2560, 2.5915, 2).  Merging them gives one 4-fold atom and a wrong
#: verdict.
NEAR_DOUBLE = SineProduct.from_factors(
    0.4946905503506986 - 1.3725719325243986j, 2.782025237069825,
    [(0.9148928400666492, 2.239671092130398, 2),
     (2.2560138807073904, 2.591461190473013, 2)])


def test_near_double_zeros_are_kept_apart():
    try:
        measure, diagnostics = find_zeros_report(
            expand_sine_product(NEAR_DOUBLE), corpus_rect(NEAR_DOUBLE))
    except QuadratureFailureError:
        return
    exact = closed_form_zeros(NEAR_DOUBLE, diagnostics["rect_used"])
    assert len(measure) == len(exact)
    for (z, mass), (z_exact, mult) in zip(measure.atoms, exact):
        assert mass == mult == 2
        assert abs(z - z_exact) <= 1e-9


def high_multiplicity_corpus(n: int, seed: int) -> list[SineProduct]:
    """Products drawn like the round-trip corpus, with each factor's
    multiplicity drawn uniformly from 1 to 5."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        s = random_sine_product(rng)
        mults = rng.integers(1, 6, len(s.factors)).tolist()
        out.append(SineProduct.from_factors(
            s.C, s.a, [(a, b, m) for (a, b, _), m in zip(s.factors, mults)]))
    return out


HIGH_MULTIPLICITY = high_multiplicity_corpus(12, 707)


@pytest.mark.parametrize("s", HIGH_MULTIPLICITY,
                         ids=[f"p{i}" for i in range(len(HIGH_MULTIPLICITY))])
def test_high_multiplicity_factors_or_raises(s):
    # every product factors, with no typed failure, to 1e-9
    rect = corpus_rect(s)
    out = factor(expand_sine_product(s),
                 FactorConfig(window=(rect.x_min, rect.x_max)))
    assert out.verdict == "sine_product"
    assert_products_close(out.result.product, s, tol=1e-9)


@pytest.mark.parametrize("i", [4, 9, 18])
def test_zero_search_failures_factor(i):
    # find_zeros raises on these after 6.8 to 15.6 s; factor runs none
    s = high_multiplicity_corpus(24, 6)[i]
    rect = corpus_rect(s)
    assert_factors_fast(s, (rect.x_min, rect.x_max))


def test_near_double_zeros_factor():
    # the benchmark's FAULT_PRODUCT
    rect = corpus_rect(NEAR_DOUBLE)
    assert_factors_fast(NEAR_DOUBLE, (rect.x_min, rect.x_max))


def test_cluster_of_double_zeros():
    # three double zeros 0.0097 apart near -1.153: product 40 of seed 2
    rng = np.random.default_rng(2)
    s = [random_sine_product(rng) for _ in range(41)][40]
    measure, diagnostics = find_zeros_report(expand_sine_product(s),
                                             corpus_rect(s))
    exact = closed_form_zeros(s, diagnostics["rect_used"])
    assert [mass for _, mass in measure.atoms] == [m for _, m in exact]
    cluster = [(z, z_exact) for (z, _), (z_exact, _) in
               zip(measure.atoms, exact) if abs(z_exact + 1.153) < 0.02]
    assert len(cluster) == 3
    for z, z_exact in cluster:
        assert abs(z - z_exact) <= 1e-9


# -- mpmath oracle on generic inputs ------------------------------------------


def generic_poly(seed: int) -> ExpPolynomial:
    """3 or 4 terms, frequencies ~ U(-3, 3), complex normal coefficients."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 5))
    omegas = rng.uniform(-3.0, 3.0, n)
    qs = rng.normal(size=n) + 1j * rng.normal(size=n)
    return ExpPolynomial.from_terms(zip(omegas.tolist(), qs.tolist()))


def mp_polish(p: ExpPolynomial, z: complex) -> complex:
    with mpmath.workdps(30):
        terms = [(mpmath.mpf(w), mpmath.mpc(q)) for w, q in p.terms]

        def f(x):
            return sum(q * mpmath.exp(2j * mpmath.pi * w * x) for w, q in terms)

        return complex(mpmath.findroot(f, mpmath.mpc(z)))


@settings(max_examples=25, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1),
       x0=st.floats(-3.0, 3.0),
       width=st.floats(0.2, 1.5))
def test_moment_stage_matches_mpmath(seed, x0, width):
    p = generic_poly(seed)
    strip = zero_strip_estimate(p)
    assume(strip.beta - strip.alpha < 4.0)
    rect = Rect(x0, x0 + width, strip.alpha - strip.eta,
                strip.beta + strip.eta)
    assume(_boundary_ok(p, rect))
    n = count_zeros(p, rect)
    assume(2 <= n <= MOMENT_MAX)
    atoms = []
    accepted = _Search(p, rect, 1e-12).resolve_by_moments(rect, n, atoms)
    assume(accepted)
    assert sum(m for _, m, _ in atoms) == n
    for z, _, coarse in atoms:
        assert not coarse
        assert abs(z - mp_polish(p, z)) <= 1e-9


@pytest.mark.parametrize("i", [4, 11])
def test_high_multiplicity_clusters_factor(i):
    # 4- and 5-fold zeros 0.017 apart (p4), 5-fold zeros 0.0075 from a
    # simple one (p11): each slab of 9 to 17 zeros at no more than five
    # points resolves from one Hankel pencil
    s = HIGH_MULTIPLICITY[i]
    rect = corpus_rect(s)
    out = factor(expand_sine_product(s),
                 FactorConfig(window=(rect.x_min, rect.x_max)))
    assert out.verdict == "sine_product"
    assert_products_close(out.result.product, s)


def test_noisy_moments_are_rejected():
    # two 4-fold zeros 9.8e-4 apart, 0.022 below the cell's top edge, where
    # p'/p is rounding noise: the moments carry noise 7.8e-4, and the rank,
    # mass and reproduction gates, which scale with it, would all accept one
    # 8-fold atom between the two zeros
    s = high_multiplicity_corpus(24, 6)[9]
    p = expand_sine_product(s)
    cell = Rect(-9.016369657355487, -8.852435663585387,
                -0.06331910350820191, 0.022161686227873734)
    assert [m for _, m in closed_form_zeros(s, cell)] == [4, 4]
    atoms = []
    assert not _Search(p, cell, 1e-12).resolve_by_moments(cell, 8, atoms)
    assert atoms == []
