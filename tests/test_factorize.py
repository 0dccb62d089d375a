"""The factorization pipeline."""

import math
import time

import numpy as np
import pytest

import sinecomb.factorize
from sinecomb import (
    ExpPolynomial,
    FactorConfig,
    SineProduct,
    expand_sine_product,
    factor,
)
from sinecomb.errors import PreconditionError, StageError

from conftest import random_sine_product

PI = math.pi


def factor_window(s: SineProduct) -> tuple[float, float]:
    """Window wide enough that the sparsest factor shows several zeros."""
    alpha_min = min(alpha for alpha, _, _ in s.factors)
    half = max(7.0, 3.6 * PI / alpha_min)
    return (-half, half)


def assert_products_close(got: SineProduct, want: SineProduct, tol=1e-6):
    assert len(got.factors) == len(want.factors)
    flip = 1.0
    for (a1, b1, m1), (a2, b2, m2) in zip(got.factors, want.factors):
        assert m1 == m2
        assert abs(a1 - a2) <= tol * (1 + abs(a2))
        delta = abs(b1 - b2)
        if delta > PI / 2:  # wrapped across the beta seam; sign moved into C
            delta = PI - delta
            flip *= (-1.0) ** m1
        assert delta <= tol * (1 + abs(b2))
    assert abs(got.a - want.a) <= tol * (1 + abs(want.a))
    assert abs(got.C * flip - want.C) <= tol * abs(want.C)


def assert_factors_fast(s: SineProduct, window, tol=1e-9, seconds=0.2):
    """factor recovers ``s`` from its expansion within ``seconds`` of
    process time, which other processes' load moves less than wall time."""
    p = expand_sine_product(s)
    start = time.process_time()
    out = factor(p, FactorConfig(window=window))
    elapsed = time.process_time() - start
    assert out.verdict == "sine_product", out.reason
    assert_products_close(out.result.product, s, tol=tol)
    assert elapsed < seconds


def lee_yang(a: float, ell: float) -> ExpPolynomial:
    """1 + a e(x) + a e(ell x) + e((1 + ell) x), e(x) = exp(2 pi i x)."""
    return ExpPolynomial.from_terms([(0.0, 1.0), (1.0, a), (ell, a),
                                     (1.0 + ell, 1.0)])


class TestFactor:
    def test_two_lattice_round_trip(self):
        s = SineProduct.from_factors(3.0, 2.0, [(PI, 0.0, 1),
                                                (math.sqrt(2) * PI, 0.3, 1)])
        p = expand_sine_product(s)
        out = factor(p)
        assert out.verdict == "sine_product"
        assert out.result.reconstruction_error <= 1e-8
        assert_products_close(out.result.product, s, tol=1e-6)

    def test_fourcos_rejected_at_criterion(self, fourcos_poly):
        out = factor(fourcos_poly)
        assert out.verdict == "not_sine_product"
        assert out.stage == "criterion"
        assert out.reason == "criterion (r2) fails"

    @pytest.mark.parametrize("a, verdict, stage", [
        (0.1, "not_sine_product", "fourier"),
        (0.5, "not_sine_product", "criterion"),
        (0.9, "not_sine_product", "criterion"),
    ])
    def test_lee_yang_inputs(self, a, verdict, stage):
        # 1 + a e(x) + a e(sqrt2 x) + e((1+sqrt2) x) has only real zeros but
        # is no sine product; at a = 0.1 the mass bound breaks only past
        # the default gamma_max, and the harmonics of gamma = 1 have weight
        # 0.03, no integer
        out = factor(lee_yang(a, math.sqrt(2.0)))
        assert (out.verdict, out.stage) == (verdict, stage)

    def test_seeded_lee_yang_inputs(self):
        # a ~ U(0.05, 0.95) and quadratic irrationals ell = sqrt(q): real
        # zeros by the Lee-Yang circle theorem, and no sine product
        rng = np.random.default_rng(2024)
        roots = [q for q in range(2, 40) if math.isqrt(q) ** 2 != q]
        stages = set()
        for _ in range(20):
            a = float(rng.uniform(0.05, 0.95))
            ell = math.sqrt(int(rng.choice(roots)))
            out = factor(lee_yang(a, ell))
            assert out.verdict == "not_sine_product", (a, ell, out.reason)
            stages.add(out.stage)
        assert stages == {"criterion", "fourier"}

    @pytest.mark.parametrize("m", [8, 9, 10])
    def test_high_power_of_one_sine(self, m):
        # the rounding bounds of the upper coefficients grow from 4e-13 at
        # the first harmonic to 4.5e-3 at 2D (m = 10): a fit that weighs
        # all harmonics alike misplaces the node
        s = SineProduct.from_factors(1.0, 0.0, [(2.0, 0.7161782258722513, m)])
        assert_factors_fast(s, (-7.0, 7.0))

    @pytest.mark.parametrize("factors", [
        [(1.0, 0.0, 1), (1.0, 0.5, 1)],
        [(1.0, 0.1, 3), (1.0, 0.13, 2), (1.0, 2.0, 1)],
    ], ids=["two", "three-multiple"])
    def test_equal_alpha_distinct_beta(self, factors):
        # one gamma carries several nodes: the Hankel pencil separates them
        s = SineProduct.from_factors(1.3 - 0.2j, 0.4, factors)
        assert_factors_fast(s, factor_window(s))

    @pytest.mark.parametrize("factors", [
        [(2.0, 0.0, 1), (3.0, 0.0, 1)],
        [(1.0, 0.0, 1), (2.0, 0.3, 1)],
        [(1.0, 0.2, 2), (2.0, 0.7, 1)],
        [(1.0, 0.1, 1), (2.0, 0.2, 1), (3.0, 0.4, 2)],
        [(1.0, 2.7, 1), (5.0, 1.9, 1)],
        [(1.5, 1.5, 1), (2.5, 2.4, 3)],
    ], ids=["2-3", "1-2", "1x2-2", "1-2-3x2", "1-5", "3-5x3"])
    def test_commensurate_factors(self, factors):
        # sin 3z lands on the harmonics of sin 2z: one family on 1/pi, whose
        # cosets of 2 and 3 nodes are the two factors.  A coset of 5 shows
        # first at the fifth harmonic, so the pencil must read that far
        s = SineProduct.from_factors(0.7j, -1.1, factors)
        assert_factors_fast(s, factor_window(s))

    def test_hidden_node_is_no_refutation(self):
        # zeros of two factors 1.4e-4 apart give nodes 2.7e-4 apart, which
        # the noise bound of the harmonics hides; the fit then fails, and
        # proves nothing
        s = SineProduct.from_factors(1.0, 0.0, [
            (0.9613765680409261, 2.697269252603113, 3),
            (2.8841297041227785, 1.8090316099959862, 2),
            (2.8841297041227785, 1.9483976830003764, 3)])
        try:
            out = factor(expand_sine_product(s))
        except StageError as exc:
            assert exc.stage == "fourier"
        else:
            assert out.verdict == "sine_product"

    def test_decimal_frequencies_stay_apart(self):
        # 1.03, 1.71 and 2.47 are multiples of 0.01, and 1.71, 2.47 of 0.19,
        # but no multiple of one lands on a harmonic the other's fit reads
        s = SineProduct.from_factors(1.2 - 0.5j, 0.7, [
            (1.03, 1.256946061435917, 2), (1.71, 0.6, 2), (2.47, 2.0, 1)])
        assert_factors_fast(s, factor_window(s))

    def test_coarsest_form_of_a_coset(self):
        # sin z sin(z + pi/2) = sin(2z)/2: the two nodes form one coset
        out = factor(expand_sine_product(
            SineProduct.from_factors(2.0, 0.0, [(1.0, 0.0, 1), (1.0, PI / 2, 1)])))
        assert out.verdict == "sine_product"
        assert_products_close(out.result.product,
                              SineProduct.from_factors(1.0, 0.0, [(2.0, 0.0, 1)]))

    def test_staircase_product_round_trip(self):
        # R(r) is a staircase whose log-log slope over the default radii
        # is 1.11, yet it stays below the mass bound
        s = SineProduct.from_factors(
            -0.8877041611 + 0.5046186765j, -1.8870955718,
            [(0.9502611442, 1.0546711353, 1), (1.5880707212, 1.9290558747, 1),
             (1.8586956491, 2.2969253255, 2)])
        out = factor(expand_sine_product(s),
                     FactorConfig(window=(-11.9017, 11.9017)))
        assert out.verdict == "sine_product"
        report = out.diagnostics["growth"]
        top = len(report.radii) // 2
        slope = np.polyfit(np.log(report.radii[top:]), np.log(report.values[top:]), 1)[0]
        assert slope > 1.1 and report.classification == "linear"
        assert_products_close(out.result.product, s, tol=1e-6)

    def test_no_zero_search(self, monkeypatch, two_lattice_product):
        # factor reads the factors from the coefficients alone
        def refuse(*args, **kwargs):
            raise AssertionError("factor took the zero-comb route")

        monkeypatch.setattr(sinecomb.factorize, "find_zeros", refuse)
        out = factor(expand_sine_product(two_lattice_product))
        assert out.verdict == "sine_product"
        assert_products_close(out.result.product, two_lattice_product)

    def test_constant_degenerate(self):
        out = factor(ExpPolynomial.from_terms([(0.0, 7.0)]))
        assert out.verdict == "sine_product"
        assert out.result.product.C == 7.0 + 0j
        assert out.result.product.a == 0.0
        assert out.result.product.factors == ()

    def test_empty_rejected(self):
        with pytest.raises(PreconditionError):
            factor(ExpPolynomial(()))

    def test_round_trip_suite(self, round_trip_results):
        # 50 random canonical products factor back to themselves
        for s, out in round_trip_results:
            assert out.verdict == "sine_product", (s, out.reason)
            assert out.result.reconstruction_error <= 1e-6
            assert_products_close(out.result.product, s, tol=1e-6)

    def test_reconstruction_error_always_bounded(self, round_trip_results):
        # factor never returns a result whose re-expansion mismatches
        for _, out in round_trip_results:
            if out.result is not None:
                assert out.result.reconstruction_error <= 1e-6
