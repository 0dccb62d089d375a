"""Exponential polynomial and sine product basics."""

import cmath
import math

import numpy as np
import pytest

from sinecomb import (
    ExpPolynomial,
    Rect,
    SineProduct,
    expand_sine_product,
    find_zeros,
    zero_strip_estimate,
)
from sinecomb.core import EXPANSION_TERM_CAP, multiply
from sinecomb.errors import CapacityError, EmptyPolynomialError, ZeroFreeError

from conftest import random_sine_product

PI = math.pi


def direct_sum(terms, z):
    """Independent two-line evaluation oracle."""
    return sum(q * cmath.exp(2j * PI * w * z) for w, q in terms)


class TestEvaluate:
    def test_sin_poly_at_zero(self, sin_poly):
        assert sin_poly.evaluate(0.0) == 0j

    def test_sin_poly_at_half(self, sin_poly):
        # direct two-term summation oracle: sin(pi/2) = 1
        expected = direct_sum(sin_poly.terms, 0.5)
        assert abs(expected - 1.0) < 1e-15
        assert abs(sin_poly.evaluate(0.5) - expected) < 1e-15

    def test_fourcos_at_zero(self, fourcos_poly):
        assert fourcos_poly.evaluate(0.0) == 6.0 + 0j

    def test_matches_direct_sum_at_random_points(self, fourcos_poly):
        rng = np.random.default_rng(11)
        for _ in range(20):
            z = complex(rng.uniform(-3, 3), rng.uniform(-1, 1))
            assert abs(fourcos_poly.evaluate(z) - direct_sum(fourcos_poly.terms, z)) \
                <= 1e-14 * (1 + abs(fourcos_poly.evaluate(z)))

    def test_array_evaluation_matches_scalar(self, sin_poly):
        z = np.array([0.3 + 0.2j, -1.7, 2.5 - 0.4j])
        vals = sin_poly.evaluate(z)
        for zi, vi in zip(z, vals):
            assert vi == sin_poly.evaluate(complex(zi))


class TestDerivative:
    def test_sin_poly(self, sin_poly):
        # termwise 2*pi*i*omega*q oracle: pi*cos(pi z) has coefficients pi/2
        d = sin_poly.derivative()
        assert [w for w, _ in d.terms] == [-0.5, 0.5]
        for (w, q), (w0, q0) in zip(d.terms, sin_poly.terms):
            assert abs(q - 2j * PI * w0 * q0) < 1e-15
        assert abs(d.terms[0][1] - PI / 2) < 1e-15

    def test_constant_derivative_empty(self):
        p = ExpPolynomial.from_terms([(0.0, 5.0)])
        assert p.derivative().n_terms == 0

    def test_single_exponential(self):
        p = ExpPolynomial.from_terms([(1.0, 1.0)])
        d = p.derivative()
        assert d.terms == ((1.0, 2j * PI),)

    def test_finite_difference_oracle(self, fourcos_poly):
        d = fourcos_poly.derivative()
        h = 1e-6
        for z in (0.3 + 0.1j, -1.2, 2.0 - 0.3j):
            fd = (fourcos_poly.evaluate(z + h) - fourcos_poly.evaluate(z - h)) / (2 * h)
            assert abs(d.evaluate(z) - fd) < 1e-7 * (1 + abs(fd))


class TestExpandSineProduct:
    def test_single_sine(self, sin_poly):
        assert [w for w, _ in sin_poly.terms] == [-0.5, 0.5]
        assert abs(sin_poly.terms[0][1] - 0.5j) < 1e-15
        assert abs(sin_poly.terms[1][1] + 0.5j) < 1e-15

    def test_sin_squared(self, sin2_poly):
        # convolution-of-coefficients oracle: sin^2 = (1 - cos 2 pi z)/2
        expected = {-1.0: -0.25, 0.0: 0.5, 1.0: -0.25}
        assert len(sin2_poly.terms) == 3
        for w, q in sin2_poly.terms:
            assert abs(q - expected[w]) < 1e-15

    def test_empty_product_is_constant(self):
        p = expand_sine_product(SineProduct.from_factors(3.0, 0.0, ()))
        assert p.terms == ((0.0, 3.0 + 0j),)

    def test_term_cap(self):
        # incommensurate frequencies: all 2^13 sign combinations stay distinct
        factors = [(math.sqrt(2.0 + k), 0.1, 1) for k in range(13)]
        s = SineProduct.from_factors(1.0, 0.0, factors)
        with pytest.raises(CapacityError):
            expand_sine_product(s)

    def test_multiplicity_at_the_term_cap(self):
        # sin^m has m + 1 terms: a multiplicity at the cap, also one merged
        # from two equal factors, raises before any product is formed
        for factors in ([(PI, 0.3, EXPANSION_TERM_CAP)],
                        [(PI, 0.3, EXPANSION_TERM_CAP // 2)] * 2):
            s = SineProduct.from_factors(1.0, 0.0, factors)
            with pytest.raises(CapacityError, match="multiplicity"):
                expand_sine_product(s)

    def test_canonicalization_flips(self):
        # negative alpha and beta outside [0, pi) are absorbed into C
        s = SineProduct.from_factors(2.0, 0.0, [(-PI, 0.7, 1), (PI, PI + 0.3, 2)])
        assert all(alpha > 0 and 0 <= beta < PI for alpha, beta, _ in s.factors)
        z = 0.37 + 0.21j
        direct = 2.0 * cmath.sin(-PI * z + 0.7) * cmath.sin(PI * z + PI + 0.3) ** 2
        assert abs(s.evaluate(z) - direct) < 1e-12 * abs(direct)

    def test_merges_equal_factors(self):
        s = SineProduct.from_factors(1.0, 0.0, [(PI, 0.1, 1), (PI, 0.1, 2)])
        assert s.factors == ((PI, 0.1, 3),)


class TestZeroStripEstimate:
    def test_sin_poly_bound(self, sin_poly):
        strip = zero_strip_estimate(sin_poly)
        assert abs(strip.beta - math.log(2.0) / (2 * PI)) < 1e-14
        assert abs(strip.alpha + math.log(2.0) / (2 * PI)) < 1e-14
        assert strip.alpha <= 0.0 <= strip.beta  # contains the real zeros

    def test_fourcos_bound_exceeds_true_height(self, fourcos_poly):
        strip = zero_strip_estimate(fourcos_poly)
        assert abs(strip.beta - math.log(6.0) / (2 * PI)) < 1e-14
        assert strip.beta >= math.log(2 + math.sqrt(3)) / (2 * PI)

    def test_two_term_symmetric(self):
        p = ExpPolynomial.from_terms([(0.0, 1.0), (1.0, 1.0)])
        strip = zero_strip_estimate(p)
        assert abs(strip.beta - math.log(2.0) / (2 * PI)) < 1e-14
        assert abs(strip.alpha + math.log(2.0) / (2 * PI)) < 1e-14

    def test_single_term_zero_free(self):
        with pytest.raises(ZeroFreeError):
            zero_strip_estimate(ExpPolynomial.from_terms([(1.0, 2.0)]))

    def test_empty_errors(self):
        with pytest.raises(EmptyPolynomialError):
            zero_strip_estimate(ExpPolynomial(()))


class TestInvariants:
    def test_expansion_matches_pointwise_product(self):
        rng = np.random.default_rng(5150)
        for _ in range(5):
            s = random_sine_product(rng)
            p = expand_sine_product(s)
            for _ in range(20):
                z = complex(rng.uniform(-4, 4), rng.uniform(-0.8, 0.8))
                direct = s.evaluate(z)
                assert abs(p.evaluate(z) - direct) <= 1e-12 * (1 + abs(direct))

    def test_derivative_commutes_with_expansion(self):
        rng = np.random.default_rng(929)
        for _ in range(4):
            s = random_sine_product(rng)
            dp = expand_sine_product(s).derivative()
            for _ in range(10):
                z = complex(rng.uniform(-3, 3), rng.uniform(-0.5, 0.5))
                # product rule on the factored form
                direct = s.evaluate(z) * 1j * s.a
                for alpha, beta, mult in s.factors:
                    direct += s.evaluate(z) * mult * alpha \
                        / cmath.tan(alpha * z + beta)
                assert abs(dp.evaluate(z) - direct) <= 1e-10 * (1 + abs(direct))

    def test_conjugate_symmetric_evaluation(self):
        p = ExpPolynomial.from_terms([(-1.0, 1 + 2j), (0.0, 4.0), (1.0, 1 - 2j)])
        rng = np.random.default_rng(31)
        for _ in range(25):
            z = complex(rng.uniform(-3, 3), rng.uniform(-1, 1))
            assert abs(p.evaluate(z.conjugate()) - p.evaluate(z).conjugate()) \
                <= 1e-13 * (1 + abs(p.evaluate(z)))

    def test_strip_contains_found_zeros(self, fourcos_poly, sin_poly):
        for p in (fourcos_poly, sin_poly):
            strip = zero_strip_estimate(p)
            zeros = find_zeros(p, Rect(-5.2, 5.2, strip.alpha - 0.5, strip.beta + 0.5))
            for loc, _ in zeros.atoms:
                assert strip.alpha - 1e-9 <= loc.imag <= strip.beta + 1e-9

    def test_merge_tolerance(self):
        p = ExpPolynomial.from_terms([(1.0, 1.0), (1.0 + 1e-10, 1.0)])
        assert p.n_terms == 1
        assert abs(p.terms[0][1] - 2.0) < 1e-15
        # the frequency resolution: 0.4e-9 apart merge, 3e-9 apart do not
        near = ExpPolynomial.from_terms([(1.0 + 4e-10, 1.0), (1.0, 0.5)])
        assert near.terms == ((1.0, 1.5 + 0j),)
        with pytest.raises(ValueError):
            ExpPolynomial(((1.0, 1.0), (1.0 + 4e-10, 1.0)))
        assert ExpPolynomial.from_terms([(1.0, 1.0), (1.0 + 3e-9, 1.0)]).n_terms == 2

    def test_prune_threshold(self):
        # input terms are all kept; a product or a derivative drops the dust
        # at most EXPANSION_PRUNE_REL times its largest coefficient
        p = ExpPolynomial.from_terms([(0.0, 1.0), (1.0, 1e-16)])
        assert p.n_terms == 2
        assert multiply(p, ExpPolynomial.from_terms([(0.0, 1.0)])).n_terms == 1
        # the derivative's coefficients 2 pi i omega q: 2e-14 and 4e-15 of the largest
        assert ExpPolynomial.from_terms([(1.0, 1.0), (2.0, 1e-14)]).derivative().n_terms == 2
        assert ExpPolynomial.from_terms([(1.0, 1.0), (2.0, 2e-15)]).derivative().n_terms == 1

    def test_coefficient_ratio_beyond_the_bound_raises(self):
        ExpPolynomial.from_terms([(0.0, 1e-150), (1.0, 1e150)])
        with pytest.raises(CapacityError):
            ExpPolynomial.from_terms([(0.0, 1e-300), (1.0, 1e300)])

    @pytest.mark.parametrize("q", [math.inf, complex(1.0, math.nan),
                                   complex(-math.inf, 1.0)])
    def test_non_finite_coefficient_raises(self, q):
        # a non-finite max|q| would prune every term to the zero function
        with pytest.raises(CapacityError):
            ExpPolynomial.from_terms([(0.0, 1.0), (1.0, q)])

    def test_derivative_leaving_the_double_range_raises(self):
        p = ExpPolynomial.from_terms([(-1e6, 1e300), (1.0, 1e300)])
        assert p.derivative().n_terms == 2  # 2 pi * 1e6 * 1e300 < 1.8e308
        with pytest.raises(CapacityError):
            p.derivative().derivative()
