"""Coefficient-mass profile R(r) and linear/superlinear classification."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sinecomb import (
    LOWER,
    UPPER,
    ExpPolynomial,
    SineProduct,
    expand_sine_product,
    growth_profile,
    logderiv_coeffs_symbolic,
)
from sinecomb.errors import PreconditionError

from conftest import random_sine_product

PI = math.pi
RADII = (2.0, 4.0, 8.0, 16.0)


def profile_for(p, radii=RADII):
    gamma_max = max(radii)
    return growth_profile(logderiv_coeffs_symbolic(p, UPPER, gamma_max),
                          logderiv_coeffs_symbolic(p, LOWER, gamma_max), radii)


class TestExamples:
    def test_sine_exact_values_and_class(self, sin_poly):
        # counting |h| = 2 pi entries from the cotangent expansion:
        # R(r) = 2 pi + 4 pi (ceil(r) - 1) on integer radii
        report = profile_for(sin_poly)
        for r, value in zip(report.radii, report.values):
            assert abs(value - (2 * PI + 4 * PI * (r - 1))) < 1e-9
        assert report.classification == "linear"
        assert report.K is not None and abs(report.K - 62 * PI / 16) < 1e-9

    def test_fourcos_superlinear(self, fourcos_poly):
        report = profile_for(fourcos_poly)
        assert report.classification == "superlinear"
        assert report.K is None
        # (2+sqrt3)^k growth ratio
        assert report.values[3] / report.values[2] > 3.73 ** 7

    @pytest.mark.parametrize("p", [
        # zeros within 0.011 of the real line, slope 1.03: |h|/2 pi D
        # reaches 1.44, which breaks bound (i)
        ExpPolynomial.from_terms([(-2.5968, -0.6426 + 0.7908j),
                                  (-1.461, -0.2013 + 0.0422j),
                                  (2.8373, -0.9809 - 0.7327j)]),
        # Lee-Yang: real zeros, slope 1.3; R reaches 1.35 times bound (ii)
        ExpPolynomial.from_terms([(0.0, 1.0), (1.0, 0.9), (math.sqrt(2), 0.9),
                                  (1.0 + math.sqrt(2), 1.0)]),
    ], ids=["bound-i", "bound-ii"])
    def test_non_product_breaks_a_bound(self, p):
        report = profile_for(p)
        assert report.classification == "superlinear"
        assert report.K is None

    @pytest.mark.parametrize("alpha, beta, mult", [
        (0.5, 1.1, 5), (3.0, 0.3, 7), (0.5, 1.1, 9)])
    def test_multiple_sine_within_its_rounding(self, alpha, beta, mult):
        # |h|/2 pi D exceeds 1 by 1.5e-9, 2.0e-8 and 2.4e-6 at factor()'s
        # gamma_max: rounding, which the bounds must discount
        from sinecomb.factorize import profile_radii

        p = expand_sine_product(SineProduct.from_factors(
            1.0, 0.0, [(alpha, beta, mult)]))
        assert profile_for(p, profile_radii(p)).classification == "linear"

    def test_single_exponential_constant_profile(self):
        p = ExpPolynomial.from_terms([(1.5, 2.0)])
        report = profile_for(p)
        assert report.values == tuple([4 * PI * 1.5] * 4)
        assert report.classification == "linear"
        assert abs(report.K - 2 * PI * 1.5) < 1e-12


class TestValidation:
    def test_too_few_radii(self, sin_poly):
        # one radius is enough (a sweep may stop below the second); none is not
        up = logderiv_coeffs_symbolic(sin_poly, UPPER, 8.0)
        lo = logderiv_coeffs_symbolic(sin_poly, LOWER, 8.0)
        assert growth_profile(up, lo, (8.0,)).classification == "linear"
        assert growth_profile(up, lo, (2.0, 4.0, 8.0)).classification == "linear"
        with pytest.raises(PreconditionError):
            growth_profile(up, lo, ())

    def test_radii_beyond_truncation(self, sin_poly):
        up = logderiv_coeffs_symbolic(sin_poly, UPPER, 8.0)
        lo = logderiv_coeffs_symbolic(sin_poly, LOWER, 8.0)
        with pytest.raises(PreconditionError):
            growth_profile(up, lo, (2.0, 4.0, 8.0, 16.0))

    def test_decreasing_radii(self, sin_poly):
        up = logderiv_coeffs_symbolic(sin_poly, UPPER, 8.0)
        lo = logderiv_coeffs_symbolic(sin_poly, LOWER, 8.0)
        with pytest.raises(PreconditionError):
            growth_profile(up, lo, (2.0, 8.0, 4.0, 8.0))

    def test_radii_below_one(self, sin_poly):
        # the decision reads no radius: any increasing radii > 0 will do
        up = logderiv_coeffs_symbolic(sin_poly, UPPER, 2.0)
        lo = logderiv_coeffs_symbolic(sin_poly, LOWER, 2.0)
        report = growth_profile(up, lo, (0.25, 0.5, 1.0, 2.0))
        assert report.classification == "linear"
        with pytest.raises(PreconditionError):
            growth_profile(up, lo, (0.0, 0.5, 1.0, 2.0))


class TestInvariants:
    def test_necessity_on_random_products(self):
        # every sine product must classify linear
        from sinecomb.factorize import profile_radii

        rng = np.random.default_rng(2024)
        for _ in range(10):
            s = random_sine_product(rng, j_max=4, alpha_range=(0.5, 5.0),
                                    mult_p=0.4)
            p = expand_sine_product(s)
            report = profile_for(p, profile_radii(p))
            assert report.classification == "linear", (s, report)
            assert report.K >= max(v / r for v, r in
                                   zip(report.values, report.radii))

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_sine_products_meet_the_mass_bound(self, seed):
        # bound (ii) of growth.py at every stored coefficient, up to the
        # gamma_max factor() uses, with D and g from the factors
        from sinecomb.factorize import profile_radii

        s = random_sine_product(np.random.default_rng(seed), j_max=4,
                                alpha_range=(0.5, 5.0), mult_p=0.4)
        p = expand_sine_product(s)
        radii = profile_radii(p)
        up = logderiv_coeffs_symbolic(p, UPPER, max(radii))
        lo = logderiv_coeffs_symbolic(p, LOWER, max(radii))
        assert growth_profile(up, lo, radii).classification == "linear"
        density = sum(alpha * m for alpha, _, m in s.factors) / PI
        gap = min(alpha for alpha, _, _ in s.factors) / PI
        pairs = sorted((abs(g), abs(h)) for g, h in up.coeffs + lo.coeffs)
        mass = np.cumsum([h for _, h in pairs])
        bound = (abs(up.get(0.0)) + abs(lo.get(0.0))
                 + 4 * PI * density * np.array([g for g, _ in pairs]) / gap)
        assert np.all(mass <= bound * (1 + 1e-9)), s

    def test_profile_monotone(self, sin_poly, fourcos_poly):
        for p in (sin_poly, fourcos_poly):
            report = profile_for(p, (1.5, 2.5, 4.0, 6.5, 9.0, 14.0))
            assert all(b >= a for a, b in zip(report.values, report.values[1:]))

    def test_scaling_leaves_profile_unchanged(self, fourcos_poly):
        scaled = fourcos_poly.scaled(3.7 - 1.2j)
        base = profile_for(fourcos_poly)
        other = profile_for(scaled)
        for v1, v2 in zip(base.values, other.values):
            assert abs(v1 - v2) <= 1e-9 * (1 + v1)
        assert base.classification == other.classification
