"""Dirichlet coefficients of p'/p: symbolic expansion and Bohr means."""

import math

import numpy as np
import pytest

from sinecomb import (
    LOWER,
    UPPER,
    ExpPolynomial,
    SineProduct,
    expand_sine_product,
    logderiv_coeff_numeric,
    logderiv_coeff_numeric_with_error,
    logderiv_coeffs_symbolic,
)
from sinecomb.errors import CapacityError, PreconditionError
from sinecomb.jsonio import coefficients_to_dict

from conftest import cot_series_upper, random_sine_product

PI = math.pi


class TestSymbolic:
    def test_sine_upper(self, sin_poly):
        # cotangent expansion: pi*cot(pi z) = -i*pi*(1 + 2*sum e^{2 pi i k z})
        up = logderiv_coeffs_symbolic(sin_poly, UPPER, 5.0)
        assert up.gammas == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]
        assert abs(up.get(0.0) + 1j * PI) < 1e-12
        for k in range(1, 6):
            assert abs(up.get(float(k)) + 2j * PI) < 1e-12
        assert up.get(1.0 + 4e-10) == up.get(1.0)
        assert up.get(1.0 + 3e-9) == 0

    @pytest.mark.parametrize("offset", [4e-10, 3e-9])
    def test_support_merges_at_the_resolution(self, offset):
        # the gap 2 + offset is the support entry 2 when 0.4e-9 from it
        exact = ExpPolynomial.from_terms([(0.0, 1.0), (1.0, 0.3), (2.0, 0.2)])
        near = ExpPolynomial.from_terms(
            [(0.0, 1.0), (1.0, 0.3), (2.0 + offset, 0.2)])
        want = logderiv_coeffs_symbolic(exact, UPPER, 3.0)
        got = logderiv_coeffs_symbolic(near, UPPER, 3.0)
        if offset > 1e-9:
            assert got.gammas == [1.0, 2.0, 2.0 + offset, 3.0]
            return
        assert got.gammas == want.gammas == [1.0, 2.0, 3.0]
        for (_, h), (_, h_want) in zip(got.coeffs, want.coeffs):
            assert abs(h - h_want) <= 1e-8 * abs(h_want)

    def test_sine_lower_mirror(self, sin_poly):
        lo = logderiv_coeffs_symbolic(sin_poly, LOWER, 5.0)
        assert lo.gammas == [-5.0, -4.0, -3.0, -2.0, -1.0, 0.0]
        assert abs(lo.get(0.0) - 1j * PI) < 1e-12
        for k in range(1, 6):
            assert abs(lo.get(-float(k)) - 2j * PI) < 1e-12

    def test_fourcos_geometric_series(self, fourcos_poly):
        # w/(w-r) oracle: h_k = -2*pi*i*(r1^k + r2^k), r1+r2=-4, r1*r2=1
        up = logderiv_coeffs_symbolic(fourcos_poly, UPPER, 2.0)
        assert abs(up.get(0.0) + 2j * PI) < 1e-12
        assert abs(up.get(1.0) - 8j * PI) < 1e-11
        assert abs(up.get(2.0) + 28j * PI) < 1e-11

    def test_single_exponential(self):
        p = ExpPolynomial.from_terms([(3.0, 2.0)])
        for half in (UPPER, LOWER):
            d = logderiv_coeffs_symbolic(p, half, 5.0)
            assert d.coeffs == ((0.0, 6j * PI),)
            assert d.tail_bound == 0.0
        constant = ExpPolynomial.from_terms([(0.0, 2.0)])
        for half in (UPPER, LOWER):
            assert logderiv_coeffs_symbolic(constant, half, 5.0).coeffs == ()

    def test_matches_cotangent_oracle(self):
        rng = np.random.default_rng(777)
        for _ in range(6):
            s = random_sine_product(rng, j_max=4, alpha_range=(0.7, 4.0))
            p = expand_sine_product(s)
            gap = p.terms[1][0] - p.terms[0][0]
            gamma_max = 12.0 * gap
            up = logderiv_coeffs_symbolic(p, UPPER, gamma_max)
            oracle = cot_series_upper(s, gamma_max)
            scale = max(abs(h) for h in oracle.values())
            leftovers = {k / 1e6: v for k, v in oracle.items()}
            for g, h in up.coeffs:
                key = min(leftovers, key=lambda x: abs(x - g), default=None)
                ref = leftovers.pop(key, 0j) if key is not None \
                    and abs(key - g) <= 1e-5 else 0j
                assert abs(h - ref) <= 1e-6 * scale
            for h in leftovers.values():
                assert abs(h) <= 1e-6 * scale

    @pytest.mark.parametrize("alpha, beta, mult", [
        (4.93, 2.79, 1), (0.5, 1.1, 5), (3.0, 0.3, 7), (0.5, 1.1, 9),
        (2.0, 0.3, 10)])
    def test_rounding_bound_covers_the_error(self, alpha, beta, mult):
        # sin^m: the substitution amplifies rounding like k^(m-1), to 1e-5
        # of |h| for m = 10 at 1 + 32 gaps; a simple sine carries 1.4e-14
        # at its 33rd coefficient, from the rounding of its expansion
        s = SineProduct.from_factors(1.0, 0.0, [(alpha, beta, mult)])
        # p(-z) is the same product with beta -> pi - beta, up to sign
        mirror = SineProduct.from_factors(1.0, 0.0, [(alpha, PI - beta, mult)])
        gamma_max = 1.0 + 32.0 * alpha / PI
        p = expand_sine_product(s)
        for half, oracle, sign in ((UPPER, cot_series_upper(s, gamma_max), 1),
                                   (LOWER, cot_series_upper(mirror, gamma_max), -1)):
            d = logderiv_coeffs_symbolic(p, half, gamma_max)
            assert len(d.rounding) == len(d.coeffs) == len(oracle)
            for (g, h), bound in zip(d.coeffs, d.rounding):
                ref = oracle[round(sign * g * 1e6)]
                # h_0, exact, differs by the rounding of omega_0 only
                assert abs(sign * h - ref) <= bound + 1e-14 * abs(ref)

    def test_capacity_error(self):
        # 13 incommensurate frequencies: the gap semigroup below gamma_max
        # holds far more than the support cap
        rng = np.random.default_rng(3)
        freqs = [0.0] + sorted(rng.uniform(0.08, 2.0, 12).tolist())
        p = ExpPolynomial.from_terms([(w, 1.0) for w in freqs])
        with pytest.raises(CapacityError):
            logderiv_coeffs_symbolic(p, UPPER, 40.0)
        # |q1/q0| = 1e12 over 32 gaps: the lower coefficients pass 1e300
        q = ExpPolynomial.from_terms([(0.0, 1j), (0.25, 1e-12j)])
        with pytest.raises(CapacityError):
            logderiv_coeffs_symbolic(q, LOWER, 8.0)

    def test_report_schema(self, sin_poly):
        import json

        from sinecomb.jsonio import dumps

        d = json.loads(dumps(
            coefficients_to_dict(logderiv_coeffs_symbolic(sin_poly, UPPER, 3.0))))
        assert d["halfplane"] == "upper"
        assert d["gamma_max"] == 3.0
        assert [c["gamma"] for c in d["coeffs"]] == [0.0, 1.0, 2.0, 3.0]
        assert all(len(c["h"]) == 2 for c in d["coeffs"])
        assert d["tail_bound"] >= 0.0


class TestNumeric:
    def test_sine_gamma_one(self, sin_poly):
        v = logderiv_coeff_numeric(sin_poly, UPPER, 1.0, 0.5, 200.0)
        assert abs(v + 2j * PI) < 5e-3

    def test_sine_nonresonant(self, sin_poly):
        v = logderiv_coeff_numeric(sin_poly, UPPER, 0.37, 0.5, 200.0)
        assert abs(v) < 5e-3

    def test_single_exponential_exact(self):
        p = ExpPolynomial.from_terms([(3.0, 2.0)])
        v = logderiv_coeff_numeric(p, UPPER, 0.0, 1.7, 10.0)
        assert abs(v - 6j * PI) < 1e-10

    def test_line_inside_strip_rejected(self, sin_poly):
        with pytest.raises(PreconditionError):
            logderiv_coeff_numeric(sin_poly, UPPER, 1.0, 0.05, 50.0)
        with pytest.raises(PreconditionError):
            logderiv_coeff_numeric(sin_poly, LOWER, -1.0, 0.2, 50.0)


class TestInvariants:
    def test_height_independence(self, fourcos_poly):
        v1, e1 = logderiv_coeff_numeric_with_error(fourcos_poly, UPPER, 1.0,
                                                   0.4, 157.3)
        v2, e2 = logderiv_coeff_numeric_with_error(fourcos_poly, UPPER, 1.0,
                                                   0.8, 157.3)
        assert abs(v1 - v2) <= e1 + e2

    def test_symbolic_numeric_agreement(self, sin_poly, fourcos_poly):
        for p, gamma_max in ((sin_poly, 3.0), (fourcos_poly, 2.0)):
            up = logderiv_coeffs_symbolic(p, UPPER, gamma_max)
            y = 0.5 if p is sin_poly else 0.45
            for g, h in up.coeffs:
                if abs(h) <= 1e-6:
                    continue
                v = logderiv_coeff_numeric(p, UPPER, g, y, 500.0)
                assert abs(v - h) <= 1e-2 * (1 + abs(h))

    def test_real_coefficient_symmetry(self, fourcos_poly, sin_poly):
        # q_{-w} = conj(q_w) forces h_lower(-g) = conj(h_upper(g)); verified
        # by f(conj z) = conj f(z)
        for p in (fourcos_poly, sin_poly):
            up = logderiv_coeffs_symbolic(p, UPPER, 6.0)
            lo = logderiv_coeffs_symbolic(p, LOWER, 6.0)
            assert len(up.coeffs) == len(lo.coeffs)
            for g, h in up.coeffs:
                assert abs(lo.get(-g) - h.conjugate()) <= 1e-10 * (1 + abs(h))

    def test_partial_sums_within_tail_bound(self, sin_poly, fourcos_poly):
        rng = np.random.default_rng(88)
        for p in (sin_poly, fourcos_poly):
            up = logderiv_coeffs_symbolic(p, UPPER, 9.0)
            pts = [complex(rng.uniform(-3, 3), up.validity_height + dy)
                   for dy in (0.0, 0.05, 0.1, 0.3, 0.7, 1.5, 3.0) for _ in range(3)]
            for z in pts[:20]:
                true = complex(p.log_ratio(np.array([z]))[0])
                assert abs(true - up.partial_sum(z)) <= up.tail_bound + 1e-12
