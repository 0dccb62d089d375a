"""Fourier measures, complexified transforms, Poisson and contour checks."""

import cmath
import math

import mpmath
import numpy as np
import pytest
import scipy.integrate

from sinecomb import (
    LOWER,
    UPPER,
    ExpPolynomial,
    Rect,
    bump,
    contour_residue_report,
    find_zeros,
    fourier_measure,
    gaussian,
    growth_profile,
    logderiv_coeffs_symbolic,
    poisson_check,
    poisson_report,
    transform_c,
)
from sinecomb.errors import PreconditionError, QuadratureFailureError
from sinecomb.zeros import AtomicMeasure

from conftest import Y0

PI = math.pi


def mp_bump_transform(r, t0, z):
    """mpmath oracle for bump(r, t0) at z: (transform, integral of
    |phi(t) e^{-2 pi i z t}| dt)."""
    with mpmath.workdps(20):
        z = mpmath.mpc(z)

        def term(u):  # t = t0 + r*u
            return mpmath.exp(1 - 1 / (1 - u * u) - 2j * mpmath.pi * z * (t0 + r * u))

        value = r * mpmath.quad(term, [-1, 0, 1])
        l1 = r * mpmath.quad(lambda u: abs(term(u)), [-1, 0, 1])
    return complex(value), float(l1)


def coefficient_pair(p, gamma_max):
    return (logderiv_coeffs_symbolic(p, UPPER, gamma_max),
            logderiv_coeffs_symbolic(p, LOWER, gamma_max))


class TestFourierMeasure:
    def test_sine_unit_comb(self, sin_poly):
        fm = fourier_measure(*coefficient_pair(sin_poly, 10.0))
        assert [loc.real for loc, _ in fm.atoms] == [float(g) for g in range(-10, 11)]
        for _, mass in fm.atoms:
            assert abs(mass - 1.0) < 1e-12

    def test_single_exponential_cancels(self):
        p = ExpPolynomial.from_terms([(2.0, 5.0)])
        fm = fourier_measure(*coefficient_pair(p, 5.0))
        assert fm.atoms == ()

    def test_fourcos_masses(self, fourcos_poly):
        fm = fourier_measure(*coefficient_pair(fourcos_poly, 2.0))
        expected = {-2.0: 14.0, -1.0: -4.0, 0.0: 2.0, 1.0: -4.0, 2.0: 14.0}
        assert len(fm) == 5
        for loc, mass in fm.atoms:
            assert abs(mass - expected[loc.real]) < 1e-9

    def test_halfplane_order_enforced(self, sin_poly):
        up, lo = coefficient_pair(sin_poly, 2.0)
        with pytest.raises(PreconditionError):
            fourier_measure(lo, up)

    def test_conjugate_symmetric_masses(self, fourcos_poly, sin_poly):
        for p in (fourcos_poly, sin_poly):
            fm = fourier_measure(*coefficient_pair(p, 6.0))
            table = {round(loc.real, 9): mass for loc, mass in fm.atoms}
            for g, mass in table.items():
                assert abs(table[-g] - mass.conjugate()) <= 1e-12 * (1 + abs(mass))


class TestTransform:
    def test_gaussian_total_integral(self):
        assert abs(transform_c(gaussian(1.0), 0.0) - 1.0) < 1e-15

    def test_gaussian_at_i(self):
        assert abs(transform_c(gaussian(1.0), 1j) - math.exp(PI)) < 1e-12

    def test_gaussian_matches_quadrature_on_real_axis(self):
        tf = gaussian(1.5, 0.3)
        cut = 14.0  # gaussian is < 1e-25 beyond t0 +- cut
        for x in (0.0, 0.7, -2.1):
            re = scipy.integrate.quad(
                lambda t: tf.value(t) * math.cos(2 * PI * x * t),
                tf.center - cut, tf.center + cut, epsabs=1e-14, limit=200)[0]
            im = -scipy.integrate.quad(
                lambda t: tf.value(t) * math.sin(2 * PI * x * t),
                tf.center - cut, tf.center + cut, epsabs=1e-14, limit=200)[0]
            assert abs(transform_c(tf, x) - complex(re, im)) < 1e-12

    def test_bump_at_zero_matches_quadrature(self):
        tf = bump(1.0)
        oracle = scipy.integrate.quad(tf.value, -1, 1, epsabs=1e-14)[0]
        assert abs(transform_c(tf, 0.0) - oracle) < 1e-12

    def test_bump_decay_order_four(self):
        # |transform(x+iy)| = O(|x|^-4): log-log slope at most -4
        tf = bump(1.0)
        xs = np.array([10.0, 18.0, 32.0, 56.0, 100.0])
        vals = np.array([abs(transform_c(tf, complex(x, 0.3))) for x in xs])
        slope = np.polyfit(np.log(xs), np.log(vals), 1)[0]
        assert slope <= -4.0

    @pytest.mark.parametrize("r, t0, zs", [
        (1.0, 0.0, (0.5 + 60j,)),
        (0.75, 0.4, (0.5 + 60j, 2.0 - 35j, -1.5 + 0.2j)),
        (1.3, -0.25, (7.5 + 2j, -3.0 - 12j)),
    ])
    def test_bump_matches_mpmath_within_l1_bound(self, r, t0, zs):
        # the gate is 1e-12 of the integral of |integrand|, which at Im z = 60
        # is the modulus of the transform itself up to a small factor
        tf = bump(r, t0)
        values = transform_c(tf, np.array(zs))
        for z, value in zip(zs, values):
            exact, l1 = mp_bump_transform(r, t0, z)
            assert abs(value - exact) <= 1e-12 * l1
            assert abs(transform_c(tf, z) - exact) <= 1e-12 * l1

    def test_bump_far_along_real_axis(self):
        # the transform is below 1e-50 here; the step must resolve the
        # oscillation of e^{-2 pi i x t} instead of failing to settle
        tf = bump(1.0)
        values = transform_c(tf, np.array([2500.0, 5000.0 + 0.3j, 10000.0]))
        assert np.all(np.abs(values) <= 1e-12)

    def test_bump_out_of_double_range_raises(self):
        # |transform| is about e^900 at Im z = 150
        with pytest.raises(QuadratureFailureError):
            transform_c(bump(1.0), 0.5 + 150j)
        with pytest.raises(QuadratureFailureError):
            transform_c(bump(1.0), np.array([0.0, 0.5 + 150j]))

    def test_bump_vanishes_outside_support(self):
        tf = bump(0.5, 2.0)
        assert tf.value(2.6) == 0.0
        assert tf.value(1.4) == 0.0
        assert tf.value(2.0) == 1.0


def theta_comb(n_max):
    return AtomicMeasure.from_atoms((complex(n), 1) for n in range(-n_max, n_max + 1))


class TestPoisson:
    def test_jacobi_theta_identity(self):
        # direct-summation oracle of both theta series
        mu = theta_comb(20)
        rep = poisson_report(mu, mu, gaussian(2.0), 0.0)
        lhs_oracle = sum(2.0 * math.exp(-4 * PI * n * n) for n in range(-20, 21))
        rhs_oracle = sum(math.exp(-PI * g * g / 4) for g in range(-20, 21))
        assert abs(lhs_oracle - rhs_oracle) < 1e-12  # the identity itself
        assert abs(rep.lhs - lhs_oracle) < 1e-13
        assert abs(rep.rhs - rhs_oracle) < 1e-13
        assert rep.residual <= 1e-10 * (1 + abs(rep.lhs))

    def test_empty_measures(self):
        empty = AtomicMeasure(())
        assert poisson_check(empty, empty, gaussian(1.0)) == 0.0

    def test_complex_zero_example(self, fourcos_poly):
        mu = AtomicMeasure.from_atoms(
            [(complex(n + 0.5, sign * Y0), 1)
             for n in range(-26, 26) for sign in (1, -1)])
        mu_hat = fourier_measure(*coefficient_pair(fourcos_poly, 12.0))
        rep = poisson_report(mu, mu_hat, gaussian(1.0), 0.0)
        assert rep.residual <= 1e-8 * (1 + abs(rep.lhs))

    def test_translated_poisson(self):
        # classical comb: sum f_hat(n - t) = sum f(k) e^{2 pi i t k}
        mu = theta_comb(20)
        t = 0.3
        rep = poisson_report(mu, mu, gaussian(2.0), t)
        lhs_oracle = sum(2.0 * math.exp(-4 * PI * (n - t) ** 2)
                         for n in range(-20, 21))
        rhs_oracle = sum(math.exp(-PI * g * g / 4) * cmath.exp(2j * PI * t * g)
                         for g in range(-20, 21))
        assert abs(rep.lhs - lhs_oracle) < 1e-13
        assert abs(rep.rhs - rhs_oracle) < 1e-13
        assert rep.residual <= 1e-10 * (1 + abs(rep.lhs))

    def test_transform_out_of_double_range_raises(self):
        # the gaussian transform at Im z = 30 is about e^2800
        mu = AtomicMeasure.from_atoms([(0.5 + 30j, 1), (1.0, 1)])
        with pytest.raises(QuadratureFailureError):
            poisson_report(mu, mu, gaussian(1.0), 0.0)

    def test_bump_test_function(self):
        # bump support [-1, 1] touches only gamma = 0 on the frequency side;
        # the transform side needs a wide comb (only superpolynomial decay)
        tf = bump(1.0)
        rep_narrow = poisson_report(theta_comb(12), theta_comb(12), tf, 0.0)
        assert rep_narrow.rhs_tail == 0.0
        assert abs(rep_narrow.rhs - 1.0) < 1e-15  # only phi(0) survives
        assert rep_narrow.residual <= rep_narrow.lhs_tail + 1e-10

        rep_wide = poisson_report(theta_comb(200), theta_comb(200), tf, 0.0)
        assert rep_wide.residual <= 1e-10 * (1 + abs(rep_wide.lhs))

    def test_residual_decreases_under_doubling(self, fourcos_poly):
        # worked example 1: sine comb with slow gaussian decay
        residuals = []
        for n in (5, 10, 20):
            mu = theta_comb(n)
            rep = poisson_report(mu, mu, gaussian(4.0), 0.0)
            residuals.append((rep.residual, rep.lhs_tail + rep.rhs_tail))
        for (r_small, tail_small), (r_big, _) in zip(residuals, residuals[1:]):
            assert r_big <= r_small + tail_small
        assert residuals[-1][0] < residuals[0][0]

        # worked example 2: empty measures stay at zero
        empty = AtomicMeasure(())
        assert poisson_check(empty, empty, gaussian(1.0)) == 0.0

        # worked example 3: complex zeros, truncations doubling together
        residuals = []
        for n_side, g_side in ((3, 3.0), (6, 6.0), (12, 12.0)):
            mu = AtomicMeasure.from_atoms(
                [(complex(n + 0.5, s * Y0), 1)
                 for n in range(-n_side, n_side) for s in (1, -1)])
            mu_hat = fourier_measure(*coefficient_pair(fourcos_poly, g_side))
            rep = poisson_report(mu, mu_hat, gaussian(2.0), 0.0)
            residuals.append((rep.residual, rep.lhs_tail + rep.rhs_tail))
        for (r_small, tail_small), (r_big, _) in zip(residuals, residuals[1:]):
            assert r_big <= r_small + tail_small
        assert residuals[-1][0] < residuals[0][0]


class TestVariationGrowth:
    def test_matches_growth_profile_times_two_pi(self, sin_poly, fourcos_poly):
        radii = (2.0, 4.0, 8.0, 16.0)
        for p in (sin_poly, fourcos_poly):
            up, lo = coefficient_pair(p, 16.0)
            fm = fourier_measure(up, lo)
            profile = growth_profile(up, lo, radii)
            for r, value in zip(profile.radii, profile.values):
                variation = sum(abs(mass) for loc, mass in fm.atoms
                                if abs(loc.real) < r)
                assert abs(2 * PI * variation - value) <= 1e-9 * (1 + value)

    def test_mass_at_zero_equals_zero_density(self, sin_poly, fourcos_poly):
        T = 50.0
        for p, band in ((sin_poly, 0.3), (fourcos_poly, 0.4)):
            fm = fourier_measure(*coefficient_pair(p, 2.0))
            mass0 = [m for loc, m in fm.atoms if abs(loc.real) < 1e-9][0]
            zeros = find_zeros(p, Rect(-T, T, -band, band))
            density = zeros.total_mass() / (2 * T)
            assert abs(mass0 - density) <= 2.0 / T


class TestContourResidue:
    def test_zero_free_rectangle(self, sin_poly):
        rep = contour_residue_report(sin_poly, gaussian(1.0), Rect(0.2, 0.8, -1, 1))
        assert rep.residue_sum == 0j
        assert rep.residual <= 1e-10

    def test_single_zero(self, sin_poly):
        rep = contour_residue_report(sin_poly, gaussian(1.0), Rect(-0.4, 0.4, -1, 1))
        assert abs(rep.integral - 2j * PI) <= 1e-8
        assert rep.residual <= 1e-8

    def test_complex_pair(self, fourcos_poly):
        tf = gaussian(1.0)
        rep = contour_residue_report(fourcos_poly, tf, Rect(0, 1, -0.5, 0.5))
        expected = 2j * PI * (transform_c(tf, complex(0.5, Y0))
                              + transform_c(tf, complex(0.5, -Y0)))
        assert abs(rep.integral - expected) <= 1e-8
        assert rep.residual <= 1e-8
