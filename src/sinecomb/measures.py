"""Atomic Fourier measures and generalized Poisson verification.

The pure-point Fourier measure of a zero comb is assembled from the
Dirichlet coefficients of p'/p: an atom of mass

    i*h_plus(gamma)/(2*pi) - i*h_minus(gamma)/(2*pi)

sits at each frequency gamma (either term absent when gamma is missing from
its half-plane; gamma = 0 combines both).  The generalized Poisson identity
pairing a zero measure mu with its Fourier measure mu_hat reads

    sum_lambda mass(lambda) * transform_c(tf, lambda - t)
        = sum_gamma mass(gamma) * tf(gamma) * e^{2*pi*i*t*gamma},

where transform_c is the entire extension of the Fourier transform of the
test function, so the left side is well defined at complex zeros.  At t = 0
this is the plain pairing mu_hat(tf) = mu(tf_hat).

Both measures are finite truncations supplied by the caller, so the slow
local-growth condition the pairing needs holds automatically and is not
checked at runtime; pairing complex atoms is a consistency test of the
measure assembly rather than an identity asserted for them.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .core import TWO_PI, ExpPolynomial
from .errors import (
    BoundaryProximityError,
    PreconditionError,
    QuadratureFailureError,
)
from .logderiv import LOWER, UPPER, DirichletCoefficients
from .quadrature import integrate_segment
from .zeros import AtomicMeasure, Rect, _boundary_ok, find_zeros

#: Atoms whose assembled mass falls below this (relative) are dropped.
MASS_DROP_REL = 1e-14
#: Absolute tolerance per rectangle edge in the contour-residue check.
CONTOUR_EDGE_TOL = 1e-10


@dataclass(frozen=True)
class TestFunction:
    """Gaussian or bump test function.

    gaussian: phi(t) = exp(-pi*(t-t0)^2/s^2), scale s > 0.
    bump:     phi(t) = exp(1 - 1/(1-((t-t0)/radius)^2)) on |t-t0| < radius,
              0 outside; scale is the radius.
    """

    kind: str
    scale: float
    center: float = 0.0

    def __post_init__(self):
        if self.kind not in ("gaussian", "bump"):
            raise ValueError("kind must be 'gaussian' or 'bump'")
        if not self.scale > 0:
            raise ValueError("scale must be positive")

    def value(self, t):
        """phi(t) for real scalar or ndarray ``t``."""
        t = np.asarray(t, dtype=float)
        u = (t - self.center) / self.scale
        if self.kind == "gaussian":
            out = np.exp(-math.pi * u * u)
        else:
            out = np.zeros_like(u)
            inside = np.abs(u) < 1.0
            with np.errstate(divide="ignore", over="ignore"):
                out[inside] = np.exp(1.0 - 1.0 / (1.0 - u[inside] ** 2))
        return float(out) if out.ndim == 0 else out


def gaussian(s: float, t0: float = 0.0) -> TestFunction:
    return TestFunction("gaussian", s, t0)


def bump(radius: float, t0: float = 0.0) -> TestFunction:
    return TestFunction("bump", radius, t0)


def transform_c(tf: TestFunction, z) -> complex:
    """Entire extension of the Fourier transform of ``tf`` at complex ``z``.

    Gaussian: closed form s * exp(-2*pi*i*t0*z) * exp(-pi*s^2*z^2).
    Bump: adaptive quadrature of integral phi(t) e^{-2*pi*i*z*t} dt with
    absolute tolerance 1e-12 * exp(2*pi*|Im z|*(|t0| + radius)).
    """
    if tf.kind == "gaussian":
        if isinstance(z, np.ndarray):
            return tf.scale * np.exp(-2j * math.pi * tf.center * z
                                     - math.pi * tf.scale ** 2 * z * z)
        z = complex(z)
        return tf.scale * cmath.exp(-2j * math.pi * tf.center * z
                                    - math.pi * tf.scale ** 2 * z * z)
    if isinstance(z, np.ndarray):
        return np.array([transform_c(tf, zi) for zi in z.ravel()]).reshape(z.shape)
    z = complex(z)
    tol = 1e-12 * math.exp(min(TWO_PI * abs(z.imag) * (abs(tf.center) + tf.scale),
                               600.0))

    def integrand(t):
        return tf.value(t.real) * np.exp(-2j * math.pi * z * t)

    val, err = integrate_segment(integrand, tf.center - tf.scale,
                                 tf.center + tf.scale, tol, max_panels=20000)
    if err > 10.0 * tol:
        raise QuadratureFailureError(
            f"bump transform achieved {err:.3g}, wanted {tol:.3g}")
    return val


def fourier_measure(upper: DirichletCoefficients,
                    lower: DirichletCoefficients) -> AtomicMeasure:
    """Pure-point Fourier measure assembled from both half-plane expansions.

    Mass at gamma is i*h_plus/(2*pi) - i*h_minus/(2*pi); exact cancellations
    (zero-free inputs) leave the empty measure.
    """
    if upper.halfplane != UPPER or lower.halfplane != LOWER:
        raise PreconditionError("pass (upper, lower) coefficient sets in order")
    masses: dict[int, complex] = {}
    grid = 1e-9
    for g, h in upper.coeffs:
        masses[round(g / grid)] = masses.get(round(g / grid), 0j) + 1j * h / TWO_PI
    for g, h in lower.coeffs:
        masses[round(g / grid)] = masses.get(round(g / grid), 0j) - 1j * h / TWO_PI
    if not masses:
        return AtomicMeasure(())
    scale = max(abs(m) for m in masses.values())
    atoms = [(complex(k * grid, 0.0), m) for k, m in masses.items()
             if abs(m) > MASS_DROP_REL * (1.0 + scale)]
    return AtomicMeasure.from_atoms(atoms)


@dataclass(frozen=True)
class PoissonReport:
    lhs: complex
    rhs: complex
    residual: float
    lhs_tail: float
    rhs_tail: float


def _gaussian_zero_side_tail(tf: TestFunction, radius: float, height: float,
                             amp: float, density: float, t: float) -> float:
    s = tf.scale
    reach = max(radius - abs(t) - abs(tf.center), 0.0)
    bulge = math.exp(min(math.pi * s * s * height * height
                         + TWO_PI * abs(tf.center) * height, 600.0))
    return amp * density * bulge * math.erfc(math.sqrt(math.pi) * s * reach)


def _freq_side_tail(tf: TestFunction, radius: float, amp: float,
                    density: float) -> float:
    if tf.kind == "bump":
        if radius >= abs(tf.center) + tf.scale:
            return 0.0
        return amp * density * (abs(tf.center) + tf.scale - radius)
    s = tf.scale
    reach = max(radius - abs(tf.center), 0.0)
    return amp * density * s * math.erfc(math.sqrt(math.pi) * reach / s)


def _bump_zero_side_tail(tf: TestFunction, radius: float, height: float,
                         amp: float, density: float) -> float:
    if radius <= 1.0:
        return math.inf
    edge = abs(transform_c(tf, complex(radius, height)))
    return amp * density * edge * radius / 3.0  # O(x^-4) tail integral


def _side_stats(measure: AtomicMeasure):
    if len(measure) == 0:
        return 0.0, 0.0, 0.0, 0.0
    xs = [loc.real for loc, _ in measure.atoms]
    radius = max(abs(x) for x in xs)
    height = max(abs(loc.imag) for loc, _ in measure.atoms)
    amp = max(abs(m) for _, m in measure.atoms)
    span = max(xs) - min(xs)
    density = (len(measure) - 1) / span if span > 0 else 1.0
    return radius, height, amp, density


def poisson_report(mu: AtomicMeasure, mu_hat: AtomicMeasure, tf: TestFunction,
                   t: float = 0.0) -> PoissonReport:
    """Evaluate both sides of the generalized Poisson identity.

    LHS sums mass(lambda) * transform_c(tf, lambda - t) over the zero
    measure; RHS sums mass(gamma) * tf(gamma) * e^{2*pi*i*t*gamma} over the
    Fourier measure.  Truncation tails are heuristic estimates from the
    decay of the test function beyond the given supports (closed-form
    complementary-error bounds for gaussians; zero on the frequency side
    for bumps once the support is covered).
    """
    lhs = 0j
    for loc, m in mu.atoms:
        lhs += m * transform_c(tf, loc - t)
    rhs = 0j
    for loc, m in mu_hat.atoms:
        rhs += m * tf.value(loc.real) * cmath.exp(1j * TWO_PI * t * loc.real)

    lam_radius, lam_height, lam_amp, lam_density = _side_stats(mu)
    gam_radius, _, gam_amp, gam_density = _side_stats(mu_hat)
    if len(mu) == 0:
        lhs_tail = 0.0
    elif tf.kind == "gaussian":
        lhs_tail = _gaussian_zero_side_tail(tf, lam_radius, lam_height,
                                            lam_amp, lam_density, t)
    else:
        lhs_tail = _bump_zero_side_tail(tf, lam_radius, lam_height,
                                        lam_amp, lam_density)
    rhs_tail = 0.0 if len(mu_hat) == 0 else _freq_side_tail(
        tf, gam_radius, gam_amp, gam_density)
    return PoissonReport(lhs=lhs, rhs=rhs, residual=abs(lhs - rhs),
                         lhs_tail=lhs_tail, rhs_tail=rhs_tail)


def poisson_check(mu: AtomicMeasure, mu_hat: AtomicMeasure, tf: TestFunction,
                  t: float = 0.0) -> float:
    """|LHS - RHS| of the generalized Poisson identity (see poisson_report)."""
    return poisson_report(mu, mu_hat, tf, t).residual


@dataclass(frozen=True)
class ContourReport:
    integral: complex
    residue_sum: complex
    residual: float


def contour_residue_report(p: ExpPolynomial, tf: TestFunction,
                           rect: Rect) -> ContourReport:
    """Contour integral of transform_c(tf, z) * p'/p against 2*pi*i times the
    residue sum over the enclosed zeros."""
    if not _boundary_ok(p, rect):
        raise BoundaryProximityError(
            "|p| too small on the rectangle boundary; perturb the rectangle")

    def integrand(z):
        return transform_c(tf, z) * p.log_ratio(z)

    total = sum(integrate_segment(integrand, a, b, CONTOUR_EDGE_TOL,
                                  max_panels=20000)[0] for a, b in rect.edges)

    zeros = find_zeros(p, rect, allow_jitter=False)
    res = 0j
    for loc, m in zeros.atoms:
        res += m * transform_c(tf, loc)
    res *= 2j * math.pi
    return ContourReport(integral=total, residue_sum=res,
                         residual=abs(total - res))


def contour_residue_check(p: ExpPolynomial, tf: TestFunction,
                          rect: Rect) -> float:
    """|contour integral - 2*pi*i*residue sum| (see contour_residue_report)."""
    return contour_residue_report(p, tf, rect).residual
