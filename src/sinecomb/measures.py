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
from dataclasses import dataclass, field

import numpy as np

from . import freq
from .core import TWO_PI, ExpPolynomial
from .errors import PreconditionError, QuadratureFailureError
from .logderiv import LOWER, UPPER, DirichletCoefficients
from .quadrature import integrate_segment
from .zeros import AtomicMeasure, Rect, find_zeros

#: Atoms whose assembled mass falls below this (relative) are dropped.
MASS_DROP_REL = 1e-14
#: Absolute tolerance per rectangle edge in the contour-residue check.
CONTOUR_EDGE_TOL = 1e-10
#: Bump transforms settle at this share of the integral of |integrand|.
BUMP_REL_TOL = 1e-12
#: Halvings of the bump transform's tanh-sinh step; the finest, 2^-16,
#: resolves |Re z| * radius up to about 2e4.
BUMP_LEVELS = 16
#: Nodes x points entries per block of the bump transform (2 MB of complex).
BUMP_BLOCK = 1 << 17


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


def _bump_rule(h: float, tau_max: float, odd: bool):
    """Nodes u in (-1, 1) of the unit bump's tanh-sinh rule, and the log of
    bump value times dt/dtau at each: u = tanh(pi/2 sinh tau) at tau = k*h,
    |tau| <= tau_max, for every k or (``odd``) only the odd k that a halved
    step adds.  On these nodes the bump is exactly
    exp(-sinh(pi/2 sinh tau)^2), free of the cancellation in 1 - u^2."""
    k_max = math.floor(tau_max / h)
    k = np.arange(-k_max, k_max + 1)
    if odd:
        k = k[k % 2 != 0]
    tau = k * h
    s = 0.5 * math.pi * np.sinh(tau)
    log_w = (np.log(0.5 * math.pi * np.cosh(tau)) - np.sinh(s) ** 2
             - 2.0 * np.log(np.cosh(s)))
    return np.tanh(s), log_w


def _bump_transform(tf: TestFunction, z: np.ndarray) -> np.ndarray:
    """Bump transform at every point of the 1-d complex array ``z``."""
    if not np.isfinite(z).all():
        raise QuadratureFailureError("bump transform at a non-finite point")
    r = tf.scale
    # beyond tau_max the bump is below exp(-2*pi*|Im z|*r - 40), so the cut
    # tail stays below 1e-17 of the integral of |integrand|
    reach = TWO_PI * r * float(np.max(np.abs(z.imag), initial=0.0)) + 40.0
    tau_max = math.asinh(math.asinh(math.sqrt(min(reach, 1e300))) / (0.5 * math.pi))
    phase = -2j * math.pi * r * z
    shift = math.log(r) - 2j * math.pi * tf.center * z
    acc = np.zeros(z.shape, dtype=complex)   # sum of terms at the current step
    mag = np.zeros(z.shape)                  # sum of |terms|
    out = np.empty(z.shape, dtype=complex)
    active = np.arange(z.size)
    h = 0.5
    with np.errstate(over="ignore", invalid="ignore"):
        for level in range(BUMP_LEVELS):
            u, log_w = _bump_rule(h, tau_max, odd=level > 0)
            step = max(1, BUMP_BLOCK // u.size)
            for lo in range(0, active.size, step):
                idx = active[lo:lo + step]
                # log-weights go into the exponent, so a term overflows only
                # where it is itself out of range
                terms = np.exp(log_w[:, None] + np.multiply.outer(u, phase[idx])
                               + shift[idx])
                acc[idx] += terms.sum(axis=0)
                mag[idx] += np.abs(terms).sum(axis=0)
            val = h * acc[active]
            tol = BUMP_REL_TOL * h * mag[active]
            if not (np.isfinite(val).all() and np.isfinite(tol).all()):
                raise QuadratureFailureError(
                    "bump transform out of floating-point range")
            if level:
                err = np.abs(val - prev)
                done = err <= tol
                if level == BUMP_LEVELS - 1:
                    k = np.argmax(err - 10.0 * tol)
                    if err[k] > 10.0 * tol[k]:
                        raise QuadratureFailureError(
                            f"bump transform achieved {err[k]:.3g}, "
                            f"wanted {tol[k]:.3g}")
                    done[:] = True
                out[active[done]] = val[done]
                active, val = active[~done], val[~done]
                if not active.size:
                    break
            prev = val
            h *= 0.5
    return out


def transform_c(tf: TestFunction, z):
    """Entire extension of the Fourier transform of ``tf`` at complex ``z``.

    ``z`` is a scalar (returns complex) or an ndarray (returns an array of
    its shape); a scalar takes the ndarray path as a size-1 array.
    Gaussian: closed form s * exp(-2*pi*i*t0*z) * exp(-pi*s^2*z^2); a value
    beyond the double range raises QuadratureFailureError.
    Bump: integral phi(t) e^{-2*pi*i*z*t} dt by the tanh-sinh rule
    t = t0 + r*tanh(pi/2 sinh tau), summed as a trapezoid rule in tau at
    steps 1/2, 1/4, ..., 2^-BUMP_LEVELS, each step adding only the new
    nodes, for all points at once.  A point settles once two successive
    steps differ by at most BUMP_REL_TOL times the integral of
    |phi(t) e^{-2*pi*i*z*t}| on the same nodes.  Raises
    QuadratureFailureError when a value or its bound is not finite (the
    transform leaves the double range), or when a point is still off by
    more than ten times its bound at the finest step.
    """
    flat = np.asarray(z, dtype=complex).ravel()
    if tf.kind == "gaussian":
        with np.errstate(over="ignore", invalid="ignore"):
            out = tf.scale * np.exp(-2j * math.pi * tf.center * flat
                                    - math.pi * tf.scale ** 2 * flat * flat)
        if not np.isfinite(out).all():
            raise QuadratureFailureError(
                "gaussian transform out of floating-point range")
    else:
        out = _bump_transform(tf, flat)
    if isinstance(z, np.ndarray):
        return out.reshape(z.shape)
    return complex(out[0])


def fourier_measure(upper: DirichletCoefficients,
                    lower: DirichletCoefficients) -> AtomicMeasure:
    """Pure-point Fourier measure assembled from both half-plane expansions.

    Mass at gamma is i*h_plus/(2*pi) - i*h_minus/(2*pi), at the coefficients'
    own frequencies merged at the frequency resolution; exact cancellations
    (zero-free inputs) leave the empty measure.
    """
    if upper.halfplane != UPPER or lower.halfplane != LOWER:
        raise PreconditionError("pass (upper, lower) coefficient sets in order")
    gammas, masses = freq.merge(
        upper.gammas + lower.gammas,
        [1j * h / TWO_PI for _, h in upper.coeffs]
        + [-1j * h / TWO_PI for _, h in lower.coeffs])
    floor = MASS_DROP_REL * (1.0 + max(map(abs, masses), default=0.0))
    return AtomicMeasure.from_atoms(
        (g, m) for g, m in zip(gammas, masses) if abs(m) > floor)


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


def _pair_transform(measure: AtomicMeasure, tf: TestFunction,
                    t: float = 0.0) -> complex:
    """Sum of mass * transform_c(tf, loc - t) over the atoms, in atom order,
    from one transform_c call on all locations."""
    values = transform_c(tf, np.array(measure.locations, dtype=complex) - t)
    return sum((m * v for m, v in zip(measure.masses, values.tolist())), 0j)


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
    lhs = _pair_transform(mu, tf, t)
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
    """The contour integral, 2 pi i times the residue sum, the distance
    between them, and ``error``, the quadrature's error estimate for the
    integral: the sum of the four sides' K15/G7 estimates.  ``error`` stays
    out of the repr, so that reports print as before it was added."""
    integral: complex
    residue_sum: complex
    residual: float
    error: float = field(repr=False)


def contour_residue_report(p: ExpPolynomial, tf: TestFunction,
                           rect: Rect) -> ContourReport:
    """Contour integral of transform_c(tf, z) * p'/p against 2*pi*i times the
    residue sum over the enclosed zeros.  The zero search checks the
    boundary first and raises BoundaryProximityError if |p| is too small
    there."""
    zeros = find_zeros(p, rect, allow_jitter=False)

    def integrand(z):
        return transform_c(tf, z) * p.log_ratio(z)

    a, b = np.array(rect.edges).T
    sides, error = integrate_segment(integrand, a, b, CONTOUR_EDGE_TOL,
                                     max_panels=20000)
    total = sides.sum()
    res = 2j * math.pi * _pair_transform(zeros, tf)
    return ContourReport(integral=total, residue_sum=res,
                         residual=abs(total - res), error=error)


def contour_residue_check(p: ExpPolynomial, tf: TestFunction,
                          rect: Rect) -> float:
    """|contour integral - 2*pi*i*residue sum| (see contour_residue_report)."""
    return contour_residue_report(p, tf, rect).residual
