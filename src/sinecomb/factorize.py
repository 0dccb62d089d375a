"""Sine-product factorization of an exponential polynomial.

Pipeline: compute Dirichlet coefficients on both half-planes, classify the
growth of R(r); a superlinear profile proves that p is no sine product.
Otherwise (consistent with one up to gamma_max) all zeros in a window must
be real; they are decomposed into arithmetic progressions (each the zero set
of one sine factor), converted to canonical sine parameters, and the
zero-free quotient is fitted as C*exp(i*a*z).  The re-expanded
reconstruction must match the input coefficient by coefficient before
factor() returns it.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from . import freq
from .core import (
    ExpPolynomial,
    SineProduct,
    TWO_PI,
    expand_sine_product,
    zero_strip_estimate,
)
from .errors import (
    DecompositionFailureError,
    NonRealZerosError,
    PreconditionError,
    PrefactorFitError,
    SinecombError,
    StageError,
)
from .growth import growth_profile
from .logderiv import LOWER, UPPER, logderiv_coeffs_symbolic
from .zeros import AtomicMeasure, Rect, find_zeros

#: Tolerance for membership of a zero in a hypothesized progression.
JITTER_TOL = 1e-6
#: Minimum matched points for a progression to be accepted.
MIN_POINTS = 4
#: Default |Im zero| tolerance for declaring the zero set real.
REALITY_TOL = 1e-7
#: Re-expanded frequencies carry the reconstruction's error (3e-9 for
#: 5-fold factors); each counts as the input frequency this close to it.
REEXPANSION_REACH = 1e-7

REASON_CRITERION = "criterion (r2) fails"
REASON_COMPLEX = "complex zeros despite linear profile"


@dataclass(frozen=True)
class Progression:
    """Arithmetic progression {d*n + c : n integer} with multiplicity."""

    d: float
    c: float
    mult: int

    def __post_init__(self):
        if not self.d > 0:
            raise ValueError("step must be positive")
        if not 0.0 <= self.c < self.d:
            raise ValueError("offset must lie in [0, d)")
        if self.mult < 1:
            raise ValueError("multiplicity must be >= 1")


@dataclass(frozen=True)
class FactorizationResult:
    product: SineProduct
    max_zero_imag: float
    reconstruction_error: float
    residual_points: tuple[float, ...]


@dataclass(frozen=True)
class FactorOutcome:
    """Verdict of the full pipeline.

    verdict is "sine_product", "not_sine_product" or "inconclusive"; stage
    names the deciding pipeline stage, result is set on success only.
    """

    verdict: str
    stage: str | None = None
    reason: str | None = None
    result: FactorizationResult | None = None
    diagnostics: dict = field(default_factory=dict)


@dataclass(frozen=True)
class FactorConfig:
    """Tunables of the factorization pipeline.

    ``radii`` / ``gamma_max`` / ``window`` default to scale-aware values
    derived from the polynomial: dyadic radii proportional to the smallest
    frequency gap, and a window wide enough that the sparsest admissible
    progression still shows several points.
    """

    gamma_max: float | None = None
    radii: tuple[float, ...] | None = None
    window: tuple[float, float] | None = None
    reality_tol: float = REALITY_TOL
    reconstruction_tol: float = 1e-6
    zero_tol: float = 1e-12
    min_points: int = MIN_POINTS
    jitter_tol: float = JITTER_TOL
    neighbor_count: int = 24
    fit_tol: float = 1e-6
    im_a_tol: float = 1e-6


def detect_progressions(zeros: AtomicMeasure, window: tuple[float, float], *,
                        jitter_tol: float = JITTER_TOL,
                        min_points: int = MIN_POINTS,
                        neighbor_count: int = 24,
                        reality_tol: float = REALITY_TOL):
    """Greedy decomposition of a real zero set into arithmetic progressions.

    Repeatedly anchor at the smallest point with remaining mass, hypothesize
    steps from the differences to its nearest available neighbors, extend
    each hypothesis across the window, and accept the complete hypothesis
    covering the most points (ties broken by the smallest step).  A
    hypothesis is complete when every predicted position inside the window
    has an available point within ``jitter_tol``.  Accepted progressions
    consume one mass unit per multiplicity from each matched point, so
    points shared by several progressions contribute to all of them.
    Leftover points are returned separately.

    Returns (list of Progression, residual points).

    Raises
    ------
    NonRealZerosError
        If any |Im location| exceeds ``reality_tol``.
    PreconditionError
        If the window holds fewer than 6 atoms.
    DecompositionFailureError
        If not a single progression with ``min_points`` matches exists.
    """
    for loc, _ in zeros.atoms:
        if abs(loc.imag) > reality_tol:
            raise NonRealZerosError(f"zero at {loc} is not real")
    lo, hi = float(window[0]), float(window[1])
    pts = []
    mass = []
    for loc, m in zeros.atoms:
        x = loc.real
        if lo <= x <= hi:
            pts.append(x)
            mass.append(int(round(m.real if isinstance(m, complex) else m)))
    if len(pts) < 6:
        raise PreconditionError("window must contain at least 6 atoms")
    pts = np.array(pts)
    order = np.argsort(pts)
    pts = pts[order]
    remaining = np.array(mass)[order]
    margin = 2.0 * jitter_tol

    def match_index(x: float):
        k = int(np.searchsorted(pts, x))
        best, best_d = None, jitter_tol
        for j in (k - 1, k):
            if 0 <= j < len(pts) and remaining[j] >= 1:
                d = abs(pts[j] - x)
                if d <= best_d:
                    best, best_d = j, d
        return best

    def try_step(anchor: float, d: float):
        """Extend the hypothesis across the window.

        Every predicted position comfortably inside the window must match an
        available point (else the hypothesis dies); positions within the
        edge margin are matched opportunistically.  Returns matched indices
        or None.
        """
        if d <= jitter_tol:
            return None
        n_lo = math.ceil((lo - margin - anchor) / d - 1e-12)
        n_hi = math.floor((hi + margin - anchor) / d + 1e-12)
        matched = []
        for n in range(n_lo, n_hi + 1):
            x = anchor + n * d
            j = match_index(x)
            if j is None:
                if lo + margin <= x <= hi - margin:
                    return None
                continue
            matched.append(j)
        if len(set(matched)) != len(matched):
            return None
        return matched

    progressions: list[Progression] = []
    residual: list[float] = []
    while True:
        alive = np.nonzero(remaining > 0)[0]
        if len(alive) == 0:
            break
        i0 = alive[0]
        x0 = pts[i0]
        others = alive[1:]
        if len(others) == 0:
            residual.extend([float(x0)] * int(remaining[i0]))
            remaining[i0] = 0
            continue
        near = others[np.argsort(pts[others] - x0)][:neighbor_count]

        def dedupe(diffs):
            out = []
            for d in sorted(diffs):
                if not out or d - out[-1] > jitter_tol:
                    out.append(float(d))
            return out

        def best_of(steps, best):
            for d in steps:
                matched = try_step(x0, d)
                if matched is None or len(matched) < min_points:
                    continue
                if best is None or len(matched) > len(best[1]) or (
                        len(matched) == len(best[1]) and d < best[0]):
                    best = (d, matched)
            return best

        best = best_of(dedupe(pts[near] - x0), None)
        if best is None and len(others) > neighbor_count:
            # widen the hypothesis pool before giving up on this anchor
            best = best_of(dedupe(pts[others] - x0), None)
        if best is None:
            residual.extend([float(x0)] * int(remaining[i0]))
            remaining[i0] = 0
            continue
        d, matched = best
        mult = int(remaining[matched].min())
        remaining[matched] -= mult
        # least-squares refinement of (step, offset) from the matched points
        xs = pts[matched]
        ns = np.round((xs - x0) / d)
        d_fit, c_fit = np.polyfit(ns, xs, 1)
        c = c_fit - d_fit * math.floor(c_fit / d_fit)
        if c >= d_fit or d_fit - c <= jitter_tol:  # wrap dust at the seam
            c = max(c - d_fit, 0.0)
        progressions.append(Progression(float(d_fit), float(c), mult))

    if not progressions:
        raise DecompositionFailureError(
            f"no progression with >= {min_points} points found")
    merged: list[list] = []
    for pr in sorted(progressions, key=lambda q: (q.d, q.c)):
        if merged and abs(pr.d - merged[-1][0]) <= jitter_tol \
                and abs(pr.c - merged[-1][1]) <= jitter_tol:
            merged[-1][2] += pr.mult
        else:
            merged.append([pr.d, pr.c, pr.mult])
    progressions = [Progression(d, c, m) for d, c, m in merged]
    return progressions, sorted(residual)


def progressions_to_sines(progressions) -> list[tuple[float, float, int]]:
    """Convert progressions to canonical (alpha, beta, mult) sine factors.

    sin(alpha*z + beta) vanishes exactly on {(pi*n - beta)/alpha}, i.e. the
    progression with step pi/alpha and offset -beta/alpha (mod step).
    """
    out = []
    for pr in progressions:
        alpha = math.pi / pr.d
        beta = math.fmod(-pr.c * alpha, math.pi)
        if beta < 0:
            beta += math.pi
        if beta >= math.pi or math.pi - beta < 1e-9:  # wrap dust at the seam
            beta = max(beta - math.pi, 0.0)
        out.append((alpha, beta, pr.mult))
    out.sort(key=lambda f: (f[0], f[1]))
    return out


def _sine_factor_values(sines, z):
    acc = np.ones_like(np.asarray(z, dtype=complex))
    for alpha, beta, mult in sines:
        acc = acc * np.sin(alpha * np.asarray(z, dtype=complex) + beta) ** mult
    return acc


def fit_exponential_prefactor(p: ExpPolynomial, sines, *,
                              fit_tol: float = 1e-6,
                              im_a_tol: float = 1e-6):
    """Fit the zero-free quotient D(z) = p(z) / prod sin^mult as C*exp(i*a*z).

    Sixteen equispaced samples on a horizontal line above the zero strip;
    log D (with the phase unwrapped along the line) is fitted linearly in z,
    intercept -> log C, slope -> i*a.  Returns (C, a, residual).

    Raises
    ------
    PrefactorFitError
        If the exponent has a nonreal part beyond ``im_a_tol`` or the
        samples deviate from the linear fit by more than ``fit_tol``.
    """
    if not sines and p.n_terms != 1:
        raise PreconditionError("need sine factors unless p is one exponential")
    if p.n_terms == 0:
        raise PreconditionError("empty polynomial")
    if p.n_terms == 1:
        w, q = p.terms[0]
        if sines:
            raise PreconditionError("single exponential admits no sine factors")
        return q, TWO_PI * w, 0.0

    strip = zero_strip_estimate(p)
    y_line = strip.beta + 0.5
    a_expected = math.pi * (p.freq_max + p.freq_min)
    total_alpha = sum(alpha * mult for alpha, _, mult in sines)
    dx = math.pi / (2.0 * (abs(a_expected) + total_alpha + 1.0))
    x_shift = 0.0
    for _ in range(8):
        x = x_shift + dx * (np.arange(16) - 7.5)
        z = x + 1j * y_line
        sine_vals = _sine_factor_values(sines, z)
        if np.abs(sine_vals).min() > 1e-6:
            break
        x_shift += 0.37 * dx
    else:
        raise PrefactorFitError("could not sample away from the sine zeros")

    d_vals = p.evaluate(z) / sine_vals
    if np.any(d_vals == 0) or not np.all(np.isfinite(d_vals)):
        raise PrefactorFitError("quotient vanished or overflowed at a sample")
    mags = np.log(np.abs(d_vals))
    phases = np.empty(16)
    phases[0] = cmath.phase(d_vals[0])
    for k in range(1, 16):
        predicted = phases[k - 1] + a_expected * dx
        raw = cmath.phase(d_vals[k])
        phases[k] = raw + TWO_PI * round((predicted - raw) / TWO_PI)
    w = mags + 1j * phases

    design = np.stack([np.ones(16, dtype=complex), z], axis=1)
    sol, *_ = np.linalg.lstsq(design, w, rcond=None)
    intercept, slope = sol
    residual = float(np.abs(w - design @ sol).max())
    a_cplx = slope / 1j
    if abs(a_cplx.imag) > im_a_tol:
        raise PrefactorFitError(
            f"exponent has imaginary part {a_cplx.imag:.3g}; not C*exp(i*a*z)")
    if residual > fit_tol:
        raise PrefactorFitError(
            f"prefactor fit residual {residual:.3g} exceeds {fit_tol:.3g}")
    return cmath.exp(complex(intercept)), float(a_cplx.real), residual


def _base_gap(p: ExpPolynomial) -> float:
    return p.terms[1][0] - p.terms[0][0]


def profile_radii(p: ExpPolynomial) -> tuple[float, ...]:
    """Scale-aware radii ladder for the growth profile.

    The ladder is proportional to the largest consecutive frequency gap
    (for a sine product, roughly the sparsest zero lattice's spacing in the
    coefficient support), so it spans several periods of every progression;
    the shift by 1 keeps every radius >= 1.  Its top radius is the default
    gamma_max, up to which the growth bounds are checked.
    """
    freqs = [w for w, _ in p.terms]
    g_max = max(b - a for a, b in zip(freqs, freqs[1:]))
    return tuple(1.0 + g_max * t for t in (4.0, 8.0, 12.0, 16.0,
                                           20.0, 24.0, 28.0, 32.0))


def _coefficient_discrepancy(p: ExpPolynomial, q: ExpPolynomial) -> float:
    """Max |coefficient difference| over the union of frequencies, each of
    ``q`` counted at the frequency of ``p`` within REEXPANSION_REACH of it,
    relative to the largest coefficient of ``p``."""
    wp = np.array([w for w, _ in p.terms])
    wq = np.array([w for w, _ in q.terms])
    near = freq.lookup(wp, wq, REEXPANSION_REACH)
    _, diff = freq.merge(np.concatenate([wp, np.where(near >= 0, wp[near], wq)]),
                         [c for _, c in p.terms] + [-c for _, c in q.terms])
    return max(map(abs, diff)) / max(abs(c) for _, c in p.terms)


def factor(p: ExpPolynomial, config: FactorConfig = FactorConfig()) -> FactorOutcome:
    """Decide whether ``p`` is a finite sine product and reconstruct it.

    Stages: Dirichlet coefficients on both half-planes; growth profile
    (superlinear, a proof => not a sine product); zero localization in the
    window (complex zeros => not a sine product, flagged as inconsistent);
    progressions (none, or leftover points => inconclusive); sines; prefactor
    fit; mandatory re-expansion check.  Other stage errors raise StageError.
    """
    if p.n_terms == 0:
        raise PreconditionError("empty polynomial")
    if p.n_terms == 1:
        w, q = p.terms[0]
        product = SineProduct.from_factors(q, TWO_PI * w, ())
        result = FactorizationResult(product=product, max_zero_imag=0.0,
                                     reconstruction_error=0.0,
                                     residual_points=())
        return FactorOutcome("sine_product", stage=None, reason=None,
                             result=result)

    gap = _base_gap(p)
    radii = config.radii if config.radii is not None else profile_radii(p)
    gamma_max = config.gamma_max if config.gamma_max is not None else max(radii)

    try:
        upper = logderiv_coeffs_symbolic(p, UPPER, gamma_max)
        lower = logderiv_coeffs_symbolic(p, LOWER, gamma_max)
    except SinecombError as exc:
        raise StageError("logderiv", exc) from exc

    try:
        report = growth_profile(upper, lower, radii)
    except SinecombError as exc:
        raise StageError("criterion", exc) from exc
    if report.classification == "superlinear":
        return FactorOutcome("not_sine_product", stage="criterion",
                             reason=REASON_CRITERION,
                             diagnostics={"growth": report})

    strip = zero_strip_estimate(p)
    if config.window is not None:
        window = (float(config.window[0]), float(config.window[1]))
    else:
        half = max(9.0, 6.5 / gap)
        window = (-half, half)
    rect = Rect(window[0], window[1], strip.alpha - strip.eta,
                strip.beta + strip.eta)
    try:
        zeros = find_zeros(p, rect, config.zero_tol)
    except SinecombError as exc:
        raise StageError("zeros", exc) from exc
    max_imag = max((abs(loc.imag) for loc, _ in zeros.atoms), default=0.0)
    if max_imag > config.reality_tol:
        return FactorOutcome("not_sine_product", stage="zeros",
                             reason=REASON_COMPLEX,
                             diagnostics={"max_zero_imag": max_imag,
                                          "inconsistent": True,
                                          "growth": report})

    try:
        progressions, residual = detect_progressions(
            zeros, window, jitter_tol=config.jitter_tol,
            min_points=config.min_points,
            neighbor_count=config.neighbor_count,
            reality_tol=config.reality_tol)
    except DecompositionFailureError as exc:
        return FactorOutcome("inconclusive", stage="progressions",
                             reason=str(exc))
    except SinecombError as exc:
        raise StageError("progressions", exc) from exc
    if residual:
        return FactorOutcome(
            "inconclusive", stage="progressions",
            reason="unmatched residual zeros in the window",
            diagnostics={"residual_points": tuple(residual),
                         "progressions": tuple(progressions)})

    sines = progressions_to_sines(progressions)
    try:
        C, a, fit_residual = fit_exponential_prefactor(
            p, sines, fit_tol=config.fit_tol, im_a_tol=config.im_a_tol)
    except PrefactorFitError as exc:
        return FactorOutcome("inconclusive", stage="prefactor",
                             reason=str(exc),
                             diagnostics={"progressions": tuple(progressions)})
    except SinecombError as exc:
        raise StageError("prefactor", exc) from exc

    product = SineProduct.from_factors(C, a, sines)
    try:
        expanded = expand_sine_product(product)
        recon_err = _coefficient_discrepancy(p, expanded)
    except SinecombError as exc:
        raise StageError("verify", exc) from exc
    if recon_err > config.reconstruction_tol:
        return FactorOutcome(
            "inconclusive", stage="verify",
            reason=f"re-expansion mismatch {recon_err:.3g} exceeds "
                   f"{config.reconstruction_tol:.3g}",
            diagnostics={"reconstruction_error": recon_err,
                         "product": product})
    result = FactorizationResult(product=product, max_zero_imag=max_imag,
                                 reconstruction_error=recon_err,
                                 residual_points=())
    return FactorOutcome("sine_product", stage=None, reason=None,
                         result=result,
                         diagnostics={"growth": report,
                                      "prefactor_residual": fit_residual})
