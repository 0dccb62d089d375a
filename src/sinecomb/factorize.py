"""Sine-product factorization of an exponential polynomial.

Pipeline: Dirichlet coefficients of p'/p on both half-planes; the growth
criterion (superlinear, a proof that p is no sine product); then the
factors, read from the upper coefficients up to 2D, D = omega_max -
omega_min; and a mandatory re-expansion check.

The coefficients are the masses of the Fourier measure of the zeros.  For
p = C e^{iaz} prod sin(alpha_j z + beta_j)^{m_j} the upper one at
gamma = k alpha_j/pi is -2i m_j alpha_j e^{2ik beta_j}, summed over the
factors that share gamma.  On a lattice gamma_0 Z the harmonics
c_k = h(k gamma_0) / (-2 pi i gamma_0) = sum_l m_l zeta_l^k are therefore a
sum of exponentials with unit nodes zeta_l = e^{2i beta_l} and integer
weights m_l.  A factor sin(r pi gamma_0 z + beta) adds r nodes
e^{2i(beta + pi l)/r}, l < r, each of weight m, since sin(rw) is a constant
times prod_l sin(w + pi l/r).

The walk goes up the support in increasing gamma.  It subtracts the
harmonics of the factors already found; at the first coefficient left
beyond its noise (its rounding bound) it takes the family of that gamma,
fits the family's harmonics k = 1..2N, N = floor(D'/gamma_0) for the width
D' not yet accounted for, with the Hankel pencil (Prony's method), and
subtracts them.  Every alpha_j/pi is at most D and N nodes need 2N
harmonics, so 2D shows every factor.  Then a = pi (omega_min + omega_max)
and C comes from the lowest term.

For a sine product the walk succeeds, so each failure proves that p is
none, answered as not_sine_product at stage "fourier": a weight that is no
positive integer within its slack, harmonics that integer weights on unit
nodes leave unexplained (a node off the unit circle), a coefficient beyond
the width left, widths that do not sum to D, or a re-expansion mismatch.
Where the noise of the harmonics could hide a node next to another, a
failed fit proves nothing and raises StageError('fourier') instead.
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
    CapacityError,
    DecompositionFailureError,
    NonRealZerosError,
    PreconditionError,
    PrefactorFitError,
    SinecombError,
    StageError,
)
from .growth import growth_profile
from .logderiv import (
    COEFF_PRUNE_REL,
    LOWER,
    UPPER,
    DirichletCoefficients,
    logderiv_coeffs_symbolic,
)
# find_zeros is not called here: perfbench/spans.py wraps it by this name
from .zeros import AtomicMeasure, find_zeros, hankel_pencil  # noqa: F401

#: Re-expanded frequencies carry the reconstruction's error; each counts
#: as the input frequency this close to it.  Sized for the zero-comb route
#: (3e-9 for 5-fold factors); factors read from the coefficients err by
#: about 1e-15.
REEXPANSION_REACH = 1e-7
#: Float rounding, relative to the modulus, of a coefficient and, per unit
#: of harmonic index, of each harmonic subtracted from it: noise beyond the
#: rounding bound of the coefficient solve.
ROUND_REL = 4 * 2.0 ** -52
#: Support points on one lattice: their float sums of gaps agree to about
#: 1e-15 relative, and this keeps incommensurate ones apart.
COMMENSURATE_REL = 1e-12
#: Most nodes of one family, and half its most harmonics; beyond it
#: factor raises StageError('fourier').
FAMILY_MAX = 1024
#: Largest noise of the harmonics a family's Hankel pencil reads, relative
#: to a unit weight: at size k the pencil's noise level is then at most
#: QUIET * k, and the singular value of one node of weight 1 is k.
QUIET = 0.1
#: Whitened Gauss-Newton steps of one family fit.
FIT_STEPS = 3
#: Unit nodes this close are one node of a coset.
NODE_MATCH = 1e-8

REASON_CRITERION = "criterion (r2) fails"


@dataclass(frozen=True)
class FactorizationResult:
    product: SineProduct
    reconstruction_error: float


@dataclass(frozen=True)
class FactorOutcome:
    """Verdict of the full pipeline.

    verdict is "sine_product" or "not_sine_product"; stage names the
    deciding pipeline stage ("criterion" or "fourier"), result is set on
    success only.
    """

    verdict: str
    stage: str | None = None
    reason: str | None = None
    result: FactorizationResult | None = None
    diagnostics: dict = field(default_factory=dict)


@dataclass(frozen=True)
class FactorConfig:
    """Tunables of the factorization pipeline.

    ``radii`` / ``gamma_max`` default to scale-aware values derived from
    the polynomial (:func:`profile_radii`).  ``window`` is accepted and not
    read: perfbench/workloads.py passes it.
    """

    gamma_max: float | None = None
    radii: tuple[float, ...] | None = None
    window: tuple[float, float] | None = None
    reconstruction_tol: float = 1e-6


class _Refuted(Exception):
    """The coefficients prove that p is no sine product; says why."""


def _family_base(gamma: float, live: np.ndarray, left: float, width: float):
    """Base gamma_0 of the family of the lowest live coefficient ``gamma``,
    and N = floor(left / gamma_0) for the width ``left`` not yet accounted
    for.  Raises CapacityError if width / gamma_0, which bounds N and half
    the harmonics to subtract, exceeds FAMILY_MAX.

    Another live point s joins the family when one of its multiples lands
    on a harmonic that the fit reads: j s = k gamma_0 with k <= 2N.  The
    family then lives on the finer lattice gamma_0 / j (j reduced against
    k), and the search repeats there.
    """
    g0 = gamma
    while True:
        if width / g0 > FAMILY_MAX:
            raise CapacityError(f"a family on gamma_0 = {g0:.6g} reads more "
                                f"than {2 * FAMILY_MAX} harmonics")
        n = math.floor(left / g0 * (1.0 + COMMENSURATE_REL))
        near = live[live <= 2 * n * g0]
        off = np.abs(near - np.rint(near / g0) * g0) > COMMENSURATE_REL * near
        for j in range(2, 2 * n + 1):
            k = np.rint(j * near[off] / g0)
            hit = (np.abs(j * near[off] - k * g0) <= COMMENSURATE_REL * j * near[off]) \
                & (k <= 2 * n)
            if hit.any():
                g0 /= j // math.gcd(j, int(k[hit][0]))
                break
        else:
            return g0, n


def _whitened_steps(c, eps, theta, weights, free_weights: bool):
    """Gauss-Newton steps on c_k = sum_l w_l e^{ik theta_l}, k = 1.., for
    the phases, and for the weights too if ``free_weights``.  Each
    harmonic's residual counts in units of its noise eps_k, so the quiet
    low harmonics pin the nodes.  Returns (theta, weights, the whitened
    real Jacobian of the last step)."""
    k = np.arange(1, len(c) + 1)[:, None]
    for _ in range(FIT_STEPS):
        e = np.exp(1j * k * theta)
        jac = 1j * k * e * weights
        if free_weights:
            jac = np.hstack([jac, e])
        jac /= eps[:, None]
        r = (c - e @ weights) / eps
        jac = np.vstack([jac.real, jac.imag])
        step = np.linalg.lstsq(jac, np.concatenate([r.real, r.imag]),
                               rcond=None)[0]
        theta = theta + step[:len(theta)]
        if free_weights:
            weights = weights + step[len(theta):]
    return theta, weights, jac


def _fit_family(c: np.ndarray, eps: np.ndarray, n: int, g0: float):
    """Phases theta_l and integer weights M_l with c_k = sum_l M_l
    e^{ik theta_l}, k = 1..2n, from harmonics with noise eps_k; returns
    (theta, M, doubt).

    The Hankel pencil takes the largest size whose harmonics stay within
    QUIET: a size of at least the node count shows every node, a smaller
    one can miss a coset's, whose low harmonics cancel; full rank below
    size n raises CapacityError.  Whitened Gauss-Newton steps on all 2n
    harmonics refine phases and weights.  A weight's slack, the l1 norm of
    its row of the whitened pseudo-inverse, bounds how far noise within eps
    moves it; a weight that is no positive integer within it refutes p.  A
    node can hide below the noise level only next to another node (alone,
    weight 1 gives singular value k at size k, above the level), which
    then carries 2 or more.  So if the pencil dropped a singular value and
    a weight rounds to 2 or more, ``doubt`` makes a failed fit raise
    CapacityError instead (_fail).
    """
    # the largest noise of the harmonics that a pencil of each size reads
    noise = np.maximum.accumulate(eps)[1::2]
    size = int(np.searchsorted(noise, QUIET, side="right"))
    phi = w = ()
    if size:
        phi, w, _ = hankel_pencil(c, size, size * noise[size - 1])
    if not len(phi) or len(phi) == size < n:
        raise CapacityError(f"the harmonics of gamma = {g0:.9g} are too noisy "
                            f"to resolve its nodes")
    # w_l = m_l zeta_l with |zeta_l| = 1 for a sine product
    theta, m, jac = _whitened_steps(c, eps, np.angle(phi), np.abs(w), True)
    slack = np.abs(np.linalg.pinv(jac)[len(theta):]).sum(axis=1)
    mult = np.rint(m)
    doubt = bool(len(phi) < size and mult.max() >= 2)
    bad = (np.abs(m - mult) > slack) | (mult < 1)
    if bad.any():
        _fail(doubt, f"weight {m[bad][0]:.9g} at gamma = {g0:.9g} is no "
                     f"positive integer (slack {slack[bad][0]:.3g})")
    theta, _, _ = _whitened_steps(c, eps, theta, mult, False)
    return theta, mult, doubt


def _fail(doubt: bool, reason: str):
    """Raise _Refuted with ``reason``, or CapacityError if a node may hide
    within the noise of the fit that failed."""
    if doubt:
        raise CapacityError(f"{reason}, but a node may hide within the noise")
    raise _Refuted(reason)


def _cosets(theta: np.ndarray, mult: np.ndarray, g0: float, n: int):
    """Factors (alpha, beta, mult) of one family's nodes, coarsest first:
    r nodes e^{i(theta + 2 pi l/r)}, l < r, of one weight m are
    sin(r pi gamma_0 z + r theta/2)^m, for r from n down to 2; each node
    left is a factor sin(pi gamma_0 z + theta/2)."""
    left = mult.astype(int)
    nodes = np.exp(1j * theta)
    out = []
    for r in range(min(len(nodes), n), 1, -1):
        turns = np.exp(2j * math.pi * np.arange(1, r) / r)
        for i in range(len(nodes)):
            while left[i]:
                dist = np.abs(nodes[None, :] - nodes[i] * turns[:, None])
                peers = dist.argmin(axis=1)
                if dist.min(axis=1).max() > NODE_MATCH or not left[peers].all():
                    break
                coset = np.concatenate([[i], peers])
                m = left[coset].min()
                left[coset] -= m
                out.append((r * math.pi * g0, r * theta[i] / 2, int(m)))
    out += [(math.pi * g0, theta[i] / 2, int(left[i])) for i in np.nonzero(left)[0]]
    return out


def _read_factors(upper: DirichletCoefficients, width: float):
    """The factors (alpha, beta, mult) of p, from its upper coefficients up
    to 2 * width; raises _Refuted where they prove that p is none.

    A coefficient's noise is its rounding bound, plus the bound on a pruned
    coefficient, plus the float rounding of what was subtracted from it; a
    residual counts only beyond it.
    """
    g = upper.gamma_array
    inside = (g > 0) & (g <= 2 * width + freq.RESOLUTION)
    g, res = g[inside], upper.h_array[inside].copy()
    floor = COEFF_PRUNE_REL * float(np.abs(upper.h_array).max())
    noise = upper.rounding_array[inside] + floor + ROUND_REL * np.abs(res)
    tol = freq.RESOLUTION
    left = width
    factors = []
    while True:
        live = np.abs(res) > noise
        if not live.any():
            break
        gamma = g[live][0]
        if gamma > left + tol:
            raise _Refuted(f"coefficient at gamma = {gamma:.9g} lies beyond "
                           f"the width {left:.9g} left")
        g0, n = _family_base(gamma, g[live], left, width)
        k = np.arange(1, math.floor(2 * width / g0 * (1.0 + COMMENSURATE_REL)) + 1)
        idx = freq.lookup(g, k * g0)
        stored = idx >= 0
        unit = -2j * math.pi * g0
        c = np.where(stored, res[idx], 0) / unit
        eps = np.where(stored, noise[idx], floor) / abs(unit)
        theta, mult, doubt = _fit_family(c[:2 * n], eps[:2 * n], n, g0)
        model = unit * (np.exp(1j * np.outer(k, theta)) @ mult)
        res[idx[stored]] -= model[stored]
        noise[idx[stored]] += ROUND_REL * k[stored] * np.abs(model[stored])
        fam = idx[:2 * n][stored[:2 * n]]
        if (np.abs(model[~stored]) > floor).any() or \
                (np.abs(res[fam]) > noise[fam]).any():
            _fail(doubt, f"integer weights on unit nodes leave harmonics of "
                         f"gamma = {g0:.9g} unexplained")
        factors += _cosets(theta, mult, g0, n)
        left -= g0 * mult.sum()
    if abs(left) > tol * (1 + len(factors)):
        raise _Refuted(f"the factors' widths sum to {width - left:.9g}, "
                       f"not D = {width:.9g}")
    return factors


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

    Stages: Dirichlet coefficients on both half-planes, the upper one up to
    at least 2D; growth profile (superlinear, a proof => not a sine
    product); the factors read from the upper coefficients, and the
    mandatory re-expansion check (any failure, a proof => not a sine
    product, stage "fourier").  Other stage errors raise StageError.
    """
    if p.n_terms == 0:
        raise PreconditionError("empty polynomial")
    if p.n_terms == 1:
        w, q = p.terms[0]
        product = SineProduct.from_factors(q, TWO_PI * w, ())
        return FactorOutcome("sine_product", result=FactorizationResult(
            product=product, reconstruction_error=0.0))

    radii = config.radii if config.radii is not None else profile_radii(p)
    gamma_max = config.gamma_max if config.gamma_max is not None else max(radii)
    width = p.freq_max - p.freq_min

    try:
        upper = logderiv_coeffs_symbolic(p, UPPER, max(gamma_max, 2.0 * width))
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

    try:
        factors = _read_factors(upper, width)
    except _Refuted as exc:
        return FactorOutcome("not_sine_product", stage="fourier",
                             reason=str(exc), diagnostics={"growth": report})
    except (SinecombError, np.linalg.LinAlgError) as exc:
        raise StageError("fourier", exc) from exc
    lowest = np.prod([(0.5j * cmath.exp(-1j * beta)) ** mult
                      for _, beta, mult in factors])
    product = SineProduct.from_factors(
        p.terms[0][1] / lowest, math.pi * (p.freq_min + p.freq_max), factors)

    try:
        expanded = expand_sine_product(product)
        recon_err = _coefficient_discrepancy(p, expanded)
    except SinecombError as exc:
        raise StageError("verify", exc) from exc
    if recon_err > config.reconstruction_tol:
        return FactorOutcome(
            "not_sine_product", stage="fourier",
            reason=f"re-expansion mismatch {recon_err:.3g} exceeds "
                   f"{config.reconstruction_tol:.3g}",
            diagnostics={"growth": report, "reconstruction_error": recon_err,
                         "product": product})
    return FactorOutcome("sine_product", result=FactorizationResult(
        product=product, reconstruction_error=recon_err),
        diagnostics={"growth": report})


# -- the zero-comb route, which factor no longer takes -------------------------

#: Tolerance for membership of a zero in a hypothesized progression.
JITTER_TOL = 1e-6
#: Minimum matched points for a progression to be accepted.
MIN_POINTS = 4
#: Default |Im zero| tolerance for declaring the zero set real.
REALITY_TOL = 1e-7


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


# not on factor's path; perfbench/spans.py wraps it by name
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


# not on factor's path; perfbench/spans.py wraps it by name
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


# not on factor's path; perfbench/spans.py wraps it by name
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
