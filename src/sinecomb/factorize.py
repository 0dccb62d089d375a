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
from .core import ExpPolynomial, SineProduct, TWO_PI, expand_sine_product
from .errors import CapacityError, PreconditionError, SinecombError, StageError
from .growth import growth_profile, radii_reached, sweep_coefficients
from .logderiv import COEFF_PRUNE_REL, DirichletCoefficients
# logderiv_coeffs_symbolic, find_zeros and the three names bound to None
# (their functions are deleted) are not called here: perfbench/spans.py
# wraps them by name on this module
from .logderiv import logderiv_coeffs_symbolic  # noqa: F401
from .zeros import find_zeros, hankel_pencil  # noqa: F401
detect_progressions = progressions_to_sines = fit_exponential_prefactor = None

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
    ``q`` counted at the frequency of ``p`` within the resolution of it,
    relative to the largest coefficient of ``p``."""
    wp = np.array([w for w, _ in p.terms])
    wq = np.array([w for w, _ in q.terms])
    near = freq.lookup(wp, wq)
    _, diff = freq.merge(np.concatenate([wp, np.where(near >= 0, wp[near], wq)]),
                         [c for _, c in p.terms] + [-c for _, c in q.terms])
    return max(map(abs, diff)) / max(abs(c) for _, c in p.terms)


def factor(p: ExpPolynomial, config: FactorConfig = FactorConfig()) -> FactorOutcome:
    """Decide whether ``p`` is a finite sine product and reconstruct it.

    Stages: Dirichlet coefficients on both half-planes, the upper one up to
    at least 2D, from one sweep that ends early where they break a growth
    bound; growth profile (superlinear, a proof => not a sine product); the
    factors read from the upper coefficients, and the mandatory
    re-expansion check (any failure, a proof => not a sine product, stage
    "fourier").  Other stage errors raise StageError.
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
        upper, lower = sweep_coefficients(p, gamma_max, 2.0 * width)
    except SinecombError as exc:
        raise StageError("logderiv", exc) from exc

    try:
        report = growth_profile(upper, lower,
                                radii_reached(radii, gamma_max, upper, lower))
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

