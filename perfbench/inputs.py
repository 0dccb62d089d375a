"""Seeded inputs of the benchmark and their closed forms.

Everything here is computed apart from the program: the generators draw
parameters with numpy, and the closed-form zeros, Dirichlet coefficients and
Fourier masses are derived by hand from the sine and cosine product
formulas.  The only ``sinecomb`` calls build the exponential-polynomial
form of an input (``expand_sine_product``, ``ExpPolynomial.from_terms``),
which is what a user hands to the program.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from sinecomb import ExpPolynomial, SineProduct, expand_sine_product

PI = math.pi

#: Seeded products whose zeros of distinct factors come closer than this
#: inside the window are drawn again; the zeros stage fails in that region
#: (see README, "Known fault"), which the fixed FAULT_PRODUCT represents.
#: So is a product on which the growth criterion cannot decide
#: (``ladder_slope``).
MIN_ZERO_SEPARATION = 0.02

#: The growth criterion's default radii ladder, 1 + g*t for the largest
#: frequency gap g of the expansion, and its largest linear slope
#: (``factorize.profile_radii`` and ``growth.LINEAR_SLOPE_MAX`` of the
#: program these inputs were written for).  Copied, so that the inputs do
#: not change when the program does.
LADDER_STEPS = (4.0, 8.0, 12.0, 16.0, 20.0, 24.0, 28.0, 32.0)
LINEAR_SLOPE_MAX = 1.1

#: Item 6 of the acceptance corpus generator at ``default_rng(1)``:
#: double zeros of its two factors nearly coincide, and ``factor`` raises
#: StageError('zeros') ("winding did not settle") on it every time.
FAULT_PRODUCT = SineProduct.from_factors(
    0.4946905503506986 - 1.3725719325243986j, 2.782025237069825,
    [(0.9148928400666492, 2.239671092130398, 2),
     (2.2560138807073904, 2.591461190473013, 2)])

#: A product with a double zero 3.0e-4 inside the right edge of its corpus
#: window, +-3.6*pi/1.03.  ``factor`` answers it correctly, but the edge
#: integral along x = 10.98 evaluates about 117,000 nodes of its 18 terms
#: in one batch, which lifts the process's peak RSS from about 57 MB to
#: 166 MB.  Seeded products do the same when a zero falls 5e-5 to 4e-4 from
#: an edge, to a height that depends on that distance; this one, in every
#: round, makes the peak the same in every run (see README).
SPIKE_PRODUCT = SineProduct.from_factors(
    1.2 - 0.5j, 0.7,
    [(1.03, 1.256946061435917, 2), (1.71, 0.6, 2), (2.47, 2.0, 1)])


#: alpha candidates drawn at once by ``draw_sine_product``
ALPHA_BATCH = 256


@dataclass(frozen=True)
class Case:
    """One input: its exponential polynomial and what is known about it.

    ``kind`` is "sine", "cosine" or "generic"; ``product`` is set for sine
    products and ``cosine`` = (a, b, nu) for a + b*cos(2*pi*nu*z).
    """

    label: str
    kind: str
    poly: ExpPolynomial
    product: SineProduct | None = None
    cosine: tuple[float, float, float] | None = None


def corpus_window(s: SineProduct) -> float:
    """Half-width of the acceptance corpus's factoring window."""
    alpha_min = min(alpha for alpha, _, _ in s.factors)
    return max(7.0, 3.6 * PI / alpha_min)


def factor_zeros(alpha: float, beta: float, lo: float, hi: float) -> list[float]:
    """Zeros (pi*n - beta)/alpha of sin(alpha*z + beta) in [lo, hi]."""
    n_lo = math.ceil((alpha * lo + beta) / PI)
    n_hi = math.floor((alpha * hi + beta) / PI)
    return [(PI * n - beta) / alpha for n in range(n_lo, n_hi + 1)]


def min_factor_separation(s: SineProduct, half: float) -> float:
    """Smallest distance between zeros of two distinct factors in the window."""
    zs = [np.array(factor_zeros(a, b, -half - 1.0, half + 1.0))
          for a, b, _ in s.factors]
    best = math.inf
    for i in range(len(zs)):
        for j in range(i + 1, len(zs)):
            if len(zs[i]) and len(zs[j]):
                d = np.abs(zs[i][:, None] - zs[j][None, :]).min()
                best = min(best, float(d))
    return best


def draw_sine_product(rng: np.random.Generator, n_factors: int, n_double: int,
                      strata: tuple[tuple[int, int], ...],
                      half: float | None = None) -> SineProduct:
    """A sine product drawn like the acceptance corpus (tests/conftest.py):
    alpha ~ U[0.9, 3] with gaps > 0.05, beta ~ U(0.05, pi-0.05),
    |C| ~ U[0.5, 2) with uniform phase, a ~ U[-3, 3].  The structure (number
    of factors, number of double factors) is given; which factor is doubled
    is drawn.  ``strata`` = ((k, c), ...) draws factor j's alpha uniformly
    from the k-th of c equal slices of [0.9, 3] (see ``stratified_products``).
    ``half`` is the window half-width of the separation rule (default: the
    corpus window of the product)."""
    slice_lo = np.array([k for k, _ in strata], dtype=float)
    slices = np.array([c for _, c in strata], dtype=float)
    while True:
        # candidates in batches: when three factors share one narrow slice,
        # few candidates keep their gaps above 0.05 (1 in ~9,000 for a slice
        # of width 0.105), and one at a time that costs a second of set-up
        while True:
            cand = 0.9 + 2.1 * (slice_lo + rng.random((ALPHA_BATCH, n_factors))) / slices
            ok = np.diff(np.sort(cand, axis=1), axis=1).min(axis=1, initial=np.inf) > 0.05
            if ok.any():
                alphas = cand[int(ok.argmax())]
                break
        betas = rng.uniform(0.05, PI - 0.05, n_factors)
        mults = np.ones(n_factors, dtype=int)
        mults[rng.permutation(n_factors)[:n_double]] = 2
        c = (0.5 + 1.5 * rng.random()) * cmath.exp(2j * PI * rng.random())
        a = float(rng.uniform(-3.0, 3.0))
        s = SineProduct.from_factors(
            c, a, list(zip(alphas.tolist(), betas.tolist(), mults.tolist())))
        w = corpus_window(s) if half is None else half
        if min_factor_separation(s, w) >= MIN_ZERO_SEPARATION \
                and ladder_slope(s) <= LINEAR_SLOPE_MAX:
            return s


def ladder_slope(s: SineProduct) -> float:
    """Log-log slope of the exact coefficient mass R(r) = sum of |h| over
    |gamma| < r, both half-planes, over the top half of the criterion's
    default radii ladder.  Above LINEAR_SLOPE_MAX the criterion cannot call
    the product linear even from exact coefficients (see README).

    By the cotangent series (``cot_series``) the constant terms are
    i*(a -+ A), A = sum alpha*mult, and every other coefficient of a factor
    has modulus 2*alpha*mult, one at each k*alpha/pi, k >= 1, per half."""
    # frequencies of the expansion, times 2 pi and less a: every sum of
    # (mult - 2t)*alpha, t = 0..mult, over the factors
    sums = np.zeros(1)
    for alpha, _, mult in s.factors:
        sums = (sums[:, None] + alpha * np.arange(mult, -mult - 1, -2)).ravel()
    sums = np.unique(sums)
    gap = float(np.diff(sums).max()) / (2.0 * PI)
    radii = 1.0 + gap * np.array(LADDER_STEPS)
    total = sum(alpha * mult for alpha, _, mult in s.factors)
    mass = abs(s.a - total) + abs(s.a + total)
    for alpha, _, mult in s.factors:
        mass = mass + 4.0 * alpha * mult * (np.ceil(radii * PI / alpha) - 1.0)
    top = len(radii) // 2
    x = np.log(radii[top:])
    y = np.log(mass[top:])
    x -= x.mean()
    return float((x * (y - y.mean())).sum() / (x * x).sum())


def corpus_mix(total: int) -> dict[tuple[int, int], int]:
    """``total`` products split over (number of factors, number of double
    factors) in the shares the corpus generator draws them: 1 to 3 factors
    uniformly, drawn again unless all alphas lie more than 0.05 apart, each
    factor doubled with probability 0.3.  Products with three double
    factors (0.8% of draws) are left out: the zeros stage fails on some of
    them even with zeros of distinct factors 0.02-0.04 apart (see README),
    so they would fail on some seeds only.  Counts are rounded by largest
    remainder."""
    span = 3.0 - 0.9
    weights = {}
    for n in (1, 2, 3):
        # n uniform points on [0, span] have all gaps above d with
        # probability (1 - (n - 1) d / span)^n
        accept = (1.0 - (n - 1) * 0.05 / span) ** n
        for d in range(min(n, 2) + 1):
            weights[(n, d)] = accept * math.comb(n, d) * 0.3 ** d * 0.7 ** (n - d)
    scale = total / sum(weights.values())
    exact = {k: w * scale for k, w in weights.items()}
    counts = {k: int(v) for k, v in exact.items()}
    short = total - sum(counts.values())
    for k in sorted(exact, key=lambda k: counts[k] - exact[k])[:short]:
        counts[k] += 1
    return counts


def stratified_products(rng: np.random.Generator, mix: dict[tuple[int, int], int],
                        half: float | None = None) -> list[SineProduct]:
    """``mix[(n_factors, n_double)]`` products of each structure, in
    round-robin order over the structures.  Within a structure the alphas
    are a Latin hypercube: each factor's alpha falls once in each of the c
    equal slices of [0.9, 3], slices matched at random between factors.
    Every product keeps the corpus's distribution, while each set covers
    the alpha range evenly, so two seeds give sets of similar cost."""
    groups = []
    for (n_factors, n_double), count in mix.items():
        perms = [rng.permutation(count) for _ in range(n_factors)]
        groups.append([draw_sine_product(
            rng, n_factors, n_double,
            tuple((int(perms[j][i]), count) for j in range(n_factors)), half)
            for i in range(count)])
    out = []
    for i in range(max(len(g) for g in groups)):
        out += [g[i] for g in groups if i < len(g)]
    return out


def sine_case(label: str, s: SineProduct) -> Case:
    return Case(label, "sine", expand_sine_product(s), product=s)


def cosine_case(label: str, a: float, b: float, nu: float) -> Case:
    """a + b*cos(2*pi*nu*z) with a > b > 0: zeros off the real line."""
    poly = ExpPolynomial.from_terms([(-nu, 0.5 * b), (0.0, a), (nu, 0.5 * b)])
    return Case(label, "cosine", poly, cosine=(a, b, nu))


def stratified_cosines(rng: np.random.Generator, count: int,
                       nus: tuple[float, ...] | None = None) -> list[Case]:
    """``count`` inputs a + cos(2*pi*nu*z), a ~ U[1.5, 3], nu ~ U[0.5, 1.5]
    (or drawn without repeats from the grid ``nus``).  a and nu form a Latin
    hypercube, so every set covers both ranges evenly."""
    perm_a, perm_nu = rng.permutation(count), rng.permutation(count)
    if nus is not None:
        grid = rng.choice(nus, size=count, replace=False)
    out = []
    for i in range(count):
        a = 1.5 + 1.5 * (perm_a[i] + rng.random()) / count
        nu = grid[i] if nus is not None \
            else 0.5 + (perm_nu[i] + rng.random()) / count
        out.append(cosine_case(f"c{i}", float(a), 1.0, float(nu)))
    return out


#: Smallest frequency gap of the generic inputs; with at most 4 terms it
#: keeps the gap semigroup below the program's support cap at gamma_max 16.
GENERIC_MIN_GAP = 0.25
#: A generic input needs zeros this far from the real line (by its Newton
#: polygon); nearer, its coefficient mass still grows linearly at
#: gamma_max 16 and the criterion calls it linear (see README).
GENERIC_MIN_HEIGHT = 0.2


def balance_heights(w: np.ndarray, q: np.ndarray) -> list[float]:
    """Heights y where two terms of sum q_j exp(2 pi i w_j z) have equal
    size and dominate the rest: the slopes of the upper convex hull of the
    points (w_j, log|q_j|), divided by 2 pi.  The zeros lie in bands around
    these heights."""
    hull: list[tuple[float, float]] = []
    for pt in zip(w.tolist(), np.log(np.abs(q)).tolist()):
        while len(hull) >= 2 and (
                (hull[-1][0] - hull[-2][0]) * (pt[1] - hull[-2][1])
                - (hull[-1][1] - hull[-2][1]) * (pt[0] - hull[-2][0])) >= 0:
            hull.pop()
        hull.append(pt)
    return [(b[1] - a[1]) / (2.0 * PI * (b[0] - a[0]))
            for a, b in zip(hull, hull[1:])]


def draw_generic(rng: np.random.Generator, label: str) -> Case:
    """3 or 4 terms, omega ~ U(-3, 3) with gaps >= GENERIC_MIN_GAP and
    complex normal amplitudes, with some zeros at least GENERIC_MIN_HEIGHT
    off the real line: not a sine product."""
    n = int(rng.integers(3, 5))
    while True:
        w = np.sort(rng.uniform(-3.0, 3.0, n))
        q = rng.normal(size=n) + 1j * rng.normal(size=n)
        if np.diff(w).min() >= GENERIC_MIN_GAP and max(
                abs(y) for y in balance_heights(w, q)) >= GENERIC_MIN_HEIGHT:
            return Case(label, "generic",
                        ExpPolynomial.from_terms(zip(w.tolist(), q.tolist())))


# -- reference inputs (ROADMAP) -------------------------------------------

def reference_cases() -> list[Case]:
    sq2, sq3 = math.sqrt(2.0), math.sqrt(3.0)
    return [
        sine_case("sin", SineProduct.from_factors(1.0, 0.0, [(PI, 0.0, 1)])),
        sine_case("sin2", SineProduct.from_factors(1.0, 0.0, [(PI, 0.0, 2)])),
        cosine_case("4+2cos", 4.0, 2.0, 1.0),
        sine_case("3-factor", SineProduct.from_factors(
            1.0, 0.0, [(PI, 0.0, 1), (sq2 * PI, 0.3, 1), (sq3 * PI, 1.1, 2)])),
    ]


# -- closed forms -----------------------------------------------------------

def zero_atoms(case: Case, x_lo: float, x_hi: float) -> list[tuple[complex, int]]:
    """Closed-form zeros with multiplicity whose real part lies in
    (x_lo, x_hi), sorted by (Re, Im)."""
    atoms: list[tuple[complex, int]] = []
    if case.kind == "sine":
        for alpha, beta, mult in case.product.factors:
            atoms += [(complex(x, 0.0), mult)
                      for x in factor_zeros(alpha, beta, x_lo, x_hi)
                      if x_lo < x < x_hi]
    elif case.kind == "cosine":
        a, b, nu = case.cosine
        y0 = math.acosh(a / b) / (2.0 * PI * nu)
        for n in range(math.floor(x_lo * nu - 1.0), math.ceil(x_hi * nu) + 1):
            x = (n + 0.5) / nu
            if x_lo < x < x_hi:
                atoms += [(complex(x, -y0), 1), (complex(x, y0), 1)]
    else:
        raise ValueError("no closed-form zeros for a generic input")
    atoms.sort(key=lambda t: (t[0].real, t[0].imag))
    return atoms


#: Frequencies closer than this are one atom (the program merges on 1e-9).
FREQ_MERGE = 1e-8


def _spectrum(pairs) -> list[tuple[float, complex]]:
    """Sort (frequency, value) pairs and sum those closer than FREQ_MERGE."""
    out: list[list] = []
    for g, v in sorted(pairs, key=lambda t: t[0]):
        if out and g - out[-1][0] < FREQ_MERGE:
            out[-1][1] += v
        else:
            out.append([g, v])
    return [(g, complex(v)) for g, v in out]


def cot_series(s: SineProduct, gamma_max: float,
               upper: bool = True) -> list[tuple[float, complex]]:
    """Dirichlet coefficients of p'/p for a sine product, sorted by
    frequency, from alpha*cot(w) = -i*sigma*alpha*(1 + 2*sum_k e^{2ik sigma w})
    with w = alpha*z + beta, where sigma = +1 above the real line and -1
    below it."""
    sigma = 1.0 if upper else -1.0
    pairs = [(0.0, 1j * s.a)]
    for alpha, beta, mult in s.factors:
        pairs.append((0.0, -1j * sigma * alpha * mult))
        k = 1
        while k * alpha / PI <= gamma_max + 1e-12:
            pairs.append((sigma * k * alpha / PI, (-2j) * sigma * alpha * mult
                          * cmath.exp(2j * sigma * k * beta)))
            k += 1
    return _spectrum(pairs)


def fourier_masses(case: Case, gamma_max: float) -> list[tuple[float, complex]]:
    """Closed-form Fourier masses of the zero measure at |gamma| <= gamma_max,
    sorted by frequency.

    sin(alpha z + beta)^m: mass alpha*m*e^{+-2ik beta}/pi at +-k*alpha/pi.
    a + b cos(2 pi nu z):  mass 2*nu*(-1)^k*cosh(k*acosh(a/b)) at +-k*nu.
    """
    pairs = []
    if case.kind == "sine":
        for alpha, beta, mult in case.product.factors:
            pairs.append((0.0, alpha * mult / PI))
            k = 1
            while k * alpha / PI <= gamma_max + 1e-12:
                for sign in (1, -1):
                    pairs.append((sign * k * alpha / PI, alpha * mult / PI
                                  * cmath.exp(2j * sign * k * beta)))
                k += 1
    elif case.kind == "cosine":
        a, b, nu = case.cosine
        u = math.acosh(a / b)
        k = 0
        while k * nu <= gamma_max + 1e-12:
            mass = 2.0 * nu * (-1.0) ** k * math.cosh(k * u)
            pairs += [(sign * k * nu, mass) for sign in ((1,) if k == 0 else (1, -1))]
            k += 1
    else:
        raise ValueError("no closed-form Fourier masses for a generic input")
    return _spectrum(pairs)


def gap_rect_bounds(case: Case) -> tuple[float, float]:
    """(x_lo, x_hi) of a rectangle around the distinct real part of a zero
    nearest 0 and the next one up, with edges halfway to the neighbouring
    zeros."""
    xs = np.array(sorted({round(z.real, 12)
                          for z, _ in zero_atoms(case, -20.0, 20.0)}))
    k = min(max(1, int(np.argmin(np.abs(xs)))), len(xs) - 3)
    return 0.5 * (xs[k - 1] + xs[k]), 0.5 * (xs[k + 1] + xs[k + 2])
