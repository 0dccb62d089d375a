"""Dirichlet coefficients of p'/p on the two zero-free half-planes.

Above the zero strip, factor out the lowest-frequency term:
``p = q0 * exp(2*pi*i*omega0*z) * (1 + g)`` where ``g`` has strictly
positive spectrum.  Then

    p'/p = 2*pi*i*omega0 + g' * sum_{m>=0} (-g)^m,

a series on the additive semigroup generated by the frequency gaps.
Because every generator is positive, truncating at ``gamma_max`` after each
product is exact for the collected coefficients, and the iteration
terminates once (m+1) * min_gap exceeds ``gamma_max``.  The lower half-plane
is the mirror image with the highest frequency factored out; it is computed
by reflecting z -> -z and reusing the upper-half code.

Numeric coefficients come from Bohr means
``exp(2*pi*gamma*y) * (1/2T) * integral_{-T}^{T} (p'/p)(x+iy) e^{-2*pi*i*gamma*x} dx``
on a horizontal line outside the zero strip; the stored value does not
depend on the height used.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import freq
from .core import TWO_PI, ExpPolynomial, zero_strip_estimate
from .errors import CapacityError, EmptyPolynomialError, PreconditionError
from .quadrature import gauss_legendre

UPPER = "upper"
LOWER = "lower"

#: Cap on the enumerated coefficient support per computation.
SUPPORT_CAP = 200_000
#: Coefficients below this times max|h| are cancellation dust and dropped.
COEFF_PRUNE_REL = 1e-12


@dataclass(frozen=True)
class DirichletCoefficients:
    """Truncated map gamma -> h for one half-plane.

    ``coeffs`` is sorted by gamma, more than the frequency resolution apart;
    upper-half gammas are >= 0, lower-half <= 0, and all stored h are
    nonzero; ``gamma_array`` and ``h_array`` hold its two columns.
    ``tail_bound`` bounds the absolute error of the truncated series against
    p'/p everywhere at least ``validity_height`` above the strip (below, for
    the lower half-plane).  ``rounding`` bounds, to first order, the
    rounding error of each h (empty: exact); ``rounding_array`` holds it.
    """

    halfplane: str
    coeffs: tuple[tuple[float, complex], ...]
    gamma_max: float
    tail_bound: float
    validity_height: float
    rounding: tuple[float, ...] = field(default=(), repr=False, compare=False)
    gamma_array: np.ndarray = field(init=False, repr=False, compare=False)
    h_array: np.ndarray = field(init=False, repr=False, compare=False)
    rounding_array: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.halfplane not in (UPPER, LOWER):
            raise ValueError("halfplane must be 'upper' or 'lower'")
        gammas = [g for g, _ in self.coeffs]
        g = np.array(gammas, dtype=float)
        h = np.array([h for _, h in self.coeffs], dtype=complex)
        sign = 1.0 if self.halfplane == UPPER else -1.0
        if np.any(sign * g < -freq.RESOLUTION):
            raise ValueError("gamma on the wrong side for this half-plane")
        if not freq.resolved(gammas):
            raise ValueError("gammas not strictly increasing or too close")
        if np.any(h == 0):
            raise ValueError("zero coefficient stored")
        if self.rounding and len(self.rounding) != len(self.coeffs):
            raise ValueError("one rounding bound per coefficient")
        object.__setattr__(self, "gamma_array", g)
        object.__setattr__(self, "h_array", h)
        object.__setattr__(self, "rounding_array",
                           np.array(self.rounding or np.zeros(len(h)), dtype=float))

    @property
    def gammas(self) -> list[float]:
        return self.gamma_array.tolist()

    def get(self, gamma: float) -> complex:
        """Coefficient at ``gamma`` (0 if none is within the resolution)."""
        i = int(freq.lookup(self.gamma_array, gamma))
        return complex(self.h_array[i]) if i >= 0 else 0j

    def partial_sum(self, z) -> complex:
        """Value of the truncated Dirichlet series at ``z``."""
        z = np.asarray(z, dtype=complex)
        acc = (self.h_array * np.exp(np.multiply.outer(
            z, 1j * TWO_PI * self.gamma_array))).sum(axis=-1)
        return complex(acc) if acc.ndim == 0 else acc


def _weighted_l1(gammas, coeffs, y: float) -> float:
    if len(gammas) == 0:
        return 0.0
    return float(np.sum(np.abs(coeffs) * np.exp(-TWO_PI * np.asarray(gammas) * y)))


def _validity_height(gammas, coeffs) -> float:
    """Smallest y with the weighted l1 norm of g at most 1/2."""
    lo, hi = 0.0, 1.0
    while _weighted_l1(gammas, coeffs, lo) <= 0.5:
        hi = lo
        lo -= max(1.0, abs(lo))
        if lo < -1e6:
            return lo
    while _weighted_l1(gammas, coeffs, hi) > 0.5:
        lo = hi
        hi += max(1.0, hi)
        if hi > 1e6:
            raise PreconditionError("no finite validity height")
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if _weighted_l1(gammas, coeffs, mid) > 0.5:
            lo = mid
        else:
            hi = mid
    return hi


def _add_multiples(support: np.ndarray, d: float, gamma_max: float,
                   cap: int) -> np.ndarray:
    """``support`` closed under adding d: the run starts of the sorted sums
    s + k*d up to gamma_max (plus half the resolution), s in ``support``.

    The sums are swept in windows m*d wide, in increasing order.  In each,
    every s meets at most m + 1 multiples of d, so no array outgrows a few
    times ``cap``; and the runs of the windows already swept are final, so
    the count stops once it passes ``cap``.
    """
    limit = gamma_max + 0.5 * freq.RESOLUTION
    n = math.floor(limit / d) + 1
    m = max(1, min(n, cap // len(support)))
    runs, n_runs, last, j = [], 0, -math.inf, 0
    while d * (m * j) <= limit:
        lo, hi = d * (m * j), d * (m * (j + 1))
        # first k with s + k*d >= lo, less one for rounding, and m + 2 more
        k = (np.maximum(np.floor((lo - support) / d), 0.0)[:, None]
             + np.arange(-1.0, m + 2.0))
        sums = support[:, None] + d * k
        sums = np.sort(sums[(k >= 0) & (k < n) & (sums >= lo) & (sums < hi)
                            & (sums <= limit)])
        runs.append(sums[freq.run_starts(sums, last)])
        n_runs += len(runs[-1])
        if n_runs > cap:
            raise CapacityError(
                f"gap-semigroup support exceeded {cap} entries below "
                f"gamma_max={gamma_max:.6g}; reduce gamma_max")
        last = sums[-1] if len(sums) else last
        j += 1
    return np.concatenate(runs)


def _semigroup_support(gaps: np.ndarray, gamma_max: float,
                       cap: int = SUPPORT_CAP) -> np.ndarray:
    """Sorted positive elements of the additive semigroup generated by the
    gaps, truncated at gamma_max, merged at the frequency resolution.

    Gaps already in the support are skipped: closing over a minimal
    generating set reaches the same support far cheaper.
    """
    support = np.array([0.0])
    for d in np.sort(gaps):
        if freq.lookup(support, d) < 0:
            support = _add_multiples(support, d, gamma_max, cap)
    return support[1:]


def _coeffs_upper(p: ExpPolynomial, gamma_max: float) -> DirichletCoefficients:
    omega0, q0 = p.terms[0]
    if p.n_terms == 1:  # p'/p is the constant 2*pi*i*omega0
        pairs = ((0.0, 1j * TWO_PI * omega0),) if omega0 else ()
        return DirichletCoefficients(UPPER, pairs, gamma_max, 0.0, -math.inf)
    g_gam = np.array([w - omega0 for w, _ in p.terms[1:]])
    g_cof = np.array([q / q0 for _, q in p.terms[1:]])
    gp_cof = (1j * TWO_PI) * g_gam * g_cof

    y_v = _validity_height(g_gam, g_cof)
    r = min(_weighted_l1(g_gam, g_cof, y_v), 0.5 + 1e-12)
    gp_norm = _weighted_l1(g_gam, gp_cof, y_v)

    # Solve u = g' - u*g by forward substitution over the gap semigroup:
    # u[gamma] = g'[gamma] - sum_j c_j * u[gamma - gap_j].  Every collected
    # coefficient is exact (no order truncation), and errors feed forward
    # once instead of through an alternating series, which keeps the
    # computation well conditioned at large expansion depths.  v = -g - v*g,
    # solved alongside, is 1/(1 + g) - 1: it carries each step's rounding on.
    support = _semigroup_support(g_gam, gamma_max)
    # rows u and v, and a last column of zeros that index -1 reads
    uv, rhs = np.zeros((2, 2, len(support) + 1), dtype=complex)
    gp_idx = freq.lookup(support, g_gam)
    in_range = gp_idx >= 0  # gaps beyond gamma_max fall outside the support
    np.add.at(rhs[0], gp_idx[in_range], gp_cof[in_range])
    np.add.at(rhs[1], gp_idx[in_range], -g_cof[in_range])

    d_min = float(g_gam.min())
    start = 0
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        while start < len(support):
            # every target lies d_min or more below its entry, so a block
            # this narrow reads only entries solved before it
            end = int(np.searchsorted(
                support, support[start] + d_min - 2.0 * freq.RESOLUTION,
                side="right"))
            end = max(end, start + 1)
            block = slice(start, end)
            idx = freq.lookup(support, support[block][None, :] - g_gam[:, None])
            terms = g_cof[:, None] * uv[:, idx]
            uv[:, block] = rhs[:, block] - terms.sum(axis=1)
            start = end
    (u, v), rhs = uv[:, :-1], rhs[:, :-1]
    if not np.isfinite(u).all():
        raise CapacityError(f"coefficients leave the double range below "
                            f"gamma_max={gamma_max:.6g}; reduce gamma_max")
    # error_k = sum_i (1 + v)_(k-i) delta_i to first order, where step i errs
    # by at most 2 n eps (|g'_i| + sum_j |c_j u_(i-j)|), the input's own
    # rounding included.  Weights exp(-2 pi y gamma) factor over these sums;
    # y = 0 suits slow growth (multiple zeros), y = y_v fast: the lesser holds.
    rounding = np.inf
    with np.errstate(all="ignore"):  # a weight out of range gives inf or nan
        for y in (0.0, y_v):
            w = np.exp(-TWO_PI * y * support)
            step = (np.maximum.accumulate(np.abs(rhs[0]) * w)
                    + _weighted_l1(g_gam, g_cof, y)
                    * np.maximum.accumulate(np.abs(u) * w))
            rounding = np.fmin(rounding, step / w
                               * (1.0 + np.cumsum(np.abs(v) * w)))
    rounding *= 2 * p.n_terms * 2.0 ** -52

    gammas = np.concatenate([[0.0], support])
    coeffs = np.concatenate([[1j * TWO_PI * omega0], u])
    scale = float(np.abs(coeffs).max())
    keep = np.abs(coeffs) > COEFF_PRUNE_REL * scale
    pairs = tuple((float(g), complex(c))
                  for g, c in zip(gammas[keep], coeffs[keep]))
    rounding = tuple(np.concatenate([[0.0], rounding])[keep].tolist())
    # any term of the series with frequency > gamma_max involves at least
    # ceil(gamma_max / max_gap) factors of g, so the tail is geometric
    m_min = max(0, math.ceil(gamma_max / float(g_gam.max())) - 1)
    tail = gp_norm * r ** m_min / (1.0 - r)
    return DirichletCoefficients(UPPER, pairs, gamma_max, tail, y_v, rounding)


def _reflect_poly(p: ExpPolynomial) -> ExpPolynomial:
    return ExpPolynomial.from_terms((-w, q) for w, q in p.terms)


def logderiv_coeffs_symbolic(p: ExpPolynomial, halfplane: str,
                             gamma_max: float) -> DirichletCoefficients:
    """Dirichlet coefficients of p'/p collected up to |gamma| <= gamma_max.

    The reported ``tail_bound`` controls the truncation error at heights at
    least ``validity_height`` away from the strip.

    Raises
    ------
    CapacityError
        If the enumerated support exceeds the configured cap.
    """
    if p.n_terms == 0:
        raise EmptyPolynomialError("zero function has no logarithmic derivative")
    if gamma_max <= 0:
        raise PreconditionError("gamma_max must be positive")
    if halfplane == UPPER:
        return _coeffs_upper(p, gamma_max)
    if halfplane != LOWER:
        raise ValueError("halfplane must be 'upper' or 'lower'")
    # (p'/p)(w) = -(F'/F)(-w) with F(z) = p(-z); upper coefficients of F at
    # gamma become lower coefficients of p at -gamma with flipped sign.
    upper = _coeffs_upper(_reflect_poly(p), gamma_max)
    pairs = tuple((-g + 0.0, -h) for g, h in reversed(upper.coeffs))
    return DirichletCoefficients(LOWER, pairs, gamma_max, upper.tail_bound,
                                 -upper.validity_height,
                                 upper.rounding[::-1])


_SPLITTER = 134217729.0  # 2^27 + 1


def _product_parts(c, x):
    """(hi, lo) with hi + lo = c*x exactly (Veltkamp/Dekker two-product)."""
    prod = c * x
    ch = c * _SPLITTER
    ch = ch - (ch - c)
    cl = c - ch
    xh = x * _SPLITTER
    xh = xh - (xh - x)
    xl = x - xh
    err = ((ch * xh - prod) + ch * xl + cl * xh) + cl * xl
    return prod, err


def _oscillator(c: float, x_hi: np.ndarray, x_lo=0.0) -> np.ndarray:
    """exp(2*pi*i*c*(x_hi+x_lo)) with exact phase reduction.

    A plain product loses ~|c*x|*eps of phase, which the Bohr mean's
    exp(2*pi*gamma*y) amplification turns into O(1) errors at large gamma;
    the two-product correction plus the carried low coordinate part keep
    the reduced phase accurate to ~1 ulp of [0, 1).
    """
    prod, err = _product_parts(c, x_hi)
    phase = (prod - np.floor(prod)) + (err + c * x_lo)
    return np.exp((2j * math.pi) * phase)


def _log_ratio_on_line(p: ExpPolynomial, x_hi: np.ndarray, x_lo,
                       y: float) -> np.ndarray:
    """p'/p on the horizontal line Im z = y with compensated term phases."""
    # apart from ExpPolynomial's kernel: Bohr means need these double-double
    # phases, and one term at a time keeps memory O(nodes)
    num = np.zeros(len(x_hi), dtype=complex)
    den = np.zeros(len(x_hi), dtype=complex)
    shift = p._shift(y)
    for (w, _), (iw, q, _) in zip(p.terms, p._scalar_terms):
        term = (q * math.exp(-TWO_PI * w * y - shift)) * _oscillator(w, x_hi, x_lo)
        den += term
        num += iw * term
    return num / den


def _panel_nodes(T: float, n_panels: int, gl_nodes: np.ndarray):
    """Composite-GL node coordinates as exact double-double pairs.

    Panel edges snap to a 2^-26 grid so midpoints and half-widths are exact;
    the irrational GL offsets carry their rounding residual in the low part.
    Without this, the ~ulp(T) node-position noise enters the mean through
    the 2*pi*gamma phase derivative and is amplified by exp(2*pi*gamma*y).
    """
    grid = 2.0 ** 26
    edges = np.round(np.linspace(-T, T, n_panels + 1) * grid) / grid
    mid = 0.5 * (edges[:-1] + edges[1:])          # exact on the grid
    half = 0.5 * (edges[1:] - edges[:-1])         # exact on the grid
    off_hi, off_lo = _product_parts(half[:, None], gl_nodes[None, :])
    x_hi = mid[:, None] + off_hi
    x_lo = (mid[:, None] - x_hi) + off_hi + off_lo  # two-sum residual
    return x_hi.ravel(), x_lo.ravel(), half


def _line_heights(p: ExpPolynomial, halfplane: str, y: float):
    """Validate that the mean line stays clear of the zero strip."""
    if p.n_terms == 1:
        return  # zero-free everywhere
    strip = zero_strip_estimate(p)
    if halfplane == UPPER:
        if y <= strip.beta + 1e-6:
            raise PreconditionError(
                f"mean line y={y} must lie above the zero strip top "
                f"{strip.beta:.6g} by more than 1e-6")
    else:
        if y >= strip.alpha - 1e-6:
            raise PreconditionError(
                f"mean line y={y} must lie below the zero strip bottom "
                f"{strip.alpha:.6g} by more than 1e-6")


def _mean_values(p: ExpPolynomial, gammas, y: float, T: float):
    """Bohr means for several gammas sharing one sweep of p'/p values."""
    span = p.freq_max - p.freq_min
    rate = span + max(abs(g) for g in gammas) + 1.0
    results = None
    prev = None
    n_panels = max(16, int(math.ceil(2.0 * T * rate)))
    # GL16 on one-oscillation panels keeps the relative panel error near
    # 1e-21, which survives the exp(2*pi*gamma*y) amplification of the mean
    nodes_gl, weights_gl = gauss_legendre(16)
    for _ in range(3):
        x_hi, x_lo, half = _panel_nodes(T, n_panels, nodes_gl)
        w = (half[:, None] * weights_gl[None, :]).ravel()
        fv = _log_ratio_on_line(p, x_hi, x_lo, y)
        # exact summation everywhere: the resonant signal sits
        # exp(-2*pi*g*y) below the integrand bulk, so ordinary pairwise
        # summation rounding would be amplified to O(1) by exp(2*pi*g*y);
        # subtracting the constant mode first shrinks the bulk that the
        # remaining per-node rounding is proportional to
        wf = w * fv
        mean0 = complex(math.fsum(wf.real), math.fsum(wf.imag)) / (2.0 * T)
        centered = fv - mean0
        results = []
        for g in gammas:
            if g == 0.0:
                results.append(mean0)
                continue
            terms = w * centered * _oscillator(-g, x_hi, x_lo)
            integral = complex(math.fsum(terms.real), math.fsum(terms.imag))
            results.append(math.exp(TWO_PI * g * y) * integral / (2.0 * T))
        if prev is not None and all(
                abs(a - b) <= 1e-9 * (1.0 + abs(a)) for a, b in zip(results, prev)):
            break
        prev = results
        n_panels *= 2
    return results


def logderiv_coeff_numeric(p: ExpPolynomial, halfplane: str, gamma: float,
                           y: float, T: float) -> complex:
    """Bohr-mean estimate of the coefficient at ``gamma`` from one height.

    Requires ``y`` strictly outside the zero strip (above for the upper
    half-plane, below for the lower).  Compare runs at two values of ``T``
    to estimate the mean-convergence error; see
    :func:`logderiv_coeff_numeric_with_error`.
    """
    if p.n_terms == 0:
        raise EmptyPolynomialError("zero function")
    if T <= 0:
        raise PreconditionError("T must be positive")
    if halfplane not in (UPPER, LOWER):
        raise ValueError("halfplane must be 'upper' or 'lower'")
    _line_heights(p, halfplane, y)
    return _mean_values(p, [gamma], y, T)[0]


def logderiv_coeff_numeric_with_error(p: ExpPolynomial, halfplane: str,
                                      gamma: float, y: float,
                                      T: float) -> tuple[complex, float]:
    """T-doubled Bohr mean: returns (value at 2T, |value_2T - value_T|)."""
    v1 = logderiv_coeff_numeric(p, halfplane, gamma, y, T)
    v2 = logderiv_coeff_numeric(p, halfplane, gamma, y, 2.0 * T)
    return v2, abs(v2 - v1) + 1e-9 * (1.0 + abs(v2))
