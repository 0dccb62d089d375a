"""Dirichlet coefficients of p'/p on the two zero-free half-planes.

Above the zero strip, factor out the lowest-frequency term:
``p = q0 * exp(2*pi*i*omega0*z) * (1 + g)`` where ``g`` has strictly
positive spectrum.  Then

    p'/p = 2*pi*i*omega0 + g' * sum_{m>=0} (-g)^m,

a series on the additive semigroup generated by the frequency gaps.
Every generator is positive, so one sweep in increasing gamma builds the
semigroup and solves each coefficient exactly from those below it
(:class:`CoefficientSweep`), unless it passes SUPPORT_CAP entries or the
double range first (CapacityError).  The lower half-plane is p(-z)'s upper;
where p(-z) has the same gaps to the bit, as about half the sine products
have, its sweep shares the upper one's enumeration of the semigroup.

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
    return float((np.abs(coeffs) * np.exp(-TWO_PI * np.asarray(gammas) * y)).sum())


def _validity_height(gammas, coeffs) -> float:
    """Smallest y with the weighted l1 norm of g at most 1/2."""
    rate, size = -TWO_PI * np.asarray(gammas), np.abs(coeffs)

    def above(y: float) -> bool:  # _weighted_l1(gammas, coeffs, y) > 0.5
        return float((size * np.exp(rate * y)).sum()) > 0.5

    lo, hi = 0.0, 1.0
    with np.errstate(over="ignore"):  # a term past the double range is above
        while not above(lo):
            hi, lo = lo, lo - max(1.0, abs(lo))
            if lo < -1e6:
                return lo
        while above(hi):
            lo, hi = hi, hi + max(1.0, hi)
            if hi > 1e6:
                raise PreconditionError("no finite validity height")
        while lo < (mid := 0.5 * (lo + hi)) < hi:  # until no double lies between
            lo, hi = (mid, hi) if above(mid) else (lo, mid)
    return hi


class CoefficientSweep:
    """The coefficients of one half-plane (of p(-z) for the lower one), up
    to ``cap``: p'/p = 2 pi i omega0 + u, where u = g' - u*g is solved by
    forward substitution, u[e] = g'[e] - sum_j c_j u[e - d_j], exactly, with
    errors fed forward once; v = -g - v*g = 1/(1 + g) - 1 carries each
    step's rounding on.  Every entry e > 0 of the gap semigroup is s + d_j
    for an entry s below it, 0 included.  A block's entries are the runs
    (freq.run_starts) of the sums s + d_j in [lo, lo + d_min), lo the least
    sum not taken, that start by lo + d_min - 2 RESOLUTION; a run's sums are
    its sources, one a gap, all below lo and solved.

    A sweep whose gaps equal this one's to the bit, as the lower half's do
    for about half the sine products, can :meth:`share` its blocks: its
    entries, sums and runs are then this one's, so each block is enumerated
    once and solved for both with the same sources.  It goes on alone from
    the first block its own cap takes fewer runs of, or none."""

    def __init__(self, p: ExpPolynomial, halfplane: str, cap: float):
        if p.n_terms == 0:
            raise EmptyPolynomialError("zero function has no logarithmic derivative")
        if cap <= 0:
            raise PreconditionError("gamma_max must be positive")
        self.halfplane, self.cap = halfplane, cap
        self.sign = 1.0 if halfplane == UPPER else -1.0
        if halfplane == LOWER:
            p = ExpPolynomial.from_terms((-w, q) for w, q in p.terms)
        omega0, q0 = p.terms[0]
        self.h0 = 1j * TWO_PI * omega0
        self.d = np.array([w - omega0 for w, _ in p.terms[1:]])
        self.c = np.array([q / q0 for _, q in p.terms[1:]])
        with np.errstate(over="ignore"):
            self.gp = (1j * TWO_PI) * self.d * self.c
        if not np.isfinite(self.gp).all():
            raise CapacityError("a coefficient of g' leaves the double range")
        self.d_min = float(self.d[0]) if len(self.d) else math.inf
        self.y_v = _validity_height(self.d, self.c) if len(self.d) else -math.inf
        self._rows, self._edges = np.arange(len(self.d))[:, None], np.empty((2, 1))
        self._d_col, self._c_col = self.d[:, None], self.c[:, None]
        # the sweep that shares this one's blocks (no reference back, so that
        # no cycle outlives a sweep)
        self.mirror: CoefficientSweep | None = None
        # entries (0 first), the largest sum taken, the least not taken, the
        # gaps whose own entry has its g' and -g, how far all is solved, and
        # how many entries are known finite
        self.n, self.front, self.lo, self._seeded, self.reach = 1, 0.0, self.d_min, 0, 0.0
        self._finite = 0
        self.gam, (self.uv, self.rhs) = np.zeros(1), np.zeros((2, 2, 1), dtype=complex)
        self._resize(1024)

    def share(self, other: CoefficientSweep) -> bool:
        """Let ``other`` share this sweep's blocks if its gaps equal these
        to the bit.  Whether it does.  Both sweeps are new, other's cap is
        at most this one's, and other is advanced after this one, to the
        same gamma: then it never needs a block this one does not solve."""
        self.mirror = other if np.array_equal(self.d, other.d) else None
        return self.mirror is other

    def _resize(self, size: int) -> None:  # entries past n read inf
        n, gam = self.n, np.full(size, np.inf)
        uv, rhs = np.zeros((2, 2, size), dtype=complex)
        gam[:n], uv[:, :n], rhs[:, :n] = self.gam[:n], self.uv[:, :n], self.rhs[:, :n]
        self.gam, self.uv, self.rhs, self._steps = gam, uv, rhs, np.arange(size)

    def _end(self) -> float:
        # at least the entry at lo, whose sources all lie d_min below it
        return min(max(self.lo + self.d_min - 2.0 * freq.RESOLUTION, self.lo),
                   self.cap + 0.5 * freq.RESOLUTION)

    def _block(self) -> None:
        mirror = self.mirror
        # each gap's sources of sums in (front, top) and of its first sum
        # past top, top = lo + d_min, padded to one width by later entries;
        # the sums at most half the resolution below front are taken, and
        # chain to it
        edges = self._edges
        edges[0, 0], edges[1, 0] = self.front - 0.5 * freq.RESOLUTION, self.lo + self.d_min
        k, e = self.gam.searchsorted(edges - self.d)
        src = k[:, None] + self._steps[:max((e - k).tolist()) + 1]
        sums = self.gam.take(src) + self._d_col
        ordered = sums.flatten()
        ordered.sort()
        firsts = freq.run_starts(ordered, self.front).nonzero()[0]
        starts = ordered[firsts]
        nb = int(starts.searchsorted(self._end(), side="right"))
        if mirror is not None and starts.searchsorted(mirror._end(), side="right") != nb:
            self.mirror = None  # its cap takes fewer runs: it goes on alone
            mirror._block()
        # the sums of run t give entry n + t - 1 one source per gap, in column
        # t of idx (column 0 is dropped; a source left 0 reads entry 0's zeros)
        idx = np.zeros((len(self.d), len(starts) + 1), dtype=np.intp)
        idx[self._rows, starts.searchsorted(sums, side="right")] = src
        idx = idx[:, 1:nb + 1]
        self._take(ordered, firsts, starts, nb, idx)
        if self.mirror is not None:
            mirror._take(ordered, firsts, starts, nb, idx)

    def _take(self, ordered, firsts, starts, nb: int, idx) -> None:
        """Take the first ``nb`` runs as entries, the g' and -g of the gaps
        among them, and solve them: entry n + t from the sources ``idx[:, t]``."""
        n, d = self.n, self.d
        if 2 * (n + nb) + 2 > len(self.gam):
            self._resize(max(2 * len(self.gam), 2 * (n + nb) + 2))
        past = float(starts[nb]) if nb < len(starts) else math.inf  # least not taken
        if self._seeded < len(d) and d[self._seeded] < past:  # sums 0 + d_j taken
            j = slice(self._seeded, int(d.searchsorted(past)))
            entry = n - 1 + starts.searchsorted(d[j], side="right")
            np.add.at(self.rhs, (slice(None), entry), [self.gp[j], -self.c[j]])
            self._seeded = j.stop
        block = slice(n, n + nb)
        self.uv[:, block] = self.rhs[:, block] - np.add.reduce(
            self._c_col * self.uv.take(idx, axis=1), axis=1)
        self.gam[block], self.n = starts[:nb], n + nb
        taken = firsts[nb] if nb < len(firsts) else len(ordered)
        self.front = float(ordered[taken - 1]) if taken else self.front
        # a sum of the new entries is at least the least of them plus d_min
        self.lo = min(past, float(starts[0]) + self.d_min) if nb else past

    def _more(self, gamma: float) -> bool:
        """Whether advance(gamma) solves another block."""
        gamma = min(gamma, self.cap)
        return (gamma / self.d_min <= SUPPORT_CAP + 1 and self.n <= SUPPORT_CAP + 1
                and self.lo <= gamma + 0.5 * freq.RESOLUTION)

    def advance(self, gamma: float) -> None:
        """Solve the entries up to ``gamma`` (the cap at most).  ``reach`` is
        then ``gamma``, or, with a CapacityError raised, the last entry
        solved, finite and within SUPPORT_CAP (none is solved past the last
        reach where the multiples of d_min alone pass SUPPORT_CAP)."""
        with np.errstate(over="ignore", invalid="ignore"):  # checked below
            while self._more(gamma):
                self._block()
        gamma = min(gamma, self.cap)
        limit = gamma + 0.5 * freq.RESOLUTION
        m = int(self.gam.searchsorted(limit, side="right"))
        full = gamma / self.d_min > SUPPORT_CAP + 1 or m > SUPPORT_CAP + 1
        # the entries before _finite were found finite by an earlier call
        top = min(m, SUPPORT_CAP + 1)
        bad = np.flatnonzero(~np.isfinite(self.uv[0, self._finite:top]))
        self._finite = self._finite + int(bad[0]) if len(bad) else max(self._finite, top)
        self.reach = gamma
        if full or len(bad):  # the solved entries before the first one not finite
            self.reach = float(self.gam[min(self._finite, top) - 1])
            what = (f"gap-semigroup support exceeded {SUPPORT_CAP} entries" if full
                    else "coefficients leave the double range")
            raise CapacityError(f"{what} below gamma_max={gamma:.6g}; reduce gamma_max")

    def _pruned(self, gamma: float):
        m = int(self.gam.searchsorted(gamma + 0.5 * freq.RESOLUTION, side="right"))
        h = self.uv[0, :m] * self.sign
        h[0] = self.sign * self.h0
        size = np.abs(h)
        return m, h, size, size > COEFF_PRUNE_REL * float(size.max())

    def moduli(self, gamma: float):
        """stored(gamma) with zero rounding bounds, without the rounding pass.
        The bounds are >= 0, so where these break no growth bound beyond
        their rounding, neither do those of stored(gamma)."""
        m, h, _, keep = self._pruned(gamma)
        return self.gam[:m][keep], h[keep], np.zeros(np.count_nonzero(keep)), \
            h[0] if keep[0] else 0j

    def stored(self, gamma: float):
        """(|gamma|, h, rounding bounds, h at gamma 0) of the stored
        coefficients up to ``gamma``, at most the cap, in increasing |gamma|."""
        m, h, size, keep = self._pruned(gamma)
        # error_k = sum_i (1 + v)_(k-i) delta_i to first order, where step i
        # errs by at most 2 n eps (|g'_i| + sum_j |c_j u_(i-j)|), the input's
        # own rounding included.  Weights exp(-2 pi y gamma) factor over
        # these sums; y = 0 suits slow growth (multiple zeros), y = y_v fast:
        # the lesser holds.
        support, g_abs = self.gam[1:m], np.abs(self.rhs[0, 1:m])
        v_abs, err = np.abs(self.uv[1, 1:m]), np.inf
        with np.errstate(all="ignore"):  # a weight out of range: inf, nan
            for y in (0.0, self.y_v):
                w = np.exp(-TWO_PI * y * support)
                step = (np.maximum.accumulate(g_abs * w)
                        + _weighted_l1(self.d, self.c, y)
                        * np.maximum.accumulate(size[1:] * w))
                err = np.fmin(err, step / w * (1.0 + np.cumsum(v_abs * w)))
        err = np.concatenate([[0.0], err * (2 * (len(self.d) + 1) * 2.0 ** -52)])[keep]
        return self.gam[:m][keep], h[keep], err, h[0] if keep[0] else 0j

    def coefficients(self, gamma: float) -> DirichletCoefficients:
        """The stored coefficients up to ``gamma``, at most the cap."""
        gammas, coeffs, rounding, _ = self.stored(gamma)
        if self.halfplane == LOWER:
            gammas, coeffs, rounding = -gammas[::-1] + 0.0, coeffs[::-1], rounding[::-1]
        # any term of the series with frequency > gamma involves at least
        # ceil(gamma / max_gap) factors of g, so the tail is geometric
        r = min(_weighted_l1(self.d, self.c, self.y_v), 0.5 + 1e-12)
        m_min = max(0, math.ceil(gamma / float(self.d[-1] if len(self.d) else math.inf)) - 1)
        tail = _weighted_l1(self.d, self.gp, self.y_v) * r ** m_min / (1.0 - r)
        return DirichletCoefficients(
            self.halfplane, tuple(zip(gammas.tolist(), coeffs.tolist())),
            gamma, tail, self.sign * self.y_v, tuple(rounding.tolist()))


def logderiv_coeffs_symbolic(p: ExpPolynomial, halfplane: str,
                             gamma_max: float) -> DirichletCoefficients:
    """Dirichlet coefficients of p'/p collected up to |gamma| <= gamma_max.

    The reported ``tail_bound`` controls the truncation error at heights at
    least ``validity_height`` away from the strip.

    Raises
    ------
    CapacityError
        If the enumerated support exceeds SUPPORT_CAP entries, or a
        coefficient leaves the double range.
    """
    sweep = CoefficientSweep(p, halfplane, gamma_max)
    sweep.advance(gamma_max)
    return sweep.coefficients(gamma_max)


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
