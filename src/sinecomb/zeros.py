"""Zero localization for exponential polynomials inside a strip rectangle.

Counting uses the argument principle: the winding number
(1/2*pi*i) * contour integral of p'/p over the rectangle boundary equals the
number of zeros inside, with multiplicity.

Moments.  A cell holding n zeros is resolved from its contour moments
s_k = (1/2*pi*i) contour integral of phi^k p'/p, k < 2*min(n, MOMENT_MAX),
in the cell's own scaled coordinate phi (Delves & Lyness 1967; Kravanja &
Van Barel, LNM 1727, 2000): the Hankel rank counts the distinct zeros, a
Hankel pencil locates them, a Vandermonde solve gives their
multiplicities, and Newton's method polishes each one.  Only the distinct
zeros are bounded, so a cluster of high multiplicity resolves at once
(Kravanja, Sakurai & Van Barel, BIT 39, 1999).  Gates on the quadrature's
own error estimate decide whether the result stands.

Splitting.  A cell that fails a gate, or is wider than the zero band and
holds more than MOMENT_MAX zeros, is split across its longer side
(vertically if wider than the band) by a line clear of zeros.  Counts come
from edge integrals of p'/p in one cache: a split costs the split line and
one half of each cut side, the other half telescoping from the parent's,
so the total mass returned equals the top-level count by construction.  A
cell below the rounding-noise radius of an n-fold zero is one n-fold atom;
a cell that no clear line splits raises QuadratureFailureError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ExpPolynomial, zero_strip_estimate
from .errors import (
    BoundaryProximityError,
    CapacityError,
    EmptyPolynomialError,
    QuadratureFailureError,
)
from .quadrature import integrate_segment

#: Zeros closer than this are reported as one atom with summed multiplicity.
CLUSTER_TOL = 1e-7
#: min sampled |p| on a contour must exceed this times the max term magnitude.
BOUNDARY_SAFETY_REL = 1e-8
#: Winding numbers are accepted once within this distance of an integer.
WINDING_ACCEPT = 1e-3
#: Absolute tolerance of one cached edge integral of p'/p.
EDGE_TOL = 2e-6
#: Rectangle jitter is below this fraction of the rectangle size.
JITTER_FRACTION = 0.01
MAX_BOUNDARY_TRIES = 5
#: Most samples of one boundary scan, 16 per unit length (+-50 takes 1,600).
SCAN_CAP = 100_000
#: Largest number of distinct zeros resolved in one cell: the Hankel
#: matrix has at most this size, so a cell with more zeros resolves only
#: if fewer than this many are distinct.  Enough for a 5-fold and a triple
#: zero side by side, even where rounding splits them into simple zeros.
MOMENT_MAX = 8
#: Absolute tolerance of one edge integral of the moment integrands.
MOMENT_TOL = 1e-10
#: Panel budget of one edge integral of the moment integrands; past it the
#: integrand is rounding noise (an edge near a multiple zero) and the error
#: estimate, which the gates read, says so.
MOMENT_PANELS = 250
#: Double-precision floor of a moment's error, added to the quadrature's.
MOMENT_ROUNDING = 1e-13
#: Hankel singular values must clear the noise level by this factor.
RANK_GAP = 1e3
#: Multiplicities from the Vandermonde solve must lie this close to integers.
MASS_ACCEPT = 1e-3
#: The accepted atoms must reproduce every moment within this many noise levels.
MOMENT_REPRODUCE = 10.0
_DEFAULT_SEED = 271828


@dataclass(frozen=True)
class Rect:
    """Axis-aligned rectangle x_min < x_max, y_min < y_max in the z plane."""

    x_min: float
    x_max: float
    y_min: float
    y_max: float

    def __post_init__(self):
        if not (self.x_min < self.x_max and self.y_min < self.y_max):
            raise ValueError("degenerate rectangle")

    @property
    def width(self) -> float:
        return self.x_max - self.x_min

    @property
    def height(self) -> float:
        return self.y_max - self.y_min

    @property
    def center(self) -> complex:
        return complex(0.5 * (self.x_min + self.x_max),
                       0.5 * (self.y_min + self.y_max))

    def contains(self, z: complex) -> bool:
        return (self.x_min < z.real < self.x_max
                and self.y_min < z.imag < self.y_max)

    @property
    def edges(self) -> tuple[tuple[complex, complex], ...]:
        """The four sides as (start, end), counterclockwise from the
        bottom-left corner."""
        c = (complex(self.x_min, self.y_min), complex(self.x_max, self.y_min),
             complex(self.x_max, self.y_max), complex(self.x_min, self.y_max))
        return tuple((c[k], c[(k + 1) % 4]) for k in range(4))


@dataclass(frozen=True)
class AtomicMeasure:
    """Finite atomic measure: tuple of (location, mass) pairs.

    Zero measures carry positive integer masses (multiplicities); Fourier
    measures reuse the same container with complex masses.  Atoms are kept
    sorted by (Re, Im) of the location.
    """

    atoms: tuple[tuple[complex, complex], ...]

    @classmethod
    def from_atoms(cls, pairs) -> "AtomicMeasure":
        atoms = sorted(((complex(loc), mass) for loc, mass in pairs),
                       key=lambda a: (a[0].real, a[0].imag))
        return cls(tuple(atoms))

    @property
    def locations(self) -> list[complex]:
        return [loc for loc, _ in self.atoms]

    @property
    def masses(self) -> list:
        return [m for _, m in self.atoms]

    def total_mass(self):
        return sum(self.masses)

    def __len__(self) -> int:
        return len(self.atoms)


def _segment_dips(p: ExpPolynomial, a: complex,
                  b: complex) -> list[tuple[float, float, float]]:
    """All suspicious |p| dips along the segment:
    [(log|p|, log term scale, gap)].

    The term scale is the pointwise max term magnitude
    max_j |q_j e^{2*pi*i*omega_j*z}|, the natural size of |p| there; gap is
    the distance-to-zero estimate |p/p'| at the dip.  Every local minimum of
    the coarse samples whose clearance is comparable to the sample spacing
    gets its bracket zoomed, so multiple zeros on (or near) one segment are
    all detected, not just the deepest one.
    """
    dz = b - a
    if 16 * abs(dz) >= SCAN_CAP:
        raise CapacityError(f"boundary scan of an edge {abs(dz):.3g} long "
                            f"exceeds {SCAN_CAP} samples")
    n = max(129, int(16 * abs(dz)) + 1)
    t = np.linspace(0.0, 1.0, n)
    vals, scales = p.log_abs(a + dz * t)
    spacing = abs(dz) / (n - 1)
    interior = (vals[1:-1] <= vals[:-2]) & (vals[1:-1] <= vals[2:])
    candidates = [0, n - 1] + (np.nonzero(interior)[0] + 1).tolist()
    candidates.sort(key=lambda i: vals[i])
    ks = np.array(candidates[:8])
    gaps = [_clearance(p, a + dz * t[k]) for k in ks.tolist()]
    out = [(float(vals[k]), float(scales[k]), gap) for k, gap in zip(ks, gaps)]
    zoom = np.flatnonzero(np.array(gaps) <= 4.0 * spacing)
    if zoom.size:
        # all brackets zoom together: one 33-point sample per bracket and level
        k = ks[zoom]
        best, scale, t_best = vals[k], scales[k], t[k]
        lo, hi = t[np.maximum(k - 1, 0)], t[np.minimum(k + 1, n - 1)]
        rows = np.arange(k.size)
        for _ in range(6):
            tt = np.linspace(lo, hi, 33, axis=-1)
            vv, ss = p.log_abs(a + dz * tt)
            j = vv.argmin(axis=1)
            lower = vv[rows, j] < best
            best = np.where(lower, vv[rows, j], best)
            scale = np.where(lower, ss[rows, j], scale)
            t_best = np.where(lower, tt[rows, j], t_best)
            lo, hi = tt[rows, np.maximum(j - 1, 0)], tt[rows, np.minimum(j + 1, 32)]
        for i, v, sc, tb in zip(zoom.tolist(), best.tolist(), scale.tolist(),
                                t_best.tolist()):
            out[i] = (v, sc, _clearance(p, a + dz * tb))
    return out


def _boundary_ok(p: ExpPolynomial, rect: Rect) -> bool:
    """Every suspicious dip along the boundary keeps |p| / (pointwise max
    term magnitude) above the safety floor (see _segment_dips)."""
    worst = min(math.exp(v - s) for a, b in rect.edges
                for v, s, _ in _segment_dips(p, a, b))
    return worst > BOUNDARY_SAFETY_REL


def _clearance(p: ExpPolynomial, z: complex) -> float:
    """Distance-to-zero proxy |p/p'| at a sampled |p| dip.

    Near a zero of multiplicity m this is dist/m, which is exactly what
    bounds the cost of integrating p'/p along a nearby contour; unlike raw
    |p| it stays meaningful at multiple zeros.
    """
    pv, dv = p.scaled_values(z)
    if pv == 0:
        return 0.0
    if dv == 0:
        return math.inf
    return abs(pv / dv)


def _nearest(z: np.ndarray) -> np.ndarray:
    """Distance from each point to the nearest other one (inf when alone)."""
    dist = np.abs(np.subtract.outer(z, z))
    np.fill_diagonal(dist, np.inf)
    return dist.min(axis=1)


def hankel_pencil(s: np.ndarray, k: int, level: float):
    """Prony's method: the nodes phi_l and weights w_l of
    s_j = sum_l w_l phi_l^j, j < 2k, from the k x k Hankel pencil
    ([s_(i+j+1)], [s_(i+j)]) (Hua & Sarkar, IEEE Trans. ASSP 38, 1990;
    Kravanja & Van Barel, LNM 1727, 2000).

    The rank d of [s_(i+j)] is the number of its singular values above
    ``level``; the pencil reduced to that rank has the d nodes as
    eigenvalues, and a Vandermonde solve on s_0..s_(d-1) gives their
    weights.  Returns (nodes, weights, all k singular values); the nodes
    and weights are empty when d = 0.
    """
    h0 = np.array([s[i:i + k] for i in range(k)])
    h1 = np.array([s[i + 1:i + k + 1] for i in range(k)])
    u, sv, vh = np.linalg.svd(h0)
    d = int((sv > level).sum())
    if d == 0:
        return np.zeros(0, dtype=complex), np.zeros(0, dtype=complex), sv
    pencil = (u[:, :d].conj().T @ h1 @ vh[:d].conj().T) / sv[:d, None]
    phi = np.linalg.eigvals(pencil)
    weights = np.linalg.solve(np.vander(phi, d, increasing=True).T, s[:d])
    return phi, weights, sv


def _noise_radius(mult: int) -> float:
    """Distance below which |p| near an m-fold zero is double-precision
    rounding noise of the term sum: (pi*r)^m ~ 1e-13."""
    return 1e-13 ** (1.0 / mult) / math.pi


def _newton_refine(p: ExpPolynomial, z0: complex, tol: float,
                   escape: float, max_iter: int = 60, stall_ok: bool = False):
    """Newton iteration z -> z - p/p' towards a simple zero.

    Returns (z, converged).  With ``stall_ok``, steps that stop contracting
    at a small scale count as converged: a simple zero stagnates where a
    multiple zero lies close, because the value there is rounding noise of
    the term sum.
    """
    z = z0
    prev_step = math.inf
    stall = 0
    for _ in range(max_iter):
        pv, dv = p.scaled_values(z)
        if pv == 0:
            return z, True
        if dv == 0:
            return z, False
        step = pv / dv
        z = z - step
        if abs(z - z0) > escape:
            return z, False
        s = abs(step)
        if s < tol:
            return z, True
        if stall_ok and s < 1e-6 * (1.0 + abs(z)) and s > 0.25 * prev_step:
            stall += 1
            if stall >= 3:
                return z, True
        else:
            stall = 0
        prev_step = s
    return z, False


class _Search:
    """One find_zeros invocation: the edge cache, p's derivatives and the
    Newton tolerance."""

    def __init__(self, p: ExpPolynomial, rect: Rect, tol: float):
        self.p = p
        self.tol = tol
        strip = zero_strip_estimate(p)
        band = min(rect.y_max, strip.beta) - max(rect.y_min, strip.alpha)
        #: cells wider than this split vertically, and skip moments while
        #: they hold more than MOMENT_MAX zeros: their zeros lie along the
        #: zero band, which a horizontal line cuts little of
        self.slab_floor = max(0.75 * (band if band > 0 else rect.height),
                              8.0 * CLUSTER_TOL)
        #: edge integrals of p'/p, keyed by (start, end)
        self.edge_cache: dict[tuple[complex, complex], complex] = {}
        self.derivatives = [p]

    def _derivative(self, k: int) -> ExpPolynomial:
        """p^(k), built once per search."""
        while len(self.derivatives) <= k:
            self.derivatives.append(self.derivatives[-1].derivative())
        return self.derivatives[k]

    # -- counting on cached sides -------------------------------------------

    def _edges(self, ends: list[tuple[complex, complex]],
               tol: float | None = None) -> list[complex]:
        """Integrals of p'/p along the (start, end) segments ``ends``.  Those
        not cached are integrated in one quadrature pass at EDGE_TOL; a
        ``tol`` integrates all of them again at that tolerance."""
        todo = [e for e in ends if tol is not None or e not in self.edge_cache]
        if todo:
            a, b = np.array(todo).T
            values = integrate_segment(self.p.log_ratio, a, b,
                                       EDGE_TOL if tol is None else tol)[0]
            self.edge_cache.update(zip(todo, values.tolist()))
        return [self.edge_cache[e] for e in ends]

    @staticmethod
    def _sides(rect: Rect) -> list[tuple[complex, complex]]:
        """Bottom, right, top and left sides of ``rect``; the horizontals run
        left to right and the verticals upwards, so a side shared with a
        neighbouring cell is one cache entry."""
        x0, x1, y0, y1 = rect.x_min, rect.x_max, rect.y_min, rect.y_max
        return [(complex(x0, y0), complex(x1, y0)), (complex(x1, y0), complex(x1, y1)),
                (complex(x0, y1), complex(x1, y1)), (complex(x0, y0), complex(x0, y1))]

    def count(self, rect: Rect) -> int:
        """Winding number of ``rect``; sides that do not settle it are
        integrated again at tolerances 256, 256^2 and 256^3 times finer."""
        for escalation in range(4):
            if escalation:
                self._edges(self._sides(rect), EDGE_TOL / 256.0 ** escalation)
            bottom, right, top, left = self._edges(self._sides(rect))
            w = (bottom + right - top - left) / (2j * math.pi)
            n = round(w.real)
            if abs(w - n) < WINDING_ACCEPT and n >= 0:
                return n
        raise QuadratureFailureError(
            f"winding {w:.6g} did not settle below {WINDING_ACCEPT}")

    # -- splitting ------------------------------------------------------------

    _SPLIT_FRACTIONS = (0.5, 0.46, 0.54, 0.41, 0.59, 0.34, 0.66)

    def _pick_line(self, lo: float, hi: float, seg_of) -> float | None:
        """Choose a split coordinate in (lo, hi) whose line stays clear of
        zeros: candidates fan out from the midpoint, the first comfortably
        clear one wins, otherwise the candidate with the largest
        distance-to-zero clearance at its |p| dip.

        Besides the clearance floor, the dip's |p| must stay well above the
        rounding noise of the term sum (ratio floor): a boundary inside the
        noise zone of a multiple zero cannot be integrated along at all.
        """
        best = None
        for frac in self._SPLIT_FRACTIONS:
            c = lo + frac * (hi - lo)
            a, b = seg_of(c)
            seg_len = abs(b - a)
            # the dip of least clearance, and the least |p| over its scale
            dips = _segment_dips(self.p, a, b)
            _, scale, gap = min(dips, key=lambda d: d[2])
            ratio = math.exp(min(d[0] for d in dips) - scale)
            if gap > 1e-3 * seg_len:
                return c
            if best is None or gap > best[1]:
                best = (c, gap, ratio)
        # the accepted line must keep all zeros at a distance the adaptive
        # quadrature can resolve (relative floor) and its |p| dip above the
        # term-sum rounding noise (absolute ratio floor)
        if best[1] > 1e-4 * seg_len and best[2] > 1e-11:
            return best[0]
        return None

    def _split(self, rect: Rect, n: int) -> list[tuple[Rect, int]] | None:
        """The halves of ``rect``, which holds ``n`` zeros, across its longer
        side (vertically if it is wider than slab_floor) on a line clear of
        zeros, with their counts; None if no line is clear.  The first
        half's cut sides and the split line are integrated in one pass; the
        second half's cut sides are the parent's minus the first half's."""
        x0, x1, y0, y1 = rect.x_min, rect.x_max, rect.y_min, rect.y_max
        vertical = rect.width >= rect.height or rect.width > self.slab_floor
        if vertical:
            c = self._pick_line(x0, x1, lambda c: (complex(c, y0), complex(c, y1)))
        else:
            c = self._pick_line(y0, y1, lambda c: (complex(x0, c), complex(x1, c)))
        if c is None:
            return None
        first, second = ((Rect(x0, c, y0, y1), Rect(c, x1, y0, y1)) if vertical
                         else (Rect(x0, x1, y0, c), Rect(x0, x1, c, y1)))
        cut = (0, 2) if vertical else (1, 3)  # the sides the line cuts
        pieces = self._edges(self._sides(first))
        whole = self._edges([self._sides(rect)[i] for i in cut])
        rest = self._sides(second)
        for i, w in zip(cut, whole):
            self.edge_cache[rest[i]] = w - pieces[i]
        n_first = self.count(first)
        if not 0 <= n_first <= n:
            raise QuadratureFailureError(
                f"count {n_first} inconsistent with parent {n}")
        return [(first, n_first), (second, n - n_first)]

    def _polish_multiple(self, z: complex, mult: int) -> tuple[complex, bool]:
        """Refine the location of an m-fold zero on the (m-1)-th derivative,
        where it is a simple zero free of the |p| cancellation noise."""
        z2, ok = _newton_refine(self._derivative(mult - 1), z, self.tol,
                                escape=max(100.0 * _noise_radius(mult), 1e-4))
        return (z2, True) if ok else (z, False)

    # -- moment stage -----------------------------------------------------------

    def _moments(self, rect: Rect, rows: int) -> tuple[np.ndarray, float]:
        """s_k = (1/2*pi*i) contour integral of phi^k p'/p for k < rows, with
        phi = (z - c)/r on the cell's centre c and half-diagonal r, so that
        |phi| <= 1 on the boundary; returns (s, noise), where noise bounds
        the error of every s_k by the quadrature's own estimate."""
        c = rect.center
        r = 0.5 * math.hypot(rect.width, rect.height)

        def integrand(z):
            out = np.empty((rows, z.size), dtype=complex)
            out[0] = self.p.log_ratio(z)
            out[1:] = (z - c) / r
            return np.cumprod(out, axis=0, out=out)

        a, b = np.array(rect.edges).T
        values, err = integrate_segment(integrand, a, b, MOMENT_TOL,
                                        max_panels=MOMENT_PANELS)
        return (values.sum(axis=1) / (2j * math.pi),
                err / (2.0 * math.pi) + MOMENT_ROUNDING)

    def _newton_noise(self, z: complex, mult: int) -> float:
        """Distance to which Newton's method can place an m-fold zero near
        ``z``: the rounding noise of p^(m-1), its largest term times
        N * 2^-52 for N terms, over |p^(m)|.  It is large where another
        multiple zero lies close."""
        q = self._derivative(mult - 1)
        _, slope = q.scaled_values(z)
        if slope == 0:
            return math.inf
        return q.n_terms * 2.0 ** -52 * q.scaled_term_max(z.imag) / abs(slope)

    def _locate(self, z0: complex, mult: int, reach: float, rect: Rect):
        """Place one zero of the moment pencil: (z, uncertainty), or None.

        Newton's method polishes ``z0`` on p^(m-1), where an m-fold zero is
        simple, down to the rounding noise of its values (_newton_noise).  A
        correction within a few times that noise is noise, and ``z0``
        stands: near another multiple zero the moments, taken far from
        both, place the zero better than any value of p near it can.  The
        result, widened by its uncertainty, must stay inside the cell and
        nearer to ``z0`` than ``reach`` (half the distance to the next
        pencil zero).
        """
        q = self._derivative(mult - 1)
        noise = self._newton_noise(z0, mult)
        z, ok = _newton_refine(q, z0, max(self.tol, noise), escape=reach,
                               stall_ok=True)
        if not ok:
            return None
        if abs(z - z0) <= 4.0 * noise:
            z = z0
        spread = max(noise, _clearance(q, z))
        if rect.contains(z) and abs(z - z0) + spread < reach:
            return z, spread
        return None

    def resolve_by_moments(self, rect: Rect, n: int, atoms: list) -> bool:
        """Resolve a cell holding n >= 1 zeros from its moments (Delves &
        Lyness 1967; Kravanja & Van Barel 2000).

        With distinct zeros phi_j of multiplicities m_j, s_k = sum_j m_j
        phi_j^k: the rank of the k x k Hankel matrix [s_(i+j)],
        k = min(n, MOMENT_MAX), is the number d of distinct zeros as long as
        d < k or n <= MOMENT_MAX (Kravanja, Sakurai & Van Barel 1999), the
        pencil ([s_(i+j+1)], [s_(i+j)]) reduced to its rank-d part has
        eigenvalues phi_j, and a Vandermonde solve on s_0..s_(d-1) gives the
        m_j (hankel_pencil).  Each zero is then placed by _locate.  The atoms are appended
        only if every gate holds: moments within RANK_GAP noise levels of
        their tolerance, a clear rank gap above the noise, near-integer
        multiplicities >= 1 summing to n, every zero placed inside the cell
        and apart by CLUSTER_TOL, and the atoms reproducing every measured
        moment; otherwise nothing is appended and False is returned.
        """
        k = min(n, MOMENT_MAX)
        s, noise = self._moments(rect, 2 * k)
        if noise > RANK_GAP * MOMENT_TOL:
            # an edge ran through the rounding noise of a multiple zero;
            # every later gate scales with this noise, so all would pass
            return False
        level = k * noise  # bounds the 2-norm of the Hankel matrix's error
        phi, mass, sv = hankel_pencil(s, k, level)
        d = len(phi)
        if d == 0 or sv[d - 1] < RANK_GAP * level or d == k < n:
            return False
        mult = np.rint(mass.real)
        if (np.abs(mass - mult).max() > MASS_ACCEPT or mult.min() < 1
                or mult.sum() != n):
            return False

        c = rect.center
        r = 0.5 * math.hypot(rect.width, rect.height)
        z_pencil = c + r * phi
        reach = 0.5 * np.minimum(_nearest(z_pencil), 4.0 * r)
        placed = [self._locate(*args, rect) for args in zip(
            z_pencil.tolist(), mult.astype(int).tolist(), reach.tolist())]
        if None in placed:
            return False
        locs = np.array([z for z, _ in placed])
        if _nearest(locs).min() < CLUSTER_TOL:
            return False
        # the atoms must reproduce every moment, within its noise plus the
        # moment's change over each atom's uncertainty
        powers = np.vander((locs - c) / r, 2 * k, increasing=True)
        slope = np.zeros(powers.shape)
        slope[:, 1:] = np.abs(powers[:, :-1]) * np.arange(1, 2 * k)
        slack = (mult * np.array([spread for _, spread in placed]) / r) @ slope
        if (np.abs(mult @ powers - s) > MOMENT_REPRODUCE * (noise + slack)).any():
            return False
        atoms.extend((z, int(m), False) for z, m in zip(locs.tolist(), mult))
        return True

    # -- cell resolution -------------------------------------------------------

    def resolve_cell(self, rect: Rect, n: int, atoms: list):
        """Resolve a cell known to hold ``n`` zeros into atoms
        (location, multiplicity, coarse): from its moments, else from its
        halves.  A cell wider than slab_floor with more than MOMENT_MAX
        zeros skips its moments: its zeros spread along the band, so fewer
        than MOMENT_MAX of them are seldom distinct.  A cell below the
        rounding-noise radius of an n-fold zero becomes one n-fold atom,
        coarse if its polish on p^(n-1) fails."""
        stack = [(rect, n)]
        while stack:
            cell, n = stack.pop()
            if n == 0:
                continue
            wide = n > MOMENT_MAX and cell.width > self.slab_floor
            if not wide and self.resolve_by_moments(cell, n, atoms):
                continue
            if math.hypot(cell.width, cell.height) < max(
                    CLUSTER_TOL, 2.0 * _noise_radius(n)):
                z, polished = self._polish_multiple(cell.center, n)
                atoms.append((z, n, not polished))
                continue
            halves = self._split(cell, n)
            if halves is None:
                # every candidate line runs through the noise zone of a
                # multiple zero; double precision cannot separate further
                raise QuadratureFailureError(f"no clear line splits {cell}")
            stack += halves


def count_zeros(p: ExpPolynomial, rect: Rect) -> int:
    """Number of zeros of ``p`` in ``rect``, counted with multiplicity.

    Raises
    ------
    BoundaryProximityError
        If sampled |p| on the boundary falls below the safety threshold;
        the caller should perturb the rectangle.
    QuadratureFailureError
        If the winding number refuses to settle near an integer.
    """
    if p.n_terms == 0:
        raise EmptyPolynomialError("zero function")
    if p.n_terms == 1:
        return 0
    if not _boundary_ok(p, rect):
        raise BoundaryProximityError(
            "|p| too small on the rectangle boundary; perturb the rectangle")
    return _Search(p, rect, tol=1e-12).count(rect)


def _exp(x: float) -> float:
    """e**x, or inf where raw |p| at a deep zero leaves the double range."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def find_zeros_report(p: ExpPolynomial, rect: Rect, tol: float = 1e-12, *,
                      allow_jitter: bool = True, seed: int = _DEFAULT_SEED):
    """Locate all zeros of ``p`` in ``rect``; returns (measure, diagnostics).

    Each atom's mass is the zero's multiplicity (always a winding number).
    Diagnostics report |p| residuals at the refined locations, any coarse
    atoms (left at the centre of a cell too small to split, where the
    polish failed) and the exit status.
    """
    if p.n_terms == 0:
        raise EmptyPolynomialError("zero function")
    rng = np.random.default_rng(seed)
    if p.n_terms == 1:
        return AtomicMeasure(()), {"count": 0, "max_residual": 0.0,
                                   "residual_bound": 0.0, "coarse": [],
                                   "exit_status": 0, "rect_used": rect}
    work = rect
    for attempt in range(MAX_BOUNDARY_TRIES + 1):
        if _boundary_ok(p, work):
            break
        if not allow_jitter:
            raise BoundaryProximityError(
                "|p| too small on the rectangle boundary")
        dx = rng.uniform(0.2, 1.0) * JITTER_FRACTION * work.width
        dy = rng.uniform(0.2, 1.0) * JITTER_FRACTION * work.height
        work = Rect(work.x_min - dx, work.x_max + dx,
                    work.y_min - dy, work.y_max + dy)
    else:
        raise BoundaryProximityError(
            "no safe rectangle boundary found after jitter retries")

    search = _Search(p, work, tol)
    n_total = search.count(work)
    raw: list[tuple[complex, int, bool]] = []
    search.resolve_cell(work, n_total, raw)

    raw.sort(key=lambda t: (t[0].real, t[0].imag))
    merged: list[list] = []
    for z, m, coarse in raw:
        if merged and abs(z - merged[-1][0]) < CLUSTER_TOL:
            merged[-1][1] += m
            merged[-1][2] = merged[-1][2] or coarse
        else:
            merged.append([z, m, coarse])

    mass = sum(m for _, m, _ in merged)
    if mass != n_total:
        raise QuadratureFailureError(
            f"mass accounting mismatch: atoms {mass} vs count {n_total}")

    log_res, log_scale = p.log_abs(np.array([z for z, _, _ in merged],
                                            dtype=complex))
    coarse_atoms = [z for z, _, c in merged if c]
    diagnostics = {
        "count": n_total,
        "max_residual": _exp(max(log_res, default=-math.inf)),
        "residual_bound": 1e-8 * _exp(max(log_scale, default=0.0)),
        "coarse": coarse_atoms,
        "exit_status": 1 if coarse_atoms else 0,
        "rect_used": work,
    }
    measure = AtomicMeasure.from_atoms((z, m) for z, m, _ in merged)
    return measure, diagnostics


def find_zeros(p: ExpPolynomial, rect: Rect, tol: float = 1e-12, *,
               allow_jitter: bool = True, seed: int = _DEFAULT_SEED) -> AtomicMeasure:
    """Zero measure of ``p`` on ``rect``: atoms at zeros, masses = multiplicities."""
    measure, _ = find_zeros_report(p, rect, tol, allow_jitter=allow_jitter,
                                   seed=seed)
    return measure


def zeros_to_csv(measure: AtomicMeasure) -> str:
    """CSV export: header x,y,multiplicity, 17 significant digits."""
    lines = ["x,y,multiplicity"]
    for loc, m in measure.atoms:
        lines.append(f"{loc.real:.17g},{loc.imag:.17g},{int(round(m.real if isinstance(m, complex) else m))}")
    return "\n".join(lines) + "\n"
