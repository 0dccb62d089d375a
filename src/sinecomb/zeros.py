"""Zero localization for exponential polynomials inside a strip rectangle.

Counting uses the argument principle: the winding number
(1/2*pi*i) * contour integral of p'/p over the rectangle boundary equals the
number of zeros inside, with multiplicity.  Localization runs in three
stages.

Slabs.  Full-height vertical slabs are split first; their winding numbers
need only vertical line integrals plus cumulative horizontal pieces, which
telescope, so each new split line costs one short integral instead of a
full contour.  A slab stops splitting once it holds at most MOMENT_MAX
zeros.

Moment cells.  A cell holding n <= MOMENT_MAX zeros is resolved from its
contour moments s_k = (1/2*pi*i) contour integral of phi^k p'/p, k < 2n,
in the cell's own scaled coordinate phi (Delves & Lyness 1967; Kravanja &
Van Barel, LNM 1727, 2000): the Hankel rank counts the distinct zeros, a
Hankel pencil locates them, a Vandermonde solve gives their
multiplicities, and Newton's method polishes each one.  Gates on the
quadrature's own error estimate decide whether the result stands.

Bisection.  A cell that fails a gate of the moment stage, or holds more
zeros than MOMENT_MAX and cannot be split as a slab, is bisected in two
dimensions until each cell holds a single zero (refined by Newton's method)
or has shrunk to the clustering tolerance (reported as one atom whose mass
is the cell's winding number).  Sub-rectangle counts always telescope
exactly (child2 = parent - child1), so the total mass returned equals the
top-level count by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ExpPolynomial, zero_strip_estimate
from .errors import (
    BoundaryProximityError,
    EmptyPolynomialError,
    QuadratureFailureError,
    ZeroFreeError,
)
from .quadrature import integrate_segment

#: Zeros closer than this are reported as one atom with summed multiplicity.
CLUSTER_TOL = 1e-7
#: min sampled |p| on a contour must exceed this times the max term magnitude.
BOUNDARY_SAFETY_REL = 1e-8
#: Winding numbers are accepted once within this distance of an integer.
WINDING_ACCEPT = 1e-3
#: Beyond this distance from an integer the quadrature is declared failed.
WINDING_FAIL = 0.1
#: Absolute tolerance of one cached edge integral of p'/p.
EDGE_TOL = 2e-6
#: Rectangle jitter is below this fraction of the rectangle size.
JITTER_FRACTION = 0.01
MAX_BOUNDARY_TRIES = 5
#: Cells holding 2..MOMENT_MAX zeros are resolved from their contour
#: moments: enough for a 5-fold zero with a double or triple one beside it.
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
    n = max(129, int(16 * abs(dz)) + 1)
    t = np.linspace(0.0, 1.0, n)
    vals, scales = p.log_abs(a + dz * t)
    spacing = abs(dz) / (n - 1)
    interior = (vals[1:-1] <= vals[:-2]) & (vals[1:-1] <= vals[2:])
    candidates = [0, n - 1] + (np.nonzero(interior)[0] + 1).tolist()
    candidates.sort(key=lambda i: vals[i])
    out = []
    for k in candidates[:8]:
        z_k = a + dz * t[k]
        gap = _clearance(p, z_k)
        if gap > 4.0 * spacing:
            out.append((float(vals[k]), float(scales[k]), gap))
            continue
        best, scale, z_best = float(vals[k]), float(scales[k]), z_k
        lo, hi = t[max(k - 1, 0)], t[min(k + 1, n - 1)]
        for _ in range(6):
            tt = np.linspace(lo, hi, 33)
            vv, ss = p.log_abs(a + dz * tt)
            j = int(vv.argmin())
            if vv[j] < best:
                best, scale = float(vv[j]), float(ss[j])
                z_best = a + dz * tt[j]
            lo, hi = tt[max(j - 1, 0)], tt[min(j + 1, 32)]
        out.append((best, scale, _clearance(p, z_best)))
    return out


def _segment_scan(p: ExpPolynomial, a: complex,
                  b: complex) -> tuple[float, float]:
    """Worst dip of the segment: (min |p| over the dips relative to the
    term scale at the dip of least clearance, that least clearance); see
    _segment_dips."""
    dips = _segment_dips(p, a, b)
    val = min(d[0] for d in dips)
    _, scale, gap = min(dips, key=lambda d: d[2])
    return math.exp(val - scale), gap


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


def _noise_radius(mult: int) -> float:
    """Distance below which |p| near an m-fold zero is double-precision
    rounding noise of the term sum: (pi*r)^m ~ 1e-13."""
    return 1e-13 ** (1.0 / mult) / math.pi


def _newton_refine(p: ExpPolynomial, z0: complex, mult: int, tol: float,
                   escape: float, max_iter: int = 60, stall_ok: bool = False):
    """Multiplicity-corrected Newton iteration z -> z - mult*p/p'.

    Returns (z, converged).  Near a zero of multiplicity ``mult`` the
    corrected step restores quadratic convergence.  Coefficient rounding
    splits an exact multiple zero into a microscopic cluster, below which
    the steps stop contracting; stagnation at that scale counts as
    converged (the final polish runs on a derivative where the zero is
    simple).  With ``stall_ok`` it counts as converged at a simple zero too:
    a simple zero stagnates where a multiple zero lies close, because the
    value there is rounding noise of the term sum.
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
        step = mult * pv / dv
        z = z - step
        if abs(z - z0) > escape:
            return z, False
        s = abs(step)
        if s < tol:
            return z, True
        if ((mult > 1 or stall_ok) and s < 1e-6 * (1.0 + abs(z))
                and s > 0.25 * prev_step):
            stall += 1
            if stall >= 3:
                return z, True
        else:
            stall = 0
        prev_step = s
    return z, False


class _Search:
    """One find_zeros invocation: caches, tolerances, deterministic jitter."""

    def __init__(self, p: ExpPolynomial, rect: Rect, tol: float,
                 y_zero_band: tuple[float, float]):
        self.p = p
        self.rect = rect
        self.tol = tol
        self.y_newton = 0.5 * (y_zero_band[0] + y_zero_band[1])
        #: edge integrals of p'/p, keyed by (start, end)
        self.edge_cache: dict[tuple[complex, complex], complex] = {}
        self.derivatives = [p]

    def _derivative(self, k: int) -> ExpPolynomial:
        """p^(k), built once per search."""
        while len(self.derivatives) <= k:
            self.derivatives.append(self.derivatives[-1].derivative())
        return self.derivatives[k]

    # -- cached contour pieces (slab phase) --------------------------------

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

    def _slab_edges(self, a: float, b: float) -> list[tuple[complex, complex]]:
        """Bottom, right, top and left sides of the slab a < x < b; the
        horizontals run left to right and the verticals upwards, so the
        pieces are shared with the neighbouring slabs."""
        y0, y1 = self.rect.y_min, self.rect.y_max
        return [(complex(a, y0), complex(b, y0)), (complex(b, y0), complex(b, y1)),
                (complex(a, y1), complex(b, y1)), (complex(a, y0), complex(a, y1))]

    def _split_horizontals(self, a: float, b: float, c: float):
        """Integrate the (a, c) horizontals and the vertical at c in one pass,
        and take the (c, b) horizontals from the cached (a, b) ones."""
        left = self._edges(self._slab_edges(a, c))
        whole = self._edges(self._slab_edges(a, b)[0::2])
        right = self._slab_edges(c, b)[0::2]
        for piece, w, part in zip(right, whole, left[0::2]):
            self.edge_cache[piece] = w - part

    def _slab_raw_winding(self, a: float, b: float) -> complex:
        bottom, right, top, left = self._edges(self._slab_edges(a, b))
        return (bottom + right - top - left) / (2j * math.pi)

    def slab_count(self, a: float, b: float) -> int:
        for escalation in range(3):
            w = self._slab_raw_winding(a, b)
            n = round(w.real)
            if abs(w - n) < WINDING_ACCEPT and n >= 0:
                return n
            self._edges(self._slab_edges(a, b),
                        EDGE_TOL / 256.0 ** (escalation + 1))
        w = self._slab_raw_winding(a, b)
        n = round(w.real)
        if abs(w - n) <= WINDING_FAIL and n >= 0:
            raise QuadratureFailureError(
                f"slab winding {w:.6g} did not settle below {WINDING_ACCEPT}")
        raise QuadratureFailureError(f"non-integer slab winding {w:.6g}")

    # -- plain four-edge winding (fallback phase) --------------------------

    _LADDER = ((EDGE_TOL, WINDING_ACCEPT), (EDGE_TOL / 256.0, WINDING_ACCEPT),
               (0.02, 0.2), (0.15, 0.4))

    def winding4(self, rect: Rect, ladder=_LADDER) -> int:
        """Four-edge winding number with a tolerance ladder.

        Very close to a multiple zero, |p| cancels down to the rounding
        noise of the term sum and p'/p carries an irreducible relative
        error, so after the strict attempts a noise-tolerant pass with a
        loose edge tolerance is tried: the winding is an exact integer, so
        settling within 0.2 of one still counts zeros correctly.
        """
        w = None
        a, b = np.array(rect.edges).T
        for tol, accept in ladder:
            values, _ = integrate_segment(self.p.log_ratio, a, b, tol,
                                          max_panels=2000)
            w = values.sum() / (2j * math.pi)
            n = round(w.real)
            if abs(w - n) < accept and n >= 0:
                return n
        raise QuadratureFailureError(f"winding did not settle (last {w})")

    # -- split-line selection ----------------------------------------------

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
        seg_len = hi - lo
        for frac in self._SPLIT_FRACTIONS:
            c = lo + frac * (hi - lo)
            a, b = seg_of(c)
            seg_len = abs(b - a)
            ratio, gap = _segment_scan(self.p, a, b)
            if gap > 1e-3 * seg_len:
                return c
            if best is None or gap > best[1]:
                best = (c, gap, ratio)
        # the accepted line must keep all zeros at a distance the adaptive
        # quadrature can resolve (relative floor) and its |p| dip above the
        # term-sum rounding noise (absolute ratio floor)
        if best is not None and best[1] > 1e-4 * seg_len and best[2] > 1e-11:
            return best[0]
        return None

    def _safe_vertical_line(self, a: float, b: float, y0: float, y1: float):
        return self._pick_line(a, b, lambda c: (complex(c, y0), complex(c, y1)))

    def _safe_horizontal_line(self, a: float, b: float, lo: float, hi: float):
        return self._pick_line(lo, hi, lambda c: (complex(a, c), complex(b, c)))

    # -- cell resolution ----------------------------------------------------

    def _box_clear(self, box: Rect) -> bool:
        """Edges must keep zeros at an integrable relative distance and stay
        above the term-sum rounding noise."""
        for a, b in box.edges:
            ratio, gap = _segment_scan(self.p, a, b)
            if gap <= 1e-3 * abs(b - a):
                return False
            if ratio <= 1e-11:
                return False
        return True

    def _tight_mass(self, z: complex, mult: int, owner: Rect):
        """Winding of a tight box around ``z``, clipped to the owning cell so
        neighbours' zeros are never counted twice.

        Within distance ~(noise/|local coefficient|)^(1/m) of an m-fold zero
        the evaluated |p| is rounding noise, and the local coefficient can
        be small (for instance when another zero sits nearby), so the box
        grows until its edges clear the measured noise floor.
        """
        half = max(0.5 * CLUSTER_TOL, _noise_radius(mult))
        for _ in range(10):
            box_x0 = max(z.real - half, owner.x_min)
            box_x1 = min(z.real + half, owner.x_max)
            box_y0 = max(z.imag - half, owner.y_min)
            box_y1 = min(z.imag + half, owner.y_max)
            if box_x1 - box_x0 <= 0 or box_y1 - box_y0 <= 0:
                return None
            box = Rect(box_x0, box_x1, box_y0, box_y1)
            at_owner = (box_x0 == owner.x_min and box_x1 == owner.x_max
                        and box_y0 == owner.y_min and box_y1 == owner.y_max)
            if self._box_clear(box):
                try:
                    # boxes live near the cancellation-noise scale, so only
                    # the noise-tolerant rungs are meaningful; a 0.15 edge
                    # tolerance still bounds the winding within 0.11
                    return self.winding4(box, ladder=((0.02, 0.2),
                                                      (0.15, 0.4)))
                except QuadratureFailureError:
                    return None
            if at_owner:
                return None  # cannot grow past the owning cell
            half *= 2.2
        return None

    def _polish_multiple(self, z: complex, mult: int) -> tuple[complex, bool]:
        """Refine the location of an m-fold zero on the (m-1)-th derivative,
        where it is a simple zero free of the |p| cancellation noise."""
        z2, ok = _newton_refine(self._derivative(mult - 1), z, 1, self.tol,
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
        z, ok = _newton_refine(q, z0, 1, max(self.tol, noise), escape=reach,
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
        """Resolve a cell holding 1 <= n <= MOMENT_MAX zeros from its
        moments (Delves & Lyness 1967; Kravanja & Van Barel 2000).

        With distinct zeros phi_j of multiplicities m_j, s_k = sum_j m_j
        phi_j^k: the rank of the Hankel matrix [s_(i+j)] is the number d of
        distinct zeros, the pencil ([s_(i+j+1)], [s_(i+j)]) reduced to its
        rank-d part has eigenvalues phi_j, and a Vandermonde solve on
        s_0..s_(d-1) gives the m_j.  Each zero is then placed by _locate.
        The atoms are appended only if every gate holds: a clear rank gap
        above the noise, near-integer multiplicities >= 1 summing to n,
        every zero placed inside the cell and apart by CLUSTER_TOL, and the
        atoms reproducing every measured moment; otherwise nothing is
        appended and False is returned.
        """
        s, noise = self._moments(rect, 2 * n)
        h0 = np.array([s[i:i + n] for i in range(n)])
        h1 = np.array([s[i + 1:i + n + 1] for i in range(n)])
        u, sv, vh = np.linalg.svd(h0)
        level = n * noise  # bounds the 2-norm of the Hankel matrix's error
        d = int((sv > level).sum())
        if d == 0 or sv[d - 1] < RANK_GAP * level:
            return False
        pencil = (u[:, :d].conj().T @ h1 @ vh[:d].conj().T) / sv[:d, None]
        phi = np.linalg.eigvals(pencil)
        mass = np.linalg.solve(np.vander(phi, d, increasing=True).T, s[:d])
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
        powers = np.vander((locs - c) / r, 2 * n, increasing=True)
        slope = np.zeros(powers.shape)
        slope[:, 1:] = np.abs(powers[:, :-1]) * np.arange(1, 2 * n)
        slack = (mult * np.array([spread for _, spread in placed]) / r) @ slope
        if (np.abs(mult @ powers - s) > MOMENT_REPRODUCE * (noise + slack)).any():
            return False
        atoms.extend((z, int(m), False) for z, m in zip(locs.tolist(), mult))
        return True

    # -- bisection ------------------------------------------------------------

    def resolve_cell(self, rect: Rect, n: int, atoms: list,
                     moments: bool = True):
        """Resolve a cell known to hold ``n`` zeros into atoms: from its
        moments when 2 <= n <= MOMENT_MAX, else, or when a gate of the moment
        stage fails, by Newton's method and bisection.  A single zero that
        Newton's method misses from the cell centre is also tried from the
        moments before bisecting.  ``moments`` False skips the moment stage
        (the caller already tried this cell)."""
        if n == 0:
            return
        if moments and 2 <= n <= MOMENT_MAX and self.resolve_by_moments(
                rect, n, atoms):
            return
        diam = math.hypot(rect.width, rect.height)
        start = rect.center
        if rect.y_min < self.y_newton < rect.y_max and rect.height > 1e-6:
            start = complex(start.real, self.y_newton)
        z, ok = _newton_refine(self.p, start, n, self.tol,
                               escape=4.0 * diam + 1e-3)
        if ok and rect.contains(z):
            if n == 1:
                atoms.append((z, 1, False))
                return
            tight = self._tight_mass(z, n, rect)
            if tight == n:
                z, _ = self._polish_multiple(z, n)
                atoms.append((z, n, False))
                return
        elif n == 1 and moments and self.resolve_by_moments(rect, 1, atoms):
            return
        def cluster_atom():
            if n >= 2:
                zc, polished = self._polish_multiple(z if ok else rect.center, n)
                atoms.append((zc, n, not (ok or polished)))
            else:
                atoms.append((z if ok else rect.center, n, not ok))

        if diam < max(CLUSTER_TOL, 2.0 * _noise_radius(n)):
            cluster_atom()
            return
        if rect.width >= rect.height:
            c = self._safe_vertical_line(rect.x_min, rect.x_max,
                                         rect.y_min, rect.y_max)
            if c is None:
                # every candidate line runs through the noise zone of a
                # multiple zero; double precision cannot separate further
                cluster_atom()
                return
            child = Rect(rect.x_min, c, rect.y_min, rect.y_max)
            other = Rect(c, rect.x_max, rect.y_min, rect.y_max)
        else:
            c = self._safe_horizontal_line(rect.x_min, rect.x_max,
                                           rect.y_min, rect.y_max)
            if c is None:
                cluster_atom()
                return
            child = Rect(rect.x_min, rect.x_max, rect.y_min, c)
            other = Rect(rect.x_min, rect.x_max, c, rect.y_max)
        n1 = self.winding4(child)
        if not 0 <= n1 <= n:
            raise QuadratureFailureError(
                f"child count {n1} inconsistent with parent {n}")
        self.resolve_cell(child, n1, atoms)
        self.resolve_cell(other, n - n1, atoms)

    # -- driver --------------------------------------------------------------

    def run(self, slab_floor: float):
        n_total = self.slab_count(self.rect.x_min, self.rect.x_max)
        atoms: list[tuple[complex, int, bool]] = []
        stack = [(self.rect.x_min, self.rect.x_max, n_total)]
        while stack:
            a, b, n = stack.pop()
            if n == 0:
                continue
            slab = Rect(a, b, self.rect.y_min, self.rect.y_max)
            tried = 2 <= n <= MOMENT_MAX
            if tried and self.resolve_by_moments(slab, n, atoms):
                continue
            if n == 1 or (b - a) <= slab_floor:
                self.resolve_cell(slab, n, atoms, moments=not tried)
                continue
            c = self._safe_vertical_line(a, b, self.rect.y_min, self.rect.y_max)
            if c is None:
                self.resolve_cell(slab, n, atoms, moments=not tried)
                continue
            self._split_horizontals(a, b, c)
            n_left = self.slab_count(a, c)
            if not 0 <= n_left <= n:
                raise QuadratureFailureError(
                    f"slab count {n_left} inconsistent with parent {n}")
            stack.append((a, c, n_left))
            stack.append((c, b, n - n_left))
        return n_total, atoms


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
    search = _Search(p, rect, tol=1e-12,
                     y_zero_band=(rect.y_min, rect.y_max))
    return search.winding4(rect)


def _exp(x: float) -> float:
    """e**x, or inf where raw |p| at a deep zero leaves the double range."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _zero_band(p: ExpPolynomial, rect: Rect) -> tuple[float, float]:
    try:
        strip = zero_strip_estimate(p)
    except ZeroFreeError:
        return rect.y_min, rect.y_max
    lo = max(rect.y_min, strip.alpha)
    hi = min(rect.y_max, strip.beta)
    if lo >= hi:
        return rect.y_min, rect.y_max
    return lo, hi


def find_zeros_report(p: ExpPolynomial, rect: Rect, tol: float = 1e-12, *,
                      allow_jitter: bool = True, seed: int = _DEFAULT_SEED):
    """Locate all zeros of ``p`` in ``rect``; returns (measure, diagnostics).

    Each atom's mass is the zero's multiplicity (always a winding number).
    Diagnostics report |p| residuals at the refined locations, any coarse
    atoms (Newton fallback to a cell center) and the exit status.
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

    band = _zero_band(p, work)
    slab_floor = max(0.75 * (band[1] - band[0]), 8.0 * CLUSTER_TOL)
    search = _Search(p, work, tol, band)
    n_total, raw = search.run(slab_floor)

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
