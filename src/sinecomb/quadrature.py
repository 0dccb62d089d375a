"""Adaptive Gauss-Kronrod quadrature along complex line segments.

The integrands here (logarithmic derivatives and their moments, complexified
transforms) are analytic on the integration paths, so plain dyadic panel
refinement with an embedded error estimate converges fast; adaptivity only
concentrates work where a pole sits close to the path.  Each panel is
integrated by the 15-point Kronrod rule K15, and the 7-point Gauss rule G7 on
its odd-indexed nodes gives the error estimate |K15 - G7| from the same 15
integrand values (QUADPACK's qk15: Piessens, de Doncker-Kapenga, Ueberhuber
& Kahaner, 1983).
"""

from __future__ import annotations

import numpy as np

#: One call of the integrand evaluates at most 16 * BATCH_PANELS nodes, for
#: all of its rows together: the 15 nodes of at most 273 panels, 4,095
#: nodes.  A refinement level with more panels is evaluated in several calls.
BATCH_PANELS = 256

_GL_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}

# K15 nodes in [0, 1) and their weights, from the outermost node inwards; the
# odd-indexed nodes of the full rule are the G7 nodes, with weights _G7_HALF
_K15_HALF = np.array([
    0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
    0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
    0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
    0.207784955007898467600689403773245, 0.0])
_K15_WEIGHTS_HALF = np.array([
    0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
    0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
    0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
    0.204432940075298892414161999234649, 0.209482141084727828012999174891714])
_G7_HALF = np.array([
    0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
    0.381830050505118944950369775488975, 0.417959183673469387755102040816327])

#: The 15 nodes on [-1, 1], in increasing order
X = np.concatenate([-_K15_HALF, _K15_HALF[-2::-1]])
#: (15, 2) weights on X: the K15 rule, and G7 (zero at the even-indexed
#: nodes); complex, as the integrand values are, so that ``fz @ W`` needs no
#: cast
W = np.zeros((X.size, 2), dtype=complex)
W[:, 0] = np.concatenate([_K15_WEIGHTS_HALF, _K15_WEIGHTS_HALF[-2::-1]])
W[1::2, 1] = np.concatenate([_G7_HALF, _G7_HALF[-2::-1]])


def gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    if n not in _GL_CACHE:
        _GL_CACHE[n] = np.polynomial.legendre.leggauss(n)
    return _GL_CACHE[n]


def integrate_segment(f, a: complex | np.ndarray, b: complex | np.ndarray,
                      abs_tol: float, max_panels: int = 8000,
                      errors: np.ndarray | None = None,
                      frames: tuple[complex | np.ndarray, float | np.ndarray, int]
                      | None = None) -> tuple[complex | np.ndarray, float]:
    """Integrate ``f`` along the straight segments from ``a`` to ``b``.

    ``a`` and ``b`` are complex scalars (one segment) or 1-D arrays of S
    segment ends; all segments are refined in one loop, so the edges of a
    contour, or of many contours, share one pass.  ``f`` takes a complex
    ndarray of nodes and returns either an array of the same shape (one
    integrand) or a (K, nodes) array (K integrands on the same nodes).
    With ``frames`` = (centres, scales, K) the integrands are the K rows
    phi^k f(z), k < K, in each segment's own frame phi = (z - c)/r, its
    centre c and scale r broadcast against the segments (the contour
    moments of ``zeros``); ``f`` still sees the nodes alone.  Each segment
    keeps its own panels: a panel is split while its K15/G7 discrepancy,
    the largest over the K rows, exceeds the share of ``abs_tol``
    proportional to its length in the segment's parameter, and each segment
    has its own budget of ``max_panels``.  When a segment's budget runs out
    (a pole hugging the path, or an integrand noise floor above the
    tolerance) every panel of its last level is still summed and the
    remaining discrepancy is reported in the error estimate rather than
    raised, so callers gate on the estimate; the other segments refine on.

    Returns (values, error estimate).  The values have a last axis of S
    segments, preceded by K for K rows, and drop it for scalar ends; the
    error is one float, the sum of the segments' estimates, which bounds
    the error of every row; an ``errors`` array of S floats receives each
    segment's own estimate.  Zero-length segments integrate to 0, and ``f``
    sees none of their nodes.  One call of ``f`` takes the 15 nodes of each
    panel of a batch of panels of any segments, at most 16 * BATCH_PANELS
    nodes, and the nodes of one batch are built for that batch alone, which
    bounds the memory of one call.
    """
    batch = 16 * BATCH_PANELS // X.size
    scalar = np.ndim(a) == 0 and np.ndim(b) == 0
    a, b = np.broadcast_arrays(np.atleast_1d(np.asarray(a, dtype=complex)),
                               np.atleast_1d(np.asarray(b, dtype=complex)))
    n_seg = a.size
    dz = b - a
    if frames is not None:
        centres, scales, rows = frames
        centres = np.full(n_seg, centres, dtype=complex)
        # numpy divides by r + 0i as a product with 1/r: the same bits, cheaper
        inverse = 1.0 / np.full(n_seg, scales, dtype=float)

    def integrand(z: np.ndarray, i: np.ndarray) -> np.ndarray:
        """The rows at the nodes ``z`` (panels, 15) of the segments ``i``."""
        if frames is None:
            return np.asarray(f(z.ravel()))
        out = np.empty((rows, z.size), dtype=complex)
        out[0] = f(z.ravel())
        out[1:] = ((z - centres[i][:, None]) * inverse[i][:, None]).ravel()
        return np.cumprod(out, axis=0, out=out)

    # panels [ta, ta + 2 half] of the current level of every live segment, all
    # of one length; panels of one segment stay adjacent and in order of t
    seg = np.nonzero(dz != 0)[0]
    ta = np.zeros(seg.size)
    half = 0.5
    settled = []  # (segment, K15 values, error) of the panels each level settles
    n_settled = 0
    err_seg = np.zeros(n_seg)
    min_len = 2.0 ** -46

    while ta.size:
        parts = []
        for k in range(0, ta.size, batch):
            s = slice(k, k + batch)
            i = seg[s]
            # nodes a + dz*t from their real parameters t in [0, 1]: a node's
            # rounding depends on its t alone, not on a rounded panel centre too
            t = (ta[s] + half)[:, None] + half * X
            fz = integrand(a[i, None] + dz[i, None] * t, i)
            vector = fz.ndim == 2
            parts.append((fz.reshape(-1, X.size) @ W).reshape(-1, len(t), 2))
        sums = parts[0] if len(parts) == 1 else np.concatenate(parts, axis=1)
        sums = sums * (dz[seg] * half)[:, None]
        value = sums[..., 0]
        err = np.abs(value - sums[..., 1]).max(axis=0)
        done = (err <= abs_tol * 2.0 * half) | (2.0 * half <= min_len)
        # panels of all segments after this level: settled, pending and the
        # children of those that split
        if n_settled + 2 * done.size - np.count_nonzero(done) > max_panels:
            # a segment may spend its budget (noise floor or near-pole path);
            # none can while all segments together stay within one budget.
            # Those that do keep the best estimates of this level and report
            # the remaining discrepancy as error
            n_done = np.bincount(np.concatenate([seg[:0], *(s for s, _, _ in settled)]),
                                 minlength=n_seg)
            spent = (n_done + np.bincount(seg, minlength=n_seg)
                     + np.bincount(seg[~done], minlength=n_seg) > max_panels)
            done |= spent[seg]
        settled.append((seg[done], value[:, done], err[done]))
        n_settled += np.count_nonzero(done)
        split = ~done
        seg = seg[split].repeat(2)
        ta = ta[split].repeat(2)
        ta[1::2] += half
        half *= 0.5

    if not settled:
        # no segment has length: one call on no nodes gives the row count
        fz = integrand(np.empty((0, X.size), dtype=complex), seg)
        vector = fz.ndim == 2
        total = np.zeros((n_seg, fz.shape[0] if vector else 1), dtype=complex)
    else:
        # every segment sums its settled panels in level order, one by one,
        # as a call for it alone would: its value does not depend on the
        # other segments
        seg, value, err = (np.concatenate(parts, axis=-1) for parts in zip(*settled))
        total = np.zeros((n_seg, value.shape[0]), dtype=complex)
        np.add.at(total, seg, value.T)
        np.add.at(err_seg, seg, err)
    total = total.T if vector else total[:, 0]
    if errors is not None:
        errors[:] = err_seg
    return (total[..., 0] if scalar else total), float(err_seg.sum())
