"""Adaptive Gauss-Legendre quadrature along complex line segments.

The integrands here (logarithmic derivatives and their moments, complexified
transforms) are analytic on the integration paths, so plain dyadic panel
refinement with a two-rule error estimate converges fast; adaptivity only
concentrates work where a pole sits close to the path.
"""

from __future__ import annotations

import numpy as np

#: One call of the integrand evaluates at most 16 * BATCH_PANELS nodes, for
#: all of its rows together: the GL8 and GL16 nodes of up to 2/3 that many
#: panels.  A refinement level with more panels is evaluated in several calls.
BATCH_PANELS = 256

_GL_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    if n not in _GL_CACHE:
        _GL_CACHE[n] = np.polynomial.legendre.leggauss(n)
    return _GL_CACHE[n]


def integrate_segment(f, a: complex | np.ndarray, b: complex | np.ndarray,
                      abs_tol: float, max_panels: int = 8000
                      ) -> tuple[complex | np.ndarray, float]:
    """Integrate ``f`` along the straight segments from ``a`` to ``b``.

    ``a`` and ``b`` are complex scalars (one segment) or 1-D arrays of S
    segment ends; all segments are refined in one loop, so the edges of a
    contour share one pass.  ``f`` takes a complex ndarray of nodes and
    returns either an array of the same shape (one integrand) or a
    (K, nodes) array (K integrands on the same nodes, such as the contour
    moments of ``zeros``).  Each segment keeps its own panels: a panel is
    split while the GL8/GL16 discrepancy, the largest over the K rows,
    exceeds the share of ``abs_tol`` proportional to its length in the
    segment's parameter, and each segment has its own budget of
    ``max_panels``.  When a segment's budget runs out (a pole hugging the
    path, or an integrand noise floor above the tolerance) every panel of
    its last level is still summed and the remaining discrepancy is
    reported in the error estimate rather than raised, so callers gate on
    the estimate; the other segments refine on.

    Returns (values, error estimate).  The values have a last axis of S
    segments, preceded by K for K rows, and drop it for scalar ends; the
    error is one float, the sum of the segments' estimates, which bounds
    the error of every row.  Zero-length segments integrate to 0, and
    ``f`` sees none of their nodes.  One call of ``f`` takes the nodes of
    both rules for a batch of panels of any segments, at most
    16 * BATCH_PANELS nodes, which bounds the memory of one call.
    """
    x_lo, w_lo = gauss_legendre(8)
    x_hi, w_hi = gauss_legendre(16)
    x = np.concatenate([x_lo, x_hi])
    lo = x_lo.size
    batch = 16 * BATCH_PANELS // x.size
    scalar = np.ndim(a) == 0 and np.ndim(b) == 0
    a, b = np.broadcast_arrays(np.atleast_1d(np.asarray(a, dtype=complex)),
                               np.atleast_1d(np.asarray(b, dtype=complex)))
    n_seg = a.size
    dz = b - a

    # panels [ta, tb] of the current level of every live segment; panels of
    # one segment stay adjacent and in order of the parameter t
    seg = np.nonzero(dz != 0)[0]
    ta, tb = np.zeros(seg.size), np.ones(seg.size)
    total = None
    err_seg = np.zeros(n_seg)
    n_done = np.zeros(n_seg, dtype=np.int64)
    min_len = 2.0 ** -46

    while ta.size:
        mid = 0.5 * (ta + tb)
        half = 0.5 * (tb - ta)
        a_p, dz_p = a[seg], dz[seg]
        parts_lo, parts_hi = [], []
        for k in range(0, ta.size, batch):
            s = slice(k, k + batch)
            z = a_p[s, None] + dz_p[s, None] * (mid[s, None] + half[s, None] * x)
            fz = np.asarray(f(z.ravel()))
            vector = fz.ndim == 2
            fz = fz.reshape(-1, *z.shape)
            parts_lo.append((fz[..., :lo] * w_lo).sum(axis=-1) * half[s] * dz_p[s])
            parts_hi.append((fz[..., lo:] * w_hi).sum(axis=-1) * half[s] * dz_p[s])
        i_lo = np.concatenate(parts_lo, axis=1)
        i_hi = np.concatenate(parts_hi, axis=1)
        if total is None:
            total = np.zeros((i_hi.shape[0], n_seg), dtype=complex)
        err = np.abs(i_hi - i_lo).max(axis=0)
        done = (err <= abs_tol * (tb - ta)) | (half * 2.0 <= min_len)
        pending = np.bincount(seg, minlength=n_seg)
        n_split = np.bincount(seg[~done], minlength=n_seg)
        spent = n_done + pending + n_split > max_panels
        if spent.any():
            # budget spent (noise floor or near-pole path): keep the best
            # estimates of those segments and report their remaining
            # discrepancy as error
            done |= spent[seg]
            n_split[spent] = 0
        # each segment sums its settled panels as a call for it alone would,
        # so its value does not depend on the other segments
        for j in np.flatnonzero(pending > n_split).tolist():
            sel = done & (seg == j)
            total[:, j] += i_hi[:, sel].sum(axis=1)
            err_seg[j] += err[sel].sum()
        n_done += pending - n_split
        split = ~done
        seg = np.repeat(seg[split], 2)
        ta_next = np.empty(seg.size)
        tb_next = np.empty(seg.size)
        ta_next[0::2], ta_next[1::2] = ta[split], mid[split]
        tb_next[0::2], tb_next[1::2] = mid[split], tb[split]
        ta, tb = ta_next, tb_next

    if total is None:
        # no segment has length: one call on no nodes gives the row count
        fz = np.asarray(f(np.empty(0, dtype=complex)))
        vector = fz.ndim == 2
        total = np.zeros((fz.shape[0] if vector else 1, n_seg), dtype=complex)
    if not vector:
        total = total[0]
    return (total[..., 0] if scalar else total), float(err_seg.sum())
