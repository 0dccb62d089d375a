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


def integrate_segment(f, a: complex, b: complex, abs_tol: float,
                      max_panels: int = 8000
                      ) -> tuple[complex | np.ndarray, float]:
    """Integrate ``f`` along the straight segment from ``a`` to ``b``.

    ``f`` takes a complex ndarray of nodes and returns either an array of
    the same shape (one integrand) or a (K, nodes) array (K integrands on
    the same nodes, such as the contour moments of ``zeros``).  Panels are
    split while the GL8/GL16 discrepancy, the largest over the K rows,
    exceeds the share of ``abs_tol`` proportional to panel length.  Returns
    (value, error estimate): a complex, or a length-K array for K rows, and
    one float that bounds the estimate of every row.  When the panel budget
    runs out (a pole hugging the path, or an integrand noise floor above the
    tolerance) every panel of the last level is still summed, and the
    remaining discrepancy is reported in the error estimate rather than
    raised, so callers gate on the estimate.  One call of ``f`` takes the
    nodes of both rules for a batch of panels, at most 16 * BATCH_PANELS
    nodes, which bounds the memory of one call.
    """
    x_lo, w_lo = gauss_legendre(8)
    x_hi, w_hi = gauss_legendre(16)
    x = np.concatenate([x_lo, x_hi])
    lo = x_lo.size
    batch = 16 * BATCH_PANELS // x.size
    dz = b - a
    if dz == 0:
        return 0j, 0.0

    # panels [ta, tb] of the current level, in order of the parameter t
    ta, tb = np.zeros(1), np.ones(1)
    total = 0j
    err_total = 0.0
    n_done = 0
    min_len = 2.0 ** -46

    while ta.size:
        mid = 0.5 * (ta + tb)
        half = 0.5 * (tb - ta)
        parts_lo, parts_hi = [], []
        for k in range(0, ta.size, batch):
            s = slice(k, k + batch)
            z = a + dz * (mid[s, None] + half[s, None] * x)
            fz = np.asarray(f(z.ravel()))
            vector = fz.ndim == 2
            fz = fz.reshape(-1, *z.shape)
            parts_lo.append((fz[..., :lo] * w_lo).sum(axis=-1) * half[s] * dz)
            parts_hi.append((fz[..., lo:] * w_hi).sum(axis=-1) * half[s] * dz)
        i_lo = np.concatenate(parts_lo, axis=1)
        i_hi = np.concatenate(parts_hi, axis=1)
        err = np.abs(i_hi - i_lo).max(axis=0)
        done = (err <= abs_tol * (tb - ta)) | (half * 2.0 <= min_len)
        n_split = ta.size - int(done.sum())
        if n_done + ta.size + n_split > max_panels:
            # budget spent (noise floor or near-pole path): keep the best
            # estimates and report the remaining discrepancy as error
            done[:] = True
            n_split = 0
        total = total + i_hi[:, done].sum(axis=1)
        err_total += err[done].sum()
        n_done += ta.size - n_split
        split = ~done
        ta_next = np.empty(2 * n_split)
        tb_next = np.empty(2 * n_split)
        ta_next[0::2], ta_next[1::2] = ta[split], mid[split]
        tb_next[0::2], tb_next[1::2] = mid[split], tb[split]
        ta, tb = ta_next, tb_next
    return (total if vector else total[0]), err_total
