"""Adaptive Gauss-Legendre quadrature along complex line segments.

The integrands here (logarithmic derivatives, complexified transforms) are
analytic on the integration paths, so plain dyadic panel refinement with a
two-rule error estimate converges fast; adaptivity only concentrates work
where a pole sits close to the path.
"""

from __future__ import annotations

import numpy as np

#: Most panels evaluated in one call of the integrand (16 nodes each); a
#: refinement level with more panels is evaluated in several calls.
BATCH_PANELS = 256

_GL_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    if n not in _GL_CACHE:
        _GL_CACHE[n] = np.polynomial.legendre.leggauss(n)
    return _GL_CACHE[n]


def integrate_segment(f, a: complex, b: complex, abs_tol: float,
                      max_panels: int = 8000) -> tuple[complex, float]:
    """Integrate ``f`` along the straight segment from ``a`` to ``b``.

    ``f`` must accept a complex ndarray and return one of the same shape.
    Panels are split while the GL8/GL16 discrepancy exceeds the share of
    ``abs_tol`` proportional to panel length.  Returns (value, error
    estimate); when the panel budget runs out (a pole hugging the path, or
    an integrand noise floor above the tolerance) every panel of the last
    level is still summed, and the remaining discrepancy is reported in the
    error estimate rather than raised, so callers gate on the estimate.
    Each level is evaluated at most BATCH_PANELS panels per call of ``f``,
    which bounds the memory of one call.
    """
    x_lo, w_lo = gauss_legendre(8)
    x_hi, w_hi = gauss_legendre(16)
    dz = b - a
    if dz == 0:
        return 0j, 0.0

    pending = [(0.0, 1.0)]
    total = 0j
    err_total = 0.0
    n_done = 0
    min_len = 2.0 ** -46
    exhausted = False

    while pending:
        if exhausted:
            # budget spent (noise floor or near-pole path): keep the best
            # estimates and report the remaining discrepancy as error
            break
        ta = np.array([s[0] for s in pending])
        tb = np.array([s[1] for s in pending])
        mid = 0.5 * (ta + tb)
        half = 0.5 * (tb - ta)
        i_lo = np.empty(len(pending), dtype=complex)
        i_hi = np.empty(len(pending), dtype=complex)
        for k in range(0, len(pending), BATCH_PANELS):
            b = slice(k, k + BATCH_PANELS)
            z_lo = a + dz * (mid[b, None] + half[b, None] * x_lo[None, :])
            z_hi = a + dz * (mid[b, None] + half[b, None] * x_hi[None, :])
            f_lo = f(z_lo.ravel()).reshape(z_lo.shape)
            f_hi = f(z_hi.ravel()).reshape(z_hi.shape)
            i_lo[b] = (f_lo * w_lo).sum(axis=1) * half[b] * dz
            i_hi[b] = (f_hi * w_hi).sum(axis=1) * half[b] * dz
        err = np.abs(i_hi - i_lo)
        budget = abs_tol * (tb - ta)
        done = (err <= budget) | (half * 2.0 <= min_len)
        if n_done + int(done.sum()) + 2 * int((~done).sum()) > max_panels:
            done = np.ones_like(done)
            exhausted = True
        total += i_hi[done].sum()
        err_total += err[done].sum()
        n_done += int(done.sum())
        nxt = []
        for k in np.nonzero(~done)[0]:
            c = mid[k]
            nxt.append((ta[k], c))
            nxt.append((c, tb[k]))
        pending = nxt
    return total, err_total
