"""Cumulative coefficient-mass profile R(r) and its growth classification.

R(r) sums |h| over both half-plane coefficient sets inside |gamma| < r; it
grows linearly exactly when p is a finite sine product.  For
p = C e^{iaz} prod sin(alpha_j z + beta_j)^{m_j}, the coefficient at
gamma != 0 sums terms -2i m_j alpha_j e^{2ik beta_j} at gamma = k alpha_j/pi.
So with D = omega_max - omega_min = sum m_j alpha_j/pi and g = min alpha_j/pi:
(i) |h_gamma| <= 2 pi D at gamma != 0, and (ii) R(r) <= |h_0^+| + |h_0^-| +
4 pi D r/g, since sum m_j <= D/g.  D is read from h_0^+ = 2 pi i omega_min
and h_0^- = 2 pi i omega_max, g as the smallest stored |gamma| > 0; for a
sine product both are exact up to rounding and pruning, far inside
``BOUND_MARGIN``.  A stored coefficient that breaks a bound by more than
its rounding bound (``DirichletCoefficients.rounding``) thus proves that p
is not a sine product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import TWO_PI
from .errors import PreconditionError
from .logderiv import LOWER, UPPER, DirichletCoefficients

#: Relative slack of both bounds, for the rounding of D and of the sums: a
#: single sine meets each with equality.
BOUND_MARGIN = 1e-9


@dataclass(frozen=True)
class GrowthReport:
    """Sampled R(r) profile with its classification.

    ``classification`` is "superlinear" when a stored coefficient breaks
    bound (i) or (ii) beyond its rounding, a proof that p is not a sine
    product, and "linear" (consistent with one up to the truncation)
    otherwise; ``K`` is set (to max R(r)/r) only when linear.
    ``fit_exponent``, the log-log slope of R over the upper half of the
    radii, is a diagnostic only.
    """

    radii: tuple[float, ...]
    values: tuple[float, ...]
    classification: str
    K: float | None
    fit_exponent: float


def growth_profile(upper: DirichletCoefficients, lower: DirichletCoefficients,
                   radii) -> GrowthReport:
    """R at each radius, and both bounds checked at every stored coefficient.

    Needs at least 4 increasing radii > 0, all within both truncations.
    """
    radii = [float(r) for r in radii]
    if len(radii) < 4:
        raise PreconditionError("need at least 4 radii for the growth fit")
    if any(r2 <= r1 for r1, r2 in zip(radii, radii[1:])) or not radii[0] > 0.0:
        raise PreconditionError("radii must be increasing and > 0")
    if upper.halfplane != UPPER or lower.halfplane != LOWER:
        raise PreconditionError("pass (upper, lower) coefficient sets in order")
    if max(radii) > min(upper.gamma_max, lower.gamma_max) + 1e-12:
        raise PreconditionError("radii exceed the stored truncation radius")

    gammas = np.abs(np.concatenate([upper.gamma_array, lower.gamma_array]))
    h_abs = np.abs(np.concatenate([upper.h_array, lower.h_array]))
    err = np.concatenate([upper.rounding_array, lower.rounding_array])
    order = np.argsort(gammas, kind="stable")
    gammas, h_abs, err = gammas[order], h_abs[order], err[order]
    mass = np.cumsum(h_abs)  # mass[k] = R just above gammas[k]
    inside = np.searchsorted(gammas, radii)  # coefficients below each radius
    values = np.concatenate([[0.0], mass])[inside].tolist()

    h0_up, h0_lo = upper.get(0.0), lower.get(0.0)
    density = (h0_lo - h0_up).imag / TWO_PI
    nonzero = gammas > 0.0
    g = gammas[nonzero][0] if nonzero.any() else math.inf
    bound = abs(h0_up) + abs(h0_lo) + 2.0 * TWO_PI * density * gammas / g
    superlinear = bool(np.any(
        (h_abs - err)[nonzero] > TWO_PI * density * (1.0 + BOUND_MARGIN))
        or np.any(mass - np.cumsum(err) > bound * (1.0 + BOUND_MARGIN)))

    half = len(radii) // 2
    fit_v = np.array(values[half:])
    if np.all(fit_v > 0.0):
        slope = np.polyfit(np.log(radii[half:]), np.log(fit_v), 1)[0]
    else:
        slope = 0.0  # empty or vanishing profile: no growth at all
    K = None if superlinear else max(v / r for v, r in zip(values, radii))
    return GrowthReport(
        radii=tuple(radii), values=tuple(values), K=K,
        classification="superlinear" if superlinear else "linear",
        fit_exponent=float(slope))
