"""Cumulative coefficient-mass profile R(r) and its growth classification.

R(r) sums |h| over both half-plane coefficient sets inside |gamma| < r.
Linear growth of R (a uniform bound R(r) < K*r) is exactly the property
that separates finite sine products from everything else, so the profile's
log-log slope over the larger radii is the working classifier.  The
thresholds (slope <= 1.1 linear, >= 1.5 superlinear, inconclusive between)
are artifact policy: the test corpus separates by orders of magnitude, and
no certified decision is possible from finitely many coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError
from .logderiv import LOWER, UPPER, DirichletCoefficients

LINEAR_SLOPE_MAX = 1.1
SUPERLINEAR_SLOPE_MIN = 1.5
#: max(R/r) over the fit window may exceed the median ratio by this factor.
RATIO_GUARD = 2.0


@dataclass(frozen=True)
class GrowthReport:
    """Sampled R(r) profile with its classification.

    ``classification`` is one of "linear", "superlinear", "inconclusive";
    ``K`` is set (to max R(r)/r) only when linear.
    """

    radii: tuple[float, ...]
    values: tuple[float, ...]
    classification: str
    K: float | None
    fit_exponent: float


def growth_profile(upper: DirichletCoefficients, lower: DirichletCoefficients,
                   radii) -> GrowthReport:
    """Exact partial sums of |h| over the stored coefficients at each radius.

    The fit exponent is the least-squares slope of log R against log r over
    the upper half of the radii.  Needs at least 4 increasing radii >= 1,
    all within both truncations.
    """
    radii = [float(r) for r in radii]
    if len(radii) < 4:
        raise PreconditionError("need at least 4 radii for the growth fit")
    if any(r2 <= r1 for r1, r2 in zip(radii, radii[1:])) or radii[0] < 1.0:
        raise PreconditionError("radii must be increasing and >= 1")
    if upper.halfplane != UPPER or lower.halfplane != LOWER:
        raise PreconditionError("pass (upper, lower) coefficient sets in order")
    if max(radii) > min(upper.gamma_max, lower.gamma_max) + 1e-12:
        raise PreconditionError("radii exceed the stored truncation radius")

    # summed one after another, upper |gamma| < r ascending, then lower
    # from -r up: cumsum is sequential where a sum may be pairwise, and
    # the builtin abs may differ from np.abs in the last bit
    up_abs = np.array([abs(h) for _, h in upper.coeffs])
    lo_abs = np.array([abs(h) for _, h in lower.coeffs])
    values = []
    for r in radii:
        inside = np.concatenate([
            up_abs[:np.searchsorted(upper.gamma_array, r)],
            lo_abs[np.searchsorted(lower.gamma_array, -r, side="right"):]])
        values.append(float(np.cumsum(inside)[-1]) if len(inside) else 0.0)

    half = len(radii) // 2
    fit_r = np.array(radii[half:])
    fit_v = np.array(values[half:])
    if np.all(fit_v > 0.0):
        slope = np.polyfit(np.log(fit_r), np.log(fit_v), 1)[0]
    else:
        slope = 0.0  # empty or vanishing profile: no growth at all

    ratios = [v / r for v, r in zip(values, radii)]
    fit_ratios = ratios[half:]
    median_ratio = float(np.median(ratios))
    ratio_ok = (median_ratio == 0.0 and max(fit_ratios) == 0.0) or (
        median_ratio > 0.0 and max(fit_ratios) <= RATIO_GUARD * median_ratio)

    if slope <= LINEAR_SLOPE_MAX and ratio_ok:
        classification = "linear"
        K = max(ratios)
    elif slope >= SUPERLINEAR_SLOPE_MIN:
        classification = "superlinear"
        K = None
    else:
        classification = "inconclusive"
        K = None
    return GrowthReport(radii=tuple(radii), values=tuple(values),
                        classification=classification, K=K,
                        fit_exponent=float(slope))
