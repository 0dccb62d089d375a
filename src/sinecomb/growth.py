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

from .core import TWO_PI, ExpPolynomial
from .errors import CapacityError, PreconditionError
from .logderiv import LOWER, UPPER, CoefficientSweep, DirichletCoefficients

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
    """

    radii: tuple[float, ...]
    values: tuple[float, ...]
    classification: str
    K: float | None


def _bounds(upper, lower):
    """|gamma| of the stored coefficients of both halves in increasing
    order, R just above each, and whether one breaks bound (i) or (ii)
    beyond its rounding.  ``upper`` and ``lower`` are (gamma, h, rounding,
    h0): a coefficient set's frequencies, coefficients and rounding bounds,
    of which only the moduli are read, and its coefficient at gamma 0.
    Each may stop at any |gamma|: a breach in a shorter set is one in the
    whole."""
    gammas = np.abs(np.concatenate([upper[0], lower[0]]))
    h_abs = np.abs(np.concatenate([upper[1], lower[1]]))
    err = np.concatenate([upper[2], lower[2]])
    order = gammas.argsort(kind="stable")
    gammas, h_abs, err = gammas[order], h_abs[order], err[order]
    mass = h_abs.cumsum()  # mass[k] = R just above gammas[k]
    low, low_mass = h_abs - err, mass - err.cumsum()  # what they are at least

    h0_up, h0_lo = upper[3], lower[3]
    density = (h0_lo - h0_up).imag / TWO_PI
    first = int(gammas.searchsorted(0.0, side="right"))  # gammas > 0 from here
    g = gammas[first] if first < len(gammas) else math.inf
    bound = abs(h0_up) + abs(h0_lo) + 2.0 * TWO_PI * density * gammas / g
    broken = bool(
        (low[first:] > TWO_PI * density * (1.0 + BOUND_MARGIN)).any()
        or (low_mass > bound * (1.0 + BOUND_MARGIN)).any())
    return gammas, mass, broken


def _arrays(c: DirichletCoefficients):
    return c.gamma_array, c.h_array, c.rounding_array, c.get(0.0)


def growth_profile(upper: DirichletCoefficients, lower: DirichletCoefficients,
                   radii) -> GrowthReport:
    """R at each radius, and both bounds checked at every stored coefficient.

    Needs increasing radii > 0, at least one, all within both truncations.
    """
    radii = [float(r) for r in radii]
    if not radii or not radii[0] > 0.0 or any(
            r2 <= r1 for r1, r2 in zip(radii, radii[1:])):
        raise PreconditionError("radii must be nonempty, increasing and > 0")
    if upper.halfplane != UPPER or lower.halfplane != LOWER:
        raise PreconditionError("pass (upper, lower) coefficient sets in order")
    if max(radii) > min(upper.gamma_max, lower.gamma_max) + 1e-12:
        raise PreconditionError("radii exceed the stored truncation radius")

    gammas, mass, superlinear = _bounds(_arrays(upper), _arrays(lower))
    inside = np.searchsorted(gammas, radii)  # coefficients below each radius
    values = np.concatenate([[0.0], mass])[inside].tolist()
    K = None if superlinear else max(v / r for v, r in zip(values, radii))
    return GrowthReport(
        radii=tuple(radii), values=tuple(values), K=K,
        classification="superlinear" if superlinear else "linear")


def sweep_coefficients(p: ExpPolynomial, gamma_max: float,
                       upper_gamma_max: float | None = None):
    """(upper, lower) coefficients of p'/p up to ``gamma_max`` (the upper
    ones up to ``upper_gamma_max``, if larger), from one sweep of both
    half-planes in step by |gamma| that ends at the first breach.

    Where the lower half's gaps equal the upper's to the bit, as for about
    half the sine products, the lower half shares the upper's enumeration
    of the gap semigroup (:meth:`CoefficientSweep.share`); the
    coefficients are the same either way.  Both bounds are checked at
    every doubling of |gamma| from the larger of the two least gaps, and
    where a half's coefficients outgrow SUPPORT_CAP or the double range,
    on those solved: first on the moduli alone, and with the rounding
    bounds only where those break one.  Where one breaks, both coefficient
    sets end there (the lower one at ``gamma_max`` at most), and
    :func:`growth_profile` on them is superlinear; else that half's
    CapacityError is raised.
    """
    top = max(gamma_max, upper_gamma_max or gamma_max)
    halves = (CoefficientSweep(p, UPPER, top), CoefficientSweep(p, LOWER, gamma_max))
    halves[0].share(halves[1])
    gamma = max(h.d_min for h in halves)
    while True:
        gamma, failure = min(gamma, top), None
        for h in halves:
            try:
                h.advance(gamma)
            except CapacityError as exc:  # solved up to h.reach: check there
                failure = exc
        # rounding bounds are >= 0: a breach needs one of the moduli alone
        if (gamma == top and failure is None) or (
                _bounds(*(h.moduli(h.reach) for h in halves))[2]
                and _bounds(*(h.stored(h.reach) for h in halves))[2]):
            return tuple(h.coefficients(h.reach) for h in halves)
        if failure is not None:
            raise failure
        gamma *= 2.0


def radii_reached(radii, gamma_max: float, upper: DirichletCoefficients,
                  lower: DirichletCoefficients) -> tuple[float, ...]:
    """``radii``, or if the coefficient sets end below ``gamma_max`` (a
    sweep stopped at a breach there), the radii below that end, and the
    end itself."""
    end = min(upper.gamma_max, lower.gamma_max)
    if end >= gamma_max:
        return tuple(radii)
    return tuple(r for r in radii if r < end) + (end,)
