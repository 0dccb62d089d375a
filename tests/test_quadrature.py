"""Adaptive segment quadrature: batch bound and budget exhaustion."""

import cmath

from sinecomb.quadrature import BATCH_PANELS, integrate_segment


def test_near_pole_calls_stay_bounded_and_sum_every_panel():
    # at tol 1e-14 the rounding noise of 1/(z - z0) near the pole exceeds
    # the panel share of the tolerance, so panels split until the budget runs
    # out; every panel of the last level must still be evaluated and summed
    z0 = 0.5 + 3e-4j
    sizes = []

    def f(z):
        sizes.append(z.size)
        return 1.0 / (z - z0)

    value, err = integrate_segment(f, 0.0, 1.0, 1e-14, max_panels=20000)
    exact = cmath.log(1.0 - z0) - cmath.log(-z0)
    assert max(sizes) <= 16 * BATCH_PANELS
    assert sum(sizes) > 24 * 10000  # the budget ran out: most panels summed
    assert abs(value - exact) <= 1e-12
    assert err < 1e-12
