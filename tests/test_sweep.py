"""One sweep of the gap semigroup in increasing gamma.

Generic inputs break a growth bound after few coefficients, so the sweep
that stops at the first breach decides them where the full support would
outgrow SUPPORT_CAP.  The sweep itself is checked against a brute-force
enumeration of the semigroup and an mpmath expansion of g' sum_m (-g)^m.
"""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sinecomb import LOWER, UPPER, ExpPolynomial, factor, freq
from sinecomb.factorize import profile_radii
from sinecomb.growth import growth_profile, sweep_coefficients
from sinecomb.logderiv import CoefficientSweep, logderiv_coeffs_symbolic

from test_overflow import twelve_terms


def generic_inputs():
    """8 draws at each term count, from a fresh default_rng(7) per count:
    omega ~ U(-3, 3) and complex normal coefficients."""
    for n in (5, 8, 12, 20):
        rng = np.random.default_rng(7)
        for i in range(8):
            w = rng.uniform(-3, 3, n)
            z = rng.normal(size=(n, 2))
            q = (z[:, 0] + 1j * z[:, 1]) / math.sqrt(2)
            yield pytest.param(ExpPolynomial.from_terms(zip(w.tolist(), q.tolist())),
                               id=f"{n}-terms-{i}")
    yield pytest.param(twelve_terms(), id="twelve-terms")


@pytest.mark.parametrize("p", list(generic_inputs()))
def test_generic_input_rejected_at_criterion(p):
    # the full support up to factor's gamma_max passes SUPPORT_CAP for most
    # of these; the first breach lies below gamma 8, past 2,100 coefficients
    # at most
    out = factor(p)
    assert (out.verdict, out.stage) == ("not_sine_product", "criterion")
    gamma_max = max(profile_radii(p))
    upper, lower = sweep_coefficients(p, gamma_max, 2.0 * (p.freq_max - p.freq_min))
    end = min(upper.gamma_max, lower.gamma_max)
    assert end < 8.0 and len(upper.coeffs) + len(lower.coeffs) <= 2500
    assert out.diagnostics["growth"].radii[-1] == end


def test_breach_below_where_the_coefficients_overflow():
    # the upper half's u_k = -4 u_(k-1) leaves the double range near k = 513,
    # below the first doubling check at the lower half's least gap 600; bound
    # (i), |h| <= 2 pi 601, breaks from gamma 5 on
    p = ExpPolynomial.from_terms([(0.0, 1.0), (1.0, 4.0), (601.0, 1.0)])
    out = factor(p)
    assert (out.verdict, out.stage) == ("not_sine_product", "criterion")
    upper, lower = sweep_coefficients(p, 1202.0)
    assert upper.gamma_max < 600.0 == lower.gamma_max
    assert np.isfinite(upper.h_array).all()
    report = growth_profile(upper, lower, [upper.gamma_max])
    assert report.classification == "superlinear"


def semigroup(gaps, gamma_max: float) -> list:
    """Run starts of the sums sum_j k_j d_j in (0, gamma_max] (and half the
    resolution past it), each summed exactly, sorted and chained at the
    frequency resolution."""
    sums, limit = set(), gamma_max + 0.5 * freq.RESOLUTION

    def extend(j: int, total):
        if j == len(gaps):
            sums.add(total)
            return
        while total <= limit:
            extend(j + 1, total)
            total += mpmath.mpf(gaps[j])

    with mpmath.workdps(40):
        extend(0, mpmath.mpf(0))
        ordered = np.array(sorted(float(s) for s in sums if s > 0))
    return ordered[freq.run_starts(ordered, 0.0)].tolist()


def expansion(p: ExpPolynomial, gamma_max: float):
    """u = g' sum_m (-g)^m up to gamma_max, keyed by the exponent vector k
    of e(sum_j k_j d_j z), and the frequency of such a k."""
    (w0, q0), rest = p.terms[0], p.terms[1:]
    gaps = [mpmath.mpf(w) - mpmath.mpf(w0) for w, _ in rest]
    c = [mpmath.mpc(q) / mpmath.mpc(q0) for _, q in rest]
    unit = [tuple(int(i == j) for i in range(len(rest))) for j in range(len(rest))]

    def freq_of(k):
        return sum(kj * d for kj, d in zip(k, gaps))

    def times_g(series, coeffs):
        out = {}
        for k, v in series.items():
            for e, cj in zip(unit, coeffs):
                key = tuple(a + b for a, b in zip(k, e))
                if freq_of(key) <= gamma_max + 0.5 * freq.RESOLUTION:
                    out[key] = out.get(key, 0) + v * cj
        return out

    total = term = {(0,) * len(rest): mpmath.mpc(1)}
    while term:
        term = {k: -v for k, v in times_g(term, c).items()}
        total = {k: total.get(k, 0) + term.get(k, 0) for k in total.keys() | term.keys()}
    gp = [2j * mpmath.pi * d * cj for d, cj in zip(gaps, c)]
    return times_g(total, gp), freq_of


small_inputs = given(
    w0=st.floats(-2.0, 2.0),
    gaps=st.lists(st.floats(0.3, 1.2), min_size=1, max_size=3, unique=True),
    coeffs=st.lists(st.tuples(st.floats(0.2, 2.0), st.floats(-math.pi, math.pi)),
                    min_size=4, max_size=4),
    gamma_max=st.floats(1.0, 3.0),
    halfplane=st.sampled_from([UPPER, LOWER]))


@settings(max_examples=25, deadline=None, derandomize=True)
@small_inputs
def test_sweep_against_brute_force_and_mpmath(w0, gaps, coeffs, gamma_max,
                                              halfplane):
    omegas = [w0 + s for s in np.cumsum([0.0] + sorted(gaps))]
    p = ExpPolynomial.from_terms(
        (w, r * complex(math.cos(t), math.sin(t))) for w, (r, t) in zip(omegas, coeffs))
    upper = p if halfplane == UPPER else ExpPolynomial.from_terms(
        (-w, q) for w, q in p.terms)

    # the support: every sum of gaps up to gamma_max, and no other entry
    sweep = CoefficientSweep(p, halfplane, gamma_max)
    sweep.advance(gamma_max)
    m = int(sweep.gam[:sweep.n].searchsorted(gamma_max + 0.5 * freq.RESOLUTION,
                                             side="right"))
    w_up = [w for w, _ in upper.terms]
    exact = semigroup([w - w_up[0] for w in w_up[1:]], gamma_max)
    assert len(exact) == m - 1
    assert np.allclose(sweep.gam[1:m], exact, rtol=0.0, atol=1e-12)

    # each stored coefficient within its rounding bound of the expansion
    coeffs_set = logderiv_coeffs_symbolic(p, halfplane, gamma_max)
    sign = 1.0 if halfplane == UPPER else -1.0
    with mpmath.workdps(40):
        series, freq_of = expansion(upper, gamma_max)
        by_freq = {}
        for k, v in series.items():
            at = exact[int(np.abs(np.array(exact) - float(freq_of(k))).argmin())]
            by_freq[at] = by_freq.get(at, 0) + v
        for g, h, bound in zip(coeffs_set.gamma_array, coeffs_set.h_array,
                               coeffs_set.rounding_array):
            if g == 0.0:
                continue
            at = exact[int(np.abs(np.array(exact) - sign * g).argmin())]
            assert abs(sign * g - at) <= 1e-12
            ref = complex(by_freq[at])
            assert abs(sign * h - ref) <= bound + 1e-15 * abs(ref)
