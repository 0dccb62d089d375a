"""One sweep of the gap semigroup in increasing gamma.

Generic inputs break a growth bound after few coefficients, so the sweep
that stops at the first breach decides them where the full support would
outgrow SUPPORT_CAP.  The sweep itself is checked against a brute-force
enumeration of the semigroup and an mpmath expansion of g' sum_m (-g)^m,
and the sweep whose halves share one enumeration against two independent
halves, bit for bit.
"""

import functools
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sinecomb import LOWER, UPPER, ExpPolynomial, factor, freq, growth
from sinecomb.factorize import profile_radii
from sinecomb.errors import CapacityError
from sinecomb.growth import _bounds, growth_profile, sweep_coefficients
from sinecomb.logderiv import CoefficientSweep, logderiv_coeffs_symbolic

from corpora import factor_reach, generic_polynomials, sweep_corpora


def generic_inputs():
    """The generic polynomials of the corpora, as test parameters."""
    return [pytest.param(p, id=name) for name, p in generic_polynomials()]


@pytest.mark.parametrize("p", generic_inputs())
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


def separate_halves(p: ExpPolynomial, gamma_max: float,
                    upper_gamma_max: float | None = None):
    """sweep_coefficients from two independent halves, no block shared, with
    both bounds checked on the rounding bounds at every doubling."""
    top = max(gamma_max, upper_gamma_max or gamma_max)
    halves = (CoefficientSweep(p, UPPER, top), CoefficientSweep(p, LOWER, gamma_max))
    gamma = max(h.d_min for h in halves)
    while True:
        gamma, failure = min(gamma, top), None
        for h in halves:
            try:
                h.advance(gamma)
            except CapacityError as exc:
                failure = exc
        if (gamma == top and failure is None) or _bounds(
                *(h.stored(h.reach) for h in halves))[2]:
            return tuple(h.coefficients(h.reach) for h in halves)
        if failure is not None:
            raise failure
        gamma *= 2.0


def outcome(sweep, p: ExpPolynomial, *reach):
    """The (upper, lower) coefficients of ``sweep`` at ``reach`` (factor's
    by default), as arrays and numbers, or the error it raises."""
    try:
        halves = sweep(p, *(reach or factor_reach(p)))
    except CapacityError as exc:
        return repr(exc)
    return [(c.halfplane, c.gamma_array.tolist(), c.h_array.tolist(),
             c.rounding_array.tolist(), c.tail_bound, c.validity_height, c.gamma_max)
            for c in halves]


@functools.cache
def corpora():
    return sweep_corpora()


def sharing(p: ExpPolynomial) -> bool:
    return CoefficientSweep(p, UPPER, 1.0).share(CoefficientSweep(p, LOWER, 1.0))


def equal_gaps(p: ExpPolynomial) -> bool:
    """Whether the gaps of p(-z), w_last - w_i, equal those of p, w_i - w_0,
    to the bit."""
    w = [w for w, _ in p.terms]
    return [x - w[0] for x in w[1:]] == [w[-1] - x for x in w[-2::-1]]


@pytest.mark.parametrize("name", list(corpora()))
def test_shared_sweep_is_bit_identical(name):
    # an input shares the upper half's blocks exactly where its gaps are
    # equal to the bit: 27 and 26 of the 50 sine products, no generic or
    # Lee-Yang input, and 4 + 2cos and 1 + 2e(z) + 3e(2z), which share them
    # until the breach that rejects them
    polys = corpora()[name]
    shared = [sharing(p) for p in polys]
    assert shared == [equal_gaps(p) for p in polys]
    for p in polys:
        assert outcome(sweep_coefficients, p) == outcome(separate_halves, p)


def lower_alone(monkeypatch) -> list:
    """The entry counts at which a lower half solves a block alone, from
    now on."""
    block, alone = CoefficientSweep._block, []

    def counted(self):
        if self.halfplane == LOWER:
            alone.append(self.n)
        block(self)

    monkeypatch.setattr(CoefficientSweep, "_block", counted)
    return alone


def test_lower_half_goes_its_own_way_where_its_sources_differ(monkeypatch):
    # item 6 of seed 60601: the lower half's gaps are not the upper's to the
    # bit, so it enumerates its own semigroup, with the same coefficients
    p, alone = corpora()["seed-60601"][6], lower_alone(monkeypatch)
    assert outcome(sweep_coefficients, p) == outcome(separate_halves, p)
    assert alone


def test_lower_half_goes_its_own_way_where_its_runs_differ():
    # frequencies 0, 1, 1.5, 2, 2.5, 3.5, all but 0 moved by a few times the
    # resolution r and a few e = 2^-47, so that sums of gaps lie about r
    # apart: the lower half's gaps agree with the upper's within 1e-14, not
    # to the bit, and its own sums split into runs at other places
    r, e = freq.RESOLUTION, 2.0 ** -47
    moved = [(1.0, 1, 3), (1.5, 2, 4), (2.0, 0, 3), (2.5, 1, 0), (3.5, 2, -4)]
    p = ExpPolynomial.from_terms([(0.0, 1.0)] + [
        (w + a * r + b * e, 1.0 if w == 3.5 else 0.5) for w, a, b in moved])
    assert not sharing(p)
    assert outcome(sweep_coefficients, p) == outcome(separate_halves, p)


def test_lower_cap_inside_a_shared_block(monkeypatch):
    # products of seed 60601 with gaps equal to the bit, the upper half swept
    # to 4 times the lower cap: where that cap ends inside a block, the lower
    # half takes fewer of its runs than the upper, solves it alone, and
    # holds exactly the entries of a lower half swept alone
    made, alone = [], []

    class Recorded(CoefficientSweep):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

        def _block(self):  # a lower half's block is one it solves alone
            n = self.n
            super()._block()
            if self.halfplane == LOWER:
                alone.append(self.n - n)

    monkeypatch.setattr(growth, "CoefficientSweep", Recorded)
    for p in [p for p in corpora()["seed-60601"] if equal_gaps(p)][:20]:
        gamma_max = factor_reach(p)[0]
        made.clear()
        shared = outcome(sweep_coefficients, p, gamma_max, 4.0 * gamma_max)
        assert shared == outcome(separate_halves, p, gamma_max, 4.0 * gamma_max)
        lower, own = made[1], CoefficientSweep(p, LOWER, gamma_max)
        own.advance(gamma_max)
        assert lower.n == own.n
        assert (lower.gam[:own.n] == own.gam[:own.n]).all()
        assert (lower.uv[:, :own.n] == own.uv[:, :own.n]).all()
    assert any(alone)


def test_stepwise_advance_finds_the_same_overflow():
    # u_k = -4 u_(k-1) leaves the double range near entry 513: advancing by
    # doublings, each call scanning only what it solved, stops where one
    # call does, and a later call finds the same entry again
    p = ExpPolynomial.from_terms([(0.0, 1.0), (1.0, 4.0), (601.0, 1.0)])
    once, steps = (CoefficientSweep(p, UPPER, 1202.0) for _ in range(2))
    with pytest.raises(CapacityError, match="double range"):
        once.advance(1024.0)
    gamma = 1.0
    with pytest.raises(CapacityError, match="double range"):
        while gamma < 1024.0:
            steps.advance(gamma)
            gamma *= 2.0
    assert 1.0 < gamma < 1024.0 and steps.reach == once.reach
    for _ in range(2):
        with pytest.raises(CapacityError, match="double range"):
            steps.advance(1024.0)
        assert steps.reach == once.reach < 600.0
    assert (steps.gam[:steps.n] == once.gam[:once.n]).all()


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
