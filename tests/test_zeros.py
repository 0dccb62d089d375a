"""Zero localization: counting, refinement, multiplicities, diagnostics."""

import math

import numpy as np
import pytest

from sinecomb import (
    ExpPolynomial,
    Rect,
    SineProduct,
    count_zeros,
    expand_sine_product,
    find_zeros,
    find_zeros_report,
    zero_strip_estimate,
    zeros_to_csv,
)
import sinecomb.zeros
from sinecomb.errors import (BoundaryProximityError, EmptyPolynomialError,
                             QuadratureFailureError)
from sinecomb.quadrature import integrate_segment
from sinecomb.zeros import (EDGE_TOL, WINDING_ACCEPT, _clearance, _piece_grid,
                            _Search, _segment_dips)

from conftest import Y0

PI = math.pi


class TestCountZeros:
    def test_eleven_integers(self, sin_poly):
        assert count_zeros(sin_poly, Rect(-5.3, 5.7, -1, 1)) == 11

    def test_empty_window(self, sin_poly):
        assert count_zeros(sin_poly, Rect(0.2, 0.8, -1, 1)) == 0

    def test_double_zero(self, sin2_poly):
        assert count_zeros(sin2_poly, Rect(-0.4, 0.4, -1, 1)) == 2

    def test_boundary_proximity_error(self, sin_poly):
        # right edge passes through the zero at 1
        with pytest.raises(BoundaryProximityError):
            count_zeros(sin_poly, Rect(0.5, 1.0, -1, 1))

    def test_empty_polynomial(self):
        with pytest.raises(EmptyPolynomialError):
            count_zeros(ExpPolynomial(()), Rect(0, 1, -1, 1))

    def test_single_term_zero_free(self):
        p = ExpPolynomial.from_terms([(2.0, 1.0 + 1j)])
        assert count_zeros(p, Rect(-10, 10, -1, 1)) == 0


class TestFindZeros:
    def test_sine_integers(self, sin_poly):
        m = find_zeros(sin_poly, Rect(-3.4, 3.4, -1, 1), 1e-12)
        assert [round(loc.real) for loc, _ in m.atoms] == list(range(-3, 4))
        for loc, mass in m.atoms:
            assert abs(loc - round(loc.real)) <= 1e-10
            assert mass == 1

    def test_complex_pair(self, fourcos_poly):
        m = find_zeros(fourcos_poly, Rect(0, 1, -0.5, 0.5))
        assert len(m) == 2
        locs = sorted(m.locations, key=lambda z: z.imag)
        assert abs(locs[0] - complex(0.5, -Y0)) < 1e-10
        assert abs(locs[1] - complex(0.5, Y0)) < 1e-10
        assert all(mass == 1 for mass in m.masses)

    def test_empty_window(self, sin_poly):
        assert find_zeros(sin_poly, Rect(0.1, 0.9, -1, 1)).atoms == ()

    def test_double_zero_mass(self, sin2_poly):
        m = find_zeros(sin2_poly, Rect(-0.4, 0.4, -1, 1))
        assert len(m) == 1
        loc, mass = m.atoms[0]
        assert mass == 2
        assert abs(loc) < 1e-10

    def test_jitter_rescues_boundary_zero(self, sin_poly):
        # zero at 1 sits on the requested boundary; top-level jitter inflates
        m = find_zeros(sin_poly, Rect(0.5, 1.0, -1, 1))
        assert m.total_mass() >= 1

    def test_residual_diagnostics(self, sin_poly):
        m, diag = find_zeros_report(sin_poly, Rect(-2.5, 2.5, -1, 1))
        assert diag["count"] == 5 == m.total_mass()
        assert diag["max_residual"] <= diag["residual_bound"]
        assert diag["exit_status"] == 0
        assert diag["coarse"] == diag["coarse_radius"] == []


def _segment_dips_loop(p, a, b):
    """Reference for _segment_dips: each dip zoomed on its own."""
    dz = b - a
    n = max(129, int(16 * abs(dz)) + 1)
    t = np.linspace(0.0, 1.0, n)
    vals, scales = p.log_abs(a + dz * t)
    spacing = abs(dz) / (n - 1)
    interior = (vals[1:-1] <= vals[:-2]) & (vals[1:-1] <= vals[2:])
    candidates = [0, n - 1] + (np.nonzero(interior)[0] + 1).tolist()
    candidates.sort(key=lambda i: vals[i])
    out = []
    for k in candidates[:8]:
        z_k = a + dz * t[k]
        gap = _clearance(p, z_k)
        if gap > 4.0 * spacing:
            out.append((float(vals[k]), float(scales[k]), gap))
            continue
        best, scale, z_best = float(vals[k]), float(scales[k]), z_k
        lo, hi = t[max(k - 1, 0)], t[min(k + 1, n - 1)]
        for _ in range(6):
            tt = np.linspace(lo, hi, 33)
            vv, ss = p.log_abs(a + dz * tt)
            j = int(vv.argmin())
            if vv[j] < best:
                best, scale = float(vv[j]), float(ss[j])
                z_best = a + dz * tt[j]
            lo, hi = tt[max(j - 1, 0)], tt[min(j + 1, 32)]
        out.append((best, scale, _clearance(p, z_best)))
    return out


SCAN_SEGMENTS = [
    (-4.9 + 1e-3j, 5.3 + 1e-3j),  # along the zeros, every dip zoomed
    (-0.9 - 0.4j, 0.6 + 0.5j),
    (1.0 - 1.0j, 1.0 + 1.0j),  # through a zero
    (-30.0 + 0.2j, 30.0 + 0.2j),
]


@pytest.mark.parametrize("a, b", SCAN_SEGMENTS)
def test_batched_zoom_matches_the_loop(a, b):
    p = expand_sine_product(SineProduct.from_factors(1.0, 0.0, [
        (PI, 0.0, 1), (math.sqrt(2) * PI, 0.3, 1), (math.sqrt(3) * PI, 1.1, 2)]))
    assert _segment_dips(p, [(a, b)]) == [_segment_dips_loop(p, a, b)]


def test_segments_scanned_together_match_each_alone():
    p = expand_sine_product(SineProduct.from_factors(1.0, 0.0, [
        (PI, 0.0, 1), (math.sqrt(2) * PI, 0.3, 1), (math.sqrt(3) * PI, 1.1, 2)]))
    assert _segment_dips(p, SCAN_SEGMENTS) == [
        _segment_dips(p, [ends])[0] for ends in SCAN_SEGMENTS]


# -- the piece grid of the rectangle's top and bottom ----------------------------

THREE_FACTORS = [(PI, 0.0, 1), (math.sqrt(2) * PI, 0.3, 1), (math.sqrt(3) * PI, 1.1, 2)]


def _band_rect(p, half):
    strip = zero_strip_estimate(p)
    return Rect(-half, half, strip.alpha - strip.eta, strip.beta + strip.eta)


def _counted_calls(monkeypatch):
    """Record the segment count of every integrate_segment call of zeros."""
    calls = []

    def counted(f, a, b, *args, **kwargs):
        calls.append(np.size(a))
        return integrate_segment(f, a, b, *args, **kwargs)

    monkeypatch.setattr(sinecomb.zeros, "integrate_segment", counted)
    return calls


def test_grid_ends_are_the_midpoints_of_repeated_splits():
    rect = Rect(-25.3, 25.3, -1.0, 1.0)
    grid = _piece_grid(rect, 5.9)
    assert len(grid) == 129  # 2^7 pieces of at most MOMENT_MAX / 2 zeros
    for step in (128, 64, 32, 16, 8, 4, 2):
        for i in range(0, 128, step):
            lo, hi = grid[i], grid[i + step]
            assert lo + 0.5 * (hi - lo) == grid[i + step // 2]
    assert _piece_grid(Rect(-1.0, 1.0, -1.0, 1.0), 3.9) == []  # 2 pieces
    assert _piece_grid(Rect(-50.0, 50.0, -1.0, 1.0), 1e4) == []  # 2^18 pieces


def test_grid_side_is_a_difference_of_prefix_sums(monkeypatch):
    p = expand_sine_product(SineProduct.from_factors(1.0, 0.0, THREE_FACTORS))
    rect = _band_rect(p, 25.3)
    search = _Search(p, rect, 1e-12)
    g = search.grid_x
    calls = _counted_calls(monkeypatch)
    sides = [(complex(g[3], rect.y_min), complex(g[40], rect.y_min)),
             (complex(g[64], rect.y_max), complex(g[128], rect.y_max)),
             (complex(g[0], rect.y_min), complex(g[128], rect.y_min))]
    for (value, err), (a, b) in zip(search._edges(sides), sides):
        direct, _ = integrate_segment(p.log_ratio, a, b, EDGE_TOL)
        assert abs(value - direct) <= EDGE_TOL
        assert err <= EDGE_TOL
    assert calls == [2 * 128]  # the pieces, integrated once for all sides


def test_side_off_the_grid_is_integrated_directly(monkeypatch):
    p = expand_sine_product(SineProduct.from_factors(1.0, 0.0, THREE_FACTORS))
    rect = _band_rect(p, 25.3)
    search = _Search(p, rect, 1e-12)
    g = search.grid_x
    calls = _counted_calls(monkeypatch)
    cut = g[40] + 0.46 * (g[48] - g[40])
    side = (complex(g[3], rect.y_min), complex(cut, rect.y_min))
    [(value, err)] = search._edges([side])
    assert calls == [1]
    assert (value, err) == (integrate_segment(p.log_ratio, *side, EDGE_TOL))


@pytest.mark.parametrize("half", [25.3, 50.3])
@pytest.mark.parametrize("case", ["sin", "sin2", "4+2cos", "3-factor"])
def test_count_on_the_reference_windows(case, half):
    # the closed-form counts, which the search counted before it had a grid
    factors = {"sin": [(PI, 0.0, 1)], "sin2": [(PI, 0.0, 2)],
               "3-factor": THREE_FACTORS}.get(case)
    if factors is None:
        p = ExpPolynomial.from_terms([(-1.0, 1.0), (0.0, 4.0), (1.0, 1.0)])
        expected = 2 * sum(abs(k + 0.5) < half for k in range(-100, 100))
    else:
        p = expand_sine_product(SineProduct.from_factors(1.0, 0.0, factors))
        expected = sum(m * sum(abs(k * PI - beta) < half * alpha
                               for k in range(-300, 301))
                       for alpha, beta, m in factors)
    assert count_zeros(p, _band_rect(p, half)) == expected


def test_side_error_alone_fails_the_count(monkeypatch, sin_poly):
    # a winding within WINDING_ACCEPT of an integer is not accepted while
    # one side's own error estimate exceeds the margin, and the count
    # raises at once, integrating nothing again
    rect = Rect(-5.3, 5.7, -1, 1)
    search = _Search(sin_poly, rect, 1e-12)
    assert search.count(rect) == 11
    right = search._sides(rect)[1]
    value, _ = search.edge_cache[right]
    search.edge_cache[right] = (value, 2.0 * PI * WINDING_ACCEPT)
    calls = _counted_calls(monkeypatch)
    with pytest.raises(QuadratureFailureError):
        search.count(rect)
    assert calls == []


class TestInvariants:
    def test_mass_equals_count(self, two_lattice_product):
        p = expand_sine_product(two_lattice_product)
        rect = Rect(-7.3, 7.3, -0.6, 0.6)
        assert find_zeros(p, rect).total_mass() == count_zeros(p, rect)

    def test_window_density_bound(self, two_lattice_product):
        # unit windows hold at most ceil(total lattice density) + 1 zeros
        p = expand_sine_product(two_lattice_product)
        strip = zero_strip_estimate(p)
        rng = np.random.default_rng(404)
        counts = []
        for t in rng.uniform(-30, 30, 100):
            m = find_zeros(p, Rect(t, t + 1.0, strip.alpha - 0.2, strip.beta + 0.2))
            counts.append(m.total_mass())
        density = (1 + math.sqrt(2))  # alpha1/pi + alpha2/pi zeros per unit
        assert max(counts) <= math.ceil(density) + 1

    def test_conjugate_symmetric_zero_set(self, fourcos_poly):
        m = find_zeros(fourcos_poly, Rect(-3.2, 3.2, -0.5, 0.5))
        locs = sorted(m.locations, key=lambda z: (round(z.real, 6), z.imag))
        for loc in locs:
            mirror = min(abs(loc.conjugate() - other) for other in locs)
            assert mirror <= 1e-9

    def test_zeros_inside_strip_estimate(self, fourcos_poly):
        strip = zero_strip_estimate(fourcos_poly)
        m = find_zeros(fourcos_poly, Rect(-4.6, 4.6, -1.0, 1.0))
        for loc, _ in m.atoms:
            assert strip.alpha - 1e-12 <= loc.imag <= strip.beta + 1e-12


class TestCsvExport:
    def test_format(self, fourcos_poly):
        m = find_zeros(fourcos_poly, Rect(0, 1, -0.5, 0.5))
        text = zeros_to_csv(m)
        lines = text.strip().split("\n")
        assert lines[0] == "x,y,multiplicity"
        assert len(lines) == 3
        x, y, mult = lines[1].split(",")
        assert abs(float(x) - 0.5) < 1e-10
        assert abs(abs(float(y)) - Y0) < 1e-10
        assert mult == "1"

    def test_seventeen_digits(self, sin_poly):
        m = find_zeros(sin_poly, Rect(2.9, 3.4, -1, 1))
        row = zeros_to_csv(m).strip().split("\n")[1]
        assert row.split(",")[0] == f"{m.atoms[0][0].real:.17g}"
