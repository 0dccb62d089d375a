"""Output checks of the benchmark.

Each check compares a program answer with a computation made apart from
the program (the closed forms in ``inputs``) or with a property the method
must have, and raises CheckError naming the first mismatch.  The checks run
outside the timed region.
"""

from __future__ import annotations

import math

import numpy as np

import inputs

PI = math.pi


class CheckError(AssertionError):
    """A program answer disagrees with its reference."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


# -- roundtrip --------------------------------------------------------------

PRODUCT_TOL = 1e-6


def check_factor(case: inputs.Case, outcome, window: float) -> None:
    """Verdict sine_product; (C, a, alpha, beta, mult) within 1e-6 of the
    generating product; the recovered product evaluates like the input."""
    _require(outcome.verdict == "sine_product",
             f"{case.label}: verdict {outcome.verdict} at stage {outcome.stage}")
    got, want = outcome.result.product, case.product
    _require(len(got.factors) == len(want.factors),
             f"{case.label}: {len(got.factors)} factors, want {len(want.factors)}")
    flip = 1.0
    for (a1, b1, m1), (a2, b2, m2) in zip(got.factors, want.factors):
        _require(m1 == m2, f"{case.label}: multiplicity {m1}, want {m2}")
        _require(abs(a1 - a2) <= PRODUCT_TOL * (1 + abs(a2)),
                 f"{case.label}: alpha {a1!r}, want {a2!r}")
        delta = abs(b1 - b2)
        if delta > PI / 2:  # wrapped across the beta seam; sign moved into C
            delta = PI - delta
            flip *= (-1.0) ** m1
        _require(delta <= PRODUCT_TOL * (1 + abs(b2)),
                 f"{case.label}: beta {b1!r}, want {b2!r}")
    _require(abs(got.a - want.a) <= PRODUCT_TOL * (1 + abs(want.a)),
             f"{case.label}: a {got.a!r}, want {want.a!r}")
    _require(abs(got.C * flip - want.C) <= PRODUCT_TOL * abs(want.C),
             f"{case.label}: C {got.C!r}, want {want.C!r}")
    z = np.linspace(-window, window, 17) + 0.37j
    mine = got.evaluate(z)
    ref = case.poly.evaluate(z)
    scale = float(np.abs(ref).max())
    worst = float(np.abs(mine - ref).max())
    _require(worst <= PRODUCT_TOL * scale,
             f"{case.label}: product values off by {worst:.3g} (scale {scale:.3g})")


# -- comb -------------------------------------------------------------------

ZERO_TOL = 1e-9


def check_zeros(case: inputs.Case, measure, diagnostics) -> None:
    """Atom count with multiplicity, multiplicities and locations (1e-9)
    equal the closed-form zeros inside the rectangle actually searched."""
    rect = diagnostics["rect_used"]
    want = [(z, m) for z, m in inputs.zero_atoms(case, rect.x_min, rect.x_max)
            if rect.y_min < z.imag < rect.y_max]
    got = list(measure.atoms)
    mass = sum(int(round(abs(m))) for _, m in got)
    want_mass = sum(m for _, m in want)
    _require(mass == want_mass, f"{case.label}: zero mass {mass}, want {want_mass}")
    _require(len(got) == len(want),
             f"{case.label}: {len(got)} atoms, want {len(want)}")
    if not want:
        return
    # pair every closed-form zero with the nearest located one; conjugate
    # pairs share a real part, so the two sort orders need not agree
    z_got = np.array([z for z, _ in got])
    z_want = np.array([z for z, _ in want])
    nearest = np.abs(z_got[:, None] - z_want[None, :]).argmin(axis=0)
    _require(len(set(nearest.tolist())) == len(want),
             f"{case.label}: two closed-form zeros share one located zero")
    for (zw, mw), i in zip(want, nearest):
        z, m = got[i]
        _require(abs(z - zw) <= ZERO_TOL,
                 f"{case.label}: zero {zw!r} is {abs(z - zw):.3g} from the "
                 f"nearest located one")
        _require(int(round(abs(m))) == mw,
                 f"{case.label}: multiplicity {m} at {z}, want {mw}")


# -- spectral ---------------------------------------------------------------

COEFF_TOL = 1e-9
FREQ_TOL = 1e-7
POISSON_REL = 1e-8
CONTOUR_TOL = 1e-8


def _same_spectrum(label: str, what: str, got, want) -> None:
    """Both sorted (frequency, value) lists hold the same frequencies (1e-7)
    and values (1e-9 relative to max(1, |value|))."""
    got = sorted(got, key=lambda t: t[0])
    want = [(g, v) for g, v in want if abs(v) > 1e-12]
    _require(len(got) == len(want),
             f"{label}: {len(got)} {what}, want {len(want)}")
    for (g, v), (gw, vw) in zip(got, want):
        _require(abs(g - gw) <= FREQ_TOL,
                 f"{label}: {what} at {g:.9g}, want {gw:.9g}")
        _require(abs(v - vw) <= COEFF_TOL * max(1.0, abs(vw)),
                 f"{label}: {what} at {gw:.9g} is {v!r}, want {vw!r}")


def check_cot_series(case: inputs.Case, coeffs) -> None:
    """Symbolic coefficients of either half-plane equal the cotangent series
    (1e-9), with no coefficient missing or extra."""
    _same_spectrum(case.label, f"{coeffs.halfplane} coefficients", coeffs.coeffs,
                   inputs.cot_series(case.product, coeffs.gamma_max,
                                     upper=coeffs.halfplane == "upper"))


def spectrally_symmetric(poly) -> bool:
    """|q(c+w)| = |q(c-w)| about c = (w_min+w_max)/2, the symmetry every
    sine product has (its product without the prefactor is real on R)."""
    w = np.array([t[0] for t in poly.terms])
    q = np.abs(np.array([t[1] for t in poly.terms]))
    c = 0.5 * (w[0] + w[-1])
    mirror = 2.0 * c - w[::-1]
    return bool(np.allclose(w, mirror, rtol=0.0, atol=1e-9)
                and np.allclose(q, q[::-1], rtol=1e-9, atol=0.0))


def check_criterion(case: inputs.Case, upper, lower, report) -> None:
    """Sine products: coefficients of both half-planes match the cotangent
    series, and the growth is classified linear.  Every other input is not
    classified linear; generic inputs also fail the spectral symmetry test,
    and cosine-type inputs have non-real zeros."""
    if case.kind == "sine":
        _require(spectrally_symmetric(case.poly),
                 f"{case.label}: sine product fails the symmetry test")
        check_cot_series(case, upper)
        check_cot_series(case, lower)
        _require(report.classification == "linear",
                 f"{case.label}: sine product classified {report.classification}")
        return
    _require(report.classification != "linear",
             f"{case.label}: {case.kind} input classified linear")
    if case.kind == "generic":
        _require(not spectrally_symmetric(case.poly),
                 f"{case.label}: generic input passes the symmetry test")
    else:
        zs = inputs.zero_atoms(case, -2.0, 2.0)
        _require(bool(zs) and all(abs(z.imag) > 1e-6 for z, _ in zs),
                 f"{case.label}: cosine-type input has real zeros")


def check_fourier(case: inputs.Case, measure, gamma_max: float) -> None:
    """Mass at 0 equals the zero density w_max - w_min, and every mass
    equals its closed form."""
    poly = case.poly
    density = poly.freq_max - poly.freq_min
    got = [(loc.real, m) for loc, m in measure.atoms]
    at_zero = sum((m for g, m in got if abs(g) <= FREQ_TOL), 0j)
    _require(abs(at_zero - density) <= COEFF_TOL * max(1.0, density),
             f"{case.label}: mass at 0 is {at_zero!r}, want {density!r}")
    _same_spectrum(case.label, "Fourier atoms", got,
                   inputs.fourier_masses(case, gamma_max))


def check_bohr(case: inputs.Case, value: complex, error: float,
               symbolic: complex) -> None:
    """The Bohr mean agrees with the symbolic coefficient within the mean's
    own error estimate."""
    _require(abs(value - symbolic) <= error,
             f"{case.label}: Bohr mean {value!r} is {abs(value - symbolic):.3g} "
             f"from {symbolic!r}, estimate {error:.3g}")


def check_poisson(case: inputs.Case, report) -> None:
    """Residual within the report's tail estimates plus 1e-8 relative."""
    allowed = report.lhs_tail + report.rhs_tail + POISSON_REL * (1 + abs(report.lhs))
    _require(report.residual <= allowed,
             f"{case.label}: Poisson residual {report.residual:.3g} > {allowed:.3g}")


def check_contour(case: inputs.Case, report) -> None:
    _require(report.residual <= CONTOUR_TOL,
             f"{case.label}: contour residual {report.residual:.3g}")
