"""The benchmark's workloads: seeded inputs turned into rounds of operations.

An operation is one call a user makes into the public ``sinecomb`` API.
Functions are looked up on the ``sinecomb`` package at call time, so the
tracer's wrappers see them.  ``run`` returns the answer; ``check`` raises
CheckError when the answer is wrong, and runs outside the timed region.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import sinecomb as sc

import checks
import inputs
from inputs import Case


@dataclass
class Op:
    name: str
    case: Case
    run: Callable[[], Any]
    check: Callable[[Any], None]
    #: window half-width of a zero search, for the per-window cost per atom
    window: float | None = None
    #: true for the exception this operation raises because of a known
    #: fault; any other exception makes the run incorrect
    known_fault: Callable[[Exception], bool] | None = None


@dataclass
class Workload:
    ops: list[Op]
    #: a run holds at least this many rounds, so the tail has enough samples
    min_rounds: int
    #: untimed call that loads what the first operation would load
    warmup: Callable[[], None]


# -- roundtrip ----------------------------------------------------------------

def _factor_op(case: Case) -> Op:
    half = inputs.corpus_window(case.product)
    config = sc.FactorConfig(window=(-half, half))
    return Op("factor", case, lambda: sc.factor(case.poly, config),
              lambda out: checks.check_factor(case, out, half))


#: seeded products per round, split over structures as the corpus draws them
ROUNDTRIP_PRODUCTS = 150


def winding_fault(exc: Exception) -> bool:
    """The zeros stage's "winding did not settle" fault on FAULT_PRODUCT."""
    return isinstance(exc, sc.errors.StageError) and exc.stage == "zeros"


def roundtrip(seed: int) -> Workload:
    rng = np.random.default_rng(seed)
    ops = [_factor_op(inputs.sine_case(f"p{i}", s)) for i, s in
           enumerate(inputs.stratified_products(
               rng, inputs.corpus_mix(ROUNDTRIP_PRODUCTS)))]
    fault = _factor_op(inputs.sine_case("fault", inputs.FAULT_PRODUCT))
    fault.known_fault = winding_fault
    ops.insert(len(ops) // 2, fault)
    ops.insert(len(ops) // 4, _factor_op(
        inputs.sine_case("spike", inputs.SPIKE_PRODUCT)))

    def warmup():
        sc.factor(inputs.reference_cases()[0].poly,
                  sc.FactorConfig(window=(-7.0, 7.0)))

    return Workload(ops, min_rounds=1, warmup=warmup)


# -- comb ---------------------------------------------------------------------

COMB_WINDOWS = (25.3, 50.3)
#: seeded products per structure, searched on the smaller window; none
#: with a double factor: the program locates some seeded double zeros only
#: to ~3e-8, above the check's 1e-9 (README), so they would fail on some
#: seeds only.  The fixed sin^2 and 3-factor inputs keep double zeros here.
COMB_MIX = {(1, 0): 6, (2, 0): 6}
#: seeded cosine-type inputs, searched on the smaller window
COMB_COSINES = 10


def _zeros_op(case: Case, half: float) -> Op:
    strip = sc.zero_strip_estimate(case.poly)
    rect = sc.Rect(-half, half, strip.alpha - strip.eta, strip.beta + strip.eta)

    def check(out):
        measure, diagnostics = out
        checks.check_zeros(case, measure, diagnostics)

    return Op("find_zeros", case, lambda: sc.find_zeros_report(case.poly, rect),
              check, window=half)


def comb(seed: int) -> Workload:
    rng = np.random.default_rng(seed)
    refs = inputs.reference_cases()
    ops = [_zeros_op(c, w) for w in COMB_WINDOWS for c in refs]
    half = COMB_WINDOWS[0]
    seeded = inputs.stratified_cosines(rng, COMB_COSINES)
    seeded += [inputs.sine_case(f"p{i}", s) for i, s in enumerate(
        inputs.stratified_products(rng, COMB_MIX, half=half))]
    ops += [_zeros_op(c, half) for c in seeded]

    def warmup():
        sc.find_zeros_report(refs[0].poly, sc.Rect(-2.3, 2.3, -0.5, 0.5))

    return Workload(ops, min_rounds=2, warmup=warmup)


# -- spectral -----------------------------------------------------------------

#: gamma_max and radii of the criterion request (the CLI defaults)
CRITERION_GAMMA = 16.0
CRITERION_RADII = (2.0, 4.0, 8.0, 16.0)
#: gamma_max of the Fourier request: the gaussian test function is below
#: 1e-49 beyond it
FOURIER_GAMMA = 6.0
#: Bohr half-length; a whole number of periods of every periodic input
BOHR_T = 20.0
#: seeded products per structure
SPECTRAL_MIX = {(1, 0): 3, (1, 1): 2, (2, 0): 3, (2, 1): 2, (3, 0): 2}
SPECTRAL_COSINES = 6
SPECTRAL_GENERIC = 8
#: cosine-type frequencies: a grid, so that BOHR_T spans whole periods
COSINE_NU = (0.5, 0.625, 0.75, 0.875, 1.0, 1.125, 1.25, 1.375, 1.5)


def _criterion(poly):
    upper = sc.logderiv_coeffs_symbolic(poly, sc.UPPER, CRITERION_GAMMA)
    lower = sc.logderiv_coeffs_symbolic(poly, sc.LOWER, CRITERION_GAMMA)
    return upper, lower, sc.growth_profile(upper, lower, CRITERION_RADII)


def _fourier(poly):
    upper = sc.logderiv_coeffs_symbolic(poly, sc.UPPER, FOURIER_GAMMA)
    lower = sc.logderiv_coeffs_symbolic(poly, sc.LOWER, FOURIER_GAMMA)
    return upper, sc.fourier_measure(upper, lower)


def _spectral_ops(case: Case, periodic: bool, contour: bool) -> list[Op]:
    poly = case.poly
    ops = [Op("criterion", case, lambda: _criterion(poly),
              lambda out: checks.check_criterion(case, *out))]
    if case.kind == "generic":
        # no closed form to check the rest against; and the program drops
        # h(0) of some generic inputs as dust even at gamma_max 6
        return ops
    # the Fourier request's coefficients feed the Bohr and Poisson checks;
    # they are computed once here, untimed, as the reference
    upper_ref, measure_ref = _fourier(poly)
    ops.append(Op("fourier", case, lambda: _fourier(poly),
                  lambda out: checks.check_fourier(case, out[1], FOURIER_GAMMA)))
    strip = sc.zero_strip_estimate(poly)
    if periodic:
        gamma = next(g for g, _ in upper_ref.coeffs if g > 0)
        y = strip.beta + 0.3
        ops.append(Op(
            "bohr", case,
            lambda: sc.logderiv_coeff_numeric_with_error(poly, sc.UPPER, gamma,
                                                         y, BOHR_T),
            lambda out: checks.check_bohr(case, out[0], out[1],
                                          upper_ref.get(gamma))))
    mu = sc.AtomicMeasure.from_atoms(inputs.zero_atoms(case, -8.0, 8.0))
    tf = sc.gaussian(1.0)
    ops.append(Op("poisson", case, lambda: sc.poisson_report(mu, measure_ref, tf),
                  lambda rep: checks.check_poisson(case, rep)))
    if not contour:
        return ops
    x_lo, x_hi = inputs.gap_rect_bounds(case)
    rect = sc.Rect(x_lo, x_hi, strip.alpha - strip.eta, strip.beta + strip.eta)
    for name, fn in (("contour_gaussian", sc.gaussian(1.0)),
                     ("contour_bump", sc.bump(1.0))):
        ops.append(Op(name, case,
                      lambda fn=fn: sc.contour_residue_report(poly, fn, rect),
                      lambda rep: checks.check_contour(case, rep)))
    return ops


def spectral(seed: int) -> Workload:
    rng = np.random.default_rng(seed)
    refs = inputs.reference_cases()
    # (case, periodic, contour checks): the program locates some seeded
    # double zeros only to ~1e-9, which puts the contour residual above
    # 1e-8 on some seeds, so seeded products with a double factor get none
    cases = [(c, c.label != "3-factor", True) for c in refs]
    cases += [(inputs.sine_case(f"p{i}", s), False, s.degree == len(s.factors))
              for i, s in enumerate(inputs.stratified_products(rng, SPECTRAL_MIX))]
    cases += [(c, True, True) for c in
              inputs.stratified_cosines(rng, SPECTRAL_COSINES, COSINE_NU)]
    cases += [(inputs.draw_generic(rng, f"g{i}"), False, False)
              for i in range(SPECTRAL_GENERIC)]
    ops = [op for case, periodic, contour in cases
           for op in _spectral_ops(case, periodic, contour)]

    def warmup():
        sin = refs[0]
        upper, lower, _ = _criterion(sin.poly)
        sc.fourier_measure(upper, lower)
        sc.contour_residue_report(sin.poly, sc.gaussian(1.0),
                                  sc.Rect(-0.4, 0.4, -0.5, 0.5))

    return Workload(ops, min_rounds=2, warmup=warmup)


WORKLOADS = {"roundtrip": roundtrip, "comb": comb, "spectral": spectral}
