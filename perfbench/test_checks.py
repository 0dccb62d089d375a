"""Self-test of the benchmark's checks and tracer (about a second).

Each check must accept the program's answer on a small input and reject a
slightly corrupted copy, so that no check passes vacuously.  Run with
``PYTHONPATH=src python -m pytest -q perfbench`` or
``python3 perfbench/test_checks.py``.
"""

import dataclasses
import math
import sys
from pathlib import Path

if __name__ == "__main__":
    sys.path[:0] = [str(Path(__file__).resolve().parents[1] / "src"),
                    str(Path(__file__).resolve().parent)]

import pytest

import sinecomb as sc

import checks
import inputs
import run
import spans
import workloads

SIN = inputs.reference_cases()[0]
RECT = sc.Rect(-3.3, 3.3, -0.5, 0.5)


def rejects(check, *args):
    with pytest.raises(checks.CheckError):
        check(*args)


def test_zero_moved_by_1e_6_is_rejected():
    measure, diagnostics = sc.find_zeros_report(SIN.poly, RECT)
    checks.check_zeros(SIN, measure, diagnostics)
    atoms = list(measure.atoms)
    atoms[3] = (atoms[3][0] + 1e-6, atoms[3][1])
    rejects(checks.check_zeros, SIN, sc.AtomicMeasure(tuple(atoms)), diagnostics)


def test_factor_with_beta_off_by_1e_3_is_rejected():
    s = sc.SineProduct.from_factors(1.5j, 0.7, [(1.3, 0.4, 1), (2.2, 1.9, 2)])
    case = inputs.sine_case("two", s)
    half = inputs.corpus_window(s)
    out = sc.factor(case.poly, sc.FactorConfig(window=(-half, half)))
    checks.check_factor(case, out, half)
    got = out.result.product
    alpha, beta, mult = got.factors[0]
    bad = dataclasses.replace(got, factors=((alpha, beta + 1e-3, mult),)
                              + got.factors[1:])
    bad_out = dataclasses.replace(
        out, result=dataclasses.replace(out.result, product=bad))
    rejects(checks.check_factor, case, bad_out, half)


def test_coefficient_off_by_1e_6_relative_is_rejected():
    s = sc.SineProduct.from_factors(1.5j, 0.7, [(1.3, 0.4, 1), (2.2, 1.9, 2)])
    case = inputs.sine_case("two", s)
    for half in (sc.UPPER, sc.LOWER):
        coeffs = sc.logderiv_coeffs_symbolic(case.poly, half, 4.0)
        checks.check_cot_series(case, coeffs)
        bad = list(coeffs.coeffs)
        g, h = bad[2]
        bad[2] = (g, h * (1 + 1e-6))
        rejects(checks.check_cot_series, case,
                dataclasses.replace(coeffs, coeffs=tuple(bad)))


def test_sine_product_not_classified_linear_is_rejected():
    upper = sc.logderiv_coeffs_symbolic(SIN.poly, sc.UPPER, 16.0)
    lower = sc.logderiv_coeffs_symbolic(SIN.poly, sc.LOWER, 16.0)
    report = sc.growth_profile(upper, lower, (2.0, 4.0, 8.0, 16.0))
    checks.check_criterion(SIN, upper, lower, report)
    for verdict in ("superlinear", "inconclusive"):
        rejects(checks.check_criterion, SIN, upper, lower,
                dataclasses.replace(report, classification=verdict))


def test_fourier_mass_off_by_1e_6_relative_is_rejected():
    cos = inputs.reference_cases()[2]
    for case in (SIN, cos):
        upper = sc.logderiv_coeffs_symbolic(case.poly, sc.UPPER, 3.0)
        lower = sc.logderiv_coeffs_symbolic(case.poly, sc.LOWER, 3.0)
        measure = sc.fourier_measure(upper, lower)
        checks.check_fourier(case, measure, 3.0)
        atoms = list(measure.atoms)
        atoms[-1] = (atoms[-1][0], atoms[-1][1] * (1 + 1e-6))
        rejects(checks.check_fourier, case, sc.AtomicMeasure(tuple(atoms)), 3.0)


def test_poisson_side_scaled_is_rejected():
    mu = sc.AtomicMeasure.from_atoms(inputs.zero_atoms(SIN, -8.0, 8.0))
    upper = sc.logderiv_coeffs_symbolic(SIN.poly, sc.UPPER, 6.0)
    lower = sc.logderiv_coeffs_symbolic(SIN.poly, sc.LOWER, 6.0)
    mu_hat = sc.fourier_measure(upper, lower)
    tf = sc.gaussian(1.0)
    checks.check_poisson(SIN, sc.poisson_report(mu, mu_hat, tf))
    scaled = sc.AtomicMeasure(tuple((z, m * (1 + 1e-6)) for z, m in mu_hat.atoms))
    rejects(checks.check_poisson, SIN, sc.poisson_report(mu, scaled, tf))


def test_bohr_and_contour_outside_tolerance_are_rejected():
    upper = sc.logderiv_coeffs_symbolic(SIN.poly, sc.UPPER, 2.0)
    value, error = sc.logderiv_coeff_numeric_with_error(SIN.poly, sc.UPPER, 1.0,
                                                        0.5, 10.0)
    checks.check_bohr(SIN, value, error, upper.get(1.0))
    rejects(checks.check_bohr, SIN, value + 3 * error, error, upper.get(1.0))
    rep = sc.contour_residue_report(SIN.poly, sc.gaussian(1.0),
                                    sc.Rect(-0.4, 0.4, -0.5, 0.5))
    checks.check_contour(SIN, rep)
    rejects(checks.check_contour, SIN, dataclasses.replace(rep, residual=1e-6))


def test_non_product_classified_linear_is_rejected():
    cos = inputs.reference_cases()[2]
    upper = sc.logderiv_coeffs_symbolic(cos.poly, sc.UPPER, 16.0)
    lower = sc.logderiv_coeffs_symbolic(cos.poly, sc.LOWER, 16.0)
    report = sc.growth_profile(upper, lower, (2.0, 4.0, 8.0, 16.0))
    checks.check_criterion(cos, upper, lower, report)
    rejects(checks.check_criterion, cos, upper, lower,
            dataclasses.replace(report, classification="linear"))
    assert not checks.spectrally_symmetric(
        sc.ExpPolynomial.from_terms([(-1.0, 1.0), (0.3, 2.0), (1.0, 1.0)]))


def test_unexpected_exception_makes_the_run_incorrect():
    def raises(exc):
        def run_op():
            raise exc
        return run_op

    def accept(out):
        pass

    winding = sc.errors.StageError("zeros", RuntimeError("winding did not settle"))
    other = sc.errors.StageError("logderiv", RuntimeError("capacity"))
    work = workloads.Workload([
        workloads.Op("plain", SIN, raises(ValueError("boom")), accept),
        workloads.Op("fault", SIN, raises(winding), accept,
                     known_fault=workloads.winding_fault),
        workloads.Op("other_stage", SIN, raises(other), accept,
                     known_fault=workloads.winding_fault),
    ], min_rounds=1, warmup=lambda: None)
    m = run.measure(work, 0.0)
    assert m.failed == 3 and len(m.latencies) == 3
    assert [w.split(":")[0] for w in m.wrong] == ["plain", "other_stage"]


def test_traced_counts_repeat_and_spans_nest():
    tracer = spans.Tracer()
    tracer.install()
    try:
        for op in range(2):
            tracer.begin_op(op)
            sc.find_zeros_report(SIN.poly, RECT)
            tracer.end_op()
        sc.find_zeros_report(SIN.poly, RECT)  # no operation open: no spans
    finally:
        tracer.uninstall()
    assert sc.find_zeros_report.__module__ == "sinecomb.zeros"
    twice = spans.layer_metrics(tracer, 2, {}, ())
    assert twice["zeros.calls"][0] == 1.0
    assert twice["zeros.atoms"][0] == 7.0
    assert twice["quadrature.segments"][0] > 0
    a = tracer.arrays()
    first, second = (a["op"] == 0).sum(), (a["op"] == 1).sum()
    assert first == second and first + second == len(a["op"])


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
