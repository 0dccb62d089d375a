"""Generic inputs whose terms leave the double range inside the zero strip.

The 12-term input below has strip [-42.4, 0.40]; the largest term is about
e^720 at its bottom and e^830 at the bottom of the search rectangle.  Every
decision of the zeros stage uses p'/p or |p| relative to the largest term,
so none of them may overflow.
"""

import json
import math
import warnings

import mpmath
import numpy as np

from sinecomb import ExpPolynomial, Rect, find_zeros_report, zero_strip_estimate
from sinecomb.cli import main
from sinecomb.jsonio import dumps, polynomial_to_dict


def twelve_terms() -> ExpPolynomial:
    rng = np.random.default_rng(1)
    w = rng.uniform(-3, 3, 12)
    z = rng.normal(size=(12, 2))
    q = (z[:, 0] + 1j * z[:, 1]) / math.sqrt(2)
    return ExpPolynomial.from_terms(zip(w.tolist(), q.tolist()))


def mp_sums(p: ExpPolynomial, z):
    """(p(z), p'(z)) in mpmath at the current precision."""
    s = ds = mpmath.mpc(0)
    for w, q in p.terms:
        term = mpmath.mpc(q) * mpmath.exp(2j * mpmath.pi * mpmath.mpf(w) * z)
        s += term
        ds += 2j * mpmath.pi * mpmath.mpf(w) * term
    return s, ds


def test_zeros_in_strip_rectangle():
    p = twelve_terms()
    strip = zero_strip_estimate(p)
    rect = Rect(-1.3, 1.1, strip.alpha - strip.eta, strip.beta + strip.eta)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        measure, diag = find_zeros_report(p, rect)
    assert len(measure) == 14 == diag["count"]
    assert diag["coarse"] == []
    with mpmath.workdps(30):
        for loc, mass in measure.atoms:
            assert mass == 1
            root = mpmath.findroot(lambda z: mp_sums(p, z)[0], mpmath.mpc(loc))
            assert abs(complex(root) - loc) <= 1e-9


def test_poisson_reports_capacity_error(tmp_path, capsys):
    src = tmp_path / "p.json"
    src.write_text(dumps(polynomial_to_dict(twelve_terms())))
    assert main(["poisson", "--input", str(src)]) == 6
    err = capsys.readouterr().err
    assert err.startswith("numerical stage error: gap-semigroup support")
    assert "Traceback" not in err


def test_log_ratio_deep_below_the_strip():
    p = twelve_terms()
    pts = [complex(x, -40.0) for x in (-1.2, -0.3, 0.0, 0.45, 1.0)]
    got = p.log_ratio(np.array(pts))
    with mpmath.workdps(30):
        for z, lr in zip(pts, got):
            s, ds = mp_sums(p, mpmath.mpc(z))
            true = complex(ds / s)
            assert abs(lr - true) <= 1e-10 * abs(true)
            assert abs(p.log_ratio(z) - true) <= 1e-10 * abs(true)


def test_zero_where_the_terms_leave_double_range(tmp_path, capsys):
    # both terms are about e^990 at the zero 1/2 - i*ln(1e13)/(2*pi)
    p = ExpPolynomial.from_terms([(10.0, 1e300), (11.0, 1e287)])
    measure, diag = find_zeros_report(p, Rect(-0.3, 1.2, -5.5, -4.5))
    exact = complex(0.5, -math.log(1e13) / (2 * math.pi))
    assert [m for _, m in measure.atoms] == [1]
    assert abs(measure.locations[0] - exact) <= 1e-9
    assert diag["residual_bound"] == math.inf

    src = tmp_path / "p.json"
    src.write_text(dumps(polynomial_to_dict(p)))
    assert main(["zeros", "--input", str(src), "--rect=-0.3,1.2,-5.5,-4.5"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["count"] == 1 and report["residual_bound"] is None
