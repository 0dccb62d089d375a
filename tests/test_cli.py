"""CLI: exit codes, report formats, determinism."""

import contextlib
import io
import json
import math
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sinecomb import jsonio
from sinecomb.cli import main

from test_moments import corpus_rect, high_multiplicity_corpus, shifted_sine_power
from test_overflow import twelve_terms

PI = math.pi

SIN_POLY = ('{"terms": [{"omega": -0.5, "coeff": [0.0, 0.5]},'
            ' {"omega": 0.5, "coeff": [0.0, -0.5]}]}')
FOURCOS = ('{"terms": [{"omega": -1, "coeff": [1, 0]},'
           ' {"omega": 0, "coeff": [4, 0]}, {"omega": 1, "coeff": [1, 0]}]}')
NEAR_PAIR = ('{"terms": [{"omega": 0, "coeff": [1, 0]},'
             ' {"omega": 1.5e-9, "coeff": [0.5, 0]}, {"omega": 1, "coeff": [1, 0]}]}')
SINE_PRODUCT = ('{"C": [3.0, 0.0], "a": 2.0,'
                ' "factors": [{"alpha": 3.141592653589793, "beta": 0.0, "mult": 1}]}')


@pytest.fixture
def sin_file(tmp_path):
    f = tmp_path / "sin.json"
    f.write_text(SIN_POLY)
    return str(f)


@pytest.fixture
def fourcos_file(tmp_path):
    f = tmp_path / "fourcos.json"
    f.write_text(FOURCOS)
    return str(f)


class TestZerosCommand:
    def test_seven_rows(self, sin_file, tmp_path, capsys):
        out = tmp_path / "run"
        code = main(["zeros", "--input", sin_file,
                     "--rect=-3.4,3.4,-1,1", "--out", str(out)])
        assert code == 0
        rows = out.with_suffix(".csv").read_text().strip().split("\n")
        assert rows[0] == "x,y,multiplicity"
        assert len(rows) == 8
        for row in rows[1:]:
            _, y, mult = row.split(",")
            assert abs(float(y)) < 1e-9
            assert mult == "1"
        summary = json.loads(out.with_suffix(".json").read_text())
        assert summary["count"] == 7

    def test_empty_rect(self, sin_file, tmp_path):
        out = tmp_path / "empty"
        code = main(["zeros", "--input", sin_file,
                     "--rect", "0.2,0.8,-1,1", "--out", str(out)])
        assert code == 0
        rows = out.with_suffix(".csv").read_text().strip().split("\n")
        assert rows == ["x,y,multiplicity"]

    def test_malformed_input_exit_4(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("not json {")
        code = main(["zeros", "--input", str(bad), "--rect", "0,1,-1,1"])
        assert code == 4
        assert "input error" in capsys.readouterr().err
        # JSON's NaN literal parses, but no frequency may be NaN
        bad.write_text('{"terms": [{"omega": NaN, "coeff": [1, 0]}]}')
        assert main(["logderiv", "--input", str(bad)]) == 4
        # nor any coefficient NaN, infinite or an integer beyond the double
        # range; the error names the field
        capsys.readouterr()
        for text, field in [
                ('{"terms": [{"omega": 0, "coeff": [NaN, 0]},'
                 ' {"omega": 1, "coeff": [1, 0]}]}', "'coeff'"),
                ('{"C": [Infinity, 0], "factors":'
                 ' [{"alpha": 3.14, "beta": 0, "mult": 1}]}', "'C'"),
                ('{"terms": [{"omega": 0, "coeff": [1%s, 0]}]}' % ("0" * 400),
                 "'coeff'")]:
            bad.write_text(text)
            assert main(["criterion", "--input", str(bad)]) == 4
            assert f"{field} must be" in capsys.readouterr().err

    def test_missing_input_exit_4(self, tmp_path):
        code = main(["zeros", "--input", str(tmp_path / "nope.json"),
                     "--rect", "0,1,-1,1"])
        assert code == 4

    def test_numerical_failure_exit_6(self, tmp_path):
        f = tmp_path / "p.json"
        f.write_text('{"terms": [{"omega": 0, "coeff": [1, 0]},'
                     ' {"omega": 1, "coeff": [1, 0]}]}')
        # a sliver hugging the zero at 0.5: jitter cannot escape it
        code = main(["zeros", "--input", str(f),
                     "--rect", "0.49999999999,0.50000000001,-1e-11,1e-11"])
        assert code == 6

    @pytest.mark.parametrize("s, mults, coarse", [
        (shifted_sine_power(8), [8] * 9, 0),
        (high_multiplicity_corpus(24, 6)[18], None, 1)], ids=["sin^8", "seed6-p18"])
    def test_multiple_zeros_exit_0(self, s, mults, coarse, tmp_path, capsys):
        # no split line may run through the rounding noise of a multiple
        # zero; the 5-fold and double zeros of p18, 1.3e-3 apart, end as one
        # coarse atom
        f = tmp_path / "p.json"
        f.write_text(jsonio.dumps(jsonio.sine_product_to_dict(s)))
        r = corpus_rect(s)
        code = main(["zeros", "--input", str(f),
                     f"--rect={r.x_min!r},{r.x_max!r},{r.y_min!r},{r.y_max!r}"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["coarse_atoms"] == coarse
        if mults is not None:
            assert [a["multiplicity"] for a in report["atoms"]] == mults


class TestFactorCommand:
    def test_sine_product_exit_0(self, tmp_path, capsys):
        f = tmp_path / "prod.json"
        f.write_text(SINE_PRODUCT)
        code = main(["factor", "--input", str(f)])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"] == "sine_product"
        assert abs(report["C"][0] - 3.0) < 1e-6
        assert abs(report["a"] - 2.0) < 1e-6
        assert len(report["factors"]) == 1
        assert report["reconstruction_error"] <= 1e-6

    def test_fourcos_exit_1(self, fourcos_file, capsys):
        code = main(["factor", "--input", fourcos_file])
        assert code == 1
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"] == "not_sine_product"
        assert report["reason"] == "criterion (r2) fails"
        assert report["stage"] == "criterion"

    def test_lee_yang_exit_1_at_fourier(self, tmp_path, capsys):
        # real zeros, linear up to the default gamma_max, no sine product
        r2 = math.sqrt(2.0)
        f = tmp_path / "lee_yang.json"
        f.write_text(json.dumps({"terms": [
            {"omega": w, "coeff": [q, 0.0]}
            for w, q in ((0.0, 1.0), (1.0, 0.1), (r2, 0.1), (1.0 + r2, 1.0))]}))
        assert main(["factor", "--input", str(f)]) == 1
        report = json.loads(capsys.readouterr().out)
        assert (report["verdict"], report["stage"]) == ("not_sine_product",
                                                        "fourier")
        assert set(report) == {"verdict", "reason", "stage",
                               "reconstruction_error"}

    def test_three_radii_config_accepted(self, sin_file, tmp_path, capsys):
        # any nonempty increasing radii will do; none is a configuration error
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"radii": [2, 4, 8]}')
        assert main(["factor", "--input", sin_file, "--config", str(cfg)]) == 0
        assert json.loads(capsys.readouterr().out)["verdict"] == "sine_product"
        cfg.write_text('{"radii": []}')
        assert main(["factor", "--input", sin_file, "--config", str(cfg)]) == 5
        assert "configuration error" in capsys.readouterr().err


class TestPoissonCommand:
    def test_gaussian_battery(self, sin_file, capsys):
        code = main(["poisson", "--input", sin_file, "--gamma-max", "20"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert len(report["residuals"]) == 3
        for row in report["residuals"]:
            assert row["residual"] <= 1e-9

    def test_empty_battery(self, sin_file, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"battery": []}')
        code = main(["poisson", "--input", sin_file, "--config", str(cfg)])
        assert code == 0
        assert json.loads(capsys.readouterr().out) == {"residuals": []}

    def test_zero_radius_bump_exit_5(self, sin_file, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"battery": [{"kind": "bump", "radius": 0}]}')
        assert main(["poisson", "--input", sin_file,
                     "--config", str(cfg)]) == 5


class TestOtherCommands:
    def test_criterion(self, fourcos_file, capsys):
        assert main(["criterion", "--input", fourcos_file]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["classification"] == "superlinear"
        assert report["K"] is None

    def test_criterion_below_gamma_max_8(self, tmp_path, capsys):
        # default radii gamma_max/8 .. gamma_max, all below 1 but the last:
        # the 12-term input breaks the bounds below gamma_max 2 already, and
        # the report ends where the sweep stopped
        f = tmp_path / "twelve.json"
        f.write_text(json.dumps({"terms": [
            {"omega": w, "coeff": [q.real, q.imag]} for w, q in twelve_terms().terms]}))
        assert main(["criterion", "--input", str(f), "--gamma-max", "2"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["radii"][:3] == [0.25, 0.5, 1] and 1 < report["radii"][3] < 2
        assert report["classification"] == "superlinear"

    def test_criterion_on_twelve_terms_at_default_gamma_max(self, tmp_path,
                                                            capsys):
        # its support passes the cap below gamma_max 16, its first breach
        # lies below 2
        f = tmp_path / "twelve.json"
        f.write_text(json.dumps({"terms": [
            {"omega": w, "coeff": [q.real, q.imag]} for w, q in twelve_terms().terms]}))
        assert main(["criterion", "--input", str(f)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["classification"] == "superlinear" and report["K"] is None
        assert len(report["radii"]) == 1 and report["radii"][0] < 2

    def test_logderiv(self, sin_file, capsys):
        assert main(["logderiv", "--input", sin_file,
                     "--gamma-max", "3"]) == 0
        report = json.loads(capsys.readouterr().out)
        gammas = [c["gamma"] for c in report["upper"]["coeffs"]]
        assert gammas == [0.0, 1.0, 2.0, 3.0]
        assert abs(report["upper"]["coeffs"][1]["h"][1] + 2 * PI) < 1e-9

    def test_logderiv_single_term(self, tmp_path, capsys):
        # p'/p is constant, valid at every height: JSON has no -inf
        f = tmp_path / "one.json"
        f.write_text('{"terms": [{"omega": 2, "coeff": [1, 0]}]}')
        assert main(["logderiv", "--input", str(f)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["upper"]["validity_height"] is None

    def test_fourier(self, sin_file, capsys):
        assert main(["fourier", "--input", sin_file, "--gamma-max", "5"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert len(report["atoms"]) == 11
        for atom in report["atoms"]:
            assert abs(atom["mass"][0] - 1.0) < 1e-9

    def test_print_config(self, capsys):
        assert main(["--print-config"]) == 0
        cfg = json.loads(capsys.readouterr().out)
        assert "threads" not in cfg and "quadrature_tol" not in cfg
        assert "reality_tol" not in cfg
        assert len(cfg["battery"]) == 3

    def test_unknown_config_key_exit_5(self, sin_file, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"not_a_key": 1}')
        assert main(["criterion", "--input", sin_file,
                     "--config", str(cfg)]) == 5

    @pytest.mark.parametrize("config", [
        '{"radii": ["a", "b"]}', '{"gamma_max": "16"}', '{"window": [1, "x"]}',
        '{"radii": 4}', '{"battery": 3}', '{"window": 5}', '{"radii": [1, 2, null]}',
        '{"zero_tol": true}', '{"reconstruction_tol": 1e400}'])
    def test_malformed_config_exit_5(self, config, sin_file, tmp_path, capsys):
        # numbers must be finite and no bools, lists must be lists
        cfg = tmp_path / "cfg.json"
        cfg.write_text(config)
        assert main(["criterion", "--input", sin_file, "--config", str(cfg)]) == 5
        assert "configuration error" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["factor"], ["zeros", "--rect=-1,1,-1,1"]])
    def test_gamma_max_flag_only_where_read_exit_5(self, command, sin_file):
        # factor reads gamma_max from the config file, zeros not at all
        assert main(command + ["--input", sin_file, "--gamma-max", "4"]) == 5

    def test_bad_threads_exit_5(self, sin_file):
        assert main(["criterion", "--input", sin_file, "--threads", "0"]) == 5

    def test_missing_subcommand_exit_5(self):
        assert main([]) == 5


def _terms_file(tmp_path, terms):
    f = tmp_path / "p.json"
    f.write_text(json.dumps({"terms": [{"omega": w, "coeff": [q.real, q.imag]}
                                       for w, q in terms]}))
    return str(f)


class TestSineProductInput:
    @pytest.mark.parametrize("text", [
        '{"factors": 3}',
        '{"factors": [{"alpha": 3.14, "beta": 0.0, "mult": 2.7}]}',
        '{"factors": [{"alpha": 3.14, "beta": 0.0, "mult": true}]}'])
    def test_malformed_factors_exit_4(self, text, tmp_path, capsys):
        f = tmp_path / "s.json"
        f.write_text(text)
        assert main(["logderiv", "--input", str(f)]) == 4
        assert "input error" in capsys.readouterr().err

    @pytest.mark.parametrize("mult", [4096, 20000, "1e6"])
    def test_multiplicity_past_the_term_cap_exit_6(self, mult, tmp_path, capsys):
        # an m-fold zero needs m + 1 terms: refused before any is expanded
        f = tmp_path / "s.json"
        f.write_text('{"factors": [{"alpha": 3.14, "beta": 0.0, "mult": %s}]}' % mult)
        start = time.perf_counter()
        assert main(["logderiv", "--input", str(f)]) == 6
        assert time.perf_counter() - start < 1.0
        assert "multiplicity" in capsys.readouterr().err


class TestInputRange:
    @pytest.mark.parametrize("command", ["logderiv", "poisson"])
    def test_moduli_near_the_double_range_exit_4(self, command, tmp_path,
                                                 capsys):
        f = _terms_file(tmp_path, [(0.0, 1e308 * (1 + 1j)), (1.0, 1e308)])
        assert main([command, "--input", f]) == 4
        assert "modulus below 2^1000" in capsys.readouterr().err
        f = _terms_file(tmp_path, [(0.0, 3e300 * (1 + 1j) / 2 ** 0.5),
                                   (1.0, 3e300)])
        assert main([command, "--input", f]) == 0

    def test_derivative_leaving_the_double_range_exit_6(self, tmp_path, capsys):
        # the zero search's p^(n-1) overflows; it came back as the zero
        # function and crashed the coarse atom's Newton step
        f = _terms_file(tmp_path, [(-3.0, 1e-300 - 1.4801j),
                                   (0.63445, 1e300 + 1.29998j),
                                   (-1000.0, 1e300), (1e-9, 1e300 + 1.03918j)])
        assert main(["poisson", "--input", f]) == 6
        assert "double range" in capsys.readouterr().err

    def test_terms_spanning_many_decades_are_kept(self, tmp_path, capsys):
        # p = 1 + 1e15 e(z) has a simple zero at every x = k + 1/2 on
        # y = ln(1e15) / 2 pi; the 1 was dropped as dust, and factor called
        # the rest a sine product with no factors
        f = _terms_file(tmp_path, [(0.0, 1.0), (1.0, 1e15)])
        assert main(["factor", "--input", f]) == 1
        assert json.loads(capsys.readouterr().out)["verdict"] == "not_sine_product"
        assert main(["zeros", "--input", f, "--rect=-3,3,-1,8"]) == 0
        atoms = json.loads(capsys.readouterr().out)["atoms"]
        assert len(atoms) == 6
        for k, atom in zip(range(-3, 3), atoms):
            assert atom["multiplicity"] == 1
            assert abs(complex(atom["x"], atom["y"])
                       - complex(k + 0.5, math.log(1e15) / (2 * math.pi))) <= 1e-9
        # a ratio past 2^1000 is a typed error, not a single exponential,
        # and so is a quotient that 2 pi omega carries past the double range
        f = _terms_file(tmp_path, [(0.0, 1e-300), (1.0, 1e300)])
        assert main(["poisson", "--input", f]) == 6
        assert "ratio exceeds 2^1000" in capsys.readouterr().err
        f = _terms_file(tmp_path, [(0.0, 1.0), (1e9, 1e300)])
        assert main(["logderiv", "--input", f]) == 6
        assert "leaves the double range" in capsys.readouterr().err

    def test_unresolvable_count_exit_6(self, tmp_path, capsys):
        # 3e9 zeros on the default window: counted at once, never resolved
        f = _terms_file(tmp_path, [(0.0, 1.0), (1.0, -1.1118 + 0.8791j),
                                   (1e8, 1.3802j)])
        start = time.perf_counter()
        assert main(["poisson", "--input", f]) == 6
        assert time.perf_counter() - start < 5.0
        assert "3000000000 zeros" in capsys.readouterr().err


class TestDeterminism:
    def test_byte_identical_reports(self, fourcos_file, capsys):
        main(["fourier", "--input", fourcos_file, "--gamma-max", "6"])
        first = capsys.readouterr().out
        main(["fourier", "--input", fourcos_file, "--gamma-max", "6"])
        second = capsys.readouterr().out
        assert first == second and first

    def test_factor_deterministic(self, fourcos_file, capsys):
        main(["factor", "--input", fourcos_file])
        first = capsys.readouterr().out
        main(["factor", "--input", fourcos_file])
        assert first == capsys.readouterr().out


@pytest.mark.parametrize("command", ["logderiv", "criterion", "fourier", "factor",
                                     "poisson"])
def test_near_coincident_frequencies_exceed_the_support_cap(command, tmp_path,
                                                             capsys):
    # two distinct frequencies 1.5e-9 apart: the gap has 1e10 multiples
    # below gamma_max, far more than the coefficient support may hold; and
    # the zero strip is 1e8 high, more than a boundary scan may sample
    f = tmp_path / "near.json"
    f.write_text(NEAR_PAIR)
    start = time.perf_counter()
    assert main([command, "--input", str(f)]) == 6
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    cap = "boundary scan" if command == "poisson" else "support exceeded"
    assert cap in err and "Traceback" not in err


def spacing():
    near = st.floats(-9.0, -6.0).map(lambda e: 10.0 ** e)
    return st.one_of(near, st.floats(0.05, 2.0))


def _fuzz_input(tmp_path_factory, w0, gaps, coeffs):
    """The input file of 1-4 terms from w0 on, spaced by gaps."""
    omegas = [w0]
    for g in gaps:
        omegas.append(omegas[-1] + g)
    terms = [{"omega": w, "coeff": list(c)} for w, c in zip(omegas, coeffs)]
    f = tmp_path_factory.getbasetemp() / "fuzz.json"
    f.write_text(json.dumps({"terms": terms}))
    return f


def _run(argv):
    """(exit code, standard error) of one CLI run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


small_inputs = given(
    w0=st.floats(-3.0, 3.0), gaps=st.lists(spacing(), max_size=3),
    coeffs=st.lists(st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
                    min_size=4, max_size=4))


@settings(max_examples=20, deadline=None, derandomize=True)
@small_inputs
def test_cli_never_crashes_on_small_inputs(tmp_path_factory, w0, gaps, coeffs):
    # 1-4 terms, some spacings between 1e-9 and 1e-6: every run ends in an
    # answer or a typed error, never in a traceback or the negative verdict
    f = _fuzz_input(tmp_path_factory, w0, gaps, coeffs)
    for command in ("logderiv", "fourier", "criterion"):
        code, err = _run([command, "--input", str(f), "--gamma-max", "8"])
        assert code in (0, 4, 5, 6)
        assert "Traceback" not in err


@settings(max_examples=20, deadline=None, derandomize=True)
@small_inputs
def test_zero_searches_never_crash_on_small_inputs(tmp_path_factory, w0, gaps,
                                                   coeffs):
    # the commands that integrate p'/p: an answer, the negative verdict of
    # factor, or a typed error
    f = _fuzz_input(tmp_path_factory, w0, gaps, coeffs)
    for command in (["zeros", "--rect=-5,5,-3,3"], ["poisson"], ["factor"]):
        code, err = _run(command + ["--input", str(f)])
        assert code in (0, 1, 4, 5, 6)
        assert "Traceback" not in err


COMMANDS = (["zeros", "--rect=-3,3,-1,1"], ["logderiv"], ["fourier"],
            ["criterion"], ["poisson"], ["factor"])
modulus = st.one_of(st.just(1e-300), st.floats(0.1, 10.0), st.just(1e300))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(command=st.sampled_from(COMMANDS),
       terms=st.lists(st.tuples(st.floats(-3.0, 3.0), modulus,
                                st.floats(-PI, PI)), min_size=2, max_size=4))
def test_cli_contract(tmp_path_factory, command, terms):
    # moduli from 1e-300 to 1e300: an answer, the negative verdict of
    # factor, or a typed error; main lets no exception escape
    f = tmp_path_factory.getbasetemp() / "contract.json"
    f.write_text(json.dumps({"terms": [
        {"omega": w, "coeff": [r * math.cos(t), r * math.sin(t)]}
        for w, r, t in terms]}))
    code, _ = _run(command + ["--input", str(f)])
    assert code in (0, 1, 4, 5, 6)
