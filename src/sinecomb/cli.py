"""Batch command-line front end.

Subcommands wrap one pipeline stage each (zeros, logderiv, fourier,
criterion, poisson) plus the full factorization (factor).  Input files use
the JSON interchange formats of :mod:`sinecomb.jsonio`; every report is
emitted as deterministic JSON (17 significant digits), so identical inputs
and configuration produce byte-identical output.

Exit codes: 0 success/affirmative, 1 negative verdict, 4 input parse error,
5 configuration error, 6 numerical-stage failure.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass, replace
from pathlib import Path

from . import jsonio
from .core import ExpPolynomial, zero_strip_estimate
from .errors import (
    ConfigError,
    ParseError,
    PreconditionError,
    SinecombError,
)
from .factorize import FactorConfig, factor
from .growth import growth_profile
from .logderiv import LOWER, UPPER, logderiv_coeffs_symbolic
from .measures import TestFunction, fourier_measure, poisson_report
from .zeros import Rect, find_zeros_report, zeros_to_csv

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_PARSE = 4
EXIT_CONFIG = 5
EXIT_NUMERICAL = 6


@dataclass(frozen=True)
class RunConfig:
    """Static run configuration; None values are resolved per command."""

    reconstruction_tol: float = 1e-6
    zero_tol: float = 1e-12
    gamma_max: float | None = None
    window: tuple[float, float] | None = None
    radii: tuple[float, ...] | None = None
    battery: tuple[dict, ...] = (
        {"kind": "gaussian", "s": 1.0, "t0": 0.0},
        {"kind": "gaussian", "s": 2.0, "t0": 0.0},
        {"kind": "gaussian", "s": 4.0, "t0": 0.0},
    )


_CONFIG_KEYS = {"reconstruction_tol", "zero_tol", "gamma_max", "window", "radii",
                "battery"}


def _validate_config(cfg: RunConfig) -> RunConfig:
    for name in ("reconstruction_tol", "zero_tol"):
        value = getattr(cfg, name)
        if not (isinstance(value, (int, float)) and value > 0):
            raise ConfigError(f"{name} must be a positive number")
    if cfg.gamma_max is not None and not cfg.gamma_max > 0:
        raise ConfigError("gamma_max must be positive")
    if cfg.window is not None:
        if len(cfg.window) != 2 or not cfg.window[0] < cfg.window[1]:
            raise ConfigError("window must be [lo, hi] with lo < hi")
    if cfg.radii is not None:
        radii = cfg.radii
        if len(radii) < 4:
            raise ConfigError("radii needs at least 4 entries")
        if not radii[0] > 0.0 or any(b <= a for a, b in zip(radii, radii[1:])):
            raise ConfigError("radii must be increasing and > 0")
    for tf in cfg.battery:
        _battery_entry(tf)  # raises ConfigError on bad entries
    return cfg


def _battery_entry(spec: dict) -> TestFunction:
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError("battery entries need a 'kind'")
    kind = spec["kind"]
    t0 = spec.get("t0", 0.0)
    if not isinstance(t0, (int, float)):
        raise ConfigError("battery 't0' must be a number")
    if kind == "gaussian":
        s = spec.get("s")
        if not (isinstance(s, (int, float)) and s > 0):
            raise ConfigError("gaussian battery entry needs s > 0")
        return TestFunction("gaussian", float(s), float(t0))
    if kind == "bump":
        radius = spec.get("radius")
        if not (isinstance(radius, (int, float)) and radius > 0):
            raise ConfigError("bump battery entry needs radius > 0")
        return TestFunction("bump", float(radius), float(t0))
    raise ConfigError(f"unknown battery kind {kind!r}")


def load_config(path: str | None) -> RunConfig:
    cfg = RunConfig()
    if path is None:
        return cfg
    try:
        data = jsonio.parse_json(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    except ParseError as exc:
        raise ConfigError(f"config file: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config file must hold a JSON object")
    unknown = set(data) - _CONFIG_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    fields = {}
    for key, value in data.items():
        if key in ("window", "radii", "battery") and isinstance(value, list):
            value = tuple(value)
        fields[key] = value
    return _validate_config(replace(cfg, **fields))


def config_to_dict(cfg: RunConfig) -> dict:
    return {
        "reconstruction_tol": cfg.reconstruction_tol,
        "zero_tol": cfg.zero_tol,
        "gamma_max": cfg.gamma_max,
        "window": list(cfg.window) if cfg.window else None,
        "radii": list(cfg.radii) if cfg.radii else None,
        "battery": [dict(b) for b in cfg.battery],
    }


def _read_input(path: str) -> ExpPolynomial:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ParseError(f"cannot read input file: {exc}") from exc
    return jsonio.load_input(text)


def _parse_rect(spec: str) -> Rect:
    parts = spec.split(",")
    if len(parts) != 4:
        raise ConfigError("--rect needs x0,x1,y0,y1")
    try:
        x0, x1, y0, y1 = (float(v) for v in parts)
    except ValueError as exc:
        raise ConfigError(f"--rect: {exc}") from exc
    try:
        return Rect(x0, x1, y0, y1)
    except ValueError as exc:
        raise ConfigError(f"--rect: {exc}") from exc


def _resolve_gamma_max(args, cfg: RunConfig) -> float:
    if getattr(args, "gamma_max", None) is not None:
        if args.gamma_max <= 0:
            raise ConfigError("--gamma-max must be positive")
        return args.gamma_max
    return cfg.gamma_max if cfg.gamma_max is not None else 16.0


def _resolve_window(cfg: RunConfig) -> tuple[float, float]:
    return cfg.window if cfg.window is not None else (-15.0, 15.0)


def _strip_rect(p: ExpPolynomial, window: tuple[float, float]) -> Rect:
    strip = zero_strip_estimate(p)
    return Rect(window[0], window[1], strip.alpha - strip.eta,
                strip.beta + strip.eta)


def _finite_or_none(x: float) -> float | None:
    return x if math.isfinite(x) else None


def _emit(args, report: dict, csv_text: str | None = None) -> None:
    if getattr(args, "out", None):
        base = Path(args.out)
        base.parent.mkdir(parents=True, exist_ok=True)
        if csv_text is not None:
            base.with_suffix(".csv").write_text(csv_text)
        base.with_suffix(".json").write_text(jsonio.dumps(report) + "\n")
    else:
        sys.stdout.write(jsonio.dumps(report) + "\n")


def _cmd_zeros(args, cfg: RunConfig) -> int:
    p = _read_input(args.input)
    rect = _parse_rect(args.rect)
    measure, diag = find_zeros_report(p, rect, cfg.zero_tol)
    report = {
        "count": diag["count"],
        "atoms": [{"x": loc.real, "y": loc.imag,
                   "multiplicity": int(round(m.real if isinstance(m, complex) else m))}
                  for loc, m in measure.atoms],
        # JSON has no inf: raw |p| beyond the double range is reported as null
        "max_residual": _finite_or_none(diag["max_residual"]),
        "residual_bound": _finite_or_none(diag["residual_bound"]),
        "coarse_atoms": len(diag["coarse"]),
    }
    _emit(args, report, zeros_to_csv(measure))
    return EXIT_OK


def _cmd_logderiv(args, cfg: RunConfig) -> int:
    p = _read_input(args.input)
    gamma_max = _resolve_gamma_max(args, cfg)
    upper = logderiv_coeffs_symbolic(p, UPPER, gamma_max)
    lower = logderiv_coeffs_symbolic(p, LOWER, gamma_max)
    report = {"upper": jsonio.coefficients_to_dict(upper),
              "lower": jsonio.coefficients_to_dict(lower)}
    _emit(args, report)
    return EXIT_OK


def _cmd_fourier(args, cfg: RunConfig) -> int:
    p = _read_input(args.input)
    gamma_max = _resolve_gamma_max(args, cfg)
    upper = logderiv_coeffs_symbolic(p, UPPER, gamma_max)
    lower = logderiv_coeffs_symbolic(p, LOWER, gamma_max)
    measure = fourier_measure(upper, lower)
    report = jsonio.measure_to_dict(measure)
    report["gamma_max"] = gamma_max
    _emit(args, report)
    return EXIT_OK


def _cmd_criterion(args, cfg: RunConfig) -> int:
    p = _read_input(args.input)
    if cfg.radii is not None:
        radii = cfg.radii
    else:
        gamma_max = _resolve_gamma_max(args, cfg)
        radii = tuple(gamma_max / 2 ** k for k in range(3, -1, -1))
    gamma_max = max(radii)
    upper = logderiv_coeffs_symbolic(p, UPPER, gamma_max)
    lower = logderiv_coeffs_symbolic(p, LOWER, gamma_max)
    report = growth_profile(upper, lower, radii)
    payload = {
        "radii": list(report.radii),
        "values": list(report.values),
        "classification": report.classification,
        "K": report.K,
        "fit_exponent": report.fit_exponent,
    }
    _emit(args, payload)
    return EXIT_OK


def _cmd_poisson(args, cfg: RunConfig) -> int:
    p = _read_input(args.input)
    battery = [_battery_entry(spec) for spec in cfg.battery]
    window = _resolve_window(cfg)
    gamma_max = _resolve_gamma_max(args, cfg)
    rows = []
    if battery:
        if args.rect is not None:
            rect = _parse_rect(args.rect)
        else:
            rect = _strip_rect(p, window)
        mu, _ = find_zeros_report(p, rect, cfg.zero_tol)
        upper = logderiv_coeffs_symbolic(p, UPPER, gamma_max)
        lower = logderiv_coeffs_symbolic(p, LOWER, gamma_max)
        mu_hat = fourier_measure(upper, lower)
        for tf in battery:
            rep = poisson_report(mu, mu_hat, tf)
            rows.append({
                "kind": tf.kind,
                "scale": tf.scale,
                "t0": tf.center,
                "lhs": rep.lhs,
                "rhs": rep.rhs,
                "residual": rep.residual,
                "lhs_tail": rep.lhs_tail,
                "rhs_tail": rep.rhs_tail,
            })
    _emit(args, {"residuals": rows})
    return EXIT_OK


def _cmd_factor(args, cfg: RunConfig) -> int:
    p = _read_input(args.input)
    fcfg = FactorConfig(
        gamma_max=cfg.gamma_max,
        radii=cfg.radii,
        reconstruction_tol=cfg.reconstruction_tol,
    )
    outcome = factor(p, fcfg)
    report = {}
    if outcome.result is not None:
        report.update(jsonio.sine_product_to_dict(outcome.result.product))
    report["verdict"] = outcome.verdict
    report["reason"] = outcome.reason
    report["stage"] = outcome.stage
    if outcome.result is not None:
        report["reconstruction_error"] = outcome.result.reconstruction_error
    else:
        report["reconstruction_error"] = outcome.diagnostics.get(
            "reconstruction_error")
    _emit(args, report)
    return EXIT_OK if outcome.verdict == "sine_product" else EXIT_NEGATIVE


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems are configuration errors
        raise ConfigError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="sinecomb",
                     description="zero combs, Fourier measures and "
                                 "sine-product factorization of exponential "
                                 "polynomials")
    parser.add_argument("--print-config", action="store_true",
                        help="print the default configuration and exit")
    sub = parser.add_subparsers(dest="command")
    for name, handler in (("zeros", _cmd_zeros), ("logderiv", _cmd_logderiv),
                          ("fourier", _cmd_fourier),
                          ("criterion", _cmd_criterion),
                          ("poisson", _cmd_poisson), ("factor", _cmd_factor)):
        cmd = sub.add_parser(name)
        cmd.add_argument("--input", required=True)
        cmd.add_argument("--config")
        cmd.add_argument("--out")
        cmd.add_argument("--gamma-max", dest="gamma_max", type=float,
                         default=None)
        if name in ("zeros", "poisson"):
            cmd.add_argument("--rect", required=(name == "zeros"),
                             default=None, help="x0,x1,y0,y1")
        cmd.set_defaults(handler=handler)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.print_config:
            sys.stdout.write(jsonio.dumps(config_to_dict(RunConfig())) + "\n")
            return EXIT_OK
        if getattr(args, "command", None) is None:
            raise ConfigError("a subcommand is required (see --help)")
        return args.handler(args, load_config(args.config))
    except ParseError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (ConfigError, PreconditionError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SinecombError as exc:
        print(f"numerical stage error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
