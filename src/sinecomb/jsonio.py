"""File formats and deterministic JSON serialization.

Interchange formats (all JSON, complex numbers as [re, im] pairs):

  polynomial:   {"terms": [{"omega": <num>, "coeff": [re, im]}, ...]}
  sine product: {"C": [re, im], "a": <num>,
                 "factors": [{"alpha": .., "beta": .., "mult": ..}, ...]}
  coefficients: {"halfplane": "upper", "gamma_max": .., "tail_bound": ..,
                 "validity_height": ..,
                 "coeffs": [{"gamma": .., "h": [re, im]}, ...]}

Floats are always emitted with 17 significant digits so identical inputs
produce byte-identical reports.
"""

from __future__ import annotations

import json
import math

from .core import ExpPolynomial, SineProduct
from .errors import ParseError
from .logderiv import DirichletCoefficients
from .zeros import AtomicMeasure

#: Moduli of 'coeff' and 'C' stay below this, so that the sums and
#: quotients of a few coefficients stay inside the double range.
COEFF_MAX = 2.0 ** 1000


def format_float(x: float) -> str:
    if x == 0.0:
        x = 0.0  # normalize -0.0
    if math.isnan(x) or math.isinf(x):
        raise ValueError(f"non-finite float {x} cannot be serialized")
    return format(float(x), ".17g")


def dumps(obj, indent: int = 0) -> str:
    """Deterministic JSON: insertion-ordered keys, floats at 17 digits."""
    pad = " " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = ",\n".join(
            f"{pad}  {json.dumps(str(k))}: {dumps(v, indent + 2)}"
            for k, v in obj.items())
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = ", ".join(dumps(v, indent) for v in obj)
        return "[" + items + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return format_float(obj)
    if isinstance(obj, complex):
        return f"[{format_float(obj.real)}, {format_float(obj.imag)}]"
    if isinstance(obj, str):
        return json.dumps(obj)
    if obj is None:
        return "null"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _require(cond: bool, message: str):
    if not cond:
        raise ParseError(message)


def finite_number(v) -> bool:
    """Whether ``v`` is a finite JSON number (true and false are none)."""
    try:
        return (isinstance(v, (int, float)) and not isinstance(v, bool)
                and math.isfinite(v))
    except OverflowError:  # an integer beyond the double range
        return False


def _as_complex(v, what: str) -> complex:
    _require(isinstance(v, (list, tuple)) and len(v) == 2
             and all(finite_number(c) for c in v),
             f"{what} must be a [re, im] pair of finite numbers")
    z = complex(v[0], v[1])
    _require(abs(z) < COEFF_MAX, f"{what} must have modulus below 2^1000")
    return z


def parse_json(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"malformed JSON: {exc}") from exc


def polynomial_from_dict(data) -> ExpPolynomial:
    _require(isinstance(data, dict) and "terms" in data,
             "polynomial file needs a 'terms' array")
    terms = data["terms"]
    _require(isinstance(terms, list), "'terms' must be an array")
    pairs = []
    for entry in terms:
        _require(isinstance(entry, dict) and "omega" in entry and "coeff" in entry,
                 "each term needs 'omega' and 'coeff'")
        _require(finite_number(entry["omega"]), "'omega' must be a finite number")
        pairs.append((float(entry["omega"]),
                      _as_complex(entry["coeff"], "'coeff'")))
    return ExpPolynomial.from_terms(pairs)


def polynomial_to_dict(p: ExpPolynomial) -> dict:
    return {"terms": [{"omega": w, "coeff": q} for w, q in p.terms]}


def sine_product_from_dict(data) -> SineProduct:
    _require(isinstance(data, dict) and "factors" in data,
             "sine-product file needs a 'factors' array")
    C = _as_complex(data.get("C", [1.0, 0.0]), "'C'")
    a = data.get("a", 0.0)
    _require(finite_number(a), "'a' must be a finite number")
    _require(isinstance(data["factors"], list), "'factors' must be an array")
    factors = []
    for entry in data["factors"]:
        _require(isinstance(entry, dict)
                 and all(k in entry for k in ("alpha", "beta", "mult")),
                 "each factor needs 'alpha', 'beta' and 'mult'")
        _require(all(finite_number(entry[k]) for k in ("alpha", "beta", "mult")),
                 "factor fields must be finite numbers")
        _require(float(entry["mult"]).is_integer(), "'mult' must be an integer")
        factors.append((float(entry["alpha"]), float(entry["beta"]),
                        int(entry["mult"])))
    try:
        return SineProduct.from_factors(C, float(a), factors)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def sine_product_to_dict(s: SineProduct) -> dict:
    return {"C": s.C, "a": s.a,
            "factors": [{"alpha": alpha, "beta": beta, "mult": mult}
                        for alpha, beta, mult in s.factors]}


def load_input(text: str) -> ExpPolynomial:
    """Read either interchange format, expanding sine products."""
    from .core import expand_sine_product

    data = parse_json(text)
    _require(isinstance(data, dict), "input must be a JSON object")
    if "terms" in data:
        p = polynomial_from_dict(data)
    elif "factors" in data:
        p = expand_sine_product(sine_product_from_dict(data))
    else:
        raise ParseError("input needs either 'terms' or 'factors'")
    if p.n_terms == 0:
        raise ParseError("input is the zero function")
    return p


def coefficients_to_dict(d: DirichletCoefficients) -> dict:
    return {
        "halfplane": d.halfplane,
        "gamma_max": d.gamma_max,
        "coeffs": [{"gamma": g, "h": h} for g, h in d.coeffs],
        "tail_bound": d.tail_bound,
        # null for a single term, whose series holds at every height
        "validity_height": d.validity_height if math.isfinite(
            d.validity_height) else None,
    }


def measure_to_dict(m: AtomicMeasure) -> dict:
    return {"atoms": [{"location": loc, "mass": complex(mass)}
                      for loc, mass in m.atoms]}
