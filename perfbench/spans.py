"""Span tracing of the program's layers from outside.

The tracer replaces public functions where their callers look them up (a
module attribute such as ``sinecomb.zeros.integrate_segment``, or a method
such as ``ExpPolynomial.evaluate``) with wrappers that record one span per
call: name, start, end, parent span and operation id.  Spans are kept in
compact arrays while the run lasts and written when it ends.  Wrappers pass
straight through while no operation is open, so the benchmark's own checks
leave no spans.
"""

from __future__ import annotations

import time
from array import array

import numpy as np

import sinecomb
import sinecomb.core
import sinecomb.factorize
import sinecomb.logderiv
import sinecomb.measures
import sinecomb.zeros

INTEGRAND = "quadrature.integrand"
SEGMENT = "quadrature.integrate_segment"
EVAL_SCALAR = "core.evaluate.scalar"
EVAL_ARRAY = "core.evaluate.array"

#: (object the caller looks the function up on, attribute, span name).
#: The span name is "<layer>.<function>"; factorize's stage calls get a
#: "factorize:" prefix so the stage breakdown can tell them apart.
TARGETS = (
    (sinecomb, "factor", "factorize.factor"),
    (sinecomb.factorize, "logderiv_coeffs_symbolic",
     "factorize:logderiv.logderiv_coeffs_symbolic"),
    (sinecomb.factorize, "growth_profile", "factorize:growth.growth_profile"),
    (sinecomb.factorize, "find_zeros", "factorize:zeros.find_zeros"),
    (sinecomb.factorize, "detect_progressions",
     "factorize:factorize.detect_progressions"),
    (sinecomb.factorize, "progressions_to_sines",
     "factorize:factorize.progressions_to_sines"),
    (sinecomb.factorize, "fit_exponential_prefactor",
     "factorize:factorize.fit_exponential_prefactor"),
    (sinecomb.factorize, "expand_sine_product",
     "factorize:core.expand_sine_product"),
    (sinecomb, "find_zeros_report", "zeros.find_zeros_report"),
    (sinecomb.zeros, "find_zeros_report", "zeros.find_zeros_report"),
    (sinecomb.measures, "find_zeros", "zeros.find_zeros"),
    (sinecomb.zeros, "integrate_segment", SEGMENT),
    (sinecomb.measures, "integrate_segment", SEGMENT),
    (sinecomb, "logderiv_coeffs_symbolic", "logderiv.logderiv_coeffs_symbolic"),
    (sinecomb, "logderiv_coeff_numeric_with_error",
     "logderiv.logderiv_coeff_numeric_with_error"),
    (sinecomb.logderiv, "logderiv_coeff_numeric", "logderiv.logderiv_coeff_numeric"),
    (sinecomb, "growth_profile", "growth.growth_profile"),
    (sinecomb, "fourier_measure", "measures.fourier_measure"),
    (sinecomb, "poisson_report", "measures.poisson_report"),
    (sinecomb, "contour_residue_report", "measures.contour_residue_report"),
    (sinecomb.measures, "transform_c", "measures.transform_c"),
)


class Tracer:
    """Records spans of wrapped calls; ``install`` and ``uninstall`` patch
    and restore the targets."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        #: per-span figures: integrand nodes, segment unsettled flag,
        #: zero mass, coarse atoms, jitter flag, stored coefficients
        self.extra: dict[str, dict[int, float]] = {}
        self.stack: list[int] = []
        self.current_op = -1
        self._saved: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(self.current_op)
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self.stack.pop()

    def note(self, key: str, span: int, value: float) -> None:
        self.extra.setdefault(key, {})[span] = value

    def begin_op(self, op_id: int) -> None:
        self.current_op = op_id

    def end_op(self) -> None:
        self.current_op = -1

    def _wrap(self, fn, name: str):
        tracer = self
        nid = self._id(name)
        after = _AFTER.get(name)

        def traced(*args, **kwargs):
            if tracer.current_op < 0:
                return fn(*args, **kwargs)
            if name == SEGMENT:
                args = (tracer._wrap_integrand(args[0]),) + args[1:]
            i = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(i)
            if after is not None:
                after(tracer, i, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _wrap_integrand(self, f):
        tracer = self
        nid = self._id(INTEGRAND)

        def integrand(z):
            i = tracer._open(nid)
            try:
                return f(z)
            finally:
                tracer._close(i)
                tracer.note("nodes", i, z.size)

        return integrand

    def _wrap_evaluate(self, fn):
        tracer = self
        scalar, vector = self._id(EVAL_SCALAR), self._id(EVAL_ARRAY)

        def evaluate(poly, z):
            if tracer.current_op < 0:
                return fn(poly, z)
            i = tracer._open(vector if isinstance(z, np.ndarray) else scalar)
            try:
                return fn(poly, z)
            finally:
                tracer._close(i)

        evaluate.__wrapped__ = fn
        return evaluate

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        cls = sinecomb.core.ExpPolynomial
        self._saved.append((cls, "evaluate", cls.evaluate))
        cls.evaluate = self._wrap_evaluate(cls.evaluate)
        for owner, attr, name in TARGETS:
            fn = getattr(owner, attr)
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, name))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()

    # -- output --------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        out = {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }
        for key, values in self.extra.items():
            col = np.zeros(len(out["start"]))
            idx = np.fromiter(values.keys(), dtype=np.int64, count=len(values))
            col[idx] = np.fromiter(values.values(), dtype=float, count=len(values))
            out["extra_" + key] = col
        return out

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


# -- per-call figures taken from arguments and results ---------------------------

def _after_segment(tracer, i, args, kwargs, result):
    abs_tol = kwargs.get("abs_tol", args[3] if len(args) > 3 else None)
    tracer.note("unsettled", i, float(result[1] > abs_tol))


def _after_zeros(tracer, i, args, kwargs, result):
    measure, diagnostics = result
    rect = kwargs.get("rect", args[1] if len(args) > 1 else None)
    tracer.note("atoms", i, sum(int(round(abs(m))) for _, m in measure.atoms))
    tracer.note("coarse", i, len(diagnostics["coarse"]))
    tracer.note("jitter", i, float(diagnostics["rect_used"] != rect))


def _after_symbolic(tracer, i, args, kwargs, result):
    tracer.note("coeffs", i, len(result.coeffs))


_AFTER = {
    SEGMENT: _after_segment,
    "zeros.find_zeros_report": _after_zeros,
    "logderiv.logderiv_coeffs_symbolic": _after_symbolic,
    "factorize:logderiv.logderiv_coeffs_symbolic": _after_symbolic,
}


# -- per-layer metrics -----------------------------------------------------------

STAGES = (("logderiv", ("factorize:logderiv.logderiv_coeffs_symbolic",)),
          ("criterion", ("factorize:growth.growth_profile",)),
          ("zeros", ("factorize:zeros.find_zeros",)),
          ("progressions", ("factorize:factorize.detect_progressions",
                            "factorize:factorize.progressions_to_sines")),
          ("prefactor", ("factorize:factorize.fit_exponential_prefactor",)),
          ("verify", ("factorize:core.expand_sine_product",)))


def _layer(name: str) -> str:
    return name.split(":")[-1].split(".")[0]


def layer_metrics(tracer: Tracer, rounds: int, op_windows: dict[int, float],
                  windows) -> dict[str, tuple[float, str]]:
    """Per-layer counts and times, per round of the workload.

    A layer's time is the time in its outermost spans (a span of the same
    layer above it is not counted again); self time subtracts the time
    child spans cover.
    """
    a = tracer.arrays()
    n = len(a["start"])
    dur = a["end"] - a["start"]
    name_of = np.array(tracer.names, dtype=object)[a["name"]]
    parent = a["parent"]
    child_time = np.zeros(n)
    has_parent = parent >= 0
    np.add.at(child_time, parent[has_parent], dur[has_parent])
    self_time = dur - child_time
    if n and self_time.min() < -1e-6:
        raise RuntimeError(f"spans do not nest: self time {self_time.min():.3g} s")

    layer_of = np.array([_layer(s) for s in name_of], dtype=object)
    base_name = np.array([s.split(":")[-1] for s in name_of], dtype=object)
    # groups: one per layer, plus the integrand and transform_c, which nest
    # inside spans of their own layer
    groups = sorted(set(layer_of.tolist())) + [INTEGRAND, "measures.transform_c"]
    gid = {g: k for k, g in enumerate(groups)}
    own = np.array([1 << gid[lay] for lay in layer_of], dtype=np.int64)
    own |= np.where(name_of == INTEGRAND, 1 << gid[INTEGRAND], 0)
    own |= np.where(base_name == "measures.transform_c",
                    1 << gid["measures.transform_c"], 0)
    above = _ancestor_groups(parent, own)

    def outermost(group: str) -> np.ndarray:
        return (above >> gid[group]) & 1 == 0

    outer = (above & own) == 0

    def extra(key):
        return a.get("extra_" + key, np.zeros(n))

    def count(*fns):
        return float(np.isin(base_name, fns).sum()) / rounds

    def time_in(mask):
        return float(dur[mask].sum()) / rounds

    def outer_time(*fns):
        return time_in(np.isin(base_name, fns) & outer)

    m: dict[str, tuple[float, str]] = {}
    evals = np.isin(name_of, (EVAL_SCALAR, EVAL_ARRAY))
    m["core.evaluate_scalar_calls"] = (count(EVAL_SCALAR), "count")
    m["core.evaluate_s"] = (time_in(evals), "s")

    seg = name_of == SEGMENT
    integ = name_of == INTEGRAND
    n_seg = float(seg.sum())
    integ_in_seg = np.zeros(n)
    under = integ & (parent >= 0)
    np.add.at(integ_in_seg, parent[under], dur[under])
    unsettled = float(extra("unsettled")[seg].sum())
    m["quadrature.segments"] = (n_seg / rounds, "count")
    m["quadrature.nodes"] = (float(extra("nodes")[integ].sum()) / rounds, "count")
    m["quadrature.self_s"] = (float((dur - integ_in_seg)[seg].sum()) / rounds, "s")
    m["quadrature.integrand_s"] = (time_in(integ & outermost(INTEGRAND)), "s")
    m["quadrature.unsettled"] = (unsettled / rounds, "count")
    m["quadrature.settled_ratio"] = (
        (n_seg - unsettled) / n_seg if n_seg else 1.0, "ratio")

    zr = name_of == "zeros.find_zeros_report"
    m["zeros.calls"] = (float(zr.sum()) / rounds, "count")
    m["zeros.s"] = (time_in((layer_of == "zeros") & outer), "s")
    m["zeros.atoms"] = (float(extra("atoms")[zr].sum()) / rounds, "count")
    for w in windows:
        ops = [op for op, win in op_windows.items() if win == w]
        sel = zr & np.isin(a["op"], ops)
        atoms = float(extra("atoms")[sel].sum())
        m[f"zeros.ms_per_atom.{int(w)}"] = (
            1e3 * float(dur[sel].sum()) / atoms if atoms else 0.0, "ms")
    m["zeros.jitter_retries"] = (float(extra("jitter")[zr].sum()) / rounds, "count")
    m["zeros.coarse_atoms"] = (float(extra("coarse")[zr].sum()) / rounds, "count")

    sym = base_name == "logderiv.logderiv_coeffs_symbolic"
    m["logderiv.symbolic_s"] = (time_in(sym & outer), "s")
    m["logderiv.stored_coeffs"] = (float(extra("coeffs")[sym].sum()) / rounds, "count")
    m["logderiv.numeric_s"] = (outer_time("logderiv.logderiv_coeff_numeric_with_error",
                                          "logderiv.logderiv_coeff_numeric"), "s")
    m["growth.s"] = (outer_time("growth.growth_profile"), "s")

    m["measures.transform_calls"] = (count("measures.transform_c"), "count")
    tc = base_name == "measures.transform_c"
    m["measures.transform_s"] = (
        time_in(tc & outermost("measures.transform_c")), "s")
    m["measures.poisson_s"] = (outer_time("measures.poisson_report"), "s")
    m["measures.contour_s"] = (outer_time("measures.contour_residue_report"), "s")
    m["measures.fourier_s"] = (outer_time("measures.fourier_measure"), "s")

    fac = name_of == "factorize.factor"
    stage_total = 0.0
    for stage, fns in STAGES:
        t = time_in(np.isin(name_of, fns))
        stage_total += t
        m[f"factorize.{stage}_s"] = (t, "s")
    m["factorize.self_s"] = (time_in(fac) - stage_total, "s")
    return m


def _ancestor_groups(parent: np.ndarray, own: np.ndarray) -> np.ndarray:
    """Bitwise or of ``own`` over each span's ancestors.  A parent is
    always recorded before its children, so one pass per nesting level
    settles every span."""
    above = np.zeros(len(parent), dtype=np.int64)
    idx = np.nonzero(parent >= 0)[0]
    par = parent[idx]
    while True:
        new = above[par] | own[par]
        if np.array_equal(new, above[idx]):
            return above
        above[idx] = new
