"""Digest a checkout's outputs on the benchmark's traffic and on the sweep
corpora, so that two checkouts can be shown to answer bit-identically.

    python3 tools/traffic_digest.py CHECKOUT --seeds 61 62 63
    python3 tools/traffic_digest.py CHECKOUT --seeds 1 --workloads spectral

Imports ``sinecomb`` from CHECKOUT/src and the workloads from
CHECKOUT/perfbench, and writes nothing into the checkout.  Each operation
of each chosen workload (all three by default) runs once per seed, in round
order, untimed and unchecked; an operation that raises gives the type and
message of its exception.  Then each corpus of this repository's
``tests/corpora.py`` gives, per input, the frequencies, coefficients and
rounding bounds, tail bound, validity height and truncation of both halves
from ``sweep_coefficients`` at ``factor``'s reach, or the exception it
raises.  One line is printed per workload and seed and per corpus: its
name, the number of outputs and the SHA-256 of their reprs, numpy arrays
in full with each float's shortest repr.  Equal lines from two checkouts
mean equal outputs.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("roundtrip", "comb", "spectral")


def digest(outputs) -> tuple[int, str]:
    """(count, SHA-256 of the reprs) of an iterable of outputs."""
    h, n = hashlib.sha256(), 0
    for out in outputs:
        h.update(repr(out).encode())
        h.update(b"\n")
        n += 1
    return n, h.hexdigest()


def _answer(run):
    try:
        return run()
    except Exception as exc:  # the answer of an operation that raises
        return f"{type(exc).__name__}: {exc}"


def sweep_outputs(polys):
    from sinecomb.growth import sweep_coefficients

    from corpora import factor_reach

    for p in polys:
        halves = _answer(lambda: sweep_coefficients(p, *factor_reach(p)))
        yield halves if isinstance(halves, str) else [
            (c.gamma_array, c.h_array, c.rounding_array, c.tail_bound,
             c.validity_height, c.gamma_max) for c in halves]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkout", type=Path, help="checkout to run")
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--workloads", nargs="*", choices=WORKLOADS, default=WORKLOADS)
    args = parser.parse_args(argv)
    checkout = args.checkout.resolve()
    if not (checkout / "src" / "sinecomb" / "__init__.py").is_file():
        print(f"no sinecomb package under {checkout / 'src'}", file=sys.stderr)
        return 2

    sys.dont_write_bytecode = True  # leave the checkout as it is
    sys.path[:0] = [str(checkout / "src"), str(checkout / "perfbench"), str(ROOT / "tests")]
    import numpy as np

    import workloads

    np.set_printoptions(threshold=sys.maxsize, floatmode="unique")
    for name in args.workloads:
        for seed in args.seeds:
            ops = workloads.WORKLOADS[name](seed).ops
            n, hexdigest = digest(_answer(op.run) for op in ops)
            print(f"{name} seed {seed}: {n} outputs {hexdigest}", flush=True)
    from corpora import sweep_corpora

    for name, polys in sweep_corpora().items():
        n, hexdigest = digest(sweep_outputs(polys))
        print(f"sweep {name}: {n} outputs {hexdigest}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
