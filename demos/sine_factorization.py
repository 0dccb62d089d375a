"""Full factorization round trip: expand a sine product, forget the factors,
recover them from the polynomial alone.

The pipeline: Dirichlet coefficients of p'/p on both half-planes -> growth
classification -> sine factors read from the upper coefficients, the masses
of the Fourier measure (Prony's method on the harmonics of each frequency)
-> prefactor from the lowest term -> mandatory re-expansion check.
"""

import math

from sinecomb import (
    ExpPolynomial,
    SineProduct,
    expand_sine_product,
    factor,
)


def describe(outcome):
    print(f"verdict: {outcome.verdict}"
          + (f" (stage {outcome.stage}: {outcome.reason})" if outcome.reason else ""))
    if outcome.result is not None:
        r = outcome.result
        print(f"  C = {r.product.C:.12g}")
        print(f"  a = {r.product.a:.12g}")
        for alpha, beta, mult in r.product.factors:
            print(f"  sin({alpha:.12g} z + {beta:.12g}) ^ {mult}")
        print(f"  re-expansion discrepancy: {r.reconstruction_error:.2e}")
    print()


def main():
    print("=== hidden product: 3 e^(2iz) sin(pi z) sin(sqrt(2) pi z + 0.3) ===")
    s = SineProduct.from_factors(
        3.0, 2.0, [(math.pi, 0.0, 1), (math.sqrt(2) * math.pi, 0.3, 1)])
    p = expand_sine_product(s)
    print(f"the polynomial has {p.n_terms} terms; factoring it back:")
    describe(factor(p))

    print("=== a squared factor: 1.5 sin^2(2z + 1) ===")
    s2 = SineProduct.from_factors(1.5, 0.0, [(2.0, 1.0, 2)])
    describe(factor(expand_sine_product(s2)))

    print("=== not a sine product: 4 + 2 cos(2 pi z) ===")
    q = ExpPolynomial.from_terms([(-1.0, 1.0), (0.0, 4.0), (1.0, 1.0)])
    describe(factor(q))

    print("=== degenerate case: the single exponential 7 e^(0 i z) ===")
    describe(factor(ExpPolynomial.from_terms([(0.0, 7.0)])))


if __name__ == "__main__":
    main()
