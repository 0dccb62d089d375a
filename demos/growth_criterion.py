"""The linear-growth criterion separating sine products from the rest.

R(r) sums |h| over the Dirichlet coefficients of p'/p inside |gamma| < r.
For a finite sine product R grows linearly, within two bounds read from the
coefficients; a coefficient that breaks one proves that p is not a sine
product.  4 + 2cos shows exponential coefficient growth, and a Lee-Yang
polynomial, whose zeros are all real, breaks the mass bound
(e(z) = exp(2 pi i z)).
"""

import math


from sinecomb import (
    ExpPolynomial,
    LOWER,
    SineProduct,
    UPPER,
    expand_sine_product,
    growth_profile,
    logderiv_coeffs_symbolic,
)


def profile(p, radii):
    gamma_max = max(radii)
    return growth_profile(logderiv_coeffs_symbolic(p, UPPER, gamma_max),
                          logderiv_coeffs_symbolic(p, LOWER, gamma_max),
                          radii)


def show(name, report):
    print(f"--- {name} ---")
    print(f"{'r':>8} {'R(r)':>16} {'R(r)/r':>14}")
    for r, v in zip(report.radii, report.values):
        print(f"{r:8.2f} {v:16.6g} {v / r:14.6g}")
    verdict = report.classification
    if report.K is not None:
        verdict += f" (K = {report.K:.6g})"
    print(f"bounds (i) and (ii)  ->  {verdict}")
    print()


def main():
    radii = (2.0, 4.0, 8.0, 16.0)

    sine = expand_sine_product(SineProduct.from_factors(1.0, 0.0, [(math.pi, 0.0, 1)]))
    show("sin(pi z): R(r) = 2 pi + 4 pi (r - 1)", profile(sine, radii))

    two = expand_sine_product(SineProduct.from_factors(
        2.0, 1.0, [(math.pi, 0.2, 1), (math.sqrt(2) * math.pi, 1.1, 1)]))
    show("2 e^(iz) sin(pi z + 0.2) sin(sqrt(2) pi z + 1.1)", profile(two, radii))

    fourcos = ExpPolynomial.from_terms([(-1.0, 1.0), (0.0, 4.0), (1.0, 1.0)])
    report = profile(fourcos, radii)
    show("4 + 2 cos(2 pi z): |h_k| ~ (2+sqrt(3))^k", report)
    print(f"separation: R(16)/16 = {report.values[3]/16:.4g} vs "
          f"R(2)/2 = {report.values[0]/2:.4g} "
          f"(ratio {report.values[3]/16/(report.values[0]/2):.3g})")
    print()

    r2 = math.sqrt(2.0)
    lee_yang = ExpPolynomial.from_terms([(0.0, 1.0), (1.0, 0.9), (r2, 0.9),
                                         (1.0 + r2, 1.0)])
    show("1 + 0.9 e(z) + 0.9 e(sqrt(2) z) + e((1+sqrt(2)) z): real zeros",
         profile(lee_yang, radii))


if __name__ == "__main__":
    main()
