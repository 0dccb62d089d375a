"""The inputs of the sweep's bit-identity test, which
``tools/traffic_digest.py`` digests too: seeded sine products, generic
polynomials, Lee-Yang inputs and two symmetric spectra that are no sine
products.  Only the public ``sinecomb`` API is used, so the corpora build
against any checkout."""

import math

import numpy as np

from sinecomb import ExpPolynomial, expand_sine_product
from sinecomb.factorize import profile_radii

from conftest import random_sine_product
from test_overflow import twelve_terms


def generic_polynomials():
    """(id, polynomial): 8 draws at each term count, from a fresh
    default_rng(7) per count, omega ~ U(-3, 3) and complex normal
    coefficients; and the 12-term input of test_overflow."""
    for n in (5, 8, 12, 20):
        rng = np.random.default_rng(7)
        for i in range(8):
            w = rng.uniform(-3, 3, n)
            z = rng.normal(size=(n, 2))
            q = (z[:, 0] + 1j * z[:, 1]) / math.sqrt(2)
            yield f"{n}-terms-{i}", ExpPolynomial.from_terms(zip(w.tolist(), q.tolist()))
    yield "twelve-terms", twelve_terms()


def lee_yang(a: float, ell: float) -> ExpPolynomial:
    """1 + a e(x) + a e(ell x) + e((1 + ell) x), e(x) = exp(2 pi i x)."""
    return ExpPolynomial.from_terms([(0.0, 1.0), (1.0, a), (ell, a),
                                     (1.0 + ell, 1.0)])


def sine_products(seed: int, count: int, **draw) -> list[ExpPolynomial]:
    """Expansions of ``count`` random_sine_product draws from one rng."""
    rng = np.random.default_rng(seed)
    return [expand_sine_product(random_sine_product(rng, **draw)) for _ in range(count)]


def sweep_corpora() -> dict[str, list[ExpPolynomial]]:
    """The corpora by name: the round-trip products (seed 60601) and the
    criterion's products (seed 424242) of the acceptance tests, the generic
    inputs, Lee-Yang with a = 0.1, 0.5, 0.9, and 4 + 2cos 2 pi z and
    1 + 2e(z) + 3e(2z), whose spectra are symmetric."""
    return {
        "seed-60601": sine_products(60601, 50, j_max=3, alpha_range=(0.9, 3.0)),
        "seed-424242": sine_products(424242, 50, j_max=4, alpha_range=(0.5, 5.0),
                                     mult_p=0.4),
        "generic": [p for _, p in generic_polynomials()],
        "lee-yang": [lee_yang(a, math.sqrt(2.0)) for a in (0.1, 0.5, 0.9)],
        "symmetric": [ExpPolynomial.from_terms([(-1.0, 1.0), (0.0, 4.0), (1.0, 1.0)]),
                      ExpPolynomial.from_terms([(0.0, 1.0), (1.0, 2.0), (2.0, 3.0)])],
    }


def factor_reach(p: ExpPolynomial) -> tuple[float, float]:
    """(gamma_max, upper gamma_max) of the sweep that ``factor`` runs."""
    return max(profile_radii(p)), 2.0 * (p.freq_max - p.freq_min)
