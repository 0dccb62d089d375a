"""Exponential polynomials and sine products.

An exponential polynomial is a finite sum ``sum_j q_j * exp(2*pi*i*omega_j*z)``
with strictly increasing real frequencies ``omega_j`` and nonzero complex
amplitudes ``q_j``.  A sine product is ``C * exp(i*a*z) *
prod_j sin(alpha_j*z + beta_j)**mult_j`` in canonical form (``alpha_j > 0``,
``beta_j in [0, pi)``, signs absorbed into ``C``).  Expanding a sine product
with ``sin u = (exp(iu) - exp(-iu)) / 2i`` gives an exponential polynomial
exactly, which is the bridge used by the factorization round trip.

All values are immutable and all operations are pure.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import freq
from .errors import CapacityError, EmptyPolynomialError, ZeroFreeError

TWO_PI = 2.0 * math.pi

#: Coefficients below this times max|coeff| are dropped after a product or
#: a derivative, as their rounding dust; input terms are all kept.
EXPANSION_PRUNE_REL = 1e-14
#: Largest ratio of two coefficients of one function: every stage divides
#: one coefficient by another, and the headroom below the double range
#: leaves room for the factors, such as 2*pi*omega, that scale a quotient.
RATIO_MAX = 2.0 ** 1000
#: Cap on the number of terms an expansion may produce.
EXPANSION_TERM_CAP = 4096


def _canonical_terms(freqs, coeffs, prune: bool = False
                     ) -> tuple[tuple[float, complex], ...]:
    """Sort by frequency, merge frequencies at the resolution and drop zero
    coefficients; with ``prune``, also the dust at most EXPANSION_PRUNE_REL
    times the largest coefficient.

    Raises CapacityError if a coefficient is not finite (a pruning floor
    would be non-finite too and leave the zero function), or if the largest
    kept coefficient exceeds the least by more than RATIO_MAX.
    """
    freqs, coeffs = freq.merge(freqs, coeffs)
    if not all(map(cmath.isfinite, coeffs)):
        raise CapacityError("a coefficient leaves the double range")
    size = max(map(abs, coeffs), default=0.0)
    floor = EXPANSION_PRUNE_REL * size if prune else 0.0
    terms = tuple((w, q) for w, q in zip(freqs, coeffs) if abs(q) > floor)
    if terms and not size / min(abs(q) for _, q in terms) <= RATIO_MAX:
        raise CapacityError("the coefficients' ratio exceeds 2^1000")
    return terms


@dataclass(frozen=True)
class ExpPolynomial:
    """Finite frequency -> coefficient table for sum q * exp(2*pi*i*omega*z).

    ``terms`` is sorted by strictly increasing frequency and holds no zero
    coefficients; the empty tuple represents the zero function.  Build
    instances through :meth:`from_terms`, which canonicalizes arbitrary
    (frequency, coefficient) pairs.
    """

    terms: tuple[tuple[float, complex], ...]

    @classmethod
    def from_terms(cls, pairs) -> "ExpPolynomial":
        pairs = list(pairs)
        return cls(_canonical_terms([w for w, _ in pairs], [q for _, q in pairs]))

    def __post_init__(self):
        if not freq.resolved([w for w, _ in self.terms]):
            raise ValueError("frequencies not strictly increasing or too close")
        if any(q == 0 for _, q in self.terms):
            raise ValueError("zero coefficient stored")

    @property
    def n_terms(self) -> int:
        return len(self.terms)

    @property
    def freq_min(self) -> float:
        return self.terms[0][0]

    @property
    def freq_max(self) -> float:
        return self.terms[-1][0]

    # -- evaluation ----------------------------------------------------------
    # One kernel, branched on input type: a cmath loop for scalars (Newton
    # steps and clearance probes are too many to pay numpy's per-call cost)
    # and one exponential matrix for ndarrays.  Both subtract a per-point
    # shift from the exponents; with the dominant exponential factored out,
    # every scaled term is at most |q_j| and nothing overflows.  Array sums
    # over the terms use einsum, not BLAS: a threaded BLAS spreads these thin
    # products over threads and costs far more than it saves.

    @cached_property
    def _scalar_terms(self) -> tuple[tuple[complex, complex, complex], ...]:
        """(2*pi*i*omega_j, q_j, 2*pi*i*omega_j*q_j) per term, built once."""
        return tuple((1j * TWO_PI * w, q, (1j * TWO_PI * w) * q)
                     for w, q in self.terms)

    @cached_property
    def _term_arrays(self) -> np.ndarray:
        """The same as the rows of a 3 x terms array, built once."""
        return np.array(self._scalar_terms, dtype=complex).reshape(-1, 3).T.copy()

    def _shift(self, y):
        """Log of the dominant exponential max_j e^{-2*pi*omega_j*y}; the
        frequencies are sorted, so only the end terms can attain it."""
        lo = -TWO_PI * self.terms[0][0] * y
        hi = -TWO_PI * self.terms[-1][0] * y
        return np.maximum(lo, hi) if isinstance(y, np.ndarray) else max(lo, hi)

    def _sums(self, z, shift: float) -> tuple[complex, complex]:
        """Scalar branch: e^-shift * (p(z), p'(z)), summed in ascending
        frequency order."""
        s = ds = 0j
        for c, q, dq in self._scalar_terms:
            e = cmath.exp(c * z - shift)
            s += q * e
            ds += dq * e
        return s, ds

    def _exponentials(self, z: np.ndarray, shift) -> np.ndarray:
        """Array branch: the terms x points matrix e^{2*pi*i*omega_j*z - shift},
        exponentiated in place."""
        ex = np.multiply.outer(self._term_arrays[0], z.ravel())
        ex -= shift
        return np.exp(ex, out=ex)

    def evaluate(self, z):
        """Value at ``z`` (scalar or ndarray).

        The raw value: it overflows where p itself leaves the double range.
        Decisions about zeros use :meth:`scaled_values`, :meth:`log_ratio`
        and :meth:`log_abs`, which never do.  Terms are accumulated in
        ascending frequency order so results are bit-reproducible.
        """
        if isinstance(z, np.ndarray):
            acc = np.zeros(z.size, dtype=complex)
            for q, row in zip(self._term_arrays[1], self._exponentials(z, 0.0)):
                acc += q * row
            return acc.reshape(z.shape)
        return self._sums(z, 0.0)[0]

    def scaled_values(self, z: complex) -> tuple[complex, complex]:
        """(p(z), p'(z)) at a scalar ``z``, both divided by the dominant
        exponential, so their ratio is the true one."""
        return self._sums(z, self._shift(z.imag))

    def scaled_term_max(self, y: float) -> float:
        """max_j |q_j e^{2*pi*i*omega_j*z}| at Im z = ``y``, divided by the
        same dominant exponential as :meth:`scaled_values`."""
        shift = self._shift(y)
        return max(abs(q) * math.exp(-TWO_PI * w * y - shift)
                   for w, q in self.terms)

    def log_ratio(self, z):
        """p'(z)/p(z) for scalar or ndarray ``z``, free of overflow.

        Where p evaluates to exactly zero (a point on a zero, deep inside the
        rounding-noise zone) the value is 0, a finite placeholder that keeps
        quadrature error estimates meaningful.
        """
        if not isinstance(z, np.ndarray):
            s, ds = self.scaled_values(z)
            return ds / s if s != 0 else 0j
        ex = self._exponentials(z, self._shift(z.imag.ravel()))
        s, ds = np.einsum("kj,jm->km", self._term_arrays[1:], ex)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = ds / s
        out[~np.isfinite(out)] = 0.0
        return out.reshape(z.shape)

    def log_abs(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(log|p(z)|, log max_j |q_j e^{2*pi*i*omega_j*z}|) on an ndarray.

        The largest term magnitude is the natural size of |p| at each point;
        the contour-safety tests compare the difference of the two logs with
        their floors, at any height.
        """
        iw, q = self._term_arrays[:2]
        y = z.imag.ravel()
        shift = self._shift(y)
        with np.errstate(divide="ignore"):
            log_p = shift + np.log(np.abs(
                np.einsum("j,jm->m", q, self._exponentials(z, shift))))
        log_scale = (np.log(np.abs(q))[:, None]
                     - np.multiply.outer(iw.imag, y)).max(axis=0)
        return log_p.reshape(z.shape), log_scale.reshape(z.shape)

    def derivative(self) -> "ExpPolynomial":
        """Termwise derivative; the omega = 0 term drops out, and so does
        dust at most EXPANSION_PRUNE_REL times the largest new coefficient."""
        terms = [(w, (1j * TWO_PI * w) * q) for w, q in self.terms if w != 0.0]
        return ExpPolynomial(_canonical_terms([w for w, _ in terms],
                                              [q for _, q in terms], prune=True))

    def scaled(self, factor: complex) -> "ExpPolynomial":
        if factor == 0:
            return ExpPolynomial(())
        return ExpPolynomial(tuple((w, q * factor) for w, q in self.terms))


def multiply(p1: ExpPolynomial, p2: ExpPolynomial) -> ExpPolynomial:
    """Product of two exponential polynomials with canonical merging and
    the rounding dust pruned (EXPANSION_PRUNE_REL).

    Raises CapacityError past EXPANSION_TERM_CAP terms.
    """
    if not p1.terms or not p2.terms:
        return ExpPolynomial(())
    w1 = np.array([w for w, _ in p1.terms])
    q1 = np.array([q for _, q in p1.terms])
    w2 = np.array([w for w, _ in p2.terms])
    q2 = np.array([q for _, q in p2.terms])
    freqs = (w1[:, None] + w2[None, :]).ravel()
    coeffs = (q1[:, None] * q2[None, :]).ravel()
    out = ExpPolynomial(_canonical_terms(freqs.tolist(), coeffs.tolist(), prune=True))
    if out.n_terms > EXPANSION_TERM_CAP:
        raise CapacityError(f"expansion produced {out.n_terms} terms, "
                            f"cap is {EXPANSION_TERM_CAP}")
    return out


@dataclass(frozen=True)
class SineProduct:
    """C * exp(i*a*z) * prod sin(alpha_j*z + beta_j)**mult_j, canonical form.

    Canonical means alpha > 0, beta in [0, pi), factors sorted by
    (alpha, beta), equal factors merged by summing multiplicities, and all
    sign flips absorbed into C.  Use :meth:`from_factors` to canonicalize.
    """

    C: complex
    a: float
    factors: tuple[tuple[float, float, int], ...]

    @classmethod
    def from_factors(cls, C, a, factors) -> "SineProduct":
        C = complex(C)
        if C == 0:
            raise ValueError("prefactor C must be nonzero")
        canon = []
        for alpha, beta, mult in factors:
            alpha = float(alpha)
            beta = float(beta)
            mult = int(mult)
            if mult < 1:
                raise ValueError("factor multiplicity must be >= 1")
            if alpha == 0.0:
                raise ValueError("factor frequency alpha must be nonzero")
            if alpha < 0.0:
                # sin(alpha z + beta) = -sin(-alpha z - beta)
                alpha, beta = -alpha, -beta
                C *= (-1.0) ** mult
            k = math.floor(beta / math.pi)
            beta -= k * math.pi
            if beta >= math.pi:  # guard rounding at the seam
                beta -= math.pi
                k += 1
            C *= (-1.0) ** (k * mult)
            canon.append([alpha, beta, mult])
        canon.sort(key=lambda f: (f[0], f[1]))
        merged: list[list] = []
        for alpha, beta, mult in canon:
            if merged and abs(alpha - merged[-1][0]) <= 1e-12 \
                    and abs(beta - merged[-1][1]) <= 1e-12:
                merged[-1][2] += mult
            else:
                merged.append([alpha, beta, mult])
        return cls(C, float(a), tuple((a_, b_, m_) for a_, b_, m_ in merged))

    @property
    def degree(self) -> int:
        """Total number of sine factors counted with multiplicity."""
        return sum(m for _, _, m in self.factors)

    def evaluate(self, z):
        """Pointwise product evaluation (reference path, not the expansion)."""
        if isinstance(z, np.ndarray):
            acc = self.C * np.exp(1j * self.a * z)
            for alpha, beta, mult in self.factors:
                acc *= np.sin(alpha * z + beta) ** mult
            return acc
        acc = self.C * cmath.exp(1j * self.a * z)
        for alpha, beta, mult in self.factors:
            acc *= cmath.sin(alpha * z + beta) ** mult
        return acc


def expand_sine_product(s: SineProduct) -> ExpPolynomial:
    """Exact exponential-polynomial expansion of a sine product.

    Each factor contributes frequencies +-alpha/(2*pi); the prefactor
    contributes a/(2*pi).  Multiplying out and merging equal frequencies is
    exact up to floating point, with near-coincident frequencies summed and
    rounding dust pruned.

    Raises
    ------
    CapacityError
        If the expansion would exceed EXPANSION_TERM_CAP terms: at once
        where a factor's multiplicity is at least the cap, since an m-fold
        zero needs m + 1 terms.
    """
    out = ExpPolynomial.from_terms([(s.a / TWO_PI, s.C)])
    for alpha, beta, mult in s.factors:
        if mult >= EXPANSION_TERM_CAP:
            raise CapacityError(f"a factor of multiplicity {mult} needs more "
                                f"than {EXPANSION_TERM_CAP} terms")
        factor = ExpPolynomial.from_terms([
            (-alpha / TWO_PI, 0.5j * cmath.exp(-1j * beta)),
            (alpha / TWO_PI, -0.5j * cmath.exp(1j * beta)),
        ])
        for _ in range(mult):
            out = multiply(out, factor)
    return out


@dataclass(frozen=True)
class Strip:
    """Horizontal strip alpha <= Im z <= beta known to contain all zeros,
    with a working margin eta used when building search rectangles."""

    alpha: float
    beta: float
    eta: float

    def __post_init__(self):
        if not (self.alpha <= 0.0 <= self.beta):
            raise ValueError("strip must satisfy alpha <= 0 <= beta")
        if not self.eta > 0.0:
            raise ValueError("strip margin eta must be positive")


def zero_strip_estimate(p: ExpPolynomial) -> Strip:
    """Dominant-term bound on the imaginary parts of all zeros of ``p``.

    For Im z above ``beta`` the lowest-frequency term dominates the rest of
    the sum, so ``p`` cannot vanish there; symmetrically below ``alpha`` with
    the highest frequency.  The returned bounds are

        beta  =  log(sum|q| / |q_min|) / (2*pi*(omega_1 - omega_0))
        alpha = -log(sum|q| / |q_max|) / (2*pi*(omega_N - omega_{N-1}))

    Raises
    ------
    EmptyPolynomialError
        If ``p`` is the zero function.
    ZeroFreeError
        If ``p`` has a single term and therefore no zeros at all.
    """
    if p.n_terms == 0:
        raise EmptyPolynomialError("zero function has no zero strip")
    if p.n_terms == 1:
        raise ZeroFreeError("single exponential is zero-free")
    total = sum(abs(q) for _, q in p.terms)
    gap_lo = p.terms[1][0] - p.terms[0][0]
    gap_hi = p.terms[-1][0] - p.terms[-2][0]
    y_plus = math.log(total / abs(p.terms[0][1])) / (TWO_PI * gap_lo)
    y_minus = math.log(total / abs(p.terms[-1][1])) / (TWO_PI * gap_hi)
    return Strip(alpha=-y_minus, beta=y_plus,
                 eta=0.15 * (y_plus + y_minus) + 0.05)
