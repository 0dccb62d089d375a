"""The frequency resolution: frequencies at most RESOLUTION apart are one.

Every place that merges or matches frequencies (polynomial terms, the gap
semigroup, Dirichlet coefficients, Fourier atoms, re-expansion checks)
decides it through these functions, so all decide it the same way.
"""

from __future__ import annotations

import numpy as np

RESOLUTION = 1e-9


def run_starts(sorted_freqs: np.ndarray, before: float) -> np.ndarray:
    """Mask of the entries more than RESOLUTION above their predecessor
    (``before`` for the first): the smallest member of each run of sorted
    frequencies chained at most RESOLUTION apart."""
    prev = np.empty_like(sorted_freqs)
    prev[:1], prev[1:] = before, sorted_freqs[:-1]
    return sorted_freqs - prev > RESOLUTION


def resolved(sorted_freqs) -> bool:
    """Whether each frequency is more than RESOLUTION above the one before."""
    return all(b - a > RESOLUTION for a, b in zip(sorted_freqs, sorted_freqs[1:]))


def merge(freqs, values) -> tuple[list[float], list[complex]]:
    """Sort by frequency and sum the values of each run at its smallest
    frequency, one after another in sorted order (input order among equal
    frequencies)."""
    runs: list[list] = []  # [smallest member, sum, largest member]
    for w, v in sorted(zip(map(float, freqs), map(complex, values)),
                       key=lambda t: t[0]):
        if runs and w - runs[-1][2] <= RESOLUTION:
            runs[-1][1] += v
            runs[-1][2] = w
        else:
            runs.append([w, v, w])
    return [r[0] for r in runs], [r[1] for r in runs]


def lookup(sorted_freqs: np.ndarray, targets) -> np.ndarray:
    """Index of the frequency nearest each target, or -1 where none lies
    within RESOLUTION (ties go to the larger frequency)."""
    targets = np.asarray(targets, dtype=float)
    if not len(sorted_freqs):
        return np.full(targets.shape, -1)
    hi = np.minimum(np.searchsorted(sorted_freqs, targets), len(sorted_freqs) - 1)
    lo = np.maximum(hi - 1, 0)
    near = np.where(targets - sorted_freqs[lo] < sorted_freqs[hi] - targets, lo, hi)
    return np.where(np.abs(sorted_freqs[near] - targets) <= RESOLUTION, near, -1)
