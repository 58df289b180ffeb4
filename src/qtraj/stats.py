"""Histogramming and density-comparison metrics for Monte Carlo output.

Comparisons against closed-form densities use exact per-bin masses
(Gauss-Legendre integration of the target) and binomial standard errors
computed from the *target* mass, so near-empty bins — the interference
nulls the acceptance checks deliberately probe — get well-defined
z-scores.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .analytic import Marginal1D

_KS_BLOCK = 1 << 16  # samples per block of the KS statistic's temporaries


class BadEdges(ValueError):
    """Histogram edges that are not strictly increasing (or too few)."""


@dataclass(frozen=True)
class Histogram:
    """Binned samples with per-bin densities and uncertainties.

    Attributes
    ----------
    edges : ndarray, shape (n_bins + 1,)
    counts : ndarray of int
    n : int
        In-range sample count (sum of ``counts``).
    n_below, n_above : int
        Overflow tallies outside the edge range (excluded from ``n``).
    density : ndarray
        counts / (n * bin width); integrates to 1 over the range.
    std_error : ndarray
        Binomial error of each density value,
        sqrt(c (1 - c/n)) / (n * width).
    """

    edges: np.ndarray
    counts: np.ndarray
    n: int
    n_below: int
    n_above: int
    density: np.ndarray
    std_error: np.ndarray

    @property
    def centers(self) -> np.ndarray:
        return 0.5 * (self.edges[1:] + self.edges[:-1])

    @property
    def widths(self) -> np.ndarray:
        return np.diff(self.edges)


def histogram(samples, edges) -> Histogram:
    """Bin samples on explicit edges, tallying out-of-range overflow.

    Parameters
    ----------
    samples : array-like
    edges : array-like, strictly increasing, at least two entries.

    Raises
    ------
    BadEdges
    ValueError
        If the sample set is empty.
    """
    edges = np.asarray(edges, dtype=float)
    if edges.ndim != 1 or len(edges) < 2 or np.any(np.diff(edges) <= 0):
        raise BadEdges("edges must be a strictly increasing 1-D array "
                       "with at least two entries")
    samples = np.asarray(samples, dtype=float).ravel()
    if samples.size == 0:
        raise ValueError("cannot histogram an empty sample set")
    n_below = int(np.count_nonzero(samples < edges[0]))
    n_above = int(np.count_nonzero(samples > edges[-1]))
    counts, _ = np.histogram(samples, bins=edges)
    n = int(counts.sum())
    widths = np.diff(edges)
    if n > 0:
        density = counts / (n * widths)
        frac = counts / n
        std_error = np.sqrt(counts * (1.0 - frac)) / (n * widths)
    else:
        density = np.zeros_like(widths)
        std_error = np.zeros_like(widths)
    return Histogram(edges=edges, counts=counts, n=n, n_below=n_below,
                     n_above=n_above, density=density, std_error=std_error)


class DensityComparison(NamedTuple):
    max_z: float
    ks: float


def _compared(hist: Histogram, target: Marginal1D):
    """(z, p, frac): per-bin z-scores, target bin probabilities
    renormalised to the histogram range, and in-range sample fractions."""
    if hist.n == 0:
        raise ValueError("no sample lies inside the histogram range")
    masses = target.bin_masses(hist.edges)
    p = masses / masses.sum()
    frac = hist.counts / hist.n
    se = np.sqrt(p * (1.0 - p) / hist.n)
    return (frac - p) / np.where(se > 0, se, np.inf), p, frac


def bin_z_scores(hist: Histogram, target: Marginal1D) -> np.ndarray:
    """Signed per-bin z-scores of binned samples against a density.

    Uses exact target bin masses (renormalised to the histogram range,
    mirroring the in-range normalisation of the empirical densities)
    with the binomial error sqrt(P (1-P) / n) — well-defined even in
    bins the target nearly empties.  A histogram with no in-range
    sample raises ValueError.
    """
    return _compared(hist, target)[0]


def compare_density(hist: Histogram, target: Marginal1D) -> DensityComparison:
    """Compare binned samples against a closed-form density.

    Per-bin deviations are those of `bin_z_scores`; the second statistic
    is the largest CDF discrepancy at the bin edges — a binned
    (conservative) Kolmogorov-Smirnov distance; use `ks_statistic` on
    the raw samples for the sharp version.
    """
    z, p, frac = _compared(hist, target)
    ks = float(np.max(np.abs(np.cumsum(frac) - np.cumsum(p))))
    return DensityComparison(max_z=float(np.max(np.abs(z))), ks=ks)


def ks_statistic(samples, target: Marginal1D) -> float:
    """One-sample Kolmogorov-Smirnov distance to a closed-form density.

    A sample that already ascends is read as it is; any other is sorted
    into a copy.  The CDF is interpolated one block at a time.
    """
    s = np.asarray(samples, dtype=float).ravel()
    n = len(s)
    if n == 0:
        raise ValueError("no samples")
    if not np.all(s[1:] >= s[:-1]):  # a NaN fails this, and sorts last
        s = np.sort(s)
    grid, cdfv = target._cdf_table()
    total = target.total_mass()
    d = -math.inf
    for j in range(0, n, _KS_BLOCK):  # max is exact in any order
        c = np.interp(s[j:j + _KS_BLOCK], grid, cdfv, left=0.0,
                      right=cdfv[-1]) / total
        i = np.arange(j + 1, j + 1 + len(c))
        d = np.max([d, np.max(i / n - c), np.max(c - (i - 1) / n)])
    return float(d)


def ks_critical(n: int, alpha: float = 0.001) -> float:
    """Asymptotic one-sample KS critical value at significance alpha."""
    return math.sqrt(-0.5 * math.log(alpha / 2.0)) / math.sqrt(n)
