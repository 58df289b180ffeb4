"""Histogramming and density-comparison metrics for Monte Carlo output.

Comparisons against closed-form densities use exact per-bin masses
(the target's closed-form CDF) and binomial standard errors
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
    """

    edges: np.ndarray
    counts: np.ndarray
    n: int
    n_below: int
    n_above: int
    density: np.ndarray

    @property
    def centers(self) -> np.ndarray:
        return 0.5 * (self.edges[1:] + self.edges[:-1])

    @property
    def widths(self) -> np.ndarray:
        return np.diff(self.edges)

    def __add__(self, other: "Histogram") -> "Histogram":
        """Both histograms' samples binned together, on the same edges."""
        return _binned(self.edges, self.counts + other.counts,
                       self.n_below + other.n_below,
                       self.n_above + other.n_above)


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
        If the sample set is empty or holds a NaN.
    """
    edges = np.asarray(edges, dtype=float)
    if edges.ndim != 1 or len(edges) < 2 or np.any(np.diff(edges) <= 0):
        raise BadEdges("edges must be a strictly increasing 1-D array "
                       "with at least two entries")
    samples = np.asarray(samples, dtype=float).ravel()
    if samples.size == 0:
        raise ValueError("cannot histogram an empty sample set")
    n_nan = np.count_nonzero(np.isnan(samples))
    if n_nan:
        raise ValueError(f"cannot histogram {n_nan} NaN sample(s)")
    n_below = int(np.count_nonzero(samples < edges[0]))
    n_above = int(np.count_nonzero(samples > edges[-1]))
    counts, _ = np.histogram(samples, bins=edges)
    return _binned(edges, counts, n_below, n_above)


def _binned(edges, counts, n_below: int, n_above: int) -> Histogram:
    n = int(counts.sum())
    widths = np.diff(edges)
    density = counts / (n * widths) if n > 0 else np.zeros_like(widths)
    return Histogram(edges=edges, counts=counts, n=n, n_below=n_below,
                     n_above=n_above, density=density)


class DensityComparison(NamedTuple):
    max_z: float
    ks: float


def _compared(hist: Histogram, target: Marginal1D):
    """(z, p, frac): per-bin z-scores, target bin probabilities
    renormalised to the histogram range, and in-range sample fractions."""
    if hist.n == 0:
        raise ValueError("no sample lies inside the histogram range")
    masses = target.bin_masses(hist.edges)
    if not masses.sum() > 0.0:
        raise ValueError("the target has no mass inside the histogram range")
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
    into a copy.  The CDF is interpolated one block at a time between
    exact values (`Marginal1D._cdf_table`), and taken exactly in each
    cell whose interpolation may err by more than ks_critical(n) / 100.
    """
    s = np.asarray(samples, dtype=float).ravel()
    n = len(s)
    if n == 0:
        raise ValueError("no samples")
    if not np.all(s[1:] >= s[:-1]):  # a NaN fails this, and sorts last
        s = np.sort(s)
    grid, cdfv = target._cdf_table()
    total = target.total_mass()
    # A monotone CDF interpolated in a cell errs by at most the cell's mass,
    # and by h^2 / 8 times the density's largest slope, which a term
    # w N(m, v) cos(k u + theta) bounds by |w| (e^-1/2 / v + |k| / sqrt v)
    # / sqrt(2 pi); beyond the grid, by the mass outside.
    slope = target.norm * sum(
        abs(w) * (math.exp(-0.5) / v + abs(k) / math.sqrt(v))
        for w, _, v, k, _ in target._terms()) / math.sqrt(2.0 * math.pi)
    bound = np.diff(cdfv, prepend=0.0, append=total)
    bound[1:-1] = np.minimum(bound[1:-1], (grid[1] - grid[0]) ** 2 / 8 * slope)
    loose = bound > ks_critical(n) / 100 * total
    d = -math.inf
    for j in range(0, n, _KS_BLOCK):  # max is exact in any order
        block = s[j:j + _KS_BLOCK]
        c = np.interp(block, grid, cdfv, left=0.0, right=cdfv[-1])
        if loose.any():
            exact = loose[np.searchsorted(grid, block, side="right")]
            c[exact] = target.cdf(block[exact])
        c /= total
        i = np.arange(j + 1, j + 1 + len(c))
        d = np.max([d, np.max(i / n - c), np.max(c - (i - 1) / n)])
    return float(d)


def ks_critical(n: int, alpha: float = 0.001) -> float:
    """Asymptotic one-sample KS critical value at significance alpha."""
    return math.sqrt(-0.5 * math.log(alpha / 2.0)) / math.sqrt(n)
