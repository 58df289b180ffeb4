"""Shared fixtures and numeric helpers for the test suite.

The suite seed is fixed once; individual tests derive their streams from
it with small offsets so every statistical check is reproducible without
being tuned to any particular draw.
"""

import numpy as np

from qtraj.postselect import PostselectedEnsemble, _select_by_sign

SUITE_SEED = 20210905


def gathered_selection(spec, amp, n, seed, threads, stream_offset=0):
    """``(plus, minus, n_agree)``: the blocks of ``_select_by_sign`` joined
    in order, as a gathered selection of the whole run."""
    blocks = list(_select_by_sign(spec, amp, n, seed, threads, stream_offset))
    branches = []
    for k, branch in ((2, +1), (3, -1)):
        parts = [block[k] for block in blocks]
        cols = [None if parts[0].x_b0 is None else
                np.concatenate([p.x_b0 for p in parts])]
        branches.append(PostselectedEnsemble(
            branch, np.concatenate([p.x0 for p in parts]), None, *cols))
    return (*branches, sum(block[4] for block in blocks))


def gl_nodes(lo: float, hi: float, n: int):
    """Gauss-Legendre nodes and weights on [lo, hi]."""
    x, w = np.polynomial.legendre.leggauss(n)
    mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
    return mid + half * x, half * w


def quad_grid(density, spans, n=201):
    """Tensor-grid Gauss-Legendre integral of a density over boxes.

    ``spans`` is one (lo, hi) pair per axis.  Returns the integral of
    ``density.density`` over the box.  Axes beyond two are handled by
    slabbing the first axis to bound memory.
    """
    axes = [gl_nodes(lo, hi, n) for lo, hi in spans]
    ndim = len(axes)
    if ndim == 1:
        x, w = axes[0]
        return float(np.sum(density.density(x) * w))
    if ndim == 2:
        (x, wx), (p, wp) = axes
        vals = density.density(x[:, None], p[None, :])
        return float(np.einsum("ij,i,j->", vals, wx, wp))
    total = 0.0
    (x0, w0) = axes[0]
    rest = axes[1:]
    shapes = []
    for a in range(len(rest)):
        shape = [1] * len(rest)
        shape[a] = -1
        shapes.append(tuple(shape))
    grids = [nodes.reshape(s) for (nodes, _), s in zip(rest, shapes)]
    wrest = rest[0][1]
    for (nodes, wts) in rest[1:]:
        wrest = np.multiply.outer(wrest, wts)
    for xi, wi in zip(x0, w0):
        vals = density.density(xi, *grids)
        total += wi * float(np.sum(vals * wrest))
    return float(total)


class Weighted:
    """A density times a function of its coordinates, for quadrature."""

    def __init__(self, dens, fn):
        self.dens, self.fn = dens, fn

    def density(self, *coords):
        return self.fn(*coords) * self.dens.density(*coords)


def quad_moments_1d(density, lo: float, hi: float, n: int = 400):
    """Mean and variance of a one-axis density by direct quadrature."""
    x, w = gl_nodes(lo, hi, n)
    f = density.density(x)
    m0 = np.sum(f * w)
    m1 = np.sum(x * f * w) / m0
    m2 = np.sum(x * x * f * w) / m0
    return float(m1), float(m2 - m1 * m1)


def variance_batch_se(values: np.ndarray, n_batches: int = 10) -> float:
    """Standard error of the sample variance from contiguous batches."""
    batches = np.array_split(np.asarray(values), n_batches)
    b_vars = [np.var(b, ddof=1) for b in batches]
    return float(np.std(b_vars, ddof=1)) / np.sqrt(n_batches)


def mean_batch_se(values: np.ndarray, n_batches: int = 10) -> float:
    """Standard error of the sample mean from contiguous batches."""
    batches = np.array_split(np.asarray(values), n_batches)
    b_means = [np.mean(b) for b in batches]
    return float(np.std(b_means, ddof=1)) / np.sqrt(n_batches)
