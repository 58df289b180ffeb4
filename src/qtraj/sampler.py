"""Counter-based random streams and exact samplers for the density family.

Sampling follows the structure of the densities themselves: Gaussian
mixtures are drawn exactly; densities with an interference term use
rejection against the dominating proposal obtained by replacing the
oscillation with its absolute amplitude,

    proposal = sum_i w_i g_i + |A| * envelope  >=  target ,

which bounds the acceptance rate below by 1 / (norm * (sum_i w_i + |A|)).
When the interference does not oscillate (zero wave vector) the density
is an exact signed mixture: non-negative interference weight folds into
the mixture (no rejection at all), negative weight keeps the rejection
against the positive components.

Streams are counter-based (Philox) keyed by (seed, stream_index), so any
chunk of work can be given its own independent stream and regenerated
bit-exactly regardless of scheduling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .analytic import GaussFringeDensity
from .core import ModeSpec, SuperpositionSpec, as_superposition

_MASK64 = (1 << 64) - 1


class BadWeights(ValueError):
    """Mixture weights that are negative or do not sum to one."""


class EnvelopeViolation(RuntimeError):
    """Target density exceeded its rejection proposal (or went negative)."""


@dataclass(frozen=True)
class RngStream:
    """A named, reproducible random stream.

    Two streams with different ``stream_index`` under the same seed are
    statistically independent; the same (seed, stream_index) always
    regenerates the same sequence.
    """

    seed: int
    stream_index: int = 0

    def generator(self) -> np.random.Generator:
        key = np.array([self.seed & _MASK64, self.stream_index & _MASK64],
                       dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))

    def child(self, offset: int) -> "RngStream":
        return RngStream(self.seed, (self.stream_index + offset) & _MASK64)


def _as_generator(rng) -> np.random.Generator:
    if isinstance(rng, RngStream):
        return rng.generator()
    return rng


def sample_gauss_mixture(components, rng, size: int) -> np.ndarray:
    """Draw from a one-dimensional Gaussian mixture.

    Parameters
    ----------
    components : sequence of (weight, mean, variance)
        Weights must be non-negative and sum to 1 within 1e-12.
    rng : numpy Generator or RngStream
    size : int

    Raises
    ------
    BadWeights
    """
    rng = _as_generator(rng)
    comps = [(float(w), float(m), float(v)) for w, m, v in components]
    weights = np.array([c[0] for c in comps])
    if np.any(weights < 0):
        raise BadWeights("negative mixture weight")
    total = weights.sum()
    if abs(total - 1.0) > 1e-12:
        raise BadWeights(f"mixture weights sum to {total!r}, expected 1")
    means = np.array([c[1] for c in comps])
    sigmas = np.sqrt([c[2] for c in comps])
    idx = rng.choice(len(comps), size=size, p=weights / total)
    return means[idx] + sigmas[idx] * rng.standard_normal(size)


def _proposal_parts(density: GaussFringeDensity):
    """Split a density into proposal mixture rows and the fringe handling.

    Returns (weights, means, variances, mode) where the first three rows
    describe the positive proposal mixture (fringe envelope appended when
    it oscillates or subtracts) and mode is one of "mixture" (exact,
    fringe folded in or absent) or "reject".
    """
    weights = [c.weight for c in density.gaussians]
    means = [c.means for c in density.gaussians]
    variances = [c.variances for c in density.gaussians]
    f = density.fringe
    if f is None or f.amplitude == 0.0:
        return np.array(weights), np.array(means), np.array(variances), "mixture"
    if all(k == 0.0 for k in f.wave):
        eff = f.amplitude * math.cos(f.phase)
        if eff >= 0.0:
            weights = weights + [eff]
            means = means + [f.means]
            variances = variances + [f.variances]
            return (np.array(weights), np.array(means), np.array(variances),
                    "mixture")
        return np.array(weights), np.array(means), np.array(variances), "reject"
    weights = weights + [abs(f.amplitude)]
    means = means + [f.means]
    variances = variances + [f.variances]
    return np.array(weights), np.array(means), np.array(variances), "reject"


def _proposal_density(density, weights, means, variances, pts):
    """Unnormalised proposal value norm * sum_i w_i prod_a N(pts_a)."""
    total = 0.0
    for w, mu, var in zip(weights, means, variances):
        term = w
        for a in range(pts.shape[1]):
            term = term * np.exp(-0.5 * (pts[:, a] - mu[a]) ** 2 / var[a]) \
                / math.sqrt(2.0 * math.pi * var[a])
        total = total + term
    return density.norm * total


def sample_fringe_density(density: GaussFringeDensity, rng, size: int,
                          diagnostics: Optional[dict] = None) -> np.ndarray:
    """Draw exact samples from a Gaussian-mixture-plus-fringe density.

    Returns an array of shape (size,) for one-axis densities and
    (size, ndim) otherwise.

    Parameters
    ----------
    density : GaussFringeDensity or Marginal1D
        Must be normalised (total mass 1); weights non-negative.
    rng : numpy Generator or RngStream
    size : int
    diagnostics : dict, optional
        If given, filled with ``n_proposed``, ``n_accepted`` (every
        accepted proposal, including any beyond ``size`` that the last
        batch drew and dropped) and the analytic ``acceptance_bound``.

    Raises
    ------
    EnvelopeViolation
        If the density evaluates above its proposal or below zero —
        which for well-formed members of the family cannot happen, so
        this flags a hand-built object that is not a density.
    """
    rng = _as_generator(rng)
    ndim = density.ndim
    weights, means, variances, mode = _proposal_parts(density)
    sigmas = np.sqrt(variances)
    probs = weights / weights.sum()
    bound = 1.0 / (density.norm * weights.sum())

    def draw(m):
        idx = rng.choice(len(probs), size=m, p=probs)
        z = rng.standard_normal((m, ndim))
        return means[idx] + sigmas[idx] * z

    if mode == "mixture":
        out = draw(size)
        if diagnostics is not None:
            diagnostics.update(n_proposed=size, n_accepted=size,
                               acceptance_bound=bound)
        return out[:, 0] if ndim == 1 else out

    out = np.empty((size, ndim))
    filled = 0
    n_proposed = 0
    n_accepted = 0
    acc_est = max(bound, 0.05)
    while filled < size:
        want = size - filled
        m = int(want / acc_est) + 16
        pts = draw(m)
        target = density.density(*(pts[:, a] for a in range(ndim)))
        prop = _proposal_density(density, weights, means, variances, pts)
        with np.errstate(invalid="ignore", divide="ignore"):
            ratio = np.where(prop > 0.0, target / prop, 0.0)
        if np.any(ratio > 1.0 + 1e-9) or np.any(ratio < -1e-12):
            raise EnvelopeViolation(
                f"density/proposal ratio outside [0, 1]: "
                f"[{ratio.min():.3g}, {ratio.max():.3g}]")
        keep = rng.random(m) < ratio
        n_proposed += m
        got = pts[keep]
        n_accepted += len(got)
        take = min(len(got), want)
        out[filled:filled + take] = got[:take]
        filled += take
        if n_proposed > 0:
            acc_est = max((filled or 1) / n_proposed, bound, 0.01)
    if diagnostics is not None:
        diagnostics.update(n_proposed=n_proposed, n_accepted=n_accepted,
                           acceptance_bound=bound)
    return out[:, 0] if ndim == 1 else out


def check_envelope(density: GaussFringeDensity, n_points: int = 10000,
                   seed: int = 0) -> float:
    """Verify proposal >= target >= 0 on a point cloud; returns max ratio.

    Uses a grid for one axis and quasi-random points in the support box
    otherwise.
    """
    weights, means, variances, mode = _proposal_parts(density)
    ndim = density.ndim
    if ndim == 1:
        lo = float(np.min(means[:, 0] - 10.0 * np.sqrt(variances[:, 0])))
        hi = float(np.max(means[:, 0] + 10.0 * np.sqrt(variances[:, 0])))
        pts = np.linspace(lo, hi, n_points)[:, None]
    else:
        rng = np.random.default_rng(seed)
        lo = means.min(axis=0) - 10.0 * np.sqrt(variances.max(axis=0))
        hi = means.max(axis=0) + 10.0 * np.sqrt(variances.max(axis=0))
        pts = lo + (hi - lo) * rng.random((n_points, ndim))
    target = density.density(*(pts[:, a] for a in range(ndim)))
    prop = _proposal_density(density, weights, means, variances, pts)
    with np.errstate(invalid="ignore", divide="ignore"):
        ratio = np.where(prop > 0.0, target / prop, 0.0)
    if np.any(ratio > 1.0 + 1e-9) or np.any(target < -1e-12):
        raise EnvelopeViolation("target exceeds proposal on the check grid")
    return float(ratio.max())


def sample_p_given_x(spec: Union[ModeSpec, SuperpositionSpec], x_at_t0, rng
                     ) -> np.ndarray:
    """Draw one initial momentum per initial position from the conditional.

    The conditional at t = 0 is N(p; 0, sigma_p^2) modulated by
    1 + s(x) cos(phi + p x1 / sigma_x^2); acceptance for a Gaussian
    proposal is (1 + s cos)/(1 + s) >= 1/2 per candidate.

    Parameters
    ----------
    spec : ModeSpec or SuperpositionSpec
    x_at_t0 : array-like
        Initial positions the draws condition on.
    rng : numpy Generator or RngStream

    Returns
    -------
    ndarray matching the shape of ``x_at_t0``.
    """
    from .analytic import _branch_fringe_ratio

    rng = _as_generator(rng)
    sup = as_superposition(spec)
    x = np.asarray(x_at_t0, dtype=float).ravel()
    sx2 = sup.mode.sigma_x2
    sp2 = sup.mode.sigma_p2
    k = sup.x1 / sx2
    s = _branch_fringe_ratio(sup, x * sup.x1 / sx2)
    phi = sup.phase_phi
    sigma_p = math.sqrt(sp2)
    out = np.empty_like(x)
    pending = np.ones(len(x), dtype=bool)
    while pending.any():
        idx = np.flatnonzero(pending)
        m = len(idx)
        p = sigma_p * rng.standard_normal(m)
        u = rng.random(m)
        sp = s[idx]
        accept = u * (1.0 + sp) <= 1.0 + sp * np.cos(phi + k * p)
        out[idx[accept]] = p[accept]
        pending[idx[accept]] = False
    if np.isscalar(x_at_t0) or np.ndim(x_at_t0) == 0:
        return out[0]
    return out.reshape(np.shape(x_at_t0))
