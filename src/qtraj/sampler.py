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
from dataclasses import dataclass, replace
from typing import Optional, Union

import numpy as np

from .analytic import GaussComponent, GaussFringeDensity
from .core import ModeSpec, SuperpositionSpec, as_superposition

_MASK64 = (1 << 64) - 1


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


def _proposal_parts(density: GaussFringeDensity):
    """The dominating proposal of a density, and whether it is the density.

    Returns (proposal, exact).  The proposal keeps the density's norm and
    mixture and has no fringe.  An oscillating fringe appends its
    envelope |A| N(m, f^2) as one more component.  A non-oscillating
    fringe folds in with weight A cos(theta) when that is non-negative,
    and the proposal is then exact; when it subtracts, it is dropped.
    """
    comps, exact = density.gaussians, True
    f = density.fringe
    if f is not None and f.amplitude != 0.0:
        if all(k == 0.0 for k in f.wave):
            weight = f.amplitude * math.cos(f.phase)
            exact = weight >= 0.0
        else:
            weight, exact = abs(f.amplitude), False
        if weight >= 0.0:
            comps = comps + (GaussComponent(weight, f.means, f.variances),)
    return replace(density, gaussians=comps, fringe=None), exact


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
        If a candidate's density or proposal is not finite, or the
        density evaluates above its proposal or below zero — which for
        well-formed members of the family cannot happen, so this flags a
        hand-built object that is not a density.
    """
    rng = _as_generator(rng)
    ndim = density.ndim
    try:
        proposal, exact = _proposal_parts(density)
    except ValueError as exc:  # an envelope the family refuses, e.g. NaN
        raise EnvelopeViolation(
            f"no proposal for this density: {exc}") from exc
    weights = np.array([c.weight for c in proposal.gaussians])
    means = np.array([c.means for c in proposal.gaussians])
    sigmas = np.sqrt([c.variances for c in proposal.gaussians])
    probs = weights / weights.sum()
    bound = 1.0 / (density.norm * weights.sum())

    def draw(m):
        idx = rng.choice(len(probs), size=m, p=probs)
        z = rng.standard_normal((m, ndim))
        return means[idx] + sigmas[idx] * z

    if exact:
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
        target = density.density(*pts.T)
        prop = proposal.density(*pts.T)
        with np.errstate(invalid="ignore", divide="ignore"):
            ratio = np.where(prop > 0.0, target / prop, 0.0)
        if not (np.isfinite(target).all() and np.isfinite(prop).all()):
            raise EnvelopeViolation("density or proposal is not finite "
                                    "at a candidate")
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
    ndarray matching the shape of ``x_at_t0``; a NaN or infinite
    position raises ValueError (its draw would never be accepted).
    """
    from .analytic import _branch_fringe_ratio

    rng = _as_generator(rng)
    sup = as_superposition(spec)
    x = np.asarray(x_at_t0, dtype=float).ravel()
    if not np.isfinite(x).all():
        raise ValueError("sample_p_given_x needs finite positions")
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
