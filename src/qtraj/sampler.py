"""Named random streams and exact samplers for the density family.

Each density is compiled once into its rejection envelope, cached by the
frozen density so that every chunk of a run reuses one compile.  Two
forms are drawn; any other density is refused.  A one-axis Gaussian
mixture is drawn exactly, and so is one whose non-oscillating fringe has
non-negative weight: it folds into the mixture.  A two-axis member whose
terms share one diagonal covariance is whitened (u_a / sigma_a) and
rotated onto a draw axis e: the unit wave if the fringe oscillates, else
the line of the means.  If every mean has one coordinate c across e, it
is a one-axis member along e times N(c, 1), drawn so and mapped back.
Other one-axis members reject against a piecewise-constant envelope: an
exact upper bound on each of ``_BINS`` equal bins spanning
``_RANGE_SIGMAS`` sigmas of every component, with the bin drawn from an
alias table, and a lower bound under which a candidate is accepted
unevaluated (Marsaglia's squeeze), as the full test would accept it.  On
a bin, one Gaussian times W + A cos(k u + theta) lies between the
Gaussian's minimum and maximum times the bracket's (W - |A| in a trough,
W + |A| on a crest); components of one variance v plus a non-oscillating
fringe are N(u; c, v) h(u), h a constant plus exponentials of u, so h
and each exponential take their extremes at edges; any member lies
between the sums of its terms' extremes; the tighter bounds are kept.  A
compile checks the density at each bin's edges and midpoint against
them.  Beyond the bins the envelope is the global proposal

    proposal = sum_i w_i g_i + |A| * envelope  >=  target

(a subtracting non-oscillating fringe is dropped from it), drawn from
its components' normal tails, so the draws stay exact.  A normalised
density is accepted at the rate 1 / (mass of the envelope),
``acceptance_bound``.

A stream is SFC64 seeded by ``SeedSequence(seed, spawn_key=(stream_index,))``,
so any chunk of work can be given its own independent stream and
regenerated bit-exactly regardless of scheduling.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple
from dataclasses import dataclass, replace
from typing import Optional, Union

import numpy as np

from .analytic import (GaussComponent, GaussFringeDensity, Marginal1D,
                       _branch_fringe_ratio, _gauss_pdf, _packets)
from .core import ModeSpec, SuperpositionSpec, as_superposition

_MASK64 = (1 << 64) - 1
_BINS = 4096  # bins of a one-axis envelope
_RANGE_SIGMAS = 10.0  # the bins span this many sigmas of every component
_MAX_BATCH = 1 << 20  # candidates per rejection batch, to bound memory


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
        seq = np.random.SeedSequence(self.seed & _MASK64,
                                     spawn_key=(self.stream_index & _MASK64,))
        return np.random.Generator(np.random.SFC64(seq))

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


def _bin_bounds(density: GaussFringeDensity, a, b):
    """A lower and an upper bound of a one-axis density on each bin [a, b]."""
    f, norm = density.fringe, density.norm
    fm, fv, k = f.means[0], f.variances[0], f.wave[0]
    terms = [(c.weight, c.means[0], c.variances[0]) for c in density.gaussians]

    def peak(mean, var):  # the largest N(u; mean, var) on each bin
        return _gauss_pdf(np.clip(mean, a, b), mean, var)

    def low(mean, var):  # the smallest, at an edge
        return np.minimum(_gauss_pdf(a, mean, var), _gauss_pdf(b, mean, var))

    # |A| times the largest and the smallest sign(A) cos(k u + theta) on
    # each bin: 1 on a crest, -1 in a trough, else at an edge.
    lo, hi = np.sort([k * a, k * b], axis=0) + f.phase + (
        math.pi if f.amplitude < 0.0 else 0.0)
    wave, dip = (abs(f.amplitude) * np.where(
        2.0 * math.pi * np.floor((hi - at) / (2.0 * math.pi)) >= lo - at,
        top, pick(np.cos(lo), np.cos(hi))) for at, top, pick in (
            (0.0, 1.0, np.maximum), (math.pi, -1.0, np.minimum)))
    # The lower bound is kept this far below: beyond the density's rounding.
    margin = 1e-9 * norm * (abs(f.amplitude) * peak(fm, fv)
                            + sum(w * peak(m, v) for w, m, v in terms))
    if all((m, v) == (fm, fv) for _, m, v in terms):
        weight = sum(w for w, _, _ in terms)
        return (np.maximum(norm * low(fm, fv) * (weight + dip) - margin, 0.0),
                norm * peak(fm, fv) * (weight + wave))
    upper = norm * (wave * np.where(wave >= 0.0, peak(fm, fv), low(fm, fv))
                    + sum(w * peak(m, v) for w, m, v in terms))
    lower = norm * (dip * np.where(dip < 0.0, peak(fm, fv), low(fm, fv))
                    + sum(w * low(m, v) for w, m, v in terms))
    if k == 0.0 and all(v == fv for _, _, v in terms):
        # h = density / N(u; fm, fv) is A cos(theta) plus exponentials of
        # u: convex, so its maximum is at an edge, as is each exponential's
        # minimum.  Each edge e with N(to; fm, fv) / N(e; fm, fv):
        near, far = np.clip(fm, a, b), np.where(a + b < 2.0 * fm, a, b)
        up, down = ([(e, np.exp(0.5 * ((e - fm) ** 2 - (to - fm) ** 2) / fv))
                     for e in (a, b)] for to in (near, far))
        upper = np.minimum(upper, np.maximum(*(density.density(e) * r
                                               for e, r in up)))
        lower = np.maximum(lower, norm * (dip * low(fm, fv) + sum(
            w * np.minimum(*(_gauss_pdf(e, m, fv) * r for e, r in down))
            for w, m, _ in terms)))
    return np.maximum(lower - margin, 0.0), upper


def _alias_table(masses: np.ndarray):
    """Walker's alias table (Vose's construction): slot i yields i with
    probability keep[i], else alias[i]; i is drawn ~ masses[i]."""
    n = len(masses)
    scaled = list(masses * (n / masses.sum()))
    keep, alias = [1.0] * n, list(range(n))
    small = [i for i, p in enumerate(scaled) if p < 1.0]
    large = [i for i, p in enumerate(scaled) if p >= 1.0]
    while small and large:
        s, big = small.pop(), large.pop()
        keep[s], alias[s] = scaled[s], big
        scaled[big] = (scaled[big] + scaled[s]) - 1.0
        (small if scaled[big] < 1.0 else large).append(big)
    return np.array(keep), np.array(alias)


def _cdf(w):
    """The CDF ``Generator.choice(p=w / w.sum())`` searches (side="right")."""
    cdf = np.cumsum(w / w.sum())
    return cdf / cdf[-1]


class _Envelope:
    """A density's rejection envelope (see the module docstring); ``mass``
    is its total mass in the density's own units."""

    def __init__(self, density: GaussFringeDensity):
        if density.ndim != 1:  # nor of _factored's two-axis form
            raise ValueError(f"cannot sample a {density.ndim}-axis density: "
                             "only one axis, or two of one shared diagonal "
                             "covariance with the means along the draw axis")
        try:
            self.proposal, self.exact = _proposal_parts(density)
        except ValueError as exc:  # an envelope the family refuses, e.g. NaN
            raise EnvelopeViolation(
                f"no proposal for this density: {exc}") from exc
        comps = self.proposal.gaussians
        weights = np.array([c.weight for c in comps])
        mean = self.means = np.array([c.means[0] for c in comps])
        sigma = self.sigmas = np.sqrt([c.variances[0] for c in comps])
        self.cdf = _cdf(weights)
        self.mass = density.norm * weights.sum()
        if self.exact:
            return
        self.lo, hi = Marginal1D.support_hint(density, _RANGE_SIGMAS)
        edges = np.linspace(self.lo, hi, _BINS + 1)
        lower, bounds = _bin_bounds(density, edges[:-1], edges[1:])
        # The certificate: at each bin's edges and midpoint the density lies
        # within the bin's bounds, beyond rounding; so it is not negative.
        # A nearly cancelling fringe rounds on the scale of its terms, not
        # of its value, so both sides allow tol.
        probe = density.density(np.linspace(self.lo, hi, 2 * _BINS + 1))
        tol = self.tol = 1e-12 * np.max(bounds)
        top = bounds * (1 + 1e-9) + tol
        if not all(np.all((lower - tol <= d) & (d <= top))
                   for d in (probe[:-1:2], probe[1::2], probe[2::2])):
            raise EnvelopeViolation("density is negative, not finite or "
                                    "outside its bounds on a bin")
        self.width = edges[1] - edges[0]
        self.bounds = np.append(np.maximum(bounds, 0.0), 0.0)  # last: tails
        self.lower = np.append(lower, 0.0)
        # Beyond the bins: each component's normal tail past depth sigmas.
        self.depth = np.append(mean - self.lo, hi - mean) / np.tile(sigma, 2)
        self.tail_mean = np.tile(mean, 2)
        self.tail_scale = np.append(-sigma, sigma)
        tails = density.norm * np.tile(weights, 2) * [
            0.5 * math.erfc(d / math.sqrt(2.0)) for d in self.depth]
        self.tail_cdf = _cdf(tails)
        masses = np.append(self.bounds[:-1] * self.width, tails.sum())
        self.mass = masses.sum()
        self.keep, self.alias = _alias_table(masses)

    def mixture(self, rng, m):
        u, idx = rng.random(m), np.zeros(m, dtype=np.intp)
        for c in self.cdf[:-1]:  # searchsorted(side="right"): cdf[-1] = 1 > u
            idx += u >= c
        z = rng.standard_normal(m)
        return self.means.take(idx) + self.sigmas.take(idx) * z

    def propose(self, rng, m):
        """m candidates, the envelope's height at each and a lower bound
        of the density there (0 where there is none)."""
        y = rng.random(m) * (_BINS + 1)
        slot = np.minimum(y.astype(np.intp), _BINS)
        slot = np.where(y - slot < self.keep[slot], slot, self.alias[slot])
        u = self.lo + (slot + rng.random(m)) * self.width
        height = self.bounds[slot]
        tail = np.flatnonzero(slot == _BINS)
        if tail.size:
            u[tail] = self._tail(rng, tail.size)
            height[tail] = self.proposal.density(u[tail])
        return u, height, self.lower[slot]

    def _tail(self, rng, n):
        """n draws of the global proposal beyond the bins (Marsaglia's
        method for each component's normal tail)."""
        pick = np.searchsorted(self.tail_cdf, rng.random(n), side="right")
        depth, x, todo = self.depth[pick], np.empty(n), np.arange(n)
        while todo.size:
            z = np.sqrt(depth[todo] ** 2
                        - 2.0 * np.log1p(-rng.random(todo.size)))
            ok = rng.random(todo.size) * z <= depth[todo]
            x[todo[ok]] = z[ok]
            todo = todo[~ok]
        return self.tail_mean[pick] + self.tail_scale[pick] * x


def _rotate(along, across, axis, scales):
    """Columns of scales * (along e + across n), n = axis e turned 90°."""
    (ca, cb), (sa, sb) = axis, scales
    return sa * (ca * along - cb * across), sb * (cb * along + ca * across)


# A two-axis member as _rotate(along, across + N(0, 1), axis, scales).
_Factored = namedtuple("_Factored", "along axis scales across")


def _factored(density: GaussFringeDensity) -> Optional[_Factored]:
    """The factored form (module docstring) or None; the wave is along e."""
    f = density.fringe
    terms = density.gaussians + (() if f is None else (f,))
    if density.ndim != 2 or len({t.variances for t in terms}) != 1:
        return None
    scales = np.sqrt(terms[0].variances)
    means = np.array([t.means for t in terms]) / scales
    wave = np.zeros(2) if f is None else np.multiply(f.wave, scales)
    ref = wave if wave.any() else max(means - means[0],
                                      key=lambda d: math.hypot(*d))
    ca, cb = ref / math.hypot(*ref) if ref.any() else (1.0, 0.0)
    along = ca * means[:, 0] + cb * means[:, 1]
    across = ca * means[:, 1] - cb * means[:, 0]
    if np.ptp(across) > 1e-12 * (1.0 + np.abs(means).max()):
        return None
    fringe = None if f is None else replace(
        f, means=(along[-1],), variances=(1.0,),
        wave=(ca * wave[0] + cb * wave[1],))
    comps = tuple(replace(c, means=(a,), variances=(1.0,))
                  for c, a in zip(density.gaussians, along))
    return _Factored(Marginal1D(comps, fringe, density.norm, ("u",)),
                     (ca, cb), tuple(scales), across[0])


@functools.lru_cache(maxsize=32)
def _compiled(density: GaussFringeDensity):
    """A density's compile, once: its factored form, else its envelope."""
    return _factored(density) or _Envelope(density)


def sample_fringe_density(density: GaussFringeDensity, rng, size: int,
                          diagnostics: Optional[dict] = None) -> np.ndarray:
    """Draw exact samples from a Gaussian-mixture-plus-fringe density.

    Returns an array of shape (size,) for a one-axis density and
    (size, 2) for a two-axis one.

    Parameters
    ----------
    density : GaussFringeDensity or Marginal1D
        Must be normalised (total mass 1); weights non-negative.
    rng : numpy Generator or RngStream
    size : int
    diagnostics : dict, optional
        If given, filled with ``n_proposed``, ``n_accepted`` (every
        accepted proposal, including any beyond ``size`` that the last
        batch drew and dropped), ``n_evaluated`` (those the squeeze left
        to evaluate) and the analytic ``acceptance_bound``.  A factored
        two-axis member reports its one-axis stage's counts and bound:
        its across normal is drawn exactly.

    Raises
    ------
    ValueError
        For a density of neither form, such as ``q_single_mode``.
    EnvelopeViolation
        If the density at a bin's edge or midpoint is outside the bin's
        bounds at compile, or at an evaluated candidate is not finite,
        above its envelope or below zero — which for well-formed members
        of the family cannot happen, so this flags a hand-built object
        that is not a density.
    """
    rng = _as_generator(rng)
    env = _compiled(density)
    if isinstance(env, _Factored):
        along = sample_fringe_density(env.along, rng, size, diagnostics)
        across = rng.standard_normal(size) + env.across
        return np.column_stack(_rotate(along, across, env.axis, env.scales))
    n_proposed, n_accepted, n_evaluated = size, size, 0
    if env.exact:
        out = env.mixture(rng, size)
    else:
        out = np.empty(size)
        filled = n_proposed = n_accepted = 0
        while filled < size:
            m = min(math.ceil((size - filled) * env.mass), _MAX_BATCH)
            pts, height, lower = env.propose(rng, m)
            u = rng.random(m)
            # The squeeze: below the lower bound, u < density / height holds.
            accept = u * height < lower
            rest = np.flatnonzero(~accept)
            n_evaluated += rest.size
            target, height = density.density(pts[rest]), height[rest]
            if not (np.isfinite(target).all() and np.isfinite(height).all()):
                raise EnvelopeViolation("density or envelope is not finite "
                                        "at a candidate")
            with np.errstate(invalid="ignore", divide="ignore"):
                ratio = np.where(height > 0.0, target / height, 0.0)
            # Beyond rounding on the terms' scale, as at compile.
            if np.any(target > height * (1 + 1e-9) + env.tol) \
                    or np.any(target < -env.tol):
                raise EnvelopeViolation(
                    f"density/envelope ratio outside [0, 1]: "
                    f"[{ratio.min():.3g}, {ratio.max():.3g}]")
            accept[rest] = u[rest] < ratio
            got = pts[accept]
            n_proposed += m
            n_accepted += len(got)
            take = min(len(got), size - filled)
            out[filled:filled + take] = got[:take]
            filled += take
    if diagnostics is not None:
        diagnostics.update(n_proposed=n_proposed, n_accepted=n_accepted,
                           n_evaluated=n_evaluated,
                           acceptance_bound=1.0 / env.mass)
    return out


def _fringe_stage(s: np.ndarray, k: float, phi: float, rng) -> np.ndarray:
    """Draw v ~ N(0, 1)(1 + s cos(phi + k v)), one s in [0, 1] per record.

    As 1 + s cos = (1 - s) + s (1 + cos), a record draws from the crest
    N(v)(1 + cos(phi + k v)) / M, M its mass, with probability
    s M / (1 - s + s M), and from N(0, 1) otherwise.
    """
    crest = _packets((1.0,), (0.0,), (1.0,), (1.0, (k,), phi), 1.0, ("v",))
    mass = crest.total_mass()
    on_crest = rng.random(s.shape) * (1.0 + s * (mass - 1.0)) < s * mass
    n = np.count_nonzero(on_crest)
    v = rng.standard_normal(s.shape)
    if n:
        v[on_crest] = sample_fringe_density(
            replace(crest, norm=1.0 / mass), rng, n)
    return v


def sample_p_given_x(spec: Union[ModeSpec, SuperpositionSpec], x_at_t0, rng
                     ) -> np.ndarray:
    """Draw one initial momentum per initial position from the conditional.

    The conditional at t = 0 is N(p; 0, sigma_p^2) modulated by
    1 + s(x) cos(phi + p x1 / sigma_x^2), drawn exactly by the fringe
    stage in units of sigma_p.

    Parameters
    ----------
    spec : ModeSpec or SuperpositionSpec
    x_at_t0 : array-like
        Initial positions the draws condition on.
    rng : numpy Generator or RngStream

    Returns
    -------
    ndarray matching the shape of ``x_at_t0``; a NaN or infinite
    position raises ValueError.
    """
    rng = _as_generator(rng)
    sup = as_superposition(spec)
    x = np.asarray(x_at_t0, dtype=float)
    if not np.isfinite(x).all():
        raise ValueError("sample_p_given_x needs finite positions")
    k = sup.x1 / sup.mode.sigma_x2
    sigma_p = math.sqrt(sup.mode.sigma_p2)
    return sigma_p * _fringe_stage(_branch_fringe_ratio(sup, x * k),
                                   k * sigma_p, sup.phase_phi, rng)
