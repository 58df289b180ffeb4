"""Sign binning, conditional resampling and inferred-state estimation.

A completed run selects trajectories by the sign of an amplified
position at the final time.  Because the backward relaxation contracts
toward t = 0, the selected sub-ensembles concentrate on one packet and
their initial-time spreads drop below the symmetric-state values; the
estimators here report those conditional moments with batch standard
errors, and rebuild ("loop") the unmeasured coordinates by drawing them
fresh from the conditional distribution given the measured ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Tuple, Union

import numpy as np

from .analytic import (_T0_AMP, GaussFringeDensity, UnsupportedPhase,
                       _branch_fringe_ratio, _meter_branch_density,
                       _phase_kind, meter_condition_weights)
from .core import (AmplifierSpec, ModeSpec, ScenarioError, SuperpositionSpec,
                   TwoModeSpec)
from .sampler import _as_generator, _fringe_stage, _rotate, sample_p_given_x
from .sde_engine import CHUNK, TrajectoryEnsemble, iter_chunks
from .stats import Histogram, histogram

N_BATCHES = 10
MIN_SAMPLES = 100
_INFER_BINS = 100  # points per axis of the inferred-state grid and meter bins
_INFER_SPAN = 8.0  # grid half-width beyond the packet centres, in sigmas
_BLOCK = 8 * CHUNK  # rows one block kernel selects, loops and reduces


class EmptyEnsemble(ValueError):
    """No trajectories to select from."""


class EmptyBranch(ValueError):
    """The selected branch contains no trajectories."""


class TooFewSamples(ValueError):
    """Not enough samples for a variance estimate with an error bar."""


@dataclass(frozen=True)
class PostselectedEnsemble:
    """Initial-time coordinates of the trajectories with one final sign.

    ``p0`` and ``p_b0`` are None when the run never drew them."""

    branch: int
    x0: np.ndarray
    p0: Optional[np.ndarray]
    x_b0: Optional[np.ndarray] = None
    p_b0: Optional[np.ndarray] = None

    @property
    def n(self) -> int:
        return len(self.x0)


@dataclass(frozen=True)
class MomentEstimate:
    """Mean and variance of one coordinate with batch standard errors.

    ``variance`` is whatever the producing estimator reports — the raw
    sample variance for phase-space moments, or the sample variance
    minus the coherent-state floor for observed (measured) moments; see
    the producer's docstring.  Negative values are reported as they
    come, never clamped.
    """

    mean: float
    variance: float
    std_error_mean: float
    std_error_variance: float
    n: int


@dataclass(frozen=True)
class UncertaintyProduct:
    """Product of observed standard deviations with propagated error."""

    epsilon: float
    std_error: float
    negative_variance: bool
    var_x: MomentEstimate
    var_p: MomentEstimate


def _batch_se(batch_values) -> float:
    """Standard error of a mean from its ``N_BATCHES`` batch values."""
    return float(np.std(batch_values, ddof=1)) / math.sqrt(N_BATCHES)


class _Tally:
    """Per-batch count, shifted sum and sum of squares of some columns.

    Batch b holds the records of source rows [b n / 10, (b + 1) n / 10):
    a run's trajectories or a gathered branch's rows.  Each column is
    shifted by its first record, so at one shift batches merge by
    addition (Chan, Golub & LeVeque 1979).  ``hist``: an inference
    tally's meter histogram.
    """

    def __init__(self, n_rows: int):
        self.edges = np.arange(N_BATCHES + 1) * n_rows // N_BATCHES
        self.counts = np.zeros(N_BATCHES, dtype=np.int64)
        self.shift = self.sums = self.hist = None  # sums: batch, power, col

    @property
    def n(self) -> int:
        return int(self.counts.sum())

    def add(self, cols, lo: int = 0, keep: Optional[np.ndarray] = None):
        """Add the records of source rows lo, lo + 1, ..., one per row, or
        one per row where ``keep`` holds."""
        cuts = np.clip(self.edges - lo, 0, len(cols[0] if keep is None
                                                 else keep))
        if keep is not None:
            cuts = [np.count_nonzero(keep[:c]) for c in cuts]
        if self.shift is None and len(cols[0]):
            self.shift = np.array([c[0] for c in cols])
            self.sums = np.zeros((N_BATCHES, 2, len(cols)))
        for b in np.flatnonzero(np.diff(cuts)):
            self.counts[b] += cuts[b + 1] - cuts[b]
            for k, c in enumerate(cols):
                d = c[cuts[b]:cuts[b + 1]] - self.shift[k]
                self.sums[b, :, k] += d.sum(), np.einsum("i,i->", d, d)

    def moments(self, correction: float = 0.0):
        """``(estimates, batch_means)``: each column's MomentEstimate, its
        variance less ``correction``, and its mean in each batch (a row
        per batch).  TooFewSamples below 100 records or 2 in a batch."""
        if self.n < MIN_SAMPLES:
            raise TooFewSamples(
                f"{self.n} samples in branch; need at least {MIN_SAMPLES}")
        if self.counts.min() < 2:
            raise TooFewSamples(f"a batch holds {self.counts.min()} "
                                f"samples; need at least 2")
        n, b_n = self.n, self.counts[:, None]
        (s, q), (b_s, b_q) = self.sums.sum(axis=0), self.sums.swapaxes(0, 1)
        var = (q - s * s / n) / (n - 1) - correction
        b_var = (b_q - b_s * b_s / b_n) / (b_n - 1) - correction
        b_mean = b_s / b_n  # shifted, so their spread is exact
        return [MomentEstimate(float(m), float(v), _batch_se(bm),
                               _batch_se(bv), n)
                for m, v, bm, bv in zip(self.shift + s / n, var, b_mean.T,
                                        b_var.T)], self.shift + b_mean


def bin_by_sign(ensemble: TrajectoryEnsemble, mode: str = "a"
                ) -> Tuple[PostselectedEnsemble, PostselectedEnsemble]:
    """Split an ensemble by the final-time sign of an amplified position.

    Parameters
    ----------
    ensemble : TrajectoryEnsemble
    mode : {"a", "b"}
        Which position decides the split; "b" needs a two-mode run.

    Returns
    -------
    (plus, minus) : PostselectedEnsemble pair
        Zero final values count as positive.  Either branch may be
        empty after a strongly biased split.
    """
    if ensemble.count == 0:
        raise EmptyEnsemble("cannot select from an empty ensemble")
    if mode not in ("a", "b"):
        raise ValueError(f"mode must be 'a' or 'b', got {mode!r}")
    if mode == "b" and not ensemble.is_two_mode:
        raise ScenarioError("mode 'b' selection needs a two-mode ensemble")
    key = (ensemble.x_paths if mode == "a" else ensemble.x_b_paths)[:, -1]
    cols = [paths[:, 0] for paths in (ensemble.x_paths, ensemble.p_paths,
                                      ensemble.x_b_paths, ensemble.p_b_paths)
            if paths is not None]
    mask = key >= 0.0
    return (PostselectedEnsemble(+1, *_take(cols, mask)),
            PostselectedEnsemble(-1, *_take(cols, ~mask)))


def _take(cols, keep: np.ndarray) -> list:
    """Each column's rows where ``keep`` holds, by an index per block."""
    outs = [np.empty(np.count_nonzero(keep)) for _ in cols]
    at = 0
    for lo in range(0, len(keep), _BLOCK):
        idx = np.flatnonzero(keep[lo:lo + _BLOCK])
        for c, out in zip(cols, outs):  # mode="clip" writes to out unbuffered
            c[lo:lo + _BLOCK].take(idx, out=out[at:at + idx.size], mode="clip")
        at += idx.size
    return outs


def _select_by_sign(spec, amp: AmplifierSpec, n_traj: int, seed: int,
                    threads: Optional[int], stream_offset: int = 0):
    """Yield ``(lo, keep, plus, minus, n_agree)`` for each block of a run.

    A block, the ``_BLOCK`` trajectories from ``lo``, is split by final
    sign (the meter's for two modes); ``keep`` marks its plus rows.  Its
    branches are bitwise those rows of ``bin_by_sign(simulate_*(...))``'s,
    with no conjugate drawn; ``n_agree`` have final signs that agree.
    """
    amp = replace(amp, n_steps=1)
    if not isinstance(spec, TwoModeSpec) and amp.gain_rate_g <= 0.0:
        raise ScenarioError("sign selection needs gain rate amp.g > 0")
    for lo, hi, paths in iter_chunks(spec, amp, n_traj, seed, threads,
                                     stream_offset=stream_offset, _through=2):
        at = lo % _BLOCK
        if at == 0:  # per block: each mode's t = 0 column and final sign
            starts = np.empty((len(paths), min(_BLOCK, n_traj - lo)))
            signs = np.empty(starts.shape, dtype=bool)
        for k, path in enumerate(paths):
            starts[k, at:at + hi - lo] = path[:, 0]
            signs[k, at:at + hi - lo] = path[:, -1] >= 0.0
        del paths, path  # release the chunk before the next is submitted
        if at + hi - lo == starts.shape[1]:
            keep = signs[-1]
            yield (lo - at, keep,
                   *(PostselectedEnsemble(branch, x0, None, *meter)
                     for branch, (x0, *meter) in ((+1, _take(starts, keep)),
                                                  (-1, _take(starts, ~keep)))),
                   np.count_nonzero(keep == signs[0]))
            del starts, signs, keep  # the consumer holds the block meanwhile


def _draw_conditional_triple(spec: TwoModeSpec, x_b0: np.ndarray, rng
                             ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Draw (x_a, p_a, p_b) from the conditional given each initial meter value.

    A chain: x_a from its marginal, then the fringe stage at sech(k z + u)
    along the wave vector and N(0, 1) across it.  With z = x_a / sigma_xa,
    k = x1 / sigma_xa and u the meter's, the marginal is N(z)(cosh(k z +
    u) + d), d = e^{-K^2 / 2} cos(phi), K the whitened wave number of
    (p_a, p_b): for d >= 0 the packets at +-k plus a centred Gaussian.
    For d < 0 it is drawn by composition (Devroye 1986, II.3): (1 + d) N
    cosh, the packets, and (-d) N (cosh - 1), which rejects with 1 -
    sech(y), y = k z + u, from a term at +-k of N(w) h(w), w = z -+ k:
    h = 1, the packets, or h = k^2 w^2 + b^2 >= y^2 / 2, b = u +- k^2, a
    chi(3) and normal mixture, whichever has less mass; either accepts at
    least 0.2.
    """
    sup = spec.mode_a
    sxa = sup.mode.sigma_x2
    sxb = spec.mode_b.sigma_x2
    sig_pa = math.sqrt(sup.mode.sigma_p2)
    sig_pb = math.sqrt(spec.mode_b.sigma_p2)
    x1, n = spec.x1, len(x_b0)
    w_plus, s = meter_condition_weights(spec, _T0_AMP, 0.0, x_b0)
    u = x_b0 * spec.x1b / sxb
    wa, wb = x1 / sxa * sig_pa, spec.x1b / sxb * sig_pb
    wave = math.hypot(wa, wb)
    d = math.exp(-0.5 * wave ** 2) * math.cos(sup.phase_phi)
    k, overlap = x1 / math.sqrt(sxa), math.exp(-0.5 * x1 ** 2 / sxa)
    if d >= 0.0:
        pick = rng.random(n) * (1.0 + s * overlap * d)
        xa = (np.where(pick < w_plus, x1, np.where(pick < 1.0, -x1, 0.0))
              + math.sqrt(sxa) * rng.standard_normal(n))
    else:
        rest = rng.random(n) * (1.0 + d * s * overlap) >= 1.0 + d
        b = u + [[k * k], [-k * k]]
        tilt = 1.0 + [[1.0], [-1.0]] * (2.0 * w_plus - 1.0)  # 1 +- tanh u
        quad = rest & ((tilt * (k * k + b * b)).sum(axis=0) < 2.0)
        mass = tilt * np.where(quad, k * k + b * b, 1.0)
        first, z, todo = mass[0] / mass.sum(axis=0), np.empty(n), np.arange(n)
        while todo.size:
            m, q, b_t = todo.size, quad[todo], b[:, todo]
            plus = rng.random(m) < first[todo]
            b_t = np.where(plus, b_t[0], b_t[1])
            w = rng.standard_normal(m)
            chi = q & (rng.random(m) * (k * k + b_t * b_t) < k * k)
            w[chi] = np.copysign(np.sqrt(rng.chisquare(3, m)), w)[chi]
            half = np.tanh(0.5 * (k * w + b_t)) ** 2  # 1 - sech = 2h / (1 + h)
            ok = ~rest[todo] | (rng.random(m) * (1.0 + half) * np.where(
                q, (k * w) ** 2 + b_t * b_t, 1.0) < 2.0 * half)
            z[todo[ok]] = np.where(plus, k, -k)[ok] + w[ok]
            todo = todo[~ok]
        xa = math.sqrt(sxa) * z
    along = _fringe_stage(_branch_fringe_ratio(sup, xa * x1 / sxa + u),
                          wave, sup.phase_phi, rng)
    across = rng.standard_normal(len(xa))
    axis = (wa / wave, wb / wave) if wave > 0.0 else (1.0, 0.0)
    return (xa, *_rotate(along, across, axis, (sig_pa, sig_pb)))


def build_loops(selected: PostselectedEnsemble,
                spec: Union[ModeSpec, SuperpositionSpec, TwoModeSpec],
                rng) -> PostselectedEnsemble:
    """Redraw the unmeasured coordinates conditioned on the measured ones.

    Single mode: keeps each initial position and draws a fresh initial
    momentum from the conditional given that position.  Two modes:
    keeps each initial meter position and draws fresh
    (x_a, p_a, p_b) from the conditional given it, ``_BLOCK`` anchors at a
    time.  One loop per anchor: for k loops each, pass a branch with
    every anchor repeated k times.

    Parameters
    ----------
    selected : PostselectedEnsemble
    spec : state specification matching the ensemble
    rng : numpy Generator or RngStream

    Returns
    -------
    PostselectedEnsemble with the n anchors of ``selected``.
    """
    if selected.n == 0:
        raise EmptyBranch("no trajectories in the selected branch")
    rng = _as_generator(rng)
    two = isinstance(spec, TwoModeSpec)
    anchors = selected.x_b0 if two else selected.x0
    if two and anchors is None:
        raise ScenarioError("two-mode loops need meter coordinates")
    if two and not np.isfinite(anchors).all():
        raise ValueError("two-mode loops need finite meter positions")
    drawn = [np.concatenate(col) for col in zip(*(
        _draw_conditional_triple(spec, block, rng) if two
        else (sample_p_given_x(spec, block, rng),)
        for block in np.split(anchors, range(_BLOCK, selected.n, _BLOCK))))]
    if two:
        xa, pa, pb = drawn
        return PostselectedEnsemble(selected.branch, xa, pa, anchors, pb)
    return PostselectedEnsemble(selected.branch, selected.x0, drawn[0])


def observed_variances(selected: Union[PostselectedEnsemble, _Tally],
                       mode: str = "a"
                       ) -> Tuple[MomentEstimate, MomentEstimate]:
    """Measured position and momentum moments of one selected branch.

    The observed variance is the initial-time sample variance minus the
    coherent-state floor of 1 per quadrature, so an eigenstate-like
    record gives zero and a squeezed record goes below the symmetric
    value; negative estimates are reported as they come.  Standard
    errors come from 10 batches, each a tenth of the rows, or from a
    block kernel's ``_Tally`` of one mode's (position, momentum).

    Parameters
    ----------
    selected : PostselectedEnsemble or _Tally
    mode : {"a", "b"}
        Which mode's coordinates to summarise (of a PostselectedEnsemble).

    Raises
    ------
    TooFewSamples
        Fewer than 100 samples in the branch, or fewer than 2 in a batch.
    """
    tally = selected
    if not isinstance(tally, _Tally):
        if mode not in ("a", "b"):
            raise ValueError(f"mode must be 'a' or 'b', got {mode!r}")
        if mode == "b" and selected.x_b0 is None:
            raise ScenarioError("mode 'b' moments need a two-mode ensemble")
        names = ("x0", "p0") if mode == "a" else ("x_b0", "p_b0")
        xs, ps = (getattr(selected, name) for name in names)
        if ps is None:
            raise ValueError(f"{names[1]} was never drawn: loop the branch "
                             f"first")
        tally = _Tally(len(xs))
        tally.add((xs, ps))
    (est_x, est_p), _ = tally.moments(correction=1.0)
    return est_x, est_p


def uncertainty_product(selected: Union[PostselectedEnsemble, _Tally],
                        mode: str = "a") -> UncertaintyProduct:
    """Product of the observed standard deviations, with propagated error.

    epsilon = sqrt(Vx * Vp) for the observed variances of one branch
    (``observed_variances``, which also takes a block kernel's tally);
    values below the symmetric-state product witness the conditional
    squeezing of the record.  If either observed variance is negative
    (possible through subtraction noise near an eigenstate-like record)
    the product is reported as NaN with ``negative_variance`` set.
    """
    est_x, est_p = observed_variances(selected, mode)
    vx, vp = est_x.variance, est_p.variance
    negative = vx < 0.0 or vp < 0.0
    if vx > 0.0 and vp > 0.0:
        eps = math.sqrt(vx * vp)
        se = 0.5 * math.hypot(est_x.std_error_variance * vp,
                              est_p.std_error_variance * vx) / eps
    else:
        eps = float("nan")
        se = float("nan")
    return UncertaintyProduct(eps, se, negative, est_x, est_p)


@dataclass(frozen=True)
class InferredState:
    """System phase-space state reconstructed from meter records.

    ``moments_x`` / ``moments_p`` carry raw phase-space moments (no
    floor subtraction); ``density`` is the closed-form reconstruction on
    axes ("x_a", "p_a"), the meter-conditioned density of
    ``conditional_given_meter_x`` at the ensemble-averaged branch weight
    and interference suppression with p_b integrated out, and ``values``
    samples it on the reporting grid.
    """

    density: GaussFringeDensity
    moments_x: MomentEstimate
    moments_p: MomentEstimate
    w_plus_bar: float
    sech_bar: float
    x_centers: np.ndarray
    p_centers: np.ndarray
    values: np.ndarray
    grid_mass: float
    meter_hist: Histogram
    n: int


def _tally_meter(tally: _Tally, spec: TwoModeSpec, x_b0: np.ndarray,
                 lo: int = 0, keep: Optional[np.ndarray] = None) -> None:
    """Tally meter records (as ``_Tally.add``): their branch weight and
    interference suppression, binned over +-x1b and 8 sigma beyond."""
    tally.add(meter_condition_weights(spec, _T0_AMP, 0.0, x_b0), lo, keep)
    half = spec.x1b + _INFER_SPAN * math.sqrt(spec.mode_b.sigma_x2)
    part = histogram(x_b0, np.linspace(-half, half, _INFER_BINS + 1))
    tally.hist = part if tally.hist is None else tally.hist + part


def infer_state_A_numeric(selected: Union[PostselectedEnsemble, _Tally],
                          spec: TwoModeSpec) -> InferredState:
    """Reconstruct the system state from one branch's meter records.

    Each record contributes the conditional system distribution given
    its initial meter position; because those conditionals depend on the
    record only through the branch weight and the interference
    suppression — both entering linearly — the branch average is again a
    member of the closed-form family, evaluated at the ensemble means
    of the two factors.  Moments and their batch errors follow from the
    same closed forms applied per batch.

    Only the quarter phase is supported: there the conditional is
    normalised for every record, so the average needs no per-record
    renormalisation.

    Parameters
    ----------
    selected : PostselectedEnsemble or _Tally
        A two-mode branch (needs meter coordinates), at least 100
        records, or the tally a block kernel filled by ``_tally_meter``.
    spec : TwoModeSpec
    """
    sup = spec.mode_a
    if _phase_kind(sup.phase_phi) != "quarter":
        raise UnsupportedPhase(
            "inferred-state reconstruction needs the quarter phase "
            "(state.phi = pi/2)")
    if selected.n == 0:
        raise EmptyBranch("no trajectories in the selected branch")
    gathered = isinstance(selected, PostselectedEnsemble)
    if gathered and selected.x_b0 is None:
        raise ScenarioError("inference needs a two-mode ensemble")
    tally = selected
    if gathered:
        tally = _Tally(selected.n)
        _tally_meter(tally, spec, selected.x_b0)
    (w_bar, s_bar), b_means = tally.moments()

    def moments_at(wb, sb):
        d = _meter_branch_density(spec, float(wb), float(sb)).marginal("p_b")
        return d, d.moments(0) + d.moments(1)

    density, (mx, vx, mp, vp) = moments_at(w_bar.mean, s_bar.mean)
    se = [_batch_se(col)
          for col in zip(*(moments_at(*row)[1] for row in b_means))]
    moments_x = MomentEstimate(mx, vx, se[0], se[1], tally.n)
    moments_p = MomentEstimate(mp, vp, se[2], se[3], tally.n)

    sig_x = math.sqrt(sup.mode.sigma_x2)
    sig_p = math.sqrt(sup.mode.sigma_p2)
    half_x = spec.x1 + _INFER_SPAN * sig_x
    half_p = _INFER_SPAN * sig_p
    x_centers = _bin_centers(-half_x, half_x, _INFER_BINS)
    p_centers = _bin_centers(-half_p, half_p, _INFER_BINS)
    values = density.density(x_centers[:, None], p_centers[None, :])
    dx = x_centers[1] - x_centers[0]
    dp = p_centers[1] - p_centers[0]
    grid_mass = float(values.sum() * dx * dp)
    return InferredState(density, moments_x, moments_p, w_bar.mean,
                         s_bar.mean, x_centers, p_centers, values, grid_mass,
                         tally.hist, tally.n)


def _bin_centers(lo: float, hi: float, n: int) -> np.ndarray:
    edges = np.linspace(lo, hi, n + 1)
    return 0.5 * (edges[:-1] + edges[1:])


def meter_sign_agreement(ensemble: TrajectoryEnsemble) -> float:
    """Fraction of trajectories whose two final positions share a sign."""
    if ensemble.x_b_paths is None:
        raise ScenarioError("sign agreement needs a two-mode ensemble")
    a = ensemble.x_paths[:, -1] >= 0.0
    b = ensemble.x_b_paths[:, -1] >= 0.0
    return float(np.mean(a == b))
