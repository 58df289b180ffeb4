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
                   TwoModeSpec, validate_scenario)
from .sampler import _as_generator, _fringe_stage, _rotate, sample_p_given_x
from .sde_engine import TrajectoryEnsemble, iter_chunks
from .stats import Histogram, histogram

N_BATCHES = 10
MIN_SAMPLES = 100
_INFER_BINS = 100  # points per axis of the inferred-state grid and meter bins
_INFER_SPAN = 8.0  # grid half-width beyond the packet centres, in sigmas


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


def _require_samples(n: int) -> None:
    if n < MIN_SAMPLES:
        raise TooFewSamples(
            f"{n} samples in branch; need at least {MIN_SAMPLES}")


def _batch_se(batch_values) -> float:
    """Standard error of a mean from its ``N_BATCHES`` batch values."""
    return float(np.std(batch_values, ddof=1)) / math.sqrt(N_BATCHES)


def _moment_estimate(values: np.ndarray, correction: float) -> MomentEstimate:
    n = len(values)
    mean = float(np.mean(values))
    var = float(np.var(values, ddof=1)) - correction
    batches = np.array_split(values, N_BATCHES)
    b_means = [float(np.mean(b)) for b in batches]
    b_vars = [float(np.var(b, ddof=1)) - correction for b in batches]
    return MomentEstimate(mean, var, _batch_se(b_means), _batch_se(b_vars), n)


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
    """Each column's rows where ``keep`` holds."""
    return [np.compress(keep, c) for c in cols]


def _select_by_sign(spec, amp: AmplifierSpec, n_traj: int, seed: int,
                    threads: Optional[int], stream_offset: int = 0):
    """``(plus, minus, n_agree)``: a run split by final sign, chunk by chunk.

    Bitwise ``bin_by_sign(simulate_*(...))``'s branches, the meter
    deciding two modes, at one step and with no conjugate drawn (``p0``
    is None); ``n_agree`` counts trajectories whose final signs agree.
    """
    amp = replace(amp, n_steps=1)
    validate_scenario(spec, amp)
    if not isinstance(spec, TwoModeSpec) and amp.gain_rate_g <= 0.0:
        raise ScenarioError("sign selection needs gain rate amp.g > 0")
    kept, n_agree = ([], []), 0  # per branch, each chunk's selected columns
    for _, _, paths in iter_chunks(spec, amp, n_traj, seed, threads,
                                   stream_offset=stream_offset, _through=2):
        mask = paths[-1][:, -1] >= 0.0  # the meter decides two modes
        n_agree += np.count_nonzero(mask == (paths[0][:, -1] >= 0.0))
        for parts, keep in zip(kept, (mask, ~mask)):
            parts.append(_take([path[:, 0] for path in paths], keep))
        del paths  # release the chunk before the next is submitted

    def join(branch, parts):
        x0, *meter = (np.concatenate(col) for col in zip(*parts))
        parts.clear()
        return PostselectedEnsemble(branch, x0, None, *meter)

    return join(+1, kept[0]), join(-1, kept[1]), n_agree


def _draw_conditional_triple(spec: TwoModeSpec, x_b0: np.ndarray, rng
                             ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Draw (x_a, p_a, p_b) from the conditional given each initial meter value.

    A chain: x_a from its marginal, the packets at +-x1 plus a centred
    Gaussian of weight s e^{-x1^2 / 2 sigma_xa^2} d, d = e^{-K^2 / 2}
    cos(phi), K the whitened wave number of (p_a, p_b).  For d < 0 the
    packets propose, kept with probability 1 + d sech(a + u) >= 1 - |d|
    (a = x_a x1 / sigma_xa^2, u the meter's).  Then the fringe stage at
    sech(a + u) along the wave vector and N(0, 1) across it.
    """
    sup = spec.mode_a
    sxa = sup.mode.sigma_x2
    sxb = spec.mode_b.sigma_x2
    sig_pa = math.sqrt(sup.mode.sigma_p2)
    sig_pb = math.sqrt(spec.mode_b.sigma_p2)
    x1 = spec.x1
    w_plus, s = meter_condition_weights(spec, _T0_AMP, 0.0, x_b0)
    u = x_b0 * spec.x1b / sxb
    wa, wb = x1 / sxa * sig_pa, spec.x1b / sxb * sig_pb
    wave = math.hypot(wa, wb)
    d = math.exp(-0.5 * wave ** 2) * math.cos(sup.phase_phi)
    centre_w = s * math.exp(-0.5 * x1 ** 2 / sxa) * max(d, 0.0)
    xa = np.empty(len(x_b0))
    todo = np.arange(len(x_b0))
    while todo.size:
        pick = rng.random(todo.size) * (1.0 + centre_w[todo])
        xa[todo] = (np.where(pick < w_plus[todo], x1,
                             np.where(pick < 1.0, -x1, 0.0))
                    + math.sqrt(sxa) * rng.standard_normal(todo.size))
        if d >= 0.0:
            break
        todo = todo[rng.random(todo.size) >= 1.0 + d * _branch_fringe_ratio(
            sup, xa[todo] * x1 / sxa + u[todo])]
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
    (x_a, p_a, p_b) from the conditional given it.  One loop per anchor:
    for k loops each, pass a branch with every anchor repeated k times.

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
    if isinstance(spec, TwoModeSpec):
        anchors = selected.x_b0
        if anchors is None:
            raise ScenarioError("two-mode loops need meter coordinates")
        if not np.isfinite(anchors).all():
            raise ValueError("two-mode loops need finite meter positions")
        xa, pa, pb = _draw_conditional_triple(spec, anchors, rng)
        return PostselectedEnsemble(selected.branch, xa, pa, anchors, pb)
    p0 = sample_p_given_x(spec, selected.x0, rng)
    return PostselectedEnsemble(selected.branch, selected.x0, p0)


def observed_variances(selected: PostselectedEnsemble, mode: str = "a"
                       ) -> Tuple[MomentEstimate, MomentEstimate]:
    """Measured position and momentum moments of one selected branch.

    The observed variance is the initial-time sample variance minus the
    coherent-state floor of 1 per quadrature, so an eigenstate-like
    record gives zero and a squeezed record goes below the symmetric
    value; negative estimates are reported as they come.  Standard
    errors come from 10 contiguous batches.

    Parameters
    ----------
    selected : PostselectedEnsemble
    mode : {"a", "b"}
        Which mode's coordinates to summarise.

    Raises
    ------
    TooFewSamples
        Fewer than 100 samples in the branch.
    """
    if mode not in ("a", "b"):
        raise ValueError(f"mode must be 'a' or 'b', got {mode!r}")
    if mode == "b" and selected.x_b0 is None:
        raise ScenarioError("mode 'b' moments need a two-mode ensemble")
    names = ("x0", "p0") if mode == "a" else ("x_b0", "p_b0")
    xs, ps = (getattr(selected, name) for name in names)
    if ps is None:
        raise ValueError(f"{names[1]} was never drawn: loop the branch first")
    _require_samples(len(xs))
    return (_moment_estimate(xs, correction=1.0),
            _moment_estimate(ps, correction=1.0))


def uncertainty_product(selected: PostselectedEnsemble, mode: str = "a"
                        ) -> UncertaintyProduct:
    """Product of the observed standard deviations, with propagated error.

    epsilon = sqrt(Vx * Vp) for the observed variances of one branch;
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


def infer_state_A_numeric(selected: PostselectedEnsemble, spec: TwoModeSpec
                          ) -> InferredState:
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
    selected : PostselectedEnsemble
        A two-mode branch (needs meter coordinates), at least 100 records.
    spec : TwoModeSpec
    """
    if selected.n == 0:
        raise EmptyBranch("no trajectories in the selected branch")
    if selected.x_b0 is None:
        raise ScenarioError("inference needs a two-mode ensemble")
    sup = spec.mode_a
    if _phase_kind(sup.phase_phi) != "quarter":
        raise UnsupportedPhase(
            "inferred-state reconstruction needs the quarter phase "
            "(state.phi = pi/2)")
    _require_samples(selected.n)
    x_b0 = selected.x_b0
    w_plus, s = meter_condition_weights(spec, _T0_AMP, 0.0, x_b0)
    w_bar = float(np.mean(w_plus))
    s_bar = float(np.mean(s))

    def moments_at(wb, sb):
        d = _meter_branch_density(spec, wb, sb).marginal("p_b")
        return d, d.moments(0) + d.moments(1)

    density, (mx, vx, mp, vp) = moments_at(w_bar, s_bar)
    b_moments = [moments_at(float(np.mean(wb)), float(np.mean(sb)))[1]
                 for wb, sb in zip(np.array_split(w_plus, N_BATCHES),
                                   np.array_split(s, N_BATCHES))]
    se = [_batch_se(col) for col in zip(*b_moments)]
    moments_x = MomentEstimate(mx, vx, se[0], se[1], selected.n)
    moments_p = MomentEstimate(mp, vp, se[2], se[3], selected.n)

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

    center = float(np.mean(x_b0))
    spread = float(np.std(x_b0))
    edges = np.linspace(center - _INFER_SPAN * spread,
                        center + _INFER_SPAN * spread, _INFER_BINS + 1)
    meter_hist = histogram(x_b0, edges)
    return InferredState(density, moments_x, moments_p, w_bar, s_bar,
                         x_centers, p_centers, values, grid_mass,
                         meter_hist, selected.n)


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
