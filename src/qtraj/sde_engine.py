"""Forward-backward trajectory ensembles for amplified phase-space modes.

The amplified quadrature relaxes *backward* in time from a boundary
sample drawn at the final time; its conjugate relaxes *forward* from an
initial sample.  Both directions use the exact one-step kernel of
relaxation toward the unit-variance stationary state,

    y' = y e^{-r dt} + sqrt(1 - e^{-2 r dt}) z ,   z ~ N(0, 1),

so marginals at every grid time are exact for any step count; the step
count only controls how finely the path is recorded.

Position and momentum measurement and the entangled system-meter pair
share one path: :func:`path_densities` builds what a run samples, one
chunk kernel draws it in three stages (1, the amplified coordinates at
t_final; 2, their backward relaxation; 3, the conjugates at t = 0 and
their forward relaxation), and :func:`iter_chunks` schedules the chunks
for the Python API and ``run`` (all stages), ``born`` (stage 1 only),
``postselect`` and ``collapse`` (stages 1 and 2, selected chunk by
chunk).  The Python API stores whole paths; ``run`` keeps only per-time
sums, sums of squares and the first ``cli.N_SAVED_PATHS`` paths.

Work is split into fixed-size chunks, each drawing from its own named
stream keyed by (seed, chunk index).  Results are therefore
bit-identical no matter how many threads run the chunks, and a consumer
that streams chunk-by-chunk sees exactly the bytes a fully materialised
ensemble would contain.
"""

from __future__ import annotations

import math
import operator
import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import islice
from typing import Iterator, NamedTuple, Optional, Tuple, Union

import numpy as np

from .analytic import (GaussFringeDensity, fbc_from_wigner, marginal_p,
                       marginal_x, two_mode_q)
from .core import (AmplifierSpec, ModeSpec, Scenario, ScenarioError,
                   SuperpositionSpec, TwoModeSpec, validate_scenario)
from .sampler import RngStream, sample_fringe_density

CHUNK = 8192

_BOUNDARY_METHODS = ("direct", "wigner")


@dataclass
class TrajectoryEnsemble:
    """Array-backed collection of simulated paths.

    Paths are indexed (trajectory, grid time) and stored time-major, so
    each column is contiguous; column 0 is t = 0, the last is t_final.
    Both quadratures of every mode are required: no ``None`` conjugate.
    """

    scenario: Scenario
    x_paths: np.ndarray
    p_paths: np.ndarray
    x_b_paths: Optional[np.ndarray] = None
    p_b_paths: Optional[np.ndarray] = None

    def __post_init__(self):
        n_times = len(self.scenario.grid)
        meter = self.x_b_paths is not None or self.p_b_paths is not None
        for name in ("x_paths", "p_paths", "x_b_paths",
                     "p_b_paths")[:2 + 2 * meter]:
            arr = getattr(self, name)
            if arr is None:
                raise ValueError(f"{name} is missing")
            if arr.ndim != 2 or arr.shape[1] != n_times:
                raise ValueError(f"{name} must have shape (count, {n_times})")
            if arr.shape[0] != self.x_paths.shape[0]:
                raise ValueError("path arrays disagree on trajectory count")

    @property
    def count(self) -> int:
        return self.x_paths.shape[0]

    @property
    def is_two_mode(self) -> bool:
        return self.x_b_paths is not None

    def __len__(self) -> int:
        return self.count


def relax(rows, start, rate: float, dt: float, rng) -> None:
    """Fill the row buffers ``rows`` hands out, in turn, with the exact kernel.

    The first row is set to ``start`` and each later one, one grid time
    of every path, relaxes the row before it over ``dt`` at ``rate``.  A
    time-major array has every row filled (``out[::-1]`` backward from
    the last); a generator is asked for the next buffer only once the
    last is filled, so ``run`` reads each row as it is drawn and keeps
    per-time sums and ``cli.N_SAVED_PATHS`` paths, never a chunk's paths.
    """
    if rate <= 0.0 or dt <= 0.0:
        raise ValueError(f"relaxation needs rate, dt > 0: {rate!r}, {dt!r}")
    c = math.exp(-rate * dt)
    s = math.sqrt(1.0 - c * c)
    rows = iter(rows)
    prev = next(rows)
    prev[...] = start
    for row in rows:
        rng.standard_normal(out=row)
        row *= s
        row += c * prev
        prev = row


def _tallied(tally: np.ndarray, size: int) -> Iterator[np.ndarray]:
    """Two row buffers in turn for :func:`relax`; row k goes to ``tally[k]``.

    Before a buffer is handed out again, its row's sum, sum of squares
    and first ``tally.shape[1] - 2`` values are stored.  Up to 8,192
    (``CHUNK``) values the sums are bitwise those of ``sum(axis=0)`` and
    ``einsum("ij,ij->j")`` over the chunk's stored paths.
    """
    ring = np.empty((2, size))
    for k, out in enumerate(tally):
        row = ring[k % 2]
        yield row
        out[0] = row.sum()
        out[1] = np.einsum("i,i->", row, row)
        out[2:] = row[:len(out) - 2]


class PathDensities(NamedTuple):
    """What one run samples, one axis per mode, all amplified by ``amp``."""

    boundary: GaussFringeDensity  # amplified coordinates at t_final
    initial: GaussFringeDensity  # their conjugates at t = 0


def path_densities(spec, amp: AmplifierSpec, boundary_method: str = "direct"
                   ) -> PathDensities:
    """Build the boundary and initial densities of a run.

    The boundary of an amplified position is the marginal at the final
    time, or with ``boundary_method="wigner"`` the scaled-and-smoothed
    Wigner marginal (analytically the same density), which only a single
    mode's position has; any other boundary refuses it.  Two-mode states
    amplify both positions with ``amp`` and sample the (x_a, x_b) and
    (p_a, p_b) pairs jointly.
    """
    if boundary_method not in _BOUNDARY_METHODS:
        raise ValueError(
            f"boundary_method must be one of {_BOUNDARY_METHODS}, "
            f"got {boundary_method!r}")
    if boundary_method == "wigner" and (isinstance(spec, TwoModeSpec)
                                        or amp.gain_rate_g < 0.0):
        raise ScenarioError("run.boundary = wigner applies only to the "
                            "amplified position of a single mode (amp.g > 0)")
    if isinstance(spec, TwoModeSpec):
        if amp.gain_rate_g <= 0.0:
            raise ScenarioError("two-mode runs amplify both positions: "
                                "the gain rate amp.g must be positive")
        return PathDensities(
            two_mode_q(spec, amp, amp.t_final).marginal("p_a", "p_b"),
            two_mode_q(spec, amp, 0.0).marginal("x_a", "x_b"))
    if amp.gain_rate_g < 0.0:
        return PathDensities(marginal_p(spec, amp, amp.t_final),
                             marginal_x(spec, amp, 0.0))
    boundary = (fbc_from_wigner(spec, amp) if boundary_method == "wigner"
                else marginal_x(spec, amp, amp.t_final))
    return PathDensities(boundary, marginal_p(spec, amp, 0.0))


def _path_chunk(dens: PathDensities, amp: AmplifierSpec, seed: int,
                chunk_id: int, size: int, through: int = 3,
                keep: Optional[int] = None) -> Tuple[np.ndarray, ...]:
    """One chunk of paths: (x, p) of each mode in mode order.

    Draw order, in stages: 1, the amplified coordinates at the final
    time; 2, backward relaxation of each in mode order; 3, their
    conjugates at t = 0 and forward relaxation of each.  The chunk draws
    from its own stream, so it is deterministic in (seed, chunk_id, size)
    under any scheduling, and stopped after stage ``through`` < 3 it
    returns the full chunk's amplified coordinates alone, in mode order:
    their (size, 1) t_final column at stage 1, their paths at stage 2.

    With ``keep`` set, no path is stored: each coordinate's rows are
    tallied as they are drawn, and it returns, per grid time, the sum
    and sum of squares over the chunk and the first ``keep`` paths'
    values, an (n_steps + 1, 2 + min(keep, size)) array.
    """
    rng = RngStream(int(seed), chunk_id).generator()
    modes = dens.boundary.ndim
    rate, dt = abs(amp.gain_rate_g), amp.t_final / amp.n_steps
    ends = sample_fringe_density(dens.boundary, rng, size).reshape(size, -1)
    if through == 1:
        return tuple(np.hsplit(ends, modes))

    def fill(start, step):  # step -1 relaxes backward from the last row
        if keep is None:
            out = np.empty((amp.n_steps + 1, size))  # returned as .T
            relax(out[::step], start, rate, dt, rng)
            return out.T
        tally = np.empty((amp.n_steps + 1, 2 + min(keep, size)))
        relax(_tallied(tally[::step], size), start, rate, dt, rng)
        return tally

    amplified = [fill(end, -1) for end in ends.T]
    if through == 2:
        return tuple(amplified)
    starts = sample_fringe_density(dens.initial, rng, size).reshape(size, -1)
    conjugate = [fill(start, 1) for start in starts.T]
    pairs = (zip(amplified, conjugate) if amp.gain_rate_g > 0.0
             else zip(conjugate, amplified))
    return tuple(path for pair in pairs for path in pair)


def _chunk_entry(spec, amp: AmplifierSpec, seed: int, chunk_id: int,
                 size: int, boundary_method: str = "direct",
                 _densities: Optional[PathDensities] = None,
                 _through: int = 3) -> Tuple[np.ndarray, ...]:
    """One chunk of any run's paths, from the densities of
    :func:`path_densities` unless they are given: (x, p) of a single
    mode, (x_a, p_a, x_b, p_b) of the system-meter pair."""
    dens = _densities or path_densities(spec, amp, boundary_method)
    return _path_chunk(dens, amp, seed, chunk_id, size, _through)


# perfbench/tracing.py wraps these names; all three are the one body.
single_mode_chunk = p_measurement_chunk = two_mode_chunk = _chunk_entry


# ---------------------------------------------------------------------------
# scheduling


def n_chunks(n_traj: int) -> int:
    return (n_traj + CHUNK - 1) // CHUNK


def chunk_bounds(n_traj: int, chunk_id: int) -> Tuple[int, int]:
    lo = chunk_id * CHUNK
    return lo, min(lo + CHUNK, n_traj)


def resolve_threads(threads: Optional[int]) -> int:
    """Worker count: ``threads``, else QTRAJ_THREADS, else 1; whole, >= 1."""
    name = "threads"
    if threads is None:
        name, raw = "QTRAJ_THREADS", os.environ.get("QTRAJ_THREADS", "1")
        try:
            threads = int(raw)
        except ValueError:
            raise ScenarioError(f"QTRAJ_THREADS must be an integer: {raw!r}")
    return _check_count(threads, name)


def _check_count(value, name: str) -> int:
    """A count of at least 1; ``operator.index`` refuses 2.5 by name."""
    try:
        count = operator.index(value)
    except TypeError:
        raise ScenarioError(f"{name} = {value!r} is not an integer") from None
    if count < 1:
        raise ScenarioError(f"{name} = {value!r} must be >= 1")
    return count


def iter_chunks(spec, amp: AmplifierSpec, n_traj: int, seed: int,
                threads: Optional[int] = None,
                boundary_method: str = "direct",
                stream_offset: int = 0, _through: int = 3,
                _keep: Optional[int] = None
                ) -> Iterator[Tuple[int, int, Tuple[np.ndarray, ...]]]:
    """Yield ``(lo, hi, paths)`` for every chunk of a run, in chunk order.

    Chunk i holds trajectories lo:hi and draws from stream
    ``stream_offset + i``; ``_through`` < 3 stops it after that stage of
    :func:`_path_chunk` (1 for ``born``, 2 for sign selection), and with
    ``_keep`` set each coordinate's per-time tallies and first ``_keep``
    paths replace its paths (``run``).  At most ``threads`` chunks are in
    flight; a new one is submitted as soon as the oldest has been
    consumed.  Chunks are always yielded in index order, so any reduction
    over them is bitwise independent of the thread count.  A consumer
    that drops its chunk before asking for the next keeps at most
    ``threads`` chunks alive.
    """
    n_traj = _check_count(n_traj, "n_traj")
    dens = path_densities(spec, amp, boundary_method)

    def call(cid):
        lo, hi = chunk_bounds(n_traj, cid)
        args = (seed, stream_offset + cid, hi - lo)
        if _keep is not None:  # a tally holds no paths: straight to the kernel
            return lo, hi, _path_chunk(dens, amp, *args, _through, _keep)
        # Looked up per call, so a wrapper around the name sees each chunk.
        return lo, hi, single_mode_chunk(spec, amp, *args, _densities=dens,
                                         _through=_through)

    ids = iter(range(n_chunks(n_traj)))
    threads = resolve_threads(threads)
    if threads == 1:
        yield from map(call, ids)
        return
    with ThreadPoolExecutor(max_workers=threads) as pool:
        pending = deque(pool.submit(call, cid) for cid in islice(ids, threads))
        while pending:
            yield pending.popleft().result()
            for cid in islice(ids, 1):
                pending.append(pool.submit(call, cid))


def _simulate(spec, amp: AmplifierSpec, n_traj: int, seed: int,
              threads: Optional[int], boundary_method: str = "direct"
              ) -> TrajectoryEnsemble:
    scenario = validate_scenario(spec, amp)
    n_traj = _check_count(n_traj, "n_traj")
    paths = [np.empty((amp.n_steps + 1, n_traj)).T
             for _ in range(4 if scenario.is_two_mode else 2)]
    for lo, hi, chunk in iter_chunks(spec, amp, n_traj, seed, threads,
                                     boundary_method):
        for out, block in zip(paths, chunk):
            out[lo:hi] = block
        del chunk, block  # release the chunk before the next is submitted
    return TrajectoryEnsemble(scenario, *paths)


def simulate_single_mode(spec: Union[ModeSpec, SuperpositionSpec],
                         amp: AmplifierSpec, n_traj: int, seed: int,
                         boundary_method: str = "direct",
                         threads: Optional[int] = None) -> TrajectoryEnsemble:
    """Simulate a position-amplified single mode (gain rate > 0).

    The position is drawn at the final time from the amplified marginal
    (or, with ``boundary_method="wigner"``, from the scaled-and-smoothed
    initial phase-space marginal — analytically the same density) and
    relaxed backward; the momentum is drawn at t = 0 and relaxed
    forward.

    Parameters
    ----------
    spec : ModeSpec or SuperpositionSpec
    amp : AmplifierSpec
        Requires ``gain_rate_g > 0``; momentum-amplified runs use
        :func:`simulate_p_measurement`.
    n_traj, seed : int
    boundary_method : {"direct", "wigner"}
    threads : int, optional
        Defaults to the QTRAJ_THREADS environment variable (else 1).
        Results do not depend on the thread count.
    """
    if amp.gain_rate_g <= 0.0:
        raise ScenarioError("position amplification needs gain_rate_g > 0; "
                            "use simulate_p_measurement for negative gain")
    return _simulate(spec, amp, n_traj, seed, threads, boundary_method)


def simulate_p_measurement(spec: Union[ModeSpec, SuperpositionSpec],
                           amp: AmplifierSpec, n_traj: int, seed: int,
                           threads: Optional[int] = None
                           ) -> TrajectoryEnsemble:
    """Simulate a momentum-amplified single mode (gain rate < 0).

    Mirror image of :func:`simulate_single_mode`: the momentum carries
    the amplified boundary condition at the final time and the position
    relaxes forward from its initial marginal.
    """
    if amp.gain_rate_g >= 0.0:
        raise ScenarioError("momentum amplification needs gain_rate_g < 0")
    return _simulate(spec, amp, n_traj, seed, threads)


def simulate_two_mode(spec: TwoModeSpec, amp: AmplifierSpec, n_traj: int,
                      seed: int, threads: Optional[int] = None
                      ) -> TrajectoryEnsemble:
    """Simulate the entangled system-meter pair with both positions amplified.

    The final-time (x_a, x_b) pair is drawn from the joint amplified
    marginal — the branch correlation between system and meter lives in
    that draw — and both positions relax backward; the initial momentum
    pair carries the interference term and relaxes forward.
    """
    if not isinstance(spec, TwoModeSpec):
        raise ScenarioError("simulate_two_mode needs a TwoModeSpec")
    return _simulate(spec, amp, n_traj, seed, threads)
