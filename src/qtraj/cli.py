"""Command-line driver: scenario files in, CSV data out.

Commands
--------
run         simulate an ensemble; write trajectories/marginals/summary CSVs
born        check final-record histograms against the projective densities
postselect  sweep the packet separation; conditional variances per branch
collapse    meter-sign correlation and the inferred system state

Scenario files are flat ``key = value`` text.  Every command accepts
``--trajectories``, ``--seed`` and ``--threads`` overrides; re-running a
command with the same scenario and seed writes byte-identical CSVs
(chunked streams are keyed by chunk index, and reductions run in chunk
order regardless of the thread count).

``born``, ``postselect`` and ``collapse`` read only t = 0 and t_final.
The relaxation kernel is exact over any gap, so one step gives the same
joint law of the two ends as a full path, and they run at n_steps = 1.
They read no conjugate, so each chunk stops after the stage they read
(:mod:`qtraj.sde_engine`): ``born`` after stage 1, the boundary draw,
``postselect`` and ``collapse`` after stage 2, then select it by sign.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import sys
from dataclasses import dataclass, replace
from importlib import resources
from pathlib import Path
from typing import Optional, Sequence, Tuple

import numpy as np

from . import sde_engine
from .analytic import (born_p, born_x, marginal_p, marginal_x, q_single_mode,
                       two_mode_q)
from .core import (AmplifierSpec, ModeSpec, ScenarioError, SuperpositionSpec,
                   TwoModeSpec)
from .postselect import (EmptyBranch, TooFewSamples, _select_by_sign, _Tally,
                         _tally_meter, build_loops, infer_state_A_numeric,
                         uncertainty_product)
from .sampler import RngStream
from .stats import bin_z_scores, compare_density, histogram, ks_statistic

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_IO = 3

N_SAVED_PATHS = 10
N_MARGINAL_POINTS = 201
N_BORN_BINS = 100
SWEEP_X1 = (0.5, 1.0, 2.0, 4.0, 6.0)
_STREAM_BLOCK = 2 ** 32  # stream-index block separating independent phases


class ScenarioFileError(ScenarioError):
    """A scenario document that cannot be parsed or is inconsistent."""


_PHASES = {"pi": math.pi, "pi/2": 0.5 * math.pi, "-pi/2": -0.5 * math.pi,
           "2pi": 2.0 * math.pi}


def _parse_phase(value: str) -> float:
    if value in _PHASES:
        return _PHASES[value]
    return float(value)


_KINDS = ("squeezed", "superposition", "two_mode")

# key: (parser, default, the kinds that take it).  A key with no default
# is required by every kind that takes it; its field's suffix names it.
_KEYS = {
    "state.kind": (str, None, _KINDS),
    "state.x1": (float, None, _KINDS),
    "state.r": (float, None, _KINDS),
    "state.phi": (_parse_phase, None, ("superposition", "two_mode")),
    "state.c1_sq": (float, 0.5, ("superposition",)),
    "meter.x1b": (float, None, ("two_mode",)),
    "meter.r2": (float, None, ("two_mode",)),
    "amp.g": (float, None, _KINDS),
    "amp.gtf": (float, None, _KINDS),
    "amp.n_steps": (int, 300, _KINDS),
    "run.trajectories": (int, None, _KINDS),
    "run.seed": (int, None, _KINDS),
}


@dataclass(frozen=True)
class ScenarioFile:
    """Parsed flat scenario document plus its content digest."""

    label: str
    digest: str
    kind: str
    x1: float
    r: float
    phi: Optional[float]
    c1_sq: float
    x1b: Optional[float]
    r2: Optional[float]
    g: float
    gtf: float
    n_steps: int
    trajectories: int
    seed: int

    @property
    def t_final(self) -> float:
        return self.gtf / self.g


def parse_scenario_text(text: str, label: str) -> ScenarioFile:
    """Parse ``key = value`` lines; '#' starts a comment.

    Raises
    ------
    ScenarioFileError
        Naming the offending key for unknown, duplicate, missing or
        inapplicable keys and for unparsable or non-finite values.
    """
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ScenarioFileError(
                f"{label}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in _KEYS:
            raise ScenarioFileError(f"{label}:{lineno}: unknown key {key!r}")
        if key in values:
            raise ScenarioFileError(f"{label}:{lineno}: duplicate key {key!r}")
        try:
            values[key] = _KEYS[key][0](val)
        except ValueError as exc:
            raise ScenarioFileError(
                f"{label}:{lineno}: bad value for {key!r}: {exc}") from exc
        if isinstance(values[key], float) and not math.isfinite(values[key]):
            raise ScenarioFileError(
                f"{label}:{lineno}: {key!r} must be finite, got {val!r}")

    kind = values.get("state.kind")
    if kind not in _KINDS:
        raise ScenarioFileError(
            f"{label}: state.kind must be one of {sorted(_KINDS)}, "
            f"got {kind!r}")
    taken = {key for key, row in _KEYS.items() if kind in row[2]}
    missing = sorted(k for k in taken - values.keys() if _KEYS[k][1] is None)
    if missing:
        raise ScenarioFileError(f"{label}: missing keys for kind "
                                f"{kind!r}: {', '.join(missing)}")
    extra = sorted(values.keys() - taken)
    if extra:
        raise ScenarioFileError(f"{label}: keys not applicable to kind "
                                f"{kind!r}: {', '.join(extra)}")
    values = {key: values.get(key, row[1]) for key, row in _KEYS.items()}
    for key in ("run.trajectories", "amp.n_steps"):
        if values[key] < 1:
            raise ScenarioFileError(f"{label}: {key} must be >= 1, "
                                    f"got {values[key]}")
    _check_seed(values["run.seed"], f"{label}: run.seed")
    g, gtf = values["amp.g"], values["amp.gtf"]
    if g == 0.0 or gtf / g <= 0.0:
        raise ScenarioFileError(
            f"{label}: amp.gtf must be non-zero and share the sign of amp.g")
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    return ScenarioFile(label, digest, **{key.split(".")[1]: value
                                          for key, value in values.items()})


def _check_seed(seed: int, name: str) -> None:
    """A stream seed is 64 bits: any other would alias one of them."""
    if not 0 <= seed < 2 ** 64:
        raise ScenarioFileError(f"{name} must lie in [0, 2**64), got {seed}")


def shipped_scenarios() -> Tuple[str, ...]:
    root = resources.files("qtraj").joinpath("scenarios")
    names = sorted(p.name[:-len(".scenario")]
                   for p in root.iterdir() if p.name.endswith(".scenario"))
    return tuple(names)


def load_scenario(ref: str) -> ScenarioFile:
    """Load a scenario from a path, or by shipped name."""
    path = Path(ref)
    if path.exists():
        return parse_scenario_text(path.read_text(encoding="utf-8"),
                                   path.stem)
    name = ref[:-len(".scenario")] if ref.endswith(".scenario") else ref
    pkg_file = resources.files("qtraj").joinpath("scenarios",
                                                 name + ".scenario")
    if pkg_file.is_file():
        return parse_scenario_text(pkg_file.read_text(encoding="utf-8"), name)
    raise ScenarioFileError(
        f"scenario {ref!r} is neither a file nor a shipped name; "
        f"shipped: {', '.join(shipped_scenarios())}")


def build_state(sc: ScenarioFile):
    """Instantiate the state spec and amplifier(s) a scenario describes."""
    if sc.kind == "squeezed":
        state = ModeSpec(sc.x1, sc.r)
    else:
        if not 0.0 <= sc.c1_sq <= 1.0:
            raise ScenarioFileError("state.c1_sq must lie in [0, 1]")
        sup = SuperpositionSpec(ModeSpec(sc.x1, sc.r),
                                c1_mag=math.sqrt(sc.c1_sq),
                                c2_mag=math.sqrt(1.0 - sc.c1_sq),
                                phase_phi=sc.phi)
        if sc.kind == "superposition":
            state = sup
        else:
            state = TwoModeSpec(sup, ModeSpec(sc.x1b, sc.r2))
    amp = AmplifierSpec(sc.g, sc.t_final, sc.n_steps)
    return state, amp


# ---------------------------------------------------------------------------
# output plumbing


def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".10g")


def _write_csv(out_dir: Path, name: str, comment_fields: dict,
               header: Sequence[str], rows, extra_comments=()):
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / name
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        fields = " ".join(f"{k}={v}" for k, v in comment_fields.items())
        fh.write(f"# {fields}\n")
        for line in extra_comments:
            fh.write(f"# {line}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")
    return path


def _comment_fields(sc: ScenarioFile) -> dict:
    return {"scenario_sha256": sc.digest, "seed": sc.seed,
            "trajectories": sc.trajectories}


# ---------------------------------------------------------------------------
# commands


def cmd_run(sc: ScenarioFile, out_dir: Path, threads: int) -> None:
    """Simulate the scenario; write trajectories, marginals and summary."""
    state, amp = build_state(sc)
    grid = amp.grid
    if sc.trajectories < 2:
        raise ScenarioError(f"run needs at least 2 trajectories for its "
                            f"variances, got {sc.trajectories}")
    names = _marginal_axes(state)
    # Per coordinate and grid time: sum and sum of squares, in chunk order.
    totals = np.zeros((len(names), len(grid), 2))
    for lo, _, tallies in sde_engine.iter_chunks(
            state, amp, sc.trajectories, sc.seed, threads,
            _keep=N_SAVED_PATHS):
        totals += [t[:, :2] for t in tallies]
        if lo == 0:
            saved = [t[:, 2:] for t in tallies]

    def traj_rows():
        for i in range(saved[0].shape[1]):
            for j, t in enumerate(grid):
                yield (i, t) + tuple(a[j, i] for a in saved)

    fields = _comment_fields(sc)
    _write_csv(out_dir, "trajectories.csv", fields,
               ("traj_id", "t") + names, traj_rows())

    def marginal_rows():
        for t in (0.0, 0.5 * amp.t_final, amp.t_final):
            for axis in _marginal_axes(state):
                dens = _marginal_of(state, amp, t, axis)
                lo_s, hi_s = dens.support_hint(8.0)
                coords = np.linspace(lo_s, hi_s, N_MARGINAL_POINTS)
                vals = dens.pdf(coords)
                for c, v in zip(coords, vals):
                    yield (t, axis, c, v)

    _write_csv(out_dir, "marginals.csv", fields,
               ("t", "axis", "coord", "density"), marginal_rows())

    def summary_rows():
        n = sc.trajectories
        means = totals[:, :, 0] / n
        variances = (totals[:, :, 1] - n * means * means) / (n - 1)
        law = two_mode_q if isinstance(state, TwoModeSpec) else q_single_mode
        for j, t in enumerate(grid):
            row = [t, sc.trajectories]
            for m, v in zip(means, variances):
                row += [m[j], v[j]]
            joint = law(state, amp, t)
            row += [joint.moments(0)[1], joint.moments(1)[1]]
            yield tuple(row)

    header = ["t", "n"]
    for n in names:
        header += [f"mean_{n}", f"var_{n}"]
    header += ["var_x_expected", "var_p_expected"]
    _write_csv(out_dir, "summary.csv", fields, header, summary_rows())


def _marginal_axes(state):
    if isinstance(state, TwoModeSpec):
        return ("x", "p", "x_b", "p_b")
    return ("x", "p")


def _marginal_of(state, amp, t, axis):
    if isinstance(state, TwoModeSpec):
        keep = {"x": "x_a", "p": "p_a", "x_b": "x_b", "p_b": "p_b"}[axis]
        dens = two_mode_q(state, amp, t)
        drop = tuple(a for a in dens.axes if a != keep)
        return dens.marginal(*drop)
    if axis == "x":
        return marginal_x(state, amp, t)
    return marginal_p(state, amp, t)


def cmd_born(sc: ScenarioFile, out_dir: Path, threads: int) -> None:
    """Check both amplified records against the projective densities.

    Runs the scenario twice — positive rate (position record) and
    negative rate (momentum record) — scales each final record by its
    gain, and compares binned densities with the projective limits.
    """
    state, _ = build_state(sc)
    if isinstance(state, TwoModeSpec):
        raise ScenarioError("born checks run on single-mode scenarios, "
                            "not state.kind = two_mode")
    rate = abs(sc.g)
    results = []
    for block, basis in ((0, "x"), (1, "p")):
        amp = AmplifierSpec(rate if basis == "x" else -rate, sc.t_final, 1)
        scaled = np.empty(sc.trajectories)  # the final records, one column
        for lo, hi, arrays in sde_engine.iter_chunks(
                state, amp, sc.trajectories, sc.seed, threads,
                stream_offset=block * _STREAM_BLOCK, _through=1):
            scaled[lo:hi] = arrays[0][:, -1]
        scaled /= math.exp(rate * sc.t_final)
        scaled.sort()  # counts ignore the order; the KS reads it ascending
        target = born_x(state) if basis == "x" else born_p(state)
        # 4 sigma keeps every bin's expected count well away from the
        # Poisson-skew regime that makes z-scores of ultra-thin tail
        # bins spike; target masses are renormalised in-range, so the
        # truncation itself is bias-free.
        lo_s, hi_s = target.support_hint(4.0)
        edges = np.linspace(lo_s, hi_s, N_BORN_BINS + 1)
        masses = target.bin_masses(edges)
        crowded = ("its bin edges coincide" if np.any(np.diff(edges) <= 0.0)
                   else None if masses.max() < masses.sum()
                   else "one bin holds all of its mass")
        if crowded:
            raise ScenarioError(f"born: the {basis} target is narrower than "
                                f"its bins resolve at state.r = "
                                f"{_fmt(sc.r)}: {crowded}")
        hist = histogram(scaled, edges)
        if hist.n == 0:
            # Records on both sides of an empty window: more cannot help.
            advice = (f"the {basis} target is far narrower than the records "
                      f"at state.r = {_fmt(sc.r)}"
                      if hist.n_below and hist.n_above else
                      f"raise run.trajectories (now {sc.trajectories})")
            raise ScenarioError(
                f"born: no {basis} record lies within 4 sigma "
                f"({hist.n_below} below, {hist.n_above} above); {advice}")
        comp = compare_density(hist, target)
        ks = ks_statistic(scaled, target)
        del scaled  # released before the next basis draws
        results.append((basis, hist, target, masses, comp, ks))

    def rows():
        for basis, hist, target, masses, _, _ in results:
            expected = masses / hist.widths
            zs = bin_z_scores(hist, target)
            for c, w, cnt, obs, exp, z in zip(hist.centers, hist.widths,
                                              hist.counts, hist.density,
                                              expected, zs):
                yield (basis, c, w, cnt, obs, exp, z)

    extra = ["  ".join(
        f"basis={basis} max_z={_fmt(comp.max_z)} ks={_fmt(ks)}"
        for basis, _, _, _, comp, ks in results)]
    _write_csv(out_dir, "born_check.csv", _comment_fields(sc),
               ("basis", "center", "width", "count", "observed_density",
                "expected_density", "z"), rows(), extra_comments=extra)


def cmd_postselect(sc: ScenarioFile, out_dir: Path, threads: int) -> None:
    """Sweep the packet separation; write per-branch observed moments.

    The sweep grid is the figure abscissa (0.5, 1, 2, 4, 6) plus the
    scenario's own separation.  For each separation the run keeps the
    initial coordinates and the final sign and, block by block, selects
    each branch, redraws momenta from the conditional given position
    (block j from its own stream) and tallies them; it reports observed
    variances and the uncertainty product with batch errors.  A branch
    too small for them is skipped with a line on stderr; a sweep that
    keeps no branch writes no CSV.
    """
    if sc.kind == "two_mode":
        raise ScenarioError("the separation sweep runs on single-mode "
                            "scenarios, not state.kind = two_mode")
    if sc.g <= 0.0:
        raise ScenarioError("the separation sweep amplifies the position "
                            "(amp.g > 0)")
    sweep = sorted(set(SWEEP_X1) | {sc.x1})
    out_rows = []
    for i, x1 in enumerate(sweep):
        state, amp = build_state(replace(sc, x1=x1))
        base = 2 * i * _STREAM_BLOCK
        tallies = (_Tally(sc.trajectories), _Tally(sc.trajectories))
        for j, (lo, keep, *branches, _) in enumerate(_select_by_sign(
                state, amp, sc.trajectories, sc.seed, threads, base)):
            rng = RngStream(sc.seed, base + _STREAM_BLOCK // 2 + j).generator()
            for tally, rows, selected in zip(tallies, (keep, ~keep), branches):
                if selected.n:
                    loops = build_loops(selected, state, rng)
                    tally.add((loops.x0, loops.p0), lo, rows)
        for branch, tally in zip((+1, -1), tallies):
            try:
                prod = uncertainty_product(tally)
            except TooFewSamples as exc:
                print(f"skipped: x1={_fmt(x1)} branch={branch:+d} "
                      f"n={tally.n}: {exc}", file=sys.stderr)
                continue
            out_rows.append((
                x1, branch, tally.n,
                prod.var_x.variance, prod.var_x.std_error_variance,
                prod.var_p.variance, prod.var_p.std_error_variance,
                prod.epsilon, prod.std_error,
                int(prod.negative_variance)))

    if not out_rows:
        raise ScenarioError(
            f"every branch was skipped for too few samples; "
            f"raise run.trajectories (now {sc.trajectories})")
    _write_csv(out_dir, "postselect.csv", _comment_fields(sc),
               ("x1", "branch", "n", "observed_var_x", "var_x_err",
                "observed_var_p", "var_p_err", "epsilon", "epsilon_err",
                "negative_variance"), out_rows)


def cmd_collapse(sc: ScenarioFile, out_dir: Path, threads: int) -> None:
    """Meter-sign correlation and the state inferred from the meter record."""
    state, amp = build_state(sc)
    if not isinstance(state, TwoModeSpec):
        raise ScenarioError("collapse analysis needs a two_mode scenario, "
                            f"not state.kind = {sc.kind}")
    plus, n_minus, n_agree = _Tally(sc.trajectories), 0, 0
    for lo, keep, selected, minus, agree in _select_by_sign(
            state, amp, sc.trajectories, sc.seed, threads):
        if selected.n:
            _tally_meter(plus, state, selected.x_b0, lo, keep)
        n_minus += minus.n
        n_agree += agree
    try:
        inferred = infer_state_A_numeric(plus, state)
    except (EmptyBranch, TooFewSamples) as exc:
        raise ScenarioError(f"{exc}; raise run.trajectories "
                            f"(now {sc.trajectories})") from None

    def grid_rows():
        for i, x in enumerate(inferred.x_centers):
            for j, p in enumerate(inferred.p_centers):
                yield (x, p, inferred.values[i, j])

    fields = _comment_fields(sc)
    _write_csv(out_dir, "inferred_state.csv", fields,
               ("x", "p", "density"), grid_rows())

    mx, mp = inferred.moments_x, inferred.moments_p
    corr_rows = [
        ("sign_agreement", n_agree / sc.trajectories),
        ("n_trajectories", sc.trajectories),
        ("n_plus", plus.n),
        ("n_minus", n_minus),
        ("w_plus_bar", inferred.w_plus_bar),
        ("sech_bar", inferred.sech_bar),
        ("mean_x", mx.mean), ("mean_x_err", mx.std_error_mean),
        ("var_x", mx.variance), ("var_x_err", mx.std_error_variance),
        ("mean_p", mp.mean), ("mean_p_err", mp.std_error_mean),
        ("var_p", mp.variance), ("var_p_err", mp.std_error_variance),
        ("grid_mass", inferred.grid_mass),
    ]
    _write_csv(out_dir, "meter_corr.csv", fields,
               ("quantity", "value"), corr_rows)


# ---------------------------------------------------------------------------
# argument handling


_COMMANDS = {
    "run": cmd_run,
    "born": cmd_born,
    "postselect": cmd_postselect,
    "collapse": cmd_collapse,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qtraj",
        description="Forward-backward trajectory experiments on amplified "
                    "modes: simulate, verify record statistics, postselect "
                    "and infer.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in _COMMANDS.items():
        p = sub.add_parser(name, help=fn.__doc__.splitlines()[0].lower())
        p.add_argument("--scenario", required=True,
                       help="path to a scenario file, or a shipped name")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--trajectories", type=int, default=None,
                       help="override run.trajectories")
        p.add_argument("--seed", type=int, default=None,
                       help="override run.seed")
        p.add_argument("--threads", type=int, default=None,
                       help="worker threads (default: QTRAJ_THREADS or 1)")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        sc = load_scenario(args.scenario)
        if args.trajectories is not None:
            if args.trajectories < 1:
                raise ScenarioFileError("--trajectories must be >= 1")
            sc = replace(sc, trajectories=args.trajectories)
        if args.threads is not None and args.threads < 1:
            raise ScenarioFileError("--threads must be >= 1")
        if args.seed is not None:
            _check_seed(args.seed, "--seed")
            sc = replace(sc, seed=args.seed)
        threads = sde_engine.resolve_threads(args.threads)
        _COMMANDS[args.command](sc, Path(args.out), threads)
    except (ScenarioError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
