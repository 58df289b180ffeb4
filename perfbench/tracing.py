"""Span tracer for the traced benchmark run, and the analysis of its spans.

The tracer wraps the public functions of each qtraj module at the names
their callers look up (``qtraj.sde_engine.sample_fringe_density``,
``qtraj.cli.build_loops``, ...), so no file of the package changes.  Every
call becomes a span ``[name, start, end, thread, parent, extra]``; spans
stay in memory and are written out when the operation ends.

A span's parent is the innermost open span of its own thread.  A span
opened by a pool worker with nothing open in that thread takes the
innermost open span of the main thread, which is the call that submitted
the work.  Self time is a span's duration minus the union of its
children's intervals, so for every operation

    sum(self times) - sum(parallel overlaps) = root duration,

where a parent's parallel overlap is the time its children ran
concurrently (chunks on two worker threads).  ``analyse`` checks this.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict

LAYERS = ("analytic", "sampler", "sde_engine", "postselect", "stats", "cli")

# (module, attribute, span name).  A name is wrapped where its caller
# looks it up: the CLI imports most functions into its own namespace, the
# engine calls its chunk functions and the sampler through module globals.
WRAPPED_FUNCTIONS = (
    ("qtraj.cli", "_write_csv", "cli.write"),
    ("qtraj.cli", "marginal_x", "analytic.build"),
    ("qtraj.cli", "marginal_p", "analytic.build"),
    ("qtraj.cli", "two_mode_q", "analytic.build"),
    ("qtraj.cli", "born_x", "analytic.build"),
    ("qtraj.cli", "born_p", "analytic.build"),
    ("qtraj.cli", "histogram", "stats.histogram"),
    ("qtraj.cli", "ks_statistic", "stats.ks"),
    ("qtraj.cli", "compare_density", "stats.compare"),
    ("qtraj.cli", "bin_z_scores", "stats.compare"),
    ("qtraj.cli", "build_loops", "postselect.loops"),
    ("qtraj.cli", "uncertainty_product", "postselect.estimate"),
    ("qtraj.cli", "infer_state_A_numeric", "postselect.infer"),
    ("qtraj.sde_engine", "marginal_x", "analytic.build"),
    ("qtraj.sde_engine", "marginal_p", "analytic.build"),
    ("qtraj.sde_engine", "two_mode_q", "analytic.build"),
    ("qtraj.sde_engine", "fbc_from_wigner", "analytic.build"),
    ("qtraj.sde_engine", "sample_fringe_density", "sampler.fringe"),
    ("qtraj.sde_engine", "single_mode_chunk", "sde_engine.chunk"),
    ("qtraj.sde_engine", "p_measurement_chunk", "sde_engine.chunk"),
    ("qtraj.sde_engine", "two_mode_chunk", "sde_engine.chunk"),
    ("qtraj.sde_engine", "simulate_single_mode", "sde_engine.simulate"),
    ("qtraj.sde_engine", "simulate_p_measurement", "sde_engine.simulate"),
    ("qtraj.sde_engine", "simulate_two_mode", "sde_engine.simulate"),
    ("qtraj.postselect", "sample_p_given_x", "sampler.conditional"),
    ("qtraj.postselect", "histogram", "stats.histogram"),
    ("qtraj.postselect", "bin_by_sign", "postselect.select"),
    ("qtraj.postselect", "meter_sign_agreement", "postselect.select"),
    ("qtraj.postselect", "build_loops", "postselect.loops"),
    ("qtraj.postselect", "uncertainty_product", "postselect.estimate"),
    ("qtraj.postselect", "observed_variances", "postselect.estimate"),
    ("qtraj.postselect", "infer_state_A_numeric", "postselect.infer"),
)
# Methods called on density objects by the CLI, the engine and stats.
WRAPPED_METHODS = (
    ("GaussFringeDensity", "marginal", "analytic.build"),
    ("Marginal1D", "cdf", "analytic.cdf"),
    ("Marginal1D", "bin_masses", "analytic.cdf"),
)


class Tracer:
    """Collects spans from wrapped calls in any thread."""

    def __init__(self):
        self.spans = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack = self._stack()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif self._main_stack:
            parent = self._main_stack[-1]
        else:
            parent = -1
        rec = [name, 0.0, 0.0, threading.get_ident(), parent, None]
        with self._lock:
            idx = len(self.spans)
            self.spans.append(rec)
        stack.append(idx)
        rec[1] = time.perf_counter()
        return idx

    def close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self._stack().pop()

    def wrap(self, fn, name, before=None, after=None):
        """Return ``fn`` wrapped in a span.

        ``before(args, kwargs)`` may adjust the call and returns state
        for ``after(state, args, kwargs, result)``, whose return value is
        stored as the span's extra data.  Both run outside the timed
        interval of the span itself.
        """
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = before(args, kwargs) if before else None
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if after is not None:
                self.spans[idx][5] = after(state, args, kwargs, result)
            return result
        return traced

    def install(self):
        """Wrap every traced name of the qtraj package in place."""
        import importlib

        import qtraj.analytic as analytic
        import qtraj.cli as cli
        for mod_name, attr, name in WRAPPED_FUNCTIONS:
            mod = importlib.import_module(mod_name)
            fn = getattr(mod, attr)
            before, after = _HOOKS.get(name, (None, None))
            setattr(mod, attr, self.wrap(fn, name, before, after))
        for cls_name, attr, name in WRAPPED_METHODS:
            cls = getattr(analytic, cls_name)
            setattr(cls, attr, self.wrap(getattr(cls, attr), name))
        for cmd, fn in list(cli._COMMANDS.items()):
            cli._COMMANDS[cmd] = self.wrap(fn, "cli.cmd")


def _chunk_after(state, args, kwargs, result):
    # Relaxation normals and path bytes are computed from the chunk's
    # shape: size x n_steps normals and size x (n_steps + 1) doubles per
    # recorded coordinate.  They count what the engine computes, not
    # what its callers read.
    size = result[0].shape[0]
    n_cols = result[0].shape[1]
    coords = len(result)
    amp = args[1] if len(args) > 1 else kwargs["amp"]
    spec = args[0] if args else kwargs["spec"]
    return {"normals": size * (n_cols - 1) * coords,
            "bytes": size * n_cols * coords * 8,
            "phase": repr((spec, amp))}


def _fringe_before(args, kwargs):
    # The engine never passes ``diagnostics``; ask the sampler to fill one.
    if len(args) > 3:
        return args[3]
    if kwargs.get("diagnostics") is None:
        kwargs["diagnostics"] = {}
    return kwargs["diagnostics"]


def _fringe_after(diag, args, kwargs, result):
    density = args[0] if args else kwargs["density"]
    return {"proposed": int(diag["n_proposed"]),
            "accepted": int(diag["n_accepted"]),
            "bound": float(diag["acceptance_bound"]),
            "density": repr(density)}


def _loops_after(state, args, kwargs, result):
    return {"n": int(result.n)}


def _write_after(state, args, kwargs, result):
    return {"path": str(result)}


_HOOKS = {
    "sde_engine.chunk": (None, _chunk_after),
    "sampler.fringe": (_fringe_before, _fringe_after),
    "postselect.loops": (None, _loops_after),
    "cli.write": (None, _write_after),
}


# ---------------------------------------------------------------------------
# analysis


def layer_of(name):
    return name.split(".", 1)[0]


def _union(intervals):
    total = 0.0
    end = None
    for s, e in sorted(intervals):
        if end is None or s > end:
            total += e - s
            end = e
        elif e > end:
            total += e - end
            end = e
    return total


def analyse(spans, root, threads):
    """Per-layer figures of one operation.

    ``spans`` are ``[name, start, end, thread, parent, extra]`` records;
    ``root`` is the (start, end) interval the operation is charged for.
    Returns a dict of summed figures (seconds and counts) plus the
    accounting terms ``uncovered_s`` and ``parallel_overlap_s``.
    """
    n = len(spans)
    children = defaultdict(list)
    for i, s in enumerate(spans):
        children[s[4]].append(i)

    def clipped(parent_iv, idxs):
        lo, hi = parent_iv
        return [(max(spans[i][1], lo), min(spans[i][2], hi)) for i in idxs]

    def self_and_overlap(iv, idxs):
        ivs = clipped(iv, idxs)
        covered = _union(ivs)
        return iv[1] - iv[0] - covered, sum(e - s for s, e in ivs) - covered

    out = defaultdict(float)
    root_self, overlap = self_and_overlap(root, children[-1])
    out["uncovered_s"] = root_self
    out["parallel_overlap_s"] = overlap
    self_time = [0.0] * n
    for i, s in enumerate(spans):
        st, ov = self_and_overlap((s[1], s[2]), children[i])
        self_time[i] = st
        out["parallel_overlap_s"] += ov
        # The "op" span around the command or API case is benchmark glue.
        key = "uncovered_s" if s[0] == "op" else layer_of(s[0]) + ".self_s"
        out[key] += st

    def outermost(i):
        name = spans[i][0]
        p = spans[i][4]
        while p >= 0:
            if spans[p][0] == name:
                return False
            p = spans[p][4]
        return True

    phases = defaultdict(list)
    for i, s in enumerate(spans):
        name, start, end, extra = s[0], s[1], s[2], s[5]
        dur = end - start
        if outermost(i):
            out[name + "_s"] += dur
            out[name + "_calls"] += 1
        if name == "sde_engine.chunk":
            out["sde_engine.relax_self_s"] += self_time[i]
            out["sde_engine.normals_computed"] += extra["normals"]
            out["sde_engine.path_bytes_computed"] += extra["bytes"]
            phases[(s[4], extra["phase"])].append((start, end))
        elif name == "sampler.fringe":
            out["sampler.fringe_proposed"] += extra["proposed"]
            out["sampler.fringe_accepted"] += extra["accepted"]
        elif name == "cli.write":
            out["cli.output_bytes"] += extra["bytes"]
            out["cli.rows_written"] += extra["rows"]
        elif name == "postselect.loops":
            out["postselect.loops"] += extra["n"]
            out["postselect.loops_self_s"] += self_time[i]
    out["sde_engine.chunk_phase_capacity_s"] = sum(
        threads * (max(e for _, e in ivs) - min(s for s, _ in ivs))
        for ivs in phases.values())
    total_self = sum(self_time) + root_self
    out["accounting_error_s"] = abs(total_self - out["parallel_overlap_s"]
                                    - (root[1] - root[0]))
    return dict(out)


def sampler_tallies(spans):
    """Proposals, acceptances, calls and bound per density (repr key)."""
    per = {}
    for s in spans:
        if s[0] != "sampler.fringe":
            continue
        e = s[5]
        t = per.setdefault(e["density"], {"proposed": 0, "accepted": 0,
                                          "calls": 0, "bound": e["bound"]})
        t["proposed"] += e["proposed"]
        t["accepted"] += e["accepted"]
        t["calls"] += 1
    return per
