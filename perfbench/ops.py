"""Child-process entry points of the benchmark.

    ops.py setup <workload> <scenario_dir> [<meta_file>]
    ops.py cli <trace_file> <qtraj cli arguments...>
    ops.py api <case> <seed> <result_file> [<trace_file>]

``setup`` imports qtraj, parses the workload's scenarios and builds the
densities its first operation samples; the parent times the whole
process.  ``cli`` runs one CLI command in-process under the tracer (the
untraced CLI runs are plain ``python -m qtraj.cli`` processes).  ``api``
runs one case of the sampling workload and writes its timings and the
numbers its checks need, with spans when a trace file is given.
"""

from __future__ import annotations

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, HERE)


def _import_qtraj():
    """Import the package of this checkout, never an installed copy."""
    import qtraj
    import qtraj.analytic
    import qtraj.cli
    import qtraj.core
    import qtraj.postselect
    import qtraj.sampler
    import qtraj.sde_engine
    if not os.path.realpath(qtraj.__file__).startswith(
            os.path.realpath(SRC) + os.sep):
        sys.exit(f"qtraj imported from {qtraj.__file__}, not from {SRC}")
    return qtraj


def _dump(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


def _write_figures(spans):
    """Bytes and data rows of each CSV the traced command wrote."""
    for s in spans:
        if s[0] == "cli.write":
            path = s[5]["path"]
            with open(path, encoding="utf-8") as fh:
                lines = [ln for ln in fh if not ln.startswith("#")]
            s[5] = {"bytes": os.path.getsize(path), "rows": len(lines) - 1}


def setup(workload, scenario_dir, meta_file=None):
    q = _import_qtraj()
    if workload == "sampling":
        import cases
        cases.build_first_densities(q)
    else:
        # Scenario files sort in operation order; the first operation of
        # both CLI workloads samples a single-mode position record.
        built = [q.cli.build_state(q.cli.load_scenario(
            os.path.join(scenario_dir, name)))
            for name in sorted(os.listdir(scenario_dir))]
        state, amp = built[0]
        q.analytic.marginal_x(state, amp, amp.t_final)
        q.analytic.marginal_p(state, amp, 0.0)
    if meta_file:
        import numpy as np
        gen = q.sampler.RngStream(0, 0).generator()
        _dump(meta_file, {
            "nproc": os.cpu_count(),
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "qtraj": q.__version__,
            "bit_generator": type(gen.bit_generator).__name__,
            "chunk": q.sde_engine.CHUNK,
        })


def cli(trace_file, argv):
    q = _import_qtraj()
    from tracing import Tracer
    tracer = Tracer()
    tracer.install()
    root = tracer.open("op")
    try:
        rc = q.cli.main(argv)
    finally:
        tracer.close(root)
    _write_figures(tracer.spans)
    _dump(trace_file, {"rc": rc, "spans": tracer.spans})
    return rc


def api(case, seed, result_file, trace_file=None):
    import cases
    q = _import_qtraj()
    tracer = None
    if trace_file:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    params = cases.CASES[case]
    run = cases.RUN[case]
    seed = cases.case_seed(case, int(seed))
    w0, c0 = time.perf_counter(), time.process_time()
    root = tracer.open("op") if tracer else None
    result = run(q, seed, params)
    if tracer:
        tracer.close(root)
    w1, c1 = time.perf_counter(), time.process_time()
    payload = {"wall_s": w1 - w0, "cpu_s": c1 - c0,
               "summary": cases.summarise(q, case, result)}
    _dump(result_file, payload)
    if tracer:
        _dump(trace_file, {"rc": 0, "spans": tracer.spans})
    return 0


def main(argv):
    kind, rest = argv[0], argv[1:]
    if kind == "setup":
        setup(*rest)
        return 0
    if kind == "cli":
        return cli(rest[0], rest[1:])
    if kind == "api":
        return api(*rest)
    sys.exit(f"unknown operation kind {kind!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
