"""qtraj benchmark: end-to-end metrics untraced, per-layer metrics traced.

    python3 perfbench/run.py --workload {paths,records,sampling} --seed N \\
        --seconds S --trace {0,1}
    python3 perfbench/run.py --self-test

Run it from the root of a checkout; it builds nothing and imports qtraj
from ``src/`` of that checkout.  Each CLI operation runs as its own
``python -m qtraj.cli`` process, timed from spawn to exit, with its CPU
time and peak RSS taken from that child's own rusage.  API operations run
one child each and time the API calls inside it.  A run repeats whole
rounds of its workload's operations for about ``--seconds`` and reports
medians over rounds.  With ``--trace 1`` the rounds alternate between
untraced and traced ones; the traced rounds give the per-layer metrics
and the difference gives the tracing overhead.

Every operation's output is checked (see ``checks.py``); repeated
operations must write byte-identical CSVs.  The last line of standard
output is the JSON result; the lines before it list every metric by name
and unit, the per-operation figures and the run's environment.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import cases  # noqa: E402
import checks  # noqa: E402
import tracing  # noqa: E402

OPS = os.path.join(HERE, "ops.py")
SETUP_REPEATS = 7

# The benchmark's own copies of the shipped scenarios it runs, so that a
# change to a shipped file cannot change the workload.
SCENARIOS = {
    "fig_sup": {"kind": "superposition", "x1": 6.0, "r": 2.0,
                "phi": 0.5 * math.pi, "g": 1.0, "gtf": 3.0, "n_steps": 300,
                "trajectories": 200_000},
    "fig_entmeter1": {"kind": "two_mode", "x1": 4.0, "r": 0.0,
                      "phi": 0.5 * math.pi, "x1b": 4.0, "r2": 0.0, "g": 1.0,
                      "gtf": 2.0, "n_steps": 100, "trajectories": 200_000},
    "fig_born_x": {"kind": "superposition", "x1": 4.0, "r": 0.0, "phi": 0.0,
                   "g": 1.0, "gtf": 6.0, "n_steps": 50,
                   "trajectories": 1_000_000},
    "fig_condvar": {"kind": "superposition", "x1": 2.0, "r": 2.0,
                    "phi": 0.5 * math.pi, "g": 1.0, "gtf": 3.0, "n_steps": 10,
                    "trajectories": 200_000},
    "fig_infer_eig": {"kind": "two_mode", "x1": 3.0, "r": 1.5,
                      "phi": 0.5 * math.pi, "x1b": 4.0, "r2": 0.0, "g": 1.0,
                      "gtf": 2.0, "n_steps": 100, "trajectories": 200_000},
}
# Trajectories each command simulates per scenario trajectory: born runs
# both bases, postselect sweeps five separations (0.5, 1, 2, 4, 6, which
# include the scenario's own 2).
TRAJ_FACTOR = {"run": 1, "born": 2, "postselect": 5, "collapse": 1}

# (command, scenario or API case, threads)
WORKLOADS = {
    "paths": [("run", "fig_sup", 2), ("run", "fig_entmeter1", 2)],
    "records": [("born", "fig_born_x", 1), ("postselect", "fig_condvar", 1),
                ("collapse", "fig_infer_eig", 1)],
    "sampling": [("api", name, 1) for name in cases.CASES],
}

class Bench:
    """One benchmark run of one workload in one checkout."""

    def __init__(self, root, workload, seed, out_name=None):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.out = os.path.join(root, ".perfbench_out",
                                out_name or workload)
        self.env = dict(os.environ)
        self.env.update(PYTHONPATH=os.path.join(root, "src"),
                        OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
                        MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
        self.env.pop("QTRAJ_THREADS", None)
        shutil.rmtree(self.out, ignore_errors=True)
        self.scenario_dir = os.path.join(self.out, "scenarios")
        os.makedirs(self.scenario_dir)
        self.ops = []
        for i, (cmd, target, threads) in enumerate(WORKLOADS[workload]):
            op = {"cmd": cmd, "target": target, "threads": threads,
                  "label": f"{i + 1}_{cmd}_{target}"}
            if cmd == "api":
                op["trajectories"] = cases.trajectories(target)
            else:
                sc = SCENARIOS[target]
                op["scenario"] = sc
                op["trajectories"] = TRAJ_FACTOR[cmd] * sc["trajectories"]
                op["path"] = os.path.join(self.scenario_dir,
                                          f"{i + 1}_{target}.scenario")
                write_scenario(op["path"], sc, seed)
            self.ops.append(op)
        self.traj_per_round = sum(op["trajectories"] for op in self.ops)

    # -- processes ------------------------------------------------------

    def spawn(self, argv, log_path):
        """Run a child to completion: (start, end, rusage, exit code)."""
        with open(log_path, "wb") as log:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.root, env=self.env,
                                    stdin=subprocess.DEVNULL, stdout=log,
                                    stderr=subprocess.STDOUT)
            _, status, usage = os.wait4(proc.pid, 0)
            end = time.perf_counter()
        proc.returncode = os.waitstatus_to_exitcode(status)
        return start, end, usage, proc.returncode

    def setup(self, meta_file=None):
        argv = [sys.executable, OPS, "setup", self.workload,
                self.scenario_dir]
        if meta_file:
            argv.append(meta_file)
        start, end, _, rc = self.spawn(argv, os.path.join(self.out,
                                                          "setup.log"))
        if rc != 0:
            with open(os.path.join(self.out, "setup.log")) as fh:
                sys.stderr.write(fh.read())
            raise SystemExit(f"set-up failed with exit code {rc}")
        return end - start

    def run_op(self, op, round_dir, traced):
        out = os.path.join(round_dir, op["label"])
        os.makedirs(out)
        trace_file = out + ".trace.json" if traced else None
        if op["cmd"] == "api":
            result_file = os.path.join(out, "result.json")
            argv = [sys.executable, OPS, "api", op["target"], str(self.seed),
                    result_file] + ([trace_file] if traced else [])
        else:
            cli_args = [op["cmd"], "--scenario", op["path"], "--out", out,
                        "--threads", str(op["threads"])]
            if traced:
                argv = [sys.executable, OPS, "cli", trace_file] + cli_args
            else:
                argv = [sys.executable, "-m", "qtraj.cli"] + cli_args
        start, end, usage, rc = self.spawn(argv, out + ".log")
        rec = {"label": op["label"], "out": out, "rc": rc,
               "wall_s": end - start, "cpu_s": usage.ru_utime + usage.ru_stime,
               "peak_rss_mb": usage.ru_maxrss / 1024.0, "root": (start, end),
               "trace_file": trace_file}
        if op["cmd"] == "api" and rc == 0:
            with open(result_file) as fh:
                res = json.load(fh)
            rec.update(wall_s=res["wall_s"], cpu_s=res["cpu_s"],
                       summary=res["summary"])
        return rec

    # -- checks ---------------------------------------------------------

    def check(self, op, rec):
        if op["cmd"] == "api":
            rec["fingerprint"] = json.dumps(rec["summary"], sort_keys=True)
            return checks.check_case(op["target"], cases.CASES[op["target"]],
                                     rec["summary"])
        digest = hashlib.sha256()
        for name in sorted(os.listdir(rec["out"])):
            digest.update(name.encode())
            with open(os.path.join(rec["out"], name), "rb") as fh:
                digest.update(fh.read())
        rec["fingerprint"] = digest.hexdigest()
        return checks.CLI_CHECKS[op["cmd"]](op, rec["out"])

    # -- rounds ---------------------------------------------------------

    def run_round(self, k, traced):
        round_dir = os.path.join(self.out, f"round{k}")
        recs = []
        for op in self.ops:
            rec = self.run_op(op, round_dir, traced)
            rec["traced"] = traced
            recs.append(rec)
        return recs

    def measure(self, seconds, trace):
        """Whole rounds for about ``seconds``: at least two, and another
        while the mean round so far still fits."""
        rounds = []
        start = time.perf_counter()
        while True:
            traced = bool(trace) and len(rounds) % 2 == 1
            rounds.append(self.run_round(len(rounds), traced))
            elapsed = time.perf_counter() - start
            per_round = elapsed / len(rounds)
            if len(rounds) >= 2 and elapsed + per_round > seconds:
                return rounds


def write_scenario(path, sc, seed):
    keys = [("state.kind", sc["kind"]), ("state.x1", sc["x1"]),
            ("state.r", sc["r"]), ("state.phi", sc["phi"])]
    if sc["kind"] == "two_mode":
        keys += [("meter.x1b", sc["x1b"]), ("meter.r2", sc["r2"])]
    keys += [("amp.g", sc["g"]), ("amp.gtf", sc["gtf"]),
             ("amp.n_steps", sc["n_steps"]),
             ("run.trajectories", sc["trajectories"]), ("run.seed", seed)]
    with open(path, "w", encoding="utf-8") as fh:
        for key, value in keys:
            fh.write(f"{key} = {value!r}\n" if isinstance(value, float)
                     else f"{key} = {value}\n")


def layer_figures(bench, rounds):
    """Per-layer metrics: sums over each traced round's operations,
    averaged over traced rounds; trace accounting and overhead; the
    sampler acceptance check."""
    problems = []
    traced = [r for r in rounds if r[0]["traced"]]
    plain = [r for r in rounds if not r[0]["traced"]]
    total = {}
    bound_min = math.inf
    n_spans = 0
    for recs in traced:
        for op, rec in zip(bench.ops, recs):
            if rec["rc"] != 0:
                continue
            with open(rec["trace_file"]) as fh:
                spans = json.load(fh)["spans"]
            n_spans += len(spans)
            if op["cmd"] == "api":
                top = [s for s in spans if s[4] == -1 and s[0] == "op"][0]
                root = (top[1], top[2])
            else:
                root = rec["root"]
            fig = tracing.analyse(spans, root, op["threads"])
            if fig["accounting_error_s"] > 1e-6:
                problems.append(f"{rec['label']}: layer self times miss the "
                                f"traced wall by {fig['accounting_error_s']}")
            for key, val in fig.items():
                total[key] = total.get(key, 0.0) + val
            tallies = tracing.sampler_tallies(spans)
            problems += checks.check_acceptance(tallies)
            bound_min = min([bound_min] + [t["bound"]
                                           for t in tallies.values()])
    n = len(traced)
    avg = {k: v / n for k, v in total.items()}

    def get(key):
        return avg.get(key, 0.0)

    def ratio(a, b):
        return a / b if b > 0 else 0.0

    m = {
        "sde_engine.chunk_s": get("sde_engine.chunk_s"),
        "sde_engine.relax_self_s": get("sde_engine.relax_self_s"),
        "sde_engine.chunks": get("sde_engine.chunk_calls"),
        "sde_engine.normals_computed": get("sde_engine.normals_computed"),
        "sde_engine.path_bytes_computed":
            get("sde_engine.path_bytes_computed"),
        "sde_engine.normals_per_s": ratio(get("sde_engine.normals_computed"),
                                          get("sde_engine.relax_self_s")),
        "sde_engine.worker_busy_ratio": ratio(
            get("sde_engine.chunk_s"),
            get("sde_engine.chunk_phase_capacity_s")),
        "sampler.fringe_s": get("sampler.fringe_s"),
        "sampler.fringe_calls": get("sampler.fringe_calls"),
        "sampler.fringe_proposed": get("sampler.fringe_proposed"),
        "sampler.fringe_accepted": get("sampler.fringe_accepted"),
        "sampler.fringe_acceptance": ratio(get("sampler.fringe_accepted"),
                                           get("sampler.fringe_proposed")),
        "sampler.fringe_acceptance_bound_min":
            bound_min if bound_min < math.inf else 0.0,
        "sampler.conditional_s": get("sampler.conditional_s"),
        "postselect.select_s": get("postselect.select_s"),
        "postselect.loops_s": get("postselect.loops_self_s"),
        "postselect.loops": get("postselect.loops"),
        "postselect.estimate_s": get("postselect.estimate_s"),
        "postselect.infer_s": get("postselect.infer_s"),
        "stats.histogram_s": get("stats.histogram_s"),
        "stats.ks_s": get("stats.ks_s"),
        "stats.compare_s": get("stats.compare_s"),
        "analytic.build_s": get("analytic.build_s"),
        "analytic.build_calls": get("analytic.build_calls"),
        "analytic.cdf_s": get("analytic.cdf_s"),
        "cli.output_bytes": get("cli.output_bytes"),
        "cli.rows_written": get("cli.rows_written"),
        "trace.uncovered_s": get("uncovered_s"),
        "trace.parallel_overlap_s": get("parallel_overlap_s"),
        "trace.spans": n_spans / n,
    }
    for layer in tracing.LAYERS:
        m[layer + ".self_s"] = get(layer + ".self_s")
    for cmd in ("born", "postselect", "collapse"):
        walls = [rec["wall_s"] for recs in plain for op, rec in
                 zip(bench.ops, recs) if op["cmd"] == cmd]
        m[f"cli.{cmd}_s"] = statistics.median(walls) if walls else 0.0
    m["trace.wall_s"] = statistics.median(round_wall(r) for r in traced)
    m["trace.untraced_wall_s"] = statistics.median(round_wall(r)
                                                   for r in plain)
    m["trace.overhead_share"] = m["trace.wall_s"] / m[
        "trace.untraced_wall_s"] - 1.0
    return m, problems


def round_wall(recs):
    return sum(rec["wall_s"] for rec in recs)


def end_to_end_figures(bench, rounds, setup_times):
    wall = statistics.median(round_wall(r) for r in rounds)
    return {
        "setup_s": statistics.median(setup_times),
        "wall_s": wall,
        "traj_per_s": bench.traj_per_round / wall,
        "cpu_s": statistics.median(sum(rec["cpu_s"] for rec in r)
                                   for r in rounds),
        "peak_rss_mb": statistics.median(max(rec["peak_rss_mb"] for rec in r)
                                         for r in rounds),
    }


def run_workload(args, root):
    bench = Bench(root, args.workload, args.seed)
    meta_file = os.path.join(bench.out, "meta.json")
    bench.setup(meta_file)  # warm-up: compiles byte code, fills caches
    with open(meta_file) as fh:
        meta = json.load(fh)
    setup_times = [bench.setup() for _ in range(SETUP_REPEATS)]
    rounds = bench.measure(args.seconds, args.trace)

    attempted = failed = 0
    problems = []
    first = {}
    for k, recs in enumerate(rounds):
        for op, rec in zip(bench.ops, recs):
            attempted += 1
            if rec["rc"] != 0:
                failed += 1
                with open(rec["out"] + ".log") as fh:
                    tail = fh.read()[-2000:]
                print(f"# FAILED round {k} {rec['label']} exit {rec['rc']}:"
                      f"\n{tail}", file=sys.stderr)
                continue
            problems += [f"round {k} {rec['label']}: {p}"
                         for p in bench.check(op, rec)]
            ref = first.setdefault(op["label"], rec["fingerprint"])
            if rec["fingerprint"] != ref:
                problems.append(f"round {k} {rec['label']}: output differs "
                                f"from round 0 under the same seed")
    ok_rounds = [r for r in rounds if all(rec["rc"] == 0 for rec in r)]
    if not ok_rounds or (args.trace and len({r[0]["traced"]
                                             for r in ok_rounds}) < 2):
        print("error: no complete round to measure", file=sys.stderr)
        return 1

    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    spec = [(m["name"], m["unit"]) for m in declared]
    if args.trace:
        metrics, trace_problems = layer_figures(bench, ok_rounds)
        problems += trace_problems
    else:
        metrics = end_to_end_figures(bench, ok_rounds, setup_times)

    meta.update(workload=args.workload, seed=args.seed, trace=args.trace,
                rounds=len(rounds), trajectories_per_round=bench.traj_per_round,
                operations=[{"label": op["label"], "threads": op["threads"],
                             "trajectories": op["trajectories"]}
                            for op in bench.ops])
    print("# environment " + json.dumps(meta, sort_keys=True))
    print(f"# {'operation':<28} {'wall_s':>9} {'cpu_s':>9} {'rss_MB':>8} "
          f"{'trajectories':>12}  (medians over {len(ok_rounds)} rounds)")
    for i, op in enumerate(bench.ops):
        recs = [r[i] for r in ok_rounds]
        print(f"# {op['label']:<28} "
              f"{statistics.median(x['wall_s'] for x in recs):9.3f} "
              f"{statistics.median(x['cpu_s'] for x in recs):9.3f} "
              f"{statistics.median(x['peak_rss_mb'] for x in recs):8.1f} "
              f"{op['trajectories']:12d}")
    for name, unit in spec:
        print(f"# {name:<40} {metrics[name]:16.6g} {unit}")
    for p in problems[:50]:
        print(f"# CHECK FAILED: {p}")
    result = {"correct": not problems, "attempted": attempted,
              "failed": failed,
              "metrics": {name: {"value": metrics[name], "unit": unit}
                          for name, unit in spec}}
    with open(os.path.join(bench.out, "result.json"), "w") as fh:
        json.dump({"meta": meta, "problems": problems, "result": result,
                   "setup_s": setup_times,
                   "rounds": [[{k: v for k, v in rec.items()
                                if k in ("label", "rc", "wall_s", "cpu_s",
                                         "peak_rss_mb", "traced")}
                               for rec in r] for r in rounds]},
                  fh, indent=1)
    print(json.dumps(result))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="show that the checks reject wrong output")
    args = parser.parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "qtraj", "__init__.py")):
        print(f"error: no qtraj package under {src}; run from the root of "
              f"a qtraj checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    if args.self_test:
        import selftest
        return selftest.main(root)
    if args.workload is None:
        parser.error("--workload is required")
    return run_workload(args, root)


if __name__ == "__main__":
    sys.exit(main())
