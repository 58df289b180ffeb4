"""Self-test of the benchmark's checks.

    python3 perfbench/run.py --self-test

Shows that each check passes on the program's real output and rejects a
wrong answer: a corrupted CSV, samples drawn at the wrong phase, and a
sampler whose acceptance bound is overstated.  Also checks that ``qtraj
run`` writes the same bytes at one and at two threads.  Runs at reduced
sizes (about a minute); exits 0 when every expectation holds.
"""

from __future__ import annotations

import dataclasses
import os
import shutil

import cases
import checks
import run


class Expectations:
    def __init__(self):
        self.failures = 0

    def expect(self, label, problems, should_fail):
        ok = bool(problems) == should_fail
        self.failures += not ok
        verdict = "rejects" if problems else "accepts"
        print(f"{'ok  ' if ok else 'FAIL'} {label}: check {verdict}"
              + (f" ({problems[0]})" if problems else ""))


def _edit_csv(src_dir, dst_dir, name, edit, row=None):
    """Copy ``src_dir`` to ``dst_dir`` and rewrite one data row of a CSV
    (the middle one unless ``row`` is given)."""
    shutil.copytree(src_dir, dst_dir)
    path = os.path.join(dst_dir, name)
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    data = [i for i, ln in enumerate(lines) if not ln.startswith("#")][1:]
    i = data[len(data) // 2 if row is None else row]
    lines[i] = edit(lines[i].split(","))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _scale(col, factor):
    def edit(fields):
        fields[col] = repr(float(fields[col]) * factor)
        return ",".join(fields)
    return edit


def _cli_op(bench, index, trajectories, threads):
    op = dict(bench.ops[index])
    op["scenario"] = dict(op["scenario"], trajectories=trajectories)
    op["trajectories"] = run.TRAJ_FACTOR[op["cmd"]] * trajectories
    op["threads"] = threads
    run.write_scenario(op["path"], op["scenario"], bench.seed)
    return op


def main(root):
    ex = Expectations()
    work = os.path.join(root, ".perfbench_out", "selftest")
    shutil.rmtree(work, ignore_errors=True)

    # qtraj run: thread-count determinism, and a corrupted summary.
    bench = run.Bench(root, "paths", 7, out_name="selftest/paths")
    recs = {}
    for threads in (1, 2):
        op = _cli_op(bench, 0, 40_000, threads)
        rec = bench.run_op(op, os.path.join(work, f"threads{threads}"),
                           False)
        ex.expect(f"run fig_sup at {threads} thread(s)",
                  bench.check(op, rec), False)
        recs[threads] = rec
    same = recs[1]["fingerprint"] == recs[2]["fingerprint"]
    ex.expect("run fig_sup output identical at 1 and 2 threads",
              [] if same else ["CSV bytes differ"], False)
    bad = os.path.join(work, "run_corrupt")
    _edit_csv(recs[1]["out"], bad, "summary.csv", _scale(3, 1.02))
    ex.expect("run summary with var_x 2% high", checks.check_run(op, bad),
              True)

    # qtraj born: a wrong expected density and moved counts.
    bench = run.Bench(root, "records", 7, out_name="selftest/records")
    op = _cli_op(bench, 0, 200_000, 1)
    rec = bench.run_op(op, os.path.join(work, "born"), False)
    ex.expect("born fig_born_x", bench.check(op, rec), False)
    bad = os.path.join(work, "born_density")
    _edit_csv(rec["out"], bad, "born_check.csv", _scale(5, 1.0001))
    ex.expect("born expected_density 0.01% off", checks.check_born(op, bad),
              True)

    def raise_count(fields):
        fields[3] = str(int(int(fields[3]) * 1.2))
        return ",".join(fields)
    bad = os.path.join(work, "born_counts")
    # Data row 25 is a position bin on the flank of the packet at -x1.
    _edit_csv(rec["out"], bad, "born_check.csv", raise_count, row=25)
    ex.expect("born count of one bin 20% high", checks.check_born(op, bad),
              True)

    # Samples drawn at the wrong phase, through the Python API.
    import qtraj.analytic
    import qtraj.core
    import qtraj.postselect
    import qtraj.sampler
    import qtraj.sde_engine
    q = qtraj
    for name, n, wrong_phi in (("odd_cat", 50_000, 0.0),
                               ("p_record", 200_000, 0.0)):
        params = cases.CASES[name]
        for phi, should_fail in ((params["phi"], False), (wrong_phi, True)):
            drawn = dict(params, n=n, phi=phi)
            result = cases.RUN[name](q, 11, drawn)
            summary = cases.summarise(q, name, result)
            ex.expect(f"{name} drawn at phase {phi:.4f}, checked at "
                      f"{params['phi']:.4f}",
                      checks.check_case(name, dict(params, n=n), summary),
                      should_fail)

    # Sampler counters: an exact density, and one whose bound is overstated
    # by normalising it 10% low.
    c = cases.CASES["odd_cat"]
    spec = cases._cat(q, c["x1"], c["r"], c["phi"])
    amp = cases._amp(q, c["amp"])
    exact = q.analytic.marginal_p(spec, amp, 0.0)
    for label, dens, should_fail in (
            ("exact density", exact, False),
            ("bound overstated 11%",
             dataclasses.replace(exact, norm=exact.norm * 0.9), True)):
        tally = {"proposed": 0, "accepted": 0, "calls": 0, "bound": None}
        for chunk in range(8):
            diag = {}
            q.sampler.sample_fringe_density(
                dens, q.sampler.RngStream(5, chunk), 8192, diagnostics=diag)
            tally["proposed"] += diag["n_proposed"]
            tally["accepted"] += diag["n_accepted"]
            tally["calls"] += 1
            tally["bound"] = diag["acceptance_bound"]
        ex.expect(f"sampler acceptance, {label} "
                  f"(measured {tally['accepted'] / tally['proposed']:.4f}, "
                  f"bound {tally['bound']:.4f})",
                  checks.check_acceptance({label: tally}), should_fail)

    shutil.rmtree(work, ignore_errors=True)
    print(f"self-test: {ex.failures} expectation(s) not met")
    return 1 if ex.failures else 0

