"""Apply each catalogued mutant to a copy of the tree and run its tests.

Each entry of ``CATALOGUE`` names a file, an exact text in it, the text
that replaces it, one line on what the mutant breaks and the tests that
must turn red.  Every entry is applied to its own copy of the tree in a
temporary directory, never to the working tree, and ``pytest -x -q``
runs the entry's tests there.  One line per entry gives killed or
survived, the first failing test and the time:

    python tests/mutants.py                 # every entry
    python tests/mutants.py run_var_over_n  # the entries named

A mutant is killed when its tests fail.  One whose old text is not
found exactly once is reported as stale and counts as a survivor.  The
exit code is 1 on any survivor, 0 when every mutant is killed.

Pytest does not collect this file (its name does not start with
``test_``).
"""

from __future__ import annotations

import argparse
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple, Tuple

ROOT = Path(__file__).resolve().parents[1]
IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache",
                                ".perfbench_out", ".hypothesis")


class Mutant(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    note: str
    tests: Tuple[str, ...]


CHAIN_TESTS = ("tests/test_sde_engine.py::TestSumsChain",)
RUN_TESTS = ("tests/test_cli.py::TestCmdRun::"
             "test_tallies_write_the_values_of_whole_paths",
             "tests/test_cli.py::TestRunLaw")
CATALOGUE = (
    Mutant("chain_chi2_dropped", "src/qtraj/sde_engine.py",
           "m2 = (c * m2 ** 0.5 + s * b[j]) ** 2 + s * s * x[j]",
           "m2 = (c * m2 ** 0.5 + s * b[j]) ** 2",
           "run's centred sums of squares lose the m - 2 directions left",
           CHAIN_TESTS),
    Mutant("chain_chi2_dof", "src/qtraj/sde_engine.py",
           "rng.chisquare(m - 2, shape)", "rng.chisquare(m - 1, shape)",
           "run's chi^2 term counts the direction along y - mean(y) twice",
           CHAIN_TESTS),
    Mutant("chain_sum_noise", "src/qtraj/sde_engine.py",
           "total = c * total + s * math.sqrt(m) * a[j]",
           "total = c * total + s * a[j]",
           "run's per-time sums get one path's noise, not m paths'",
           CHAIN_TESTS),
    Mutant("run_var_over_n", "src/qtraj/cli.py",
           "variances = (totals[:, :, 1] - n * means * means) / (n - 1)",
           "variances = (totals[:, :, 1] - n * means * means) / n",
           "run's variances lose Bessel's correction", RUN_TESTS[:1]),
    Mutant("run_relaxed_forward", "src/qtraj/sde_engine.py",
           "relax(paths[::step], start, rate, dt, rng)",
           "relax(paths, start, rate, dt, rng)",
           "run's saved amplified paths relax forward from their t_final "
           "value", RUN_TESTS),
    Mutant("run_chain_keeps_saved", "src/qtraj/sde_engine.py",
           'rest, sq = total - start.sum(), sq - np.einsum("i,i->", start, '
           'start)', "rest, sq = total, sq",
           "run's chain starts from all n paths, the saved ones counted "
           "twice", RUN_TESTS),
    Mutant("run_chain_over_n", "src/qtraj/sde_engine.py",
           "sums_chain(rest, m2, m, rate, dt, rng, (amp.n_steps,))",
           "sums_chain(rest, m2, n_traj, rate, dt, rng, (amp.n_steps,))",
           "run's chain moves n paths' sums where m = n - 10 are left",
           RUN_TESTS),
    Mutant("loops_reuse_chunk_streams", "src/qtraj/cli.py",
           "rng = RngStream(sc.seed, base + _STREAM_BLOCK // 2 + j)",
           "rng = RngStream(sc.seed, base + j)",
           "postselect loops block j from the selection stream of chunk j",
           ("tests/test_cli.py::TestStreamLedger",)),
    Mutant("ks_default_alpha", "src/qtraj/stats.py",
           "def ks_critical(n: int, alpha: float = 0.001)",
           "def ks_critical(n: int, alpha: float = 0.01)",
           "every default KS threshold tightens from 1e-3 to 1e-2",
           ("tests/test_stats.py::TestKsCritical",)),
)


def first_failure(output: str) -> str:
    """The first ``FAILED``/``ERROR`` node id of a ``pytest -q`` run."""
    found = re.search(r"^(?:FAILED|ERROR) (\S+)", output, re.MULTILINE)
    return found.group(1) if found else "(no test named; see pytest output)"


def run_mutant(mutant: Mutant) -> Tuple[str, str, float]:
    """``(verdict, detail, seconds)`` of one mutant in its own tree copy."""
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="qtraj-mutant-") as tmp:
        tree = Path(tmp, "tree")
        shutil.copytree(ROOT, tree, ignore=IGNORE)
        target = tree / mutant.file
        text = target.read_text(encoding="utf-8")
        if text.count(mutant.old) != 1:
            return ("stale", f"old text found {text.count(mutant.old)} "
                    f"times in {mutant.file}", time.perf_counter() - start)
        target.write_text(text.replace(mutant.old, mutant.new),
                          encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(tree / "src"),
                   PYTHONDONTWRITEBYTECODE="1")
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p",
             "no:cacheprovider", *mutant.tests],
            cwd=tree, env=env, capture_output=True, text=True)
    seconds = time.perf_counter() - start
    if done.returncode == 0:
        return "survived", "every test passed", seconds
    if done.returncode != 1:  # collection error, usage error, interrupt
        return "killed", f"pytest exit {done.returncode}", seconds
    return "killed", first_failure(done.stdout), seconds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*",
                        help="catalogue entries to run (default: all)")
    args = parser.parse_args(argv)
    known = {m.name: m for m in CATALOGUE}
    unknown = [name for name in args.names if name not in known]
    if unknown:
        parser.error(f"no such mutant: {', '.join(unknown)}")
    survivors = 0
    for mutant in [known[n] for n in args.names] or CATALOGUE:
        verdict, detail, seconds = run_mutant(mutant)
        survivors += verdict != "killed"
        print(f"{verdict:8s} {mutant.name:26s} {seconds:6.1f} s  {detail}"
              f"\n         {mutant.note}", flush=True)
    print(f"{survivors} of {len(args.names) or len(CATALOGUE)} survived")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
