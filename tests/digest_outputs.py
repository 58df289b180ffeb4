"""Print a digest of what the CLI and the Python API compute.

Every shipped scenario (or those named) runs under each of the four
commands at one and at two threads, in-process.  For each run it prints
the exit code, the SHA-256 of every CSV written, and stderr.  Each CSV
also gets a second SHA-256, of its lines after the leading ``#``
comments, so a changed scenario text (its ``scenario_sha256``) shows as
changed provenance over unchanged data.  Then each case of the
benchmark's ``sampling`` workload, loaded read-only from
``perfbench/cases.py``, runs through the Python API, and one line gives
its name and the SHA-256 of its ``summarise`` result as sorted JSON.
Two trees whose digests are equal wrote the same bytes, said the same
things and summarised the same API results:

    PYTHONPATH=src python tests/digest_outputs.py --trajectories 20000 > a
    (in the other tree) PYTHONPATH=src python tests/digest_outputs.py \
        --trajectories 20000 --against a

With ``--against FILE`` the digest is compared with a saved one: every
line that differs, or is missing on either side, is printed as a
unified diff (``-`` the file, ``+`` this run), and the exit code is 1
on any difference, 0 when the two are equal.

Without ``--trajectories`` each scenario and API case runs at its own
size; with it, each API case runs at the smaller of its own size and the
override.  Pytest does not collect this file (its name does not start
with ``test_``).
"""

from __future__ import annotations

import argparse
import contextlib
import difflib
import hashlib
import importlib.util
import io
import json
import sys
import tempfile
from itertools import dropwhile
from pathlib import Path

import qtraj
from qtraj import cli

COMMANDS = tuple(cli._COMMANDS)
CASES = Path(__file__).resolve().parents[1] / "perfbench" / "cases.py"


def case_summaries(trajectories=None):
    """Yield ``(name, summary)`` of each ``sampling`` case, loaded read-only
    from its file and run through the Python API at ``min(n,
    trajectories)``, or at its own n."""
    spec = importlib.util.spec_from_file_location("perfbench_cases", CASES)
    cases = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(cases)
    for name, params in cases.CASES.items():
        if trajectories is not None:
            params = dict(params, n=min(params["n"], trajectories))
        result = cases.RUN[name](qtraj, cases.case_seed(name, 1), params)
        yield name, cases.summarise(qtraj, name, result)


def digest_lines(scenarios, trajectories=None):
    """Yield the digest, one line at a time."""
    with tempfile.TemporaryDirectory() as tmp:
        for name in scenarios:
            for cmd in COMMANDS:
                for threads in (1, 2):
                    out = Path(tmp, name, cmd, str(threads))
                    argv = [cmd, "--scenario", name, "--out", str(out),
                            "--threads", str(threads)]
                    if trajectories is not None:
                        argv += ["--trajectories", str(trajectories)]
                    err = io.StringIO()
                    with contextlib.redirect_stderr(err):
                        code = cli.main(argv)
                    yield f"{name} {cmd} threads={threads} exit={code}"
                    for path in sorted(out.glob("*.csv")):
                        raw = path.read_bytes()
                        data = b"".join(dropwhile(
                            lambda line: line.startswith(b"#"),
                            raw.splitlines(keepends=True)))
                        yield (f"  {path.name} "
                               f"{hashlib.sha256(raw).hexdigest()} "
                               f"data={hashlib.sha256(data).hexdigest()}")
                    for line in err.getvalue().splitlines():
                        yield f"  stderr: {line.replace(tmp, '<out>')}"
    for name, summary in case_summaries(trajectories):
        text = json.dumps(summary, sort_keys=True).encode()
        yield f"api {name} {hashlib.sha256(text).hexdigest()}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("scenarios", nargs="*",
                        help="shipped scenario names (default: all)")
    parser.add_argument("--trajectories", type=int, default=None,
                        help="override every scenario's run.trajectories")
    parser.add_argument("--against", metavar="FILE", default=None,
                        help="compare with a saved digest; exit 1 if any "
                             "line differs")
    args = parser.parse_args(argv)
    saved = (None if args.against is None else
             Path(args.against).read_text(encoding="utf-8").splitlines())
    lines = digest_lines(args.scenarios or cli.shipped_scenarios(),
                         args.trajectories)
    if saved is None:
        for line in lines:
            print(line, flush=True)
        return 0
    diff = list(difflib.unified_diff(saved, list(lines), args.against,
                                     "this run", n=0, lineterm=""))
    print("\n".join(diff) if diff else
          f"{len(saved)} lines equal to {args.against}")
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main())
