"""Print a digest of what the CLI writes for the shipped scenarios.

Every shipped scenario (or those named) runs under each of the four
commands at one and at two threads, in-process.  For each run it prints
the exit code, the SHA-256 of every CSV written, and stderr.  Each CSV
also gets a second SHA-256, of its lines after the leading ``#``
comments, so a changed scenario text (its ``scenario_sha256``) shows as
changed provenance over unchanged data.  Two trees whose digests are
equal wrote the same bytes and said the same things:

    PYTHONPATH=src python tests/digest_outputs.py --trajectories 20000 > a
    (in the other tree) PYTHONPATH=src python tests/digest_outputs.py \
        --trajectories 20000 --against a

With ``--against FILE`` the digest is compared with a saved one: every
line that differs, or is missing on either side, is printed as a
unified diff (``-`` the file, ``+`` this run), and the exit code is 1
on any difference, 0 when the two are equal.

Without ``--trajectories`` each scenario runs at its own size.  Pytest
does not collect this file (its name does not start with ``test_``).
"""

from __future__ import annotations

import argparse
import contextlib
import difflib
import hashlib
import io
import sys
import tempfile
from itertools import dropwhile
from pathlib import Path

from qtraj import cli

COMMANDS = tuple(cli._COMMANDS)


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
