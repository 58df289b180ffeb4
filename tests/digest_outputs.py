"""Print a digest of what the CLI writes for the shipped scenarios.

Every shipped scenario (or those named) runs under each of the four
commands at one and at two threads, in-process.  For each run it prints
the exit code, the SHA-256 of every CSV written, and stderr.  Each CSV
also gets a second SHA-256, of its lines after the leading ``#``
comments, so a changed scenario text (its ``scenario_sha256``) shows as
changed provenance over unchanged data.  Two trees whose digests are
equal wrote the same bytes and said the same things:

    PYTHONPATH=src python tests/digest_outputs.py --trajectories 20000 > a
    (same in the other tree) > b
    diff a b

Without ``--trajectories`` each scenario runs at its own size.  Pytest
does not collect this file (its name does not start with ``test_``).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import tempfile
from itertools import dropwhile
from pathlib import Path

from qtraj import cli

COMMANDS = ("run", "born", "postselect", "collapse")


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


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("scenarios", nargs="*",
                        help="shipped scenario names (default: all)")
    parser.add_argument("--trajectories", type=int, default=None,
                        help="override every scenario's run.trajectories")
    args = parser.parse_args(argv)
    for line in digest_lines(args.scenarios or cli.shipped_scenarios(),
                             args.trajectories):
        print(line, flush=True)


if __name__ == "__main__":
    main()
