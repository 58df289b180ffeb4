"""Print the statements of ``qtraj`` that no shipped run reaches.

Under ``sys.settrace`` (and ``threading.settrace`` for the chunk
workers) every shipped scenario runs under each of the four commands at
one and at two threads, in-process, and each case of the benchmark's
``sampling`` workload runs through the Python API at reduced size, as
``digest_outputs.py`` runs it.  Then every
function of ``src/qtraj`` that has an unreached statement is printed
with those statements:

    PYTHONPATH=src python tests/traffic_map.py --trajectories 20000

Refusal branches, input checks and closed-form twins that only the
tests call show up here; so does dead code.

With ``--against FILE`` the listing is compared with a saved one by
file, function and statement text, so statements that only moved to
other line numbers count as equal.  Every statement unreached on one
side only is printed as a unified diff (``-`` the file, ``+`` this run),
and the exit code is 1 on any difference, 0 when the two are equal:

    PYTHONPATH=src python tests/traffic_map.py > a
    (in the other tree) PYTHONPATH=src python tests/traffic_map.py \
        --against a

Pytest does not collect this file (its name does not start with
``test_``).
"""

from __future__ import annotations

import argparse
import contextlib
import difflib
import inspect
import io
import sys
import tempfile
import threading
from collections import defaultdict
from pathlib import Path

import qtraj
from digest_outputs import case_summaries
from qtraj import cli

COMMANDS = tuple(cli._COMMANDS)
PACKAGE = Path(qtraj.__file__).parent


class LineRecorder:
    """Collects (file, line) of every line run in the package's files."""

    def __init__(self):
        self.reached = defaultdict(set)

    def _global(self, frame, event, arg):
        if frame.f_code.co_filename.startswith(str(PACKAGE)):
            return self._local
        return None

    def _local(self, frame, event, arg):
        if event == "line":
            self.reached[frame.f_code.co_filename].add(frame.f_lineno)
        return self._local

    @contextlib.contextmanager
    def recording(self):
        threading.settrace(self._global)
        sys.settrace(self._global)
        try:
            yield
        finally:
            sys.settrace(None)
            threading.settrace(None)


def run_cli(trajectories):
    with tempfile.TemporaryDirectory() as tmp:
        for name in cli.shipped_scenarios():
            for cmd in COMMANDS:
                for threads in (1, 2):
                    out = Path(tmp, name, cmd, str(threads))
                    with contextlib.redirect_stderr(io.StringIO()):
                        cli.main([cmd, "--scenario", name, "--out", str(out),
                                  "--threads", str(threads),
                                  "--trajectories", str(trajectories)])


def _functions(code, owner=None):
    """(function qualname, lines) for each function under a code object.

    Comprehensions and lambdas count toward the function around them;
    module and class bodies, which run at import, are not listed.
    """
    for const in code.co_consts:
        if not hasattr(const, "co_lines"):
            continue
        name = owner if const.co_name.startswith("<") else const.co_qualname
        if not const.co_flags & inspect.CO_OPTIMIZED:
            name = None
        if name:
            yield name, {line for _, _, line in const.co_lines()
                         if line not in (None, const.co_firstlineno)}
        yield from _functions(const, name)


def unreached(reached):
    """Yield (file, function, sorted unreached lines) for the package."""
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        lines = defaultdict(set)
        for name, own in _functions(compile(source, str(path), "exec")):
            lines[name] |= own
        for name, own in lines.items():
            missed = sorted(own - reached.get(str(path), set()))
            if missed:
                yield path, name, missed


def listing(reached):
    """Yield the listing: each function, then its unreached statements."""
    for path, name, missed in unreached(reached):
        text = path.read_text(encoding="utf-8").splitlines()
        yield f"{path.name}:{name}"
        for line in missed:
            yield f"  {line:4d}  {text[line - 1].strip()}"


def statements(lines):
    """A listing's statements as ``file:function  text``, numbers dropped."""
    owner = None
    for line in lines:
        if line.startswith(" "):
            yield f"{owner}  {line.split(None, 1)[1]}"
        elif line:
            owner = line


def compare(saved, lines, label) -> int:
    """Print the statements unreached on one side only; 1 if there are any."""
    old, new = list(statements(saved)), list(statements(lines))
    diff = list(difflib.unified_diff(old, new, label, "this run", n=0,
                                     lineterm=""))
    print("\n".join(diff) if diff else
          f"{len(old)} statements equal to {label}")
    return 1 if diff else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trajectories", type=int, default=20000,
                        help="trajectories of every CLI run and API case")
    parser.add_argument("--against", metavar="FILE", default=None,
                        help="compare with a saved listing; exit 1 if any "
                             "statement differs")
    args = parser.parse_args(argv)
    saved = (None if args.against is None else
             Path(args.against).read_text(encoding="utf-8").splitlines())
    recorder = LineRecorder()
    with recorder.recording():
        run_cli(args.trajectories)
        for _ in case_summaries(args.trajectories):
            pass
    lines = list(listing(recorder.reached))
    if saved is None:
        for line in lines:
            print(line)
        return 0
    return compare(saved, lines, args.against)


if __name__ == "__main__":
    sys.exit(main())
