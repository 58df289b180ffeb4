"""Static checks on the package source: no module imports a name it
never uses (names listed in ``__all__`` count as used), no function
imports inside its body, no module-level function or class goes unused
(referenced nowhere in the package outside its own definition, and not
exported in ``__all__``), every name the benchmark's tracer wraps
still exists, the tracer reads every chunk the engine returns, and
traced commands still complete."""

import ast
import importlib
import importlib.util
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qtraj
import qtraj.analytic
import qtraj.cli
from qtraj import sde_engine
from qtraj.core import AmplifierSpec, ModeSpec, SuperpositionSpec, TwoModeSpec

SOURCES = sorted(Path(qtraj.__file__).parent.glob("*.py"))


def unused_imports(tree: ast.Module):
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used |= set(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_sources_found():
    assert {p.name for p in SOURCES} >= {"__init__.py", "cli.py", "core.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    assert unused_imports(tree) == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_imports_inside_functions(path):
    # A module-level import is one the unused-import scan can see.
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    local = sorted((node.lineno, fn.name) for fn in ast.walk(tree)
                   if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                   for node in ast.walk(fn)
                   if isinstance(node, (ast.Import, ast.ImportFrom)))
    assert local == []


def referenced_names():
    """(file, name, line) of every name and attribute the package reads."""
    refs = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                refs.append((path.name, node.id, node.lineno))
            elif isinstance(node, ast.Attribute):
                refs.append((path.name, node.attr, node.lineno))
    return refs


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_dead_definitions(path):
    refs = referenced_names()
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    dead = [node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and node.name not in qtraj.__all__
            and not any(name == node.name
                        and not (file == path.name
                                 and node.lineno <= line <= node.end_lineno)
                        for file, name, line in refs)]
    assert dead == []


def callers(path, names):
    """{name: sorted names of the functions in ``path`` that call it}."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    found = {name: set() for name in names}
    for fn in ast.walk(tree):
        if isinstance(fn, ast.FunctionDef):
            for node in ast.walk(fn):
                if (isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Name)
                        and node.func.id in found):
                    found[node.func.id].add(fn.name)
    return {name: sorted(fns) for name, fns in found.items()}


def test_the_two_packet_family_is_built_in_one_place():
    # Every closed-form member goes through analytic._packets; only it and
    # the family operations construct terms, and only _at checks a time.
    src = Path(qtraj.analytic.__file__).parent
    assert callers(src / "analytic.py",
                   ("GaussComponent", "FringeTerm", "_check_time")) == {
        "GaussComponent": ["_mapped", "_packets", "marginal"],
        "FringeTerm": ["_mapped", "_packets", "_reduced_fringe"],
        "_check_time": ["_at"]}
    assert callers(src / "sampler.py", ("GaussComponent", "FringeTerm")) == {
        "GaussComponent": ["_proposal_parts"], "FringeTerm": []}


def test_every_run_passes_one_gate_and_one_chunk_body():
    # Only path_densities, which every run calls once before it draws,
    # checks a (state, amplifier) pairing, and the traced chunk names
    # are the kernel itself.
    gate = [fn for path in SOURCES
            for fn in callers(path, ["validate_scenario"]).popitem()[1]]
    assert gate == ["path_densities"]
    for name in ("single_mode_chunk", "p_measurement_chunk",
                 "two_mode_chunk"):
        assert getattr(sde_engine, name) is sde_engine._path_chunk, name


TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    """The benchmark's tracer, loaded read-only from its file."""
    path = TRACING
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_traced_names_resolve():
    tracing = load_tracing()
    missing = [f"{mod}.{attr}" for mod, attr, _ in tracing.WRAPPED_FUNCTIONS
               if not hasattr(importlib.import_module(mod), attr)]
    missing += [f"{cls}.{attr}" for cls, attr, _ in tracing.WRAPPED_METHODS
                if not hasattr(getattr(qtraj.analytic, cls, None), attr)]
    assert missing == []
    assert set(qtraj.cli._COMMANDS) == {"run", "born", "postselect",
                                        "collapse"}


@pytest.mark.parametrize("through", [1, 2, 3])
def test_tracer_counts_the_normals_of_every_chunk_stage(through):
    # The tracer derives normals from the chunk it is handed: the first
    # array's shape times the number of arrays.  A stopped chunk must
    # still hand it arrays, one per relaxed (or drawn) coordinate.  The
    # three traced names are the kernel itself, so each draws any run's
    # chunk from its densities.
    tracing = load_tracing()
    half = 1.0 / math.sqrt(2.0)
    cat = SuperpositionSpec(ModeSpec(1.0), c1_mag=half, c2_mag=half,
                            phase_phi=0.5 * math.pi)
    size, n_steps = 7, 4
    amp = AmplifierSpec(1.0, 1.5, n_steps)
    cases = ((cat, amp, 1), (cat, AmplifierSpec(-1.0, 1.5, n_steps), 1),
             (TwoModeSpec(cat, ModeSpec(2.0)), amp, 2))
    for name in ("single_mode_chunk", "p_measurement_chunk",
                 "two_mode_chunk"):
        for spec, amp, modes in cases:
            dens = sde_engine.path_densities(spec, amp)
            args, kwargs = (dens, amp, 5, 0, size), {"through": through}
            chunk = getattr(sde_engine, name)(*args, **kwargs)
            want = sde_engine._path_chunk(dens, amp, 5, 0, size, through)
            assert [(a.shape, a.tobytes()) for a in chunk] \
                == [(a.shape, a.tobytes()) for a in want], name
            extra = tracing._chunk_after(None, args, kwargs, chunk)
            relaxed = {1: 0, 2: modes, 3: 2 * modes}[through]
            assert extra["normals"] == size * n_steps * relaxed, name


TRACED_RUNS = """
import importlib.util, json, sys
spec = importlib.util.spec_from_file_location("perfbench_tracing", sys.argv[1])
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
tracer = tracing.Tracer()
tracer.install()
import qtraj.cli
out = []
for name in ("fig_sup", "fig_entmeter1"):
    first = len(tracer.spans)
    code = qtraj.cli.main(["run", "--scenario", name, "--out",
                           sys.argv[2] + name, "--trajectories", "8229",
                           "--threads", "2"])
    spans = tracer.spans[first:]
    out.append([code, sum(s[0] == "sampler.fringe" for s in spans),
                sum(s[5]["normals"] for s in spans
                    if s[0] == "sde_engine.chunk")])
print(json.dumps(out))
"""


def test_traced_runs_complete(tmp_path):
    # Run under the benchmark's tracer in a child process, since the
    # tracer wraps names in place.  Every hook must accept what it is
    # handed, the sampler spans stay, and a chunk span that books
    # normals books those the run drew (a tally passed off as paths
    # would not).
    src = str(Path(qtraj.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", TRACED_RUNS, str(TRACING), f"{tmp_path}/"],
        capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    runs = json.loads(proc.stdout.splitlines()[-1])
    drawn = (8229 * 300 * 2, 8229 * 100 * 4)  # fig_sup, fig_entmeter1
    for (code, fringe_spans, normals), want in zip(runs, drawn):
        assert code == 0
        assert fringe_spans >= 2
        assert normals in (0, want)


TRACED_RECORDS = """
import importlib.util, json, sys
spec = importlib.util.spec_from_file_location("perfbench_tracing", sys.argv[1])
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
tracer = tracing.Tracer()
tracer.install()
import qtraj.cli
out = []
for cmd, name in (("postselect", "fig_condvar"), ("collapse", "fig_infer_eig"),
                  ("born", "fig_born_x")):
    first = len(tracer.spans)
    code = qtraj.cli.main([cmd, "--scenario", name, "--out", sys.argv[2] + cmd,
                           "--trajectories", "9000", "--threads", "2"])
    spans = tracer.spans[first:]
    out.append([code, [s[5]["normals"] for s in spans
                       if s[0] == "sde_engine.chunk"],
                sum(s[0] == "stats.ks" for s in spans),
                sum(s[0] == "stats.histogram" for s in spans)])
print(json.dumps(out))
"""


def test_traced_records_runs_complete(tmp_path):
    # The records commands take each chunk as it comes; under the tracer
    # they write the untraced bytes.  Each chunk span books one
    # relaxation step of every amplified position it drew (born stops
    # at the boundary draw), and born's statistics pass through the
    # names the tracer wraps, once per basis.
    src = str(Path(qtraj.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", TRACED_RECORDS, str(TRACING),
         f"{tmp_path}/traced_"], capture_output=True, text=True, env=env,
        timeout=300)
    assert proc.returncode == 0, proc.stderr
    runs = json.loads(proc.stdout.splitlines()[-1])
    sizes = (sde_engine.CHUNK, 9000 - sde_engine.CHUNK)
    # fig_condvar sweeps five single-mode separations; fig_infer_eig is
    # one two-mode run, whose inference bins the meter once; born draws
    # and tests each of its two bases once
    cases = (("postselect", "fig_condvar", 5, 1, [0, 0]),
             ("collapse", "fig_infer_eig", 1, 2, [0, 1]),
             ("born", "fig_born_x", 2, 0, [2, 2]))
    for (code, normals, *stats), (cmd, name, sweeps, modes, want) \
            in zip(runs, cases):
        assert code == 0
        assert normals == [size * modes for size in sizes] * sweeps
        assert stats == want, cmd
        plain = tmp_path / f"plain_{cmd}"
        assert qtraj.cli.main([cmd, "--scenario", name, "--out", str(plain),
                               "--trajectories", "9000", "--threads", "2"]) == 0
        traced = tmp_path / f"traced_{cmd}"
        files = sorted(p.name for p in plain.iterdir())
        assert files == sorted(p.name for p in traced.iterdir())
        for file in files:
            assert (traced / file).read_bytes() == (plain / file).read_bytes()
