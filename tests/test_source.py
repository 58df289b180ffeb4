"""Static checks on the package source: no module imports a name it
never uses (names listed in ``__all__`` count as used), no function
imports inside its body, no module-level function or class goes unused
(referenced nowhere in the package outside its own definition, and not
exported in ``__all__``), and every name the benchmark's tracer wraps
still exists."""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

import qtraj
import qtraj.analytic
import qtraj.cli

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


def test_traced_names_resolve():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [f"{mod}.{attr}" for mod, attr, _ in tracing.WRAPPED_FUNCTIONS
               if not hasattr(importlib.import_module(mod), attr)]
    missing += [f"{cls}.{attr}" for cls, attr, _ in tracing.WRAPPED_METHODS
                if not hasattr(getattr(qtraj.analytic, cls, None), attr)]
    assert missing == []
    assert set(qtraj.cli._COMMANDS) == {"run", "born", "postselect",
                                        "collapse"}
