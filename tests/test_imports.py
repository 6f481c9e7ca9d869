"""Every import of a package module is used, and every module imports first.

A static check on the source with the standard ``ast`` module: each name
an import binds must be read somewhere in the module, in code or in a
string annotation.  ``__init__.py`` is skipped, because its imports are
re-exports, and so are ``__future__`` imports.  A fresh interpreter then
imports each module as the first of the package, so that an import cycle
fails here and not at a user's first import.
"""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

import teamlogic

MODULES = sorted(
    path for path in Path(teamlogic.__file__).parent.glob("*.py") if path.name != "__init__.py"
)


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Each name an import binds, with the line of the import."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def used_names(tree: ast.Module) -> set[str]:
    """Every name the module reads, string annotations included."""
    used = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    for note in filter(None, annotations):
        for part in ast.walk(note):
            if isinstance(part, ast.Constant) and isinstance(part.value, str):
                used |= {n.id for n in ast.walk(ast.parse(part.value, mode="eval")) if isinstance(n, ast.Name)}
    return used


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = used_names(tree)
    unused = [f"{name} (line {line})" for name, line in imported_names(tree).items() if name not in used]
    assert not unused, f"{path.name} imports but never uses: {', '.join(unused)}"


def test_check_sees_an_unused_import():
    tree = ast.parse("import json\nfrom os import path, sep\n\ndef f(x: 'sep') -> None:\n    return path\n")
    assert sorted(set(imported_names(tree)) - used_names(tree)) == ["json"]


#: Imports each named module with no ``teamlogic`` module loaded before it.
IMPORT_EACH_FIRST = """
import importlib, sys
for name in sys.argv[1:]:
    for loaded in [m for m in sys.modules if m.split(".")[0] == "teamlogic"]:
        del sys.modules[loaded]
    print(name, flush=True)
    importlib.import_module(name)
"""


def test_each_module_imports_first():
    names = [f"teamlogic.{path.stem}" for path in MODULES]
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_EACH_FIRST, *names], capture_output=True, text=True
    )
    assert proc.returncode == 0, f"importing {proc.stdout.split()[-1]} first fails:\n{proc.stderr}"
    assert proc.stdout.split() == names
