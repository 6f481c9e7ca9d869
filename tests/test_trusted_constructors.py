"""Only ``teams.py`` builds a team without validating it.

``Team._canonical`` is the one trusted constructor: it stores rows that
are already canonical through ``Team._store``, with nothing keyed or
checked, and every other module builds such teams through it (or through
``Team._sub``).  A static check on the source with the standard ``ast``
module: no package module but ``teams.py`` calls ``object.__new__(Team)``
or any ``._store(``, and none reads ``._rowset`` or ``._hash``, which a
team makes on first use and may not have yet.
"""

import ast
from pathlib import Path

import pytest

import teamlogic

MODULES = sorted(
    path for path in Path(teamlogic.__file__).parent.glob("*.py") if path.name != "teams.py"
)


def trusted_calls(tree: ast.Module) -> list[int]:
    """The lines of every ``object.__new__(Team)`` and ``._store(`` call."""
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or not isinstance(node.func, ast.Attribute):
            continue
        func = node.func
        new_team = (
            func.attr == "__new__"
            and isinstance(func.value, ast.Name)
            and func.value.id == "object"
            and any(isinstance(arg, ast.Name) and arg.id == "Team" for arg in node.args)
        )
        if new_team or func.attr == "_store":
            lines.append(node.lineno)
    return lines


def lazy_reads(tree: ast.Module) -> list[int]:
    """The lines of every ``._rowset`` and ``._hash`` attribute."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in ("_rowset", "_hash")
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_trusted_construction_outside_teams(path):
    lines = trusted_calls(ast.parse(path.read_text(), filename=str(path)))
    assert not lines, f"{path.name} builds a team around Team._canonical on lines {lines}"


def test_check_sees_trusted_construction():
    tree = ast.parse(
        "team = object.__new__(Team)\n"
        "team._store(domain, rows, universe)\n"
        "other = object.__new__(ProbTeam)\n"
        "fine = Team._canonical(domain, rows, universe)\n"
    )
    assert trusted_calls(tree) == [1, 2]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_lazy_field_read_outside_teams(path):
    lines = lazy_reads(ast.parse(path.read_text(), filename=str(path)))
    assert not lines, f"{path.name} reads a team's lazy row set or hash on lines {lines}"


def test_check_sees_lazy_field_reads():
    tree = ast.parse(
        "found = row in team._rowset\n"
        "key = hash(team)\n"
        "cached = team._hash or 0\n"
        "rows = team.rows\n"
    )
    assert lazy_reads(tree) == [1, 3]
