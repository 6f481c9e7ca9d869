"""Only ``teams.py`` builds a team without validating it.

``Team._canonical`` is the one trusted constructor: it stores rows that
are already canonical through ``Team._store``, with nothing keyed or
checked, and every other module builds such teams through it (or through
``Team._sub``).  A static check on the source with the standard ``ast``
module: no package module but ``teams.py`` calls ``object.__new__(Team)``
or any ``._store(``, and none reads ``._rowset`` or ``._hash``, which a
team makes on first use and may not have yet.

The teams that ``models.tag_rows`` assembles this way, the no-go witness
and relational localization, are checked against ``Team`` itself on
hidden values whose kinds mix, which Python cannot compare natively.
So is probabilistic localization, whose rows :mod:`teamlogic.constructions`
hands in canonical order to ``ProbTeam._split``, the trusted entry of
probabilistic extension, as the LCM construction also does.
"""

import ast
from pathlib import Path

import pytest

import teamlogic
from teamlogic.constructions import localize_prob, localize_rel
from teamlogic.models import empirical_domain, from_team, hidden_domain
from teamlogic.nogo import exists_strongdet_lambdaindep
from teamlogic.teams import ProbTeam, Team

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


def assert_canonical(model):
    """The model's team equals the validated team of its rows and universe."""
    team = model.team
    validated = Team(team.domain, team.rows, team.universe)
    assert team.rows == validated.rows and team.universe == validated.universe


class Desc(int):
    """An int that compares in reverse: the canonical order keys it as its
    number, so native comparison would get it wrong."""

    def __lt__(self, other):
        return int(other) < int(self)


def test_witness_with_mixed_kind_tags_is_canonical():
    rows = [("a", 0), ("a", "x"), ("b", 1), ("b", "x")]
    witness = exists_strongdet_lambdaindep(from_team(Team(empirical_domain(1), rows), "empirical"))
    assert len(witness.lambda_values()) == 4
    with pytest.raises(TypeError):
        sorted(witness.lambda_values())
    assert_canonical(witness)


def test_witness_keys_subclassed_outcomes_under_a_plain_universe():
    # the universe's plain ints equal the rows' Desc values, so from_team
    # keeps it: a plain universe over rows that are not plain
    rows = [("a", Desc(0)), ("a", Desc(1)), ("b", Desc(0))]
    model = from_team(Team(empirical_domain(1), rows, ["a", "b", 0, 1]), "empirical")
    assert model.team.universe[:2] == (0, 1) and not model.warnings
    witness = exists_strongdet_lambdaindep(model)
    assert len(witness.lambda_values()) == 2
    assert_canonical(witness)


def test_localization_of_mixed_kind_hidden_values_is_canonical():
    rows = [("a", 0, 0), ("a", 1, 0), ("b", 1, 0), ("a", "x", "h"), ("b", "x", "h"), ("b", 2, "h")]
    localized = localize_rel(from_team(Team(hidden_domain(1), rows), "hidden"))
    assert {tag[0] for tag in localized.lambda_values()} == {0, "h"}
    with pytest.raises(TypeError):
        sorted(localized.lambda_values())
    assert_canonical(localized)


def test_localization_keys_subclassed_hidden_values():
    rows = [("a", 0, Desc(0)), ("b", 1, Desc(0)), ("a", 1, Desc(1)), ("b", 0, Desc(1))]
    localized = localize_rel(from_team(Team(hidden_domain(1), rows), "hidden"))
    assert [tag[0] for tag in localized.lambda_values()] == [0, 1]
    assert_canonical(localized)


def weighted_witness(rows):
    """The hidden-variable model of ``rows``, uniformly weighted."""
    return from_team(ProbTeam.uniform(Team(hidden_domain(1), rows)), "hidden")


def test_probabilistic_localization_of_mixed_kind_hidden_values_is_canonical():
    rows = [("a", 0, 0), ("a", 1, 0), ("a", 2, "h"), ("b", 0, 0), ("b", 1, 0), ("b", "x", "h")]
    localized = localize_prob(weighted_witness(rows))
    assert {tag[0] for tag in localized.lambda_values()} == {0, "h"}
    with pytest.raises(TypeError):
        sorted(localized.lambda_values())
    assert_canonical(localized)


def test_probabilistic_localization_keys_subclassed_hidden_values():
    rows = [("a", 0, Desc(0)), ("b", 1, Desc(0)), ("a", 1, Desc(1)), ("b", 0, Desc(1))]
    localized = localize_prob(weighted_witness(rows))
    assert [tag[0] for tag in localized.lambda_values()] == [0, 1]
    assert_canonical(localized)
