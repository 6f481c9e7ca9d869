"""Exhaustive equivalence check of the extended atoms against their
dependence-logic defining formulas.

For the minimal arities, every team with at most three rows over a
two-symbol universe is checked both ways: the direct atom semantics and
the quantified defining formula must agree exactly.  The defining
formulas route through the full disjunction/quantifier machinery, so this
doubles as a stress test of the evaluator's exponential paths.
"""

from __future__ import annotations

from dataclasses import dataclass

from .entailment import enumerate_teams
from .eval_rel import EvalBudget, eval_atom_rel, eval_rel
from .formulas import (
    NC,
    NCC,
    GenDep,
    gendep_defining_formula,
    nc_defining_formula,
    ncc_defining_formula,
)


@dataclass
class AppendixReport:
    cases: list[tuple[str, int, int]]  # label, teams checked, disagreements

    @property
    def ok(self) -> bool:
        return all(bad == 0 for _, _, bad in self.cases)

    def lines(self) -> list[str]:
        return [
            f"{label}: {teams} teams, {bad} disagreements"
            for label, teams, bad in self.cases
        ]


#: Each checked atom, over its variables, and its defining formula: built
#: once, so that each call of :func:`verify_appendix` takes their plans
#: from :func:`~teamlogic.eval_rel.eval_rel`'s cache.
CASES = tuple(
    (label, variables, atom, define(atom))
    for label, variables, atom, define in (
        ("gendep arity (1,1) vs defining formula", ("x1", "x2", "y1", "y2"),
         GenDep(("x1",), ("x2",), ("y1",), ("y2",)), gendep_defining_formula),
        ("nc k=1 vs defining formula", ("x1", "y"), NC(("x1",), "y"), nc_defining_formula),
        ("nc k=2 vs defining formula", ("x1", "x2", "y"), NC(("x1", "x2"), "y"), nc_defining_formula),
        ("ncc k=2 vs unfolded definition", ("x1", "x2"), NCC(("x1", "x2")), ncc_defining_formula),
    )
)


def _sweep(variables: tuple[str, ...], atom, formula, max_rows: int, budget: EvalBudget) -> tuple[int, int]:
    columns = [(v, [0, 1]) for v in variables]
    teams = 0
    disagreements = 0
    for team in enumerate_teams(columns, max_rows, nonempty=False):
        teams += 1
        if eval_atom_rel(team, atom) != eval_rel(team, formula, budget):
            disagreements += 1
    return teams, disagreements


def verify_appendix(max_rows: int = 3) -> AppendixReport:
    budget = EvalBudget()
    return AppendixReport([
        (label, *_sweep(variables, atom, formula, max_rows, budget))
        for label, variables, atom, formula in CASES
    ])
