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
from .eval_rel import EvalBudget, compile, eval_atom_rel
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


def _sweep(variables: tuple[str, ...], atom, formula, max_rows: int, budget: EvalBudget) -> tuple[int, int]:
    columns = [(v, [0, 1]) for v in variables]
    plan = compile([formula], variables)
    teams = 0
    disagreements = 0
    for team in enumerate_teams(columns, max_rows, nonempty=False):
        teams += 1
        if eval_atom_rel(team, atom) != plan.run(team, budget)(0):
            disagreements += 1
    return teams, disagreements


def verify_appendix(max_rows: int = 3) -> AppendixReport:
    budget = EvalBudget()
    cases = []

    atom = GenDep(("x1",), ("x2",), ("y1",), ("y2",))
    teams, bad = _sweep(
        ("x1", "x2", "y1", "y2"), atom, gendep_defining_formula(atom), max_rows, budget
    )
    cases.append(("gendep arity (1,1) vs defining formula", teams, bad))

    atom = NC(("x1",), "y")
    teams, bad = _sweep(("x1", "y"), atom, nc_defining_formula(atom), max_rows, budget)
    cases.append(("nc k=1 vs defining formula", teams, bad))

    atom = NC(("x1", "x2"), "y")
    teams, bad = _sweep(("x1", "x2", "y"), atom, nc_defining_formula(atom), max_rows, budget)
    cases.append(("nc k=2 vs defining formula", teams, bad))

    atom = NCC(("x1", "x2"))
    teams, bad = _sweep(("x1", "x2"), atom, ncc_defining_formula(atom), max_rows, budget)
    cases.append(("ncc k=2 vs unfolded definition", teams, bad))

    return AppendixReport(cases)
