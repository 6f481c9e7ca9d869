"""Probabilistic team-semantics evaluator.

Decides the fragment built from atoms, conjunction and universal
quantification, which covers every property formula in this package.
General probabilistic disjunction and existential quantification range
over a continuous space of convex splits and Skolem distribution families,
so they are rejected rather than approximated; explicit witnesses can be
checked with :func:`check_skolem_witness`, and the construction routines
produce such witnesses for every use the theory needs.

Semantics of the atoms:

* literals hold when they hold relationally on the support team;
* ``dep(xs, ys)`` holds when every occurring ``xs`` value forces a ``ys``
  value with conditional probability exactly 1;
* ``xs _||_{zs} ys`` is conditional stochastic independence: the joint
  conditional factors into the marginals for every value combination,
  compared exactly;
* inclusion, generalized dependence, ``nc`` and ``ncc`` have no
  probabilistic definition in the source theory; they are evaluated on the
  support team.  This is the conservative extension consistent with the
  fact that probabilistic truth implies relational truth on the support.

All arithmetic is exact rational; no tolerance appears anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    DomainError,
    InvalidArgumentError,
    UnsupportedFragmentError,
    ZeroProbabilityError,
)
from .eval_rel import DEFAULT_BUDGET, EvalBudget, eval_atom_rel, eval_rel
from .formulas import (
    NC,
    NCC,
    And,
    Dep,
    Eq,
    Exists,
    Forall,
    Formula,
    GenDep,
    Incl,
    Indep,
    Neq,
    Or,
    free_vars,
)
from .teams import ProbTeam, Row


@dataclass(frozen=True)
class CondProbQuery:
    """A conditional-probability question P(event_vars = event_values |
    condition_vars = condition_values)."""

    event_vars: tuple[str, ...]
    event_values: Row
    condition_vars: tuple[str, ...] = ()
    condition_values: Row = ()

    def __post_init__(self):
        if len(self.event_vars) != len(self.event_values):
            raise InvalidArgumentError("event variable and value tuples must align")
        if len(self.condition_vars) != len(self.condition_values):
            raise InvalidArgumentError("condition variable and value tuples must align")


def cond_prob(prob_team: ProbTeam, query: CondProbQuery) -> Fraction:
    """Exact conditional probability of a value event given another.

    Raises :class:`ZeroProbabilityError` when the condition has
    probability zero.
    """
    condition = tuple(query.condition_values)
    cond_mass = prob_team.masses(query.condition_vars).get(condition, 0)
    joint_mass = prob_team.masses((*query.condition_vars, *query.event_vars)).get(
        condition + tuple(query.event_values), 0
    )
    if cond_mass == 0:
        raise ZeroProbabilityError(
            f"condition {query.condition_vars} = {query.condition_values} has probability zero"
        )
    return Fraction(joint_mass, cond_mass)


def marginal(prob_team: ProbTeam, variables: tuple[str, ...], values: Row) -> Fraction:
    """Exact probability of a value event."""
    return Fraction(prob_team.masses(variables).get(tuple(values), 0), prob_team.denominator)


def eval_prob(prob_team: ProbTeam, formula: Formula, budget: EvalBudget | None = None) -> bool:
    """Decide whether a probabilistic team satisfies a formula.

    Raises :class:`UnsupportedFragmentError` on disjunction or existential
    quantification; those have no finite search space here.
    """
    budget = budget or DEFAULT_BUDGET
    missing = free_vars(formula) - set(prob_team.domain)
    if missing:
        raise DomainError(
            f"free variables {sorted(missing)} not bound by team domain {prob_team.domain}"
        )
    return _eval(prob_team, formula, budget)


def _eval(prob_team: ProbTeam, formula: Formula, budget: EvalBudget) -> bool:
    match formula:
        case And(lhs, rhs):
            return _eval(prob_team, lhs, budget) and _eval(prob_team, rhs, budget)
        case Forall(var, body):
            budget.check_universe(len(prob_team.universe))
            budget.check_rows(len(prob_team.team.rows) * len(prob_team.universe))
            return _eval(prob_team.uniform_extend(var, prob_team.universe), body, budget)
        case Or() | Exists():
            raise UnsupportedFragmentError(
                "probabilistic disjunction and existential quantification are "
                "not decided; check an explicit witness instead"
            )
        case Dep():
            # probability-1 dependence is dependence on the (full) support
            return eval_atom_rel(prob_team.support(), formula)
        case Indep(xs, cond, ys):
            return _indep(prob_team, xs, cond, ys)
        case Eq() | Neq() | Incl() | GenDep() | NC() | NCC():
            # support-determined atoms: relational evaluation on the collapse
            return eval_rel(prob_team.support(), formula, budget)
    raise InvalidArgumentError(f"unknown formula node {formula!r}")


def _indep(prob_team: ProbTeam, xs, cond, ys) -> bool:
    """Conditional stochastic independence, checked exactly.

    For every combination of an occurring xs value, ys value and condition
    value, the conditional joint must equal the product of the conditional
    marginals; the identity is verified in cleared form
    joint * total == x_marginal * y_marginal on the masses' numerators,
    so it is decided on ints, without division.
    """
    totals = prob_team.masses(cond)
    x_mass = prob_team.masses((*cond, *xs))
    y_mass = prob_team.masses((*cond, *ys))
    joint_mass = prob_team.masses((*cond, *xs, *ys))
    k = len(cond)
    xvals = {key[k:] for key in x_mass}
    yvals = {key[k:] for key in y_mass}
    for z, total in totals.items():
        for x in xvals:
            mx = x_mass.get(z + x, 0)
            for y in yvals:
                if joint_mass.get(z + x + y, 0) * total != mx * y_mass.get(z + y, 0):
                    return False
    return True


def check_skolem_witness(
    prob_team: ProbTeam,
    var: str,
    family,
    formula: Formula,
    budget: EvalBudget | None = None,
) -> bool:
    """True when the Skolem extension of the team by ``family`` satisfies
    ``formula``; this certifies the existential ``E var . formula``."""
    extended = prob_team.skolem_extend(var, family)
    return eval_prob(extended, formula, budget)
