"""Probabilistic team-semantics evaluator.

Decides the fragment built from atoms, flat (literal-only) formulas,
conjunction and universal quantification, which covers every property
formula in this package, by running the plans of :mod:`teamlogic.eval_rel`
on the probabilistic team.  Non-flat probabilistic disjunction and
existential quantification range over a continuous space of convex splits
and Skolem distribution families, so they are rejected rather than
approximated; explicit witnesses can be checked with
:func:`check_skolem_witness`, and the construction routines produce such
witnesses for every use the theory needs.

Semantics:

* a flat formula holds exactly when it holds on the support team;
* ``dep(xs, ys)`` holds when every occurring ``xs`` value forces a ``ys``
  value with conditional probability exactly 1;
* ``xs _||_{zs} ys`` is conditional stochastic independence: the joint
  conditional factors into the marginals for every value combination,
  compared exactly;
* inclusion, generalized dependence, ``nc`` and ``ncc`` have no
  probabilistic definition in the source theory; they are evaluated on the
  support team.  This is the conservative extension consistent with the
  fact that probabilistic truth implies relational truth on the support;
* ``A x . phi`` splits each row's mass uniformly over the universe.

The universal quantifier counts the rows it builds (support rows times
universe) against the budget's ``max_rows``; no other clause reads it.
All arithmetic is exact rational; no tolerance appears anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InvalidArgumentError, ZeroProbabilityError
from .eval_rel import EvalBudget, _plan
from .formulas import Formula
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

    Raises :class:`~teamlogic.errors.UnsupportedFragmentError` on a disjunction that is not
    flat, or on existential quantification; those have no finite search
    space here.  The plan comes from the cache that
    :func:`~teamlogic.eval_rel.eval_rel` takes its plans from, of
    :data:`~teamlogic.eval_rel.PLAN_CACHE_SIZE` plans keyed by the formula
    object's identity and the team's domain.
    """
    return _plan(formula, prob_team.domain).run(prob_team, budget)(0)


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
