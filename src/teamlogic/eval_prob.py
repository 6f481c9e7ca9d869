"""Probabilistic team-semantics evaluator.

Decides every formula in which no ``_||_`` atom lies under an ``E`` or a
non-flat ``|``, which covers every property formula in this package, by
running the plans of :mod:`teamlogic.eval_rel` on the probabilistic team.
A ``_||_`` under a search would read the weights of a continuum of convex
splits or Skolem distribution families, so that search is refused with
:class:`~teamlogic.errors.UnsupportedFragmentError` rather than
approximated; explicit witnesses can be checked with
:func:`check_skolem_witness`, and the construction routines produce such
witnesses for every use the theory needs.

Semantics, on a probabilistic team ``p`` whose support is the team ``S``
over the universe ``U``:

* a flat formula holds exactly when it holds on ``S``;
* ``dep(xs, ys)`` holds when every occurring ``xs`` value forces a ``ys``
  value with conditional probability exactly 1, that is when it holds
  on ``S``;
* ``xs _||_{zs} ys`` is conditional stochastic independence: the joint
  conditional factors into the marginals for every value combination,
  compared exactly;
* inclusion, generalized dependence, ``nc`` and ``ncc`` have no
  probabilistic definition in the source theory; they are evaluated on
  ``S``.  This is the conservative extension consistent with the fact
  that probabilistic truth implies relational truth on the support;
* ``A x . phi`` splits each row's mass uniformly over ``U``: ``p[U/x]``;
* ``phi1 | ... | phin`` holds when ``p = k1 q1 + ... + kn qn`` for weights
  ``ki >= 0`` summing to 1 and distributions ``qi``, each ``qi`` with
  ``ki > 0`` satisfying ``phii`` (lax: the ``qi``'s supports may overlap);
* ``E x . phi`` holds when ``p[F/x]`` satisfies ``phi`` for some Skolem
  family ``F``, a distribution ``F(s)`` over ``U`` for each row ``s``,
  where ``p[F/x]`` gives ``s(a/x)`` the mass ``p(s) F(s)(a)``.

Lemma.  A formula ``phi`` with no ``_||_`` holds on ``p`` exactly when
``S`` satisfies it under the lax relational semantics, so the evaluator
decides an ``E`` or ``|`` node with no ``_||_`` on ``S``.  By induction on
``phi``, for every ``p``:

* atoms other than ``_||_`` and flat formulas read ``S`` by definition,
  and ``&`` follows from its parts;
* ``A x``: the support of ``p[U/x]`` is ``S[U/x]``;
* ``|``, only if: the supports of the ``qi`` with ``ki > 0`` lie in ``S``,
  cover it and satisfy their disjuncts; each other disjunct takes the
  empty team, which satisfies every formula.  If: given subteams ``Si``
  covering ``S`` with ``Si`` satisfying ``phii``, let ``c(s)`` count the
  ``Si`` that hold ``s``, and split each row's mass evenly over them:
  ``ki`` is the sum of ``p(s) / c(s)`` over ``Si`` and, for ``ki > 0``,
  ``qi(s) = p(s) / (c(s) ki)`` on ``Si``.  Then ``p`` is the sum of the
  ``ki qi`` and ``qi`` has the support ``Si``;
* ``E x``, only if: the support of ``p[F/x]`` is ``S[G/x]`` for the
  set-valued Skolem function ``G(s)``, the (nonempty) support of ``F(s)``.
  If: given ``G`` with ``S[G/x]`` satisfying ``phi``, take ``F(s)``
  uniform over ``G(s)``; the support of ``p[F/x]`` is ``S[G/x]``;
* a quantifier over a bound column runs on the restriction of ``p`` to
  the other columns (locality), whose support is that restriction of
  ``S``.

With ``_||_`` only one direction holds: stochastic independence implies
independence on the support (values of positive marginal mass have a
positive joint mass), and a decided ``_||_`` lies under no search, only
under ``&`` and ``A``, so for every formula decided a probabilistic True
implies that ``S`` satisfies it.

The universal quantifier counts the rows it builds (support rows times
universe) against the budget's ``max_rows``, and a search on the support
is bounded as a relational one.  All arithmetic is exact rational; no
tolerance appears anywhere.
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

    An existential or a non-flat disjunction with no ``_||_`` atom is
    decided on the team's support (the module's lemma).  Raises
    :class:`~teamlogic.errors.UnsupportedFragmentError` on one with a
    ``_||_`` atom, whose splits or Skolem families have no finite search
    space here.  The plan comes from the cache that
    :func:`~teamlogic.eval_rel.eval_rel` takes its plans from, of
    :data:`~teamlogic.eval_rel.PLAN_CACHE_SIZE` plans keyed by the formula
    and the team's domain.
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
