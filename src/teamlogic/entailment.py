"""Bounded entailment checking and the semantics-separation witnesses.

``lhs entails rhs`` relationally means every team satisfying ``lhs``
satisfies ``rhs``.  The checker enumerates all teams up to a row bound
over a bounded universe, in a fixed canonical order, and reports the
first counterexample or "none within bounds".  A none verdict is not a
proof, with one exception the checker states explicitly: for formulas
without independence and inclusion atoms, relational and probabilistic
entailment coincide, so a relational verdict transfers.

The module also packages two verification suites: the counterexample
tables separating probabilistic from relational entailment of
conditional-independence implications, and the property entailments
between determinism, independence and locality notions (exhaustive
bounded relational sweep plus randomized probabilistic confirmation).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import combinations, product
from typing import Iterable, Iterator

from .datasets import load_bundled
from .errors import BudgetExceededError, InvalidArgumentError
from .eval_prob import eval_prob
from .eval_rel import DEFAULT_BUDGET, EvalBudget, Plan, compile, eval_rel
from .formulas import Formula, conjoin, is_downward_closed, parse
from .models import hidden_domain
from .properties import PropertyName, property_formula
from .sampling import random_prob_team
from .teams import ProbTeam, Team

#: Conditional-independence implication that holds relationally but not
#: probabilistically, with its probabilistic counterexample team `pt1`.
PSI1 = parse("z _||_{x} w & z _||_{y} w & x _||_{w z} y")
PHI1 = parse("z _||_{x y} w")

#: Studeny's (1992) implication, which holds probabilistically (by
#: measure-theoretic arguments cited from the literature, not re-proved
#: here) but fails relationally on the team `rt2`.
PSI2 = parse("x _||_{z w} y & z _||_{x} w & z _||_{y} w & x _||_ y")
PHI2 = parse("z _||_ w")


def assignment_space(columns: list[tuple[str, list]]) -> Team:
    """Every assignment of per-variable value columns, validated and
    sorted once, as one team.  A sweep compiles its plan over this team
    and enumerates its sub-teams."""
    variables = tuple(name for name, _ in columns)
    universe = {v for _, values in columns for v in values}
    return Team(variables, product(*[values for _, values in columns]), universe)


def enumerate_teams(
    space: Team | list[tuple[str, list]],
    max_rows: int,
    nonempty: bool = True,
) -> Iterator[Team]:
    """All sub-teams of ``space`` with at most ``max_rows`` rows, smallest
    first, in canonical order.  ``space`` is a team, or per-variable value
    columns standing for their :func:`assignment_space`.  Each team is
    yielded once: a value listed twice in a column adds no row twice."""
    whole = space if isinstance(space, Team) else assignment_space(space)
    start = 1 if nonempty else 0
    for count in range(start, max_rows + 1):
        for rows in combinations(whole.rows, count):
            yield whole._sub(rows)


def find_rel_counterexample(
    lhs: Formula,
    rhs: Formula,
    variables: tuple[str, ...],
    universe_size: int = 2,
    max_rows: int = 4,
    budget: EvalBudget | None = None,
) -> Team | None:
    """First team (canonical order) satisfying ``lhs`` but not ``rhs``,
    or None when no counterexample exists within the bounds.  The
    assignment space is a team the sweep builds, so it counts against
    ``budget.max_rows``; the budget also caps each team's verdict, but
    not the number of teams, which the bounds fix."""
    if universe_size < 1 or max_rows < 1:
        raise InvalidArgumentError("universe size and row bound must be at least 1")
    cap = (budget or DEFAULT_BUDGET).max_rows
    if universe_size ** len(variables) > cap:
        raise BudgetExceededError(f"assignment space {universe_size}^{len(variables)} exceeds budget {cap}")
    space = assignment_space([(v, list(range(universe_size))) for v in variables])
    plan = compile([lhs, rhs], space.domain, space)
    (team,), _ = _counterexamples(plan, enumerate_teams(space, max_rows), budget)
    return team


def _counterexamples(
    plan: Plan, teams: Iterable[Team | ProbTeam], budget: EvalBudget | None = None, pairs: int | None = None
) -> tuple[list, int]:
    """The first of ``teams`` on which the lhs holds and the rhs fails, or
    None, for each of the first ``pairs`` (all, by default) pairs of roots
    2k and 2k + 1 of ``plan``; and the number of teams run.  A rhs is
    decided only where its lhs holds, a pair only until it has a
    counterexample, and the loop stops once every pair has one."""
    pairs = len(plan.roots) // 2 if pairs is None else pairs
    found: dict[int, Team | ProbTeam] = {}
    count = 0
    for team in teams:
        count += 1
        verdict = plan.run(team, budget)
        for k in range(pairs):
            if k not in found and verdict(2 * k) and not verdict(2 * k + 1):
                found[k] = team
        if len(found) == pairs:
            break
    return [found.get(k) for k in range(pairs)], count


def entailment_transfers(lhs: Formula, rhs: Formula) -> bool:
    """True when a relational entailment verdict carries over to the
    probabilistic semantics (both formulas free of independence and
    inclusion atoms)."""
    return is_downward_closed(lhs) and is_downward_closed(rhs)


# ---------------------------------------------------------------------------
# separation suite


@dataclass
class SeparationReport:
    pt1_satisfies_psi1: bool
    pt1_satisfies_phi1: bool
    rt2_satisfies_psi2: bool
    rt2_satisfies_phi2: bool
    rel_counterexample_to_psi1_phi1: Team | None
    bounds: str

    @property
    def ok(self) -> bool:
        return (
            self.pt1_satisfies_psi1
            and not self.pt1_satisfies_phi1
            and self.rt2_satisfies_psi2
            and not self.rt2_satisfies_phi2
            and self.rel_counterexample_to_psi1_phi1 is None
        )

    def lines(self) -> list[str]:
        none_found = self.rel_counterexample_to_psi1_phi1 is None
        return [
            f"pt1 |= psi1: {self.pt1_satisfies_psi1} (expected True)",
            f"pt1 |= phi1: {self.pt1_satisfies_phi1} (expected False; psi1 does not entail phi1 probabilistically)",
            f"rt2 |= psi2: {self.rt2_satisfies_psi2} (expected True)",
            f"rt2 |= phi2: {self.rt2_satisfies_phi2} (expected False; psi2 does not entail phi2 relationally)",
            f"no relational counterexample to psi1 |= phi1 within {self.bounds}: {none_found}",
            "psi2 |= phi2 probabilistically is cited from the literature, not checked here",
        ]


def verify_separations(max_rows: int = 7, universe_size: int = 2) -> SeparationReport:
    """Check both separation witnesses and the bounded converse search."""
    pt1 = load_bundled("pt1")
    rt2 = load_bundled("rt2")
    assert isinstance(pt1, ProbTeam) and isinstance(rt2, Team)
    counterexample = find_rel_counterexample(
        PSI1, PHI1, ("x", "y", "z", "w"), universe_size, max_rows
    )
    return SeparationReport(
        pt1_satisfies_psi1=eval_prob(pt1, PSI1),
        pt1_satisfies_phi1=eval_prob(pt1, PHI1),
        rt2_satisfies_psi2=eval_rel(rt2, PSI2),
        rt2_satisfies_phi2=eval_rel(rt2, PHI2),
        rel_counterexample_to_psi1_phi1=counterexample,
        bounds=f"universe {universe_size}, <= {max_rows} rows",
    )


# ---------------------------------------------------------------------------
# property entailment suite


IMPLICATIONS: tuple[tuple[str, tuple[PropertyName, ...], tuple[PropertyName, ...]], ...] = (
    ("SingVal |= LambdaIndep", (PropertyName.SING_VAL_H,), (PropertyName.LAMBDA_INDEP_H,)),
    ("WeakDet |= OutIndep", (PropertyName.WEAK_DET_H,), (PropertyName.OUT_INDEP_H,)),
    (
        "StrongDet |= WeakDet & ParIndep",
        (PropertyName.STRONG_DET_H,),
        (PropertyName.WEAK_DET_H, PropertyName.PAR_INDEP_H),
    ),
    (
        "WeakDet & ParIndep |= StrongDet",
        (PropertyName.WEAK_DET_H, PropertyName.PAR_INDEP_H),
        (PropertyName.STRONG_DET_H,),
    ),
    (
        "LambdaIndep & ParIndep |= NoSig",
        (PropertyName.LAMBDA_INDEP_H, PropertyName.PAR_INDEP_H),
        (PropertyName.NO_SIG_E,),
    ),
)


@dataclass
class EntailmentReport:
    arity: int
    teams_checked: int
    prob_samples: int
    counterexamples: dict = field(default_factory=dict)
    prob_counterexamples: dict = field(default_factory=dict)
    non_implications: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not (self.counterexamples or self.prob_counterexamples) and all(self.non_implications.values())

    def lines(self) -> list[str]:
        out = [
            f"exhaustive relational sweep: {self.teams_checked} teams, arity {self.arity}",
        ]
        for name, *_ in IMPLICATIONS:
            bad = self.counterexamples.get(name)
            out.append(f"{name}: {'counterexample ' + repr(bad.rows) if bad else 'holds'}")
        out.append(f"randomized probabilistic confirmation: {self.prob_samples} samples, "
                   f"{'no violations' if not self.prob_counterexamples else 'violations found'}")
        for name, found in self.non_implications.items():
            out.append(f"{name}: {'witnessed' if found else 'NOT witnessed'}")
        return out


def _formula_of(props: tuple[PropertyName, ...], arity: int) -> Formula:
    return conjoin([property_formula(p, arity) for p in props])


def _property_columns(arity: int, component_size: int) -> list[tuple[str, list]]:
    """The value columns of the property entailment sweep: measurements,
    outcomes and the hidden variable, ``component_size`` values each."""
    columns = [(v, [f"a{k}" for k in range(component_size)]) for v in hidden_domain(arity)[:arity]]
    columns += [(v, [f"x{k}" for k in range(component_size)]) for v in hidden_domain(arity)[arity : 2 * arity]]
    return columns + [("l", [f"lam{k}" for k in range(component_size)])]


def verify_property_entailments(
    arity: int = 2,
    component_size: int = 2,
    max_rows: int = 4,
    prob_samples: int = 200,
    seed: int = 0,
) -> EntailmentReport:
    """Exhaustive bounded relational check of the five property
    entailments, randomized probabilistic confirmation, plus the two
    expected non-implications (dropping a conjunct breaks each)."""
    pairs = [(lhs, rhs) for _, lhs, rhs in IMPLICATIONS]
    if arity >= 2:  # at arity 1 NoSig is a tautology
        pairs.append(((PropertyName.PAR_INDEP_H,), (PropertyName.NO_SIG_E,)))
    # the pairs share properties, so the last pair adds no node to the plan
    space = assignment_space(_property_columns(arity, component_size))
    plan = compile([_formula_of(side, arity) for pair in pairs for side in pair], space.domain, space)
    found, checked = _counterexamples(plan, enumerate_teams(space, max_rows))
    report = EntailmentReport(arity=arity, teams_checked=checked, prob_samples=prob_samples)
    rng = random.Random(seed)
    samples = (random_prob_team(rng, hidden_domain(arity), universe_size=component_size, max_rows=max_rows + 2)
               for _ in range(prob_samples))
    prob_found, _ = _counterexamples(plan, samples, pairs=len(IMPLICATIONS))
    for (name, *_), team, pt in zip(IMPLICATIONS, found, prob_found):
        if team is not None:
            report.counterexamples[name] = team
        if pt is not None:
            report.prob_counterexamples[name] = pt
    # known non-implications: witnesses must exist within small bounds
    # (both need two components)
    if arity >= 2:
        siglam = load_bundled("siglambda")
        report.non_implications["WeakDet does not entail StrongDet (siglambda witness)"] = eval_rel(
            siglam.team, _formula_of((PropertyName.WEAK_DET_H,), 2)
        ) and not eval_rel(siglam.team, _formula_of((PropertyName.STRONG_DET_H,), 2))
        report.non_implications["ParIndep alone does not entail NoSig"] = found[-1] is not None
    return report
