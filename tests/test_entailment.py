from itertools import combinations, product

import pytest

from teamlogic import entailment
from teamlogic.entailment import (
    PHI1,
    PHI2,
    PSI1,
    PSI2,
    IMPLICATIONS,
    EntailmentReport,
    enumerate_teams,
    entailment_transfers,
    find_rel_counterexample,
    verify_property_entailments,
    verify_separations,
)
from teamlogic.errors import BudgetExceededError
from teamlogic.eval_prob import eval_prob
from teamlogic.eval_rel import EvalBudget, eval_rel
from teamlogic.formulas import parse
from teamlogic.models import hidden_domain
from teamlogic.properties import PropertyName as P, property_formula
from teamlogic.teams import ProbTeam, Team, row_key


class TestEnumerateTeams:
    def test_counts(self):
        teams = list(enumerate_teams([("x", [0, 1]), ("y", [0, 1])], max_rows=2))
        # 4 singletons + 6 pairs
        assert len(teams) == 10

    def test_canonical_and_deterministic(self):
        a = [t.rows for t in enumerate_teams([("x", [0, 1]), ("y", [0, 1])], 2)]
        b = [t.rows for t in enumerate_teams([("x", [0, 1]), ("y", [0, 1])], 2)]
        assert a == b
        sizes = [len(r) for r in a]
        assert sizes == sorted(sizes)

    def test_mixed_column_in_canonical_row_order(self):
        # numbers sort before strings, so the assignment space of a column
        # mixing them is ordered by row_key, not by tuple comparison
        teams = list(enumerate_teams([("x", [0, "a", 1]), ("y", [1, "b"])], 2))
        space = sorted(product([0, "a", 1], [1, "b"]), key=row_key)
        assert [t.rows for t in teams] == [
            rows for k in (1, 2) for rows in combinations(space, k)
        ]
        assert space[:3] == [(0, 1), (0, "b"), (1, 1)]
        # each team is a sub-team of the assignment space, built without
        # keying its rows again, and equals the team validated from them
        for t in teams:
            twin = Team(t.domain, t.rows, t.universe)
            assert t == twin and hash(t) == hash(twin)
            assert t.universe == twin.universe == (0, 1, "a", "b")

    def test_each_team_yielded_once(self):
        # a value listed twice in a column adds no duplicate row to the space
        teams = list(enumerate_teams([("x", [0, 0, 1])], 2))
        assert [t.rows for t in teams] == [((0,),), ((1,),), ((0,), (1,))]
        assert len(set(teams)) == len(teams)


class TestFindCounterexample:
    def test_reflexive_entailment_has_none(self):
        f = parse("dep(x, y)")
        assert find_rel_counterexample(f, f, ("x", "y"), 2, 3) is None

    def test_weakdet_does_not_entail_strongdet(self):
        lhs = property_formula(P.WEAK_DET_H, 2)
        rhs = property_formula(P.STRONG_DET_H, 2)
        team = find_rel_counterexample(lhs, rhs, hidden_domain(2), 2, 3)
        assert team is not None
        assert eval_rel(team, lhs) and not eval_rel(team, rhs)

    def test_strongdet_entails_locality_within_bounds(self):
        lhs = property_formula(P.STRONG_DET_H, 2)
        rhs = property_formula(P.LOC_H, 2)
        assert find_rel_counterexample(lhs, rhs, hidden_domain(2), 2, 4) is None

    def test_returns_canonically_least(self):
        lhs = parse("dep(x, x)")
        rhs = parse("dep(x, y)")
        team = find_rel_counterexample(lhs, rhs, ("x", "y"), 2, 3)
        assert team is not None and len(team) == 2
        again = find_rel_counterexample(lhs, rhs, ("x", "y"), 2, 3)
        assert team.rows == again.rows

    def test_row_space_cap(self):
        f = parse("dep(a, b)")
        with pytest.raises(BudgetExceededError):
            find_rel_counterexample(
                f, f, tuple("abcdefghij"), universe_size=10, max_rows=2,
                budget=EvalBudget(max_rows=1000),
            )

    def test_rhs_is_decided_only_where_lhs_holds(self):
        # the ncc search trips this budget on some teams of the sweep, but
        # no team satisfies the lhs, so the plan never decides the rhs
        columns = [(v, [0, 1]) for v in ("x", "y", "z")]
        rhs = parse("ncc(x y z)")
        budget = EvalBudget(memo_limit=5)
        with pytest.raises(BudgetExceededError):
            for team in enumerate_teams(columns, 7):
                eval_rel(team, rhs, budget)
        lhs = parse("x = 0 & x != 0")
        assert find_rel_counterexample(lhs, rhs, ("x", "y", "z"), 2, 7, budget=budget) is None

    def test_transfers_flag(self):
        assert entailment_transfers(parse("dep(x, y)"), parse("dep(y, x)"))
        assert not entailment_transfers(PSI1, PHI1)
        assert not entailment_transfers(parse("dep(x, y)"), parse("x <= y"))


class TestSeparations:
    def test_full_report(self):
        rep = verify_separations()
        assert rep.ok
        assert rep.pt1_satisfies_psi1 and not rep.pt1_satisfies_phi1
        assert rep.rt2_satisfies_psi2 and not rep.rt2_satisfies_phi2
        assert rep.rel_counterexample_to_psi1_phi1 is None
        assert len(rep.lines()) == 6

    def test_psi2_is_studenys_premise(self):
        # with x _||_{y z} y in the first place, as once written, the
        # premise holds of this uniform team, which fails phi2; Studeny's
        # x _||_{z w} y excludes it
        mistyped = parse("x _||_{y z} y & z _||_{x} w & z _||_{y} w & x _||_ y")
        rows = [(0, 0, 0, 0), (0, 1, 0, 1), (1, 0, 0, 1), (1, 1, 1, 1)]
        pt = ProbTeam.uniform(Team(("x", "y", "z", "w"), rows))
        assert eval_prob(pt, mistyped) and not eval_prob(pt, PHI2)
        assert not eval_prob(pt, PSI2)
        assert PSI2 == parse("x _||_{z w} y & z _||_{x} w & z _||_{y} w & x _||_ y")


class TestPropertyEntailments:
    def test_small_bounds_report(self):
        rep = verify_property_entailments(arity=2, component_size=2, max_rows=3,
                                          prob_samples=60, seed=1)
        assert isinstance(rep, EntailmentReport)
        assert rep.ok, (rep.counterexamples, rep.non_implications)
        assert rep.teams_checked == 5488

    def test_arity_one(self):
        rep = verify_property_entailments(arity=1, component_size=2, max_rows=3,
                                          prob_samples=40, seed=2)
        assert rep.ok

    def test_default_suite_runs_one_sweep(self, monkeypatch):
        # the five implications and the dropped-conjunct non-implication
        # share one enumeration of the assignment space
        calls, yields = [], [0]
        inner = entailment.enumerate_teams

        def counted(*args, **kwargs):
            calls.append(args)
            for team in inner(*args, **kwargs):
                yields[0] += 1
                yield team

        monkeypatch.setattr(entailment, "enumerate_teams", counted)
        rep = verify_property_entailments()
        assert rep.ok and rep.teams_checked == 41_448
        assert len(calls) == 1 and yields[0] == 41_448

    def test_probabilistic_line_reads_only_probabilistic_counterexamples(self):
        team = Team(("x",), [(0,)])
        rep = EntailmentReport(arity=2, teams_checked=1, prob_samples=5,
                               counterexamples={IMPLICATIONS[0][0]: team})
        assert not rep.ok
        assert "randomized probabilistic confirmation: 5 samples, no violations" in rep.lines()
        rep = EntailmentReport(arity=2, teams_checked=1, prob_samples=5,
                               prob_counterexamples={IMPLICATIONS[0][0]: ProbTeam.uniform(team)})
        assert not rep.ok
        assert "randomized probabilistic confirmation: 5 samples, violations found" in rep.lines()
        assert f"{IMPLICATIONS[0][0]}: holds" in rep.lines()
