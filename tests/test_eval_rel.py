import dataclasses
import importlib
import random
import time
from fractions import Fraction
from itertools import combinations, islice, product

import pytest

from teamlogic.entailment import assignment_space, enumerate_teams, verify_separations
from teamlogic.errors import BudgetExceededError, DomainError, InvalidArgumentError
from teamlogic.eval_rel import (
    _CONSTRAINTS,
    DEFAULT_BUDGET,
    _Evaluator,
    EvalBudget,
    compile,
    depth_first,
    eval_atom_rel,
    eval_rel,
    exact_transversal,
)
from teamlogic.formulas import (
    NC,
    NCC,
    Const,
    Dep,
    Eq,
    GenDep,
    Incl,
    Indep,
    Var,
    free_vars,
    gendep_defining_formula,
    is_downward_closed,
    parse,
)
from teamlogic.teams import ProbTeam, Team


def T(domain, rows, universe=None):
    return Team(domain, rows, universe)


class TestPaperVerdicts:
    def test_ex22_not_weakly_deterministic(self, ex22):
        assert not eval_rel(ex22.team, parse("dep(m1 m2, o1 o2)"))

    def test_sig_signals(self, sig):
        assert not eval_rel(sig.team, parse("o1 _||_{m1} m2"))

    def test_sig_weakdet_holds(self, sig):
        assert eval_rel(sig.team, parse("dep(m1 m2, o1 o2)"))

    def test_empty_team_satisfies_everything(self):
        empty = T(("x", "y"), [])
        for text in ("dep(x, y)", "x _||_ y", "x <= y", "E z . x = z | x != y",
                     "ncc(x y)", "A z . nc(x; z)"):
            assert eval_rel(empty, parse(text))

    def test_free_variable_unbound(self, sig):
        with pytest.raises(DomainError):
            eval_rel(sig.team, parse("dep(q, o1)"))


class TestPlan:
    def test_compile_names_every_unbound_variable(self):
        with pytest.raises(DomainError, match=r"\['q', 'r'\]"):
            compile([parse("dep(x, y)"), parse("dep(q, x) & dep(r, y)")], ("x", "y"))

    def test_run_refuses_a_team_over_another_domain(self):
        plan = compile([parse("dep(x, y)")], ("x", "y"))
        with pytest.raises(DomainError):
            plan.run(T(("y", "x"), [(0, 1)]))

    def test_run_checks_the_universe(self):
        # the budget bounds the existential's 9 candidates, not the
        # universe: the quantifier-free formula decides
        plan = compile([parse("dep(x, y)"), parse("E z . dep(x, z)")], ("x", "y"))
        verdict = plan.run(T(("x", "y"), [(0, 1)], universe=range(9)), EvalBudget(memo_limit=8))
        assert verdict(0)
        with pytest.raises(BudgetExceededError):
            verdict(1)

    def test_space_masks_cover_only_the_space(self):
        space = assignment_space([("x", [0, 1]), ("y", [0, 1])])
        with pytest.raises(DomainError):
            compile([parse("dep(x, y)")], ("y", "x"), space)
        plan = compile([parse("dep(x, y)"), parse("x = 0")], ("x", "y"), space)
        assert plan.masks.of(T(("x", "y"), [(0, 1), (1, 1)])) is not None
        # a row outside the space: the team runs the batch kernels
        outside = T(("x", "y"), [(0, 1), (2, 1)])
        assert plan.masks.of(outside) is None and plan.run(outside)(0)
        # no dep or _||_ atom, no masks
        assert compile([parse("x = 0 | y <= x")], ("x", "y"), space).masks is None

    def test_shared_subformulas_are_one_node(self):
        plan = compile([parse("dep(x, y) & x _||_ y"), parse("x _||_ y | dep(x, y)")], ("x", "y"))
        conj, disj = plan.roots
        (a, b), (c, d) = conj.parts, disj.parts
        assert a is d and b is c

    def test_disjunction_chain_is_one_node(self):
        plan = compile([parse(" | ".join(["dep(x, y)"] * 600))], ("x", "y"))
        (root,) = plan.roots
        assert len(root.parts) == 600 and all(part is root.parts[0] for part in root.parts)

    def test_disjunction_parts_take_the_search_order(self):
        # the one flat part first, then the parts that are not downward
        # closed, then the closed ones
        (root,) = compile([parse("dep(x, y) | x = 0 | y _||_ x | y = 1")], ("x", "y")).roots
        assert [part.formula for part in root.parts] == [
            parse("x = 0 | y = 1"), parse("y _||_ x"), parse("dep(x, y)"),
        ]
        assert root.parts[0].check and not root.parts[1].closed and root.parts[2].closed

    def test_budget_bounds_each_formula_afresh(self):
        # each formula fits the budget on its own, their sum does not
        team = T(("x", "y", "z"), [(0, 1, 2), (1, 2, 0), (2, 0, 1), (0, 2, 1)])
        formulas = [parse("dep(x, y) | dep(y, z)"), parse("ncc(x y)")]

        def fits(formula, limit):
            try:
                eval_rel(team, formula, EvalBudget(memo_limit=limit))
                return True
            except BudgetExceededError:
                return False

        need = [next(n for n in range(1, 100) if fits(f, n)) for f in formulas]
        assert sum(need) > max(need)
        verdict = compile(formulas, team.domain).run(team, EvalBudget(memo_limit=max(need)))
        assert [verdict(i) for i in range(2)] == [eval_rel(team, f) for f in formulas]

    def test_runs_change_no_node(self):
        # a plan is complete when compile returns: a sweep of runs, with
        # splits and existentials among the formulas, leaves every field
        # of every node, the row masks and the tests of atoms and of
        # conjunctive roots, as compile set them, whether the plan is compiled
        # over the swept space or not
        for with_space in (False, True):
            self._sweep_changes_no_node(with_space)

    @staticmethod
    def _sweep_changes_no_node(with_space):
        formulas = [
            parse("E q . dep(x, q) & (x = 0 | y _||_ q)"),
            parse("A r . E s . dep(r, s) | x <= y"),
            parse("E x . x _||_ y | E q . E r . dep(q, r) & y <= q"),
            parse("dep(x, y) | x _||_ y"),
            parse("x _||_ y & E q . dep(q, x) & dep(x, y)"),
            parse("dep(y, x) & (x _||_ y & dep(x, y))"),
        ]
        columns = [("x", [0, 1, 2]), ("y", [0, 1])]
        space = assignment_space(columns)
        plan = compile(formulas, ("x", "y"), space if with_space else None)
        assert (plan.masks is not None) == with_space
        # the last root is a conjunction with a test
        assert (plan.roots[-1] in plan.tests) == with_space

        def snapshot():
            fields, stack = {}, list(plan.roots)
            while stack:
                node = stack.pop()
                if node not in fields:
                    fields[node] = [getattr(node, f.name) for f in dataclasses.fields(node)]
                    stack.extend(c for c in (*(node.parts or ()), node.body) if c is not None)
            masks = plan.masks and (plan.masks.rows.copy(), plan.masks.fields.copy(), plan.masks.grid)
            return fields, plan.masks, masks, plan.tests, plan.tests.copy()

        (before, masks_object, masks, tests_object, tests) = snapshot()
        verdicts = set()
        for team in enumerate_teams(columns, 4, nonempty=False):
            verdict = plan.run(team)
            verdicts.update(verdict(i) for i in range(len(formulas)))
        assert verdicts == {True, False}
        (after, masks_object_after, masks_after, tests_object_after, tests_after) = snapshot()
        assert after.keys() == before.keys()
        for node, values in before.items():
            assert all(a is b for a, b in zip(values, after[node], strict=True)), node.formula
        assert masks_object_after is masks_object and masks_after == masks
        assert tests_object_after is tests_object and tests_after.keys() == tests.keys()
        assert all(tests_after[node] is test for node, test in tests.items())

    @pytest.fixture
    def built(self, monkeypatch):
        """The budget of each search state built, in order."""
        budgets = []
        init = _Evaluator.__init__

        def counting(evaluator, budget):
            budgets.append(budget)
            init(evaluator, budget)

        monkeypatch.setattr(_Evaluator, "__init__", counting)
        return budgets

    def test_covered_sweep_builds_no_search_state(self, built):
        assert verify_separations().ok
        # only the bundled teams' checks, whose plans have no space, build
        # one, one per verdict: two on pt1 and two on rt2
        assert len(built) == 4

    def test_the_input_selects_the_search_state(self, built):
        # the first two roots have tests, the last two do not
        space = assignment_space([("x", [0, 1]), ("y", [0, 1])])
        formulas = [parse(text) for text in (
            "dep(x, y) & x _||_ y", "x _||_ y", "dep(x, y) | x = 0", "E q . dep(q, x) & x _||_ y")]
        plan = compile(formulas, space.domain, space)
        assert plan.tests.keys() >= set(plan.roots[:2]) and not plan.tests.keys() & set(plan.roots[2:])
        inside = space._sub(space.rows[:3])
        outside = T(("x", "y"), [(0, 1), (2, 1)])
        runs = [
            (inside, 2, 0),  # covered: tests alone
            (inside, 4, 2),  # the roots with | or E
            (outside, 2, 2),  # a row outside the space
            (ProbTeam.uniform(inside), 2, 2),  # a probabilistic team
        ]
        for team, roots, searched in runs:
            built.clear()
            verdict = plan.run(team)
            # each root asked twice: every verdict that no test decides
            # builds a search state of its own
            assert [verdict(i) for i in range(roots)] == [verdict(i) for i in range(roots)]
            assert built == [DEFAULT_BUDGET] * 2 * searched

    def test_each_verdict_has_the_whole_budget(self):
        # the smallest memo_limit that fits is 5 for the first formula and
        # 12 for the second, which shares its conjunct: a verdict raises
        # as its lone eval_rel does, whatever was asked before it
        team = T(("x", "y", "z"), [(0, 1, 2), (1, 2, 0), (2, 0, 1), (0, 2, 1), (1, 0, 2)])
        formulas = [parse("ncc(x y z)"), parse("ncc(x y z) & ncc(x y)")]
        budget = EvalBudget(memo_limit=11)
        for formula, fits in zip(formulas, (5, 12)):
            eval_rel(team, formula, EvalBudget(memo_limit=fits))
            with pytest.raises(BudgetExceededError):
                eval_rel(team, formula, EvalBudget(memo_limit=fits - 1))
        # a repeated conjunct is one part, decided once
        eval_rel(team, parse("ncc(x y z) & ncc(x y z)"), EvalBudget(memo_limit=5))
        plan = compile(formulas, team.domain)
        for first in (False, True):
            verdict = plan.run(team, budget)
            if first:
                assert verdict(0) == eval_rel(team, formulas[0], budget)
            with pytest.raises(BudgetExceededError):
                verdict(1)

    def test_code_is_generated_by_compile_alone(self, monkeypatch):
        # a plan is complete when compile returns: the gendep defining
        # formula generates one row test for the one variant of its block,
        # which no inclusion covers and which inlines the flag disjunction;
        # runs generate none
        module = importlib.import_module("teamlogic.eval_rel")
        calls = []
        generate = module._generate
        monkeypatch.setattr(module, "_generate", lambda *args: calls.append(args[0]) or generate(*args))
        atom = GenDep(("x1",), ("x2",), ("y1",), ("y2",))
        domain = ("x1", "x2", "y1", "y2")
        plan = compile([gendep_defining_formula(atom)], domain)
        assert calls == [""]
        teams = list(islice(enumerate_teams([(v, [0, 1]) for v in domain], 3, nonempty=False), 100))
        verdicts = [plan.run(team)(0) for team in teams]
        assert calls == [""]
        assert verdicts == [eval_atom_rel(team, atom) for team in teams] and set(verdicts) == {True, False}

    @pytest.mark.parametrize("value", [True, 1.0])
    def test_an_equal_constant_does_not_take_a_node(self, value):
        # x = true would equal x = 1, since 1 == True == 1.0, and take its
        # node; it cannot be built, so equal formulas share one node
        team = T(("x", "y"), [(1, 0), (0, 1)])
        with pytest.raises(InvalidArgumentError):
            Eq(Var("x"), Const(value))
        plan = compile([parse("x = 1 | x _||_ y"), Eq(Var("x"), Const(1)) | Indep(("x",), (), ("y",))], team.domain)
        assert plan.roots[0] is plan.roots[1] and plan.run(team)(1)


class TestAtoms:
    def test_ex22_outcomes_independent(self, ex22):
        assert eval_atom_rel(ex22.team, Indep(("o1",), (), ("o2",)))

    def test_inclusion_reflexive(self, ex22):
        assert eval_atom_rel(ex22.team, Incl(("m1", "o1"), ("m1", "o1")))

    def test_empty_antecedent_dep_is_constancy(self):
        t = T(("x", "l"), [(0, "c"), (1, "c")])
        assert eval_atom_rel(t, Dep((), ("l",)))
        t2 = T(("x", "l"), [(0, "c"), (1, "d")])
        assert not eval_atom_rel(t2, Dep((), ("l",)))

    def test_gendep_reduces_to_dep_on_duplicated_tuples(self):
        rng = random.Random(5)
        for _ in range(50):
            rows = [(rng.randint(0, 1), rng.randint(0, 1), rng.randint(0, 1))
                    for _ in range(rng.randint(0, 5))]
            t = T(("x", "y", "z"), rows)
            assert eval_atom_rel(t, GenDep(("x",), ("x",), ("y",), ("y",))) == \
                eval_atom_rel(t, Dep(("x",), ("y",)))

    def test_nc_direct(self):
        # value 0 appears as y of row 1 and in xs of row 2 with different y
        t = T(("x1", "x2", "y"), [(1, 1, 0), (0, 1, 1)])
        assert not eval_atom_rel(t, NC(("x1", "x2"), "y"))
        t2 = T(("x1", "x2", "y"), [(1, 1, 0), (0, 1, 0)])
        assert eval_atom_rel(t2, NC(("x1", "x2"), "y"))

    def test_ncc_small(self):
        # two rows sharing one value: pick it in both
        t = T(("m1", "m2"), [("u", "v"), ("v", "w")])
        assert eval_atom_rel(t, NCC(("m1", "m2")))

    def test_indep_conditional(self, sig):
        assert not eval_atom_rel(sig.team, Indep(("o1",), ("m1",), ("m2",)))


class TestGenDepConstraint:
    """The one incremental constraint behind dep((x1; x2), (y1; y2)) and
    nc(xs; y), as the existential search drives it."""

    @staticmethod
    def state(c):
        return ({k: dict(v) for k, v in c.side1.items()},
                {k: dict(v) for k, v in c.side2.items()}, list(c.trail))

    def test_failed_add_leaves_tables_unchanged(self):
        c = _CONSTRAINTS[NC](("x", "y", "z"), NC(("x", "y"), "z"))
        assert c.add((1, 2, 1))
        before = self.state(c)
        # 1 is row (1, 2, 1)'s z and among this row's selectors: fails at
        # the second side-1 key, after the first was put
        assert not c.add((4, 1, 3))
        assert self.state(c) == before
        # z = 2 is among row (1, 2, 1)'s selectors: fails on side 2, after
        # both side-1 keys were put
        assert not c.add((5, 6, 2))
        assert self.state(c) == before

    def test_undo_restores_state(self):
        c = _CONSTRAINTS[GenDep](("x", "y", "z"), GenDep(("x",), ("y",), ("z",), ("z",)))
        empty = self.state(c)
        assert c.add((0, 1, 0))
        before = self.state(c)
        assert c.add((1, 0, 0))
        assert not c.add((2, 0, 1))
        c.undo()
        assert self.state(c) == before
        c.undo()
        assert self.state(c) == empty

    def test_repeated_selector_value_put_once(self):
        c = _CONSTRAINTS[NC](("x", "y", "z"), NC(("x", "y", "x"), "z"))
        assert c.add((7, 7, 7))
        assert c.side1 == {7: {7: 1}} and c.side2 == {7: {7: 1}}
        c.undo()
        assert c.side1 == c.side2 == {}


class TestConnectives:
    def test_or_needs_cover(self):
        t = T(("x",), [(0,), (1,)])
        assert eval_rel(t, parse("x = 0 | x = 1"))
        assert not eval_rel(t, parse("x = 0 | x = 2"))

    def test_or_with_team_atoms(self):
        # dep(x,y) fails globally but splits into two functional halves
        t = T(("x", "y"), [(0, 0), (0, 1)])
        assert not eval_rel(t, parse("dep(x, y)"))
        assert eval_rel(t, parse("dep(x, y) | dep(x, y)"))

    def test_or_idempotence_and_weakening(self):
        rng = random.Random(7)
        for _ in range(30):
            rows = [(rng.randint(0, 1), rng.randint(0, 1)) for _ in range(rng.randint(1, 4))]
            t = T(("x", "y"), rows)
            f = parse("dep(x, y)")
            if eval_rel(t, f):
                assert eval_rel(t, parse("dep(x, y) | dep(x, y)"))
                assert eval_rel(t, parse("dep(x, y) | x _||_ y"))

    def test_forall(self):
        t = T(("x",), [(0,)], universe=[0, 1])
        assert eval_rel(t, parse("A y . dep(y, y)"))
        assert not eval_rel(t, parse("A y . y = 0"))

    def test_exists_picks_witness(self):
        t = T(("x",), [(0,), (1,)], universe=[0, 1])
        assert eval_rel(t, parse("E y . dep(x, y) & dep(y, x)"))

    def test_exists_inclusion_needs_set_values(self):
        # y must take both values on a single row: only set-valued Skolem
        # functions can satisfy x <= y here
        t = T(("x",), [(0,), (1,)], universe=[0, 1])
        assert eval_rel(t, parse("E y . x <= y"))
        single = T(("x",), [(0,)], universe=[0, 1])
        assert not eval_rel(single, parse("E y . x = 1 & x <= y"))
        assert eval_rel(T(("x",), [(1,)], universe=[0, 1]), parse("E y . x = 1 & x <= y"))

    def test_lax_split_may_overlap(self):
        # (x=0 or dep(,x)) with overlap: constancy side takes a subset
        t = T(("x", "y"), [(0, 0), (0, 1), (1, 0)])
        assert eval_rel(t, parse("y = 0 | dep(, y)"))

    def test_rebound_exists_with_coupled_rows(self):
        # Re-quantifying x: the literal forces the second row to x=0, so
        # the first must move to x=1.  The rows interact only through the
        # rebound column; the search must not treat them as independent.
        t = T(("x", "y"), [(0, 0), (1, 1)], universe=[0, 1])
        assert eval_rel(t, parse("E x . dep(x, y) & (y != 1 | x = 0)"))
        # and the matching unsatisfiable variant stays false
        assert not eval_rel(t, parse("E x . dep(x, y) & x = 0"))

    def test_rebound_exists_basic(self):
        t = T(("x", "y"), [(0, 0), (0, 1)], universe=[0, 1])
        assert eval_rel(t, parse("E x . dep(x, y)"))
        assert not eval_rel(t, parse("dep(x, y)"))

    def test_bound_column_is_dropped_then_bound_fresh(self):
        # E x over (x, y) is decided on the team without x, by a block
        # whose fresh column x comes last
        node = compile([parse("E x . dep(y, x)")], ("x", "y")).roots[0]
        assert (node.var, node.block) == ("x", None)
        assert node.body.block.ext_domain == ("y", "x")

    def test_same_variable_nest_decides_on_a_prob_team(self):
        # E y . A y . φ is A y . φ, which a probabilistic team decides
        pt = ProbTeam(T(("x", "y"), [(0, 0), (1, 1)], universe=[0, 1]), {(0, 0): Fraction(1, 3), (1, 1): Fraction(2, 3)})
        plan = compile([parse("E y . A y . x _||_ y"), parse("E y . A y . dep(x, y)")], pt.domain)
        verdict = plan.run(pt)
        assert (verdict(0), verdict(1)) == (True, False)

    @pytest.mark.parametrize("text, nodes, memo", [
        ("z <= x | x = 0 | dep(, z) | z <= x", 3, 1),
        ("x = 0 | z <= x", 1, 1),
    ])
    def test_flat_part_leaves_the_whole_team_to_later_parts_first(self, text, nodes, memo):
        # z <= x holds on the whole team, which the parts after the flat
        # one try before any smaller team
        team = T(("x", "y", "z"), [(0, 2, 1), (1, 1, 1), (2, 0, 0), (2, 0, 2), (2, 1, 2), (2, 2, 2)])
        evaluator = _Evaluator(DEFAULT_BUDGET)
        node = compile([parse(text)], team.domain).roots[0]
        assert node.decide(evaluator, team, node)
        assert (evaluator.nodes, len(evaluator.memo)) == (nodes, memo)

    def test_masked_split_keeps_no_memo(self):
        # a split query of the benchmark's search workload on a 16-row team
        # that no cover fits: the search ticks once for each of the 2^16 - 1
        # nonempty left teams of the _||_ side, and decides both sides on
        # ORs of row masks, which leave no memo entry
        rows = [
            (1, 2, 1, 1), (1, 2, 2, 2), (0, 0, 1, 2), (1, 0, 2, 0), (2, 1, 0, 2), (2, 0, 2, 2),
            (1, 2, 2, 0), (1, 1, 0, 2), (2, 0, 2, 1), (1, 2, 0, 0), (1, 0, 0, 0), (2, 1, 0, 1),
            (0, 1, 2, 2), (1, 1, 0, 0), (2, 1, 1, 2), (0, 1, 1, 0),
        ]
        team = T(("m1", "m2", "o1", "o2"), rows, universe=range(3))
        evaluator = _Evaluator(DEFAULT_BUDGET)
        node = compile([parse("(dep(m1,o1) & dep(m2,o2)) | (o1 _||_{m1} m2)")], team.domain).roots[0]
        assert not node.decide(evaluator, team, node)
        assert (evaluator.nodes, len(evaluator.memo)) == (65_535, 0)

    def test_masked_split_sets_up_in_linear_time(self):
        # x _||_ y holds on the whole 60-row team, the first left team that
        # the search tries, so a set-up exponential in the rows would show
        team = T(("x", "y"), list(product(range(6), range(10))))
        formula = parse("dep(x, y) | x _||_ y")
        start = time.perf_counter()
        assert eval_rel(team, formula)
        assert time.perf_counter() - start < 0.05

    def test_exists_search_deeper_than_recursion_limit(self):
        # one component of 1,100 rows makes the search 1,100 rows deep;
        # l = o1 is a witness
        rows = [(m, o) for m in range(40) for o in range(40)][:1100]
        assert eval_rel(Team(("m1", "o1"), rows), parse("E l . dep(m1 l, o1)"))


class TestFlatnessAndLocality:
    def test_flatness_for_literals(self):
        rng = random.Random(11)
        f = parse('x = 0 | y != 1 & x != "q"')
        for _ in range(40):
            rows = [(rng.randint(0, 1), rng.randint(0, 1)) for _ in range(rng.randint(0, 4))]
            t = T(("x", "y"), rows)
            expected = all(
                eval_rel(T(("x", "y"), [r]), f) for r in rows
            )
            assert eval_rel(t, f) == expected

    def test_locality(self):
        rng = random.Random(13)
        formulas = [parse("dep(x, y)"), parse("x _||_ y"), parse("E z . dep(x z, y)"),
                    parse("nc(x; y)")]
        for _ in range(25):
            rows = [(rng.randint(0, 1), rng.randint(0, 1), rng.randint(0, 2))
                    for _ in range(rng.randint(1, 4))]
            t = T(("x", "y", "junk"), rows)
            for f in formulas:
                shrunk = t.restrict(tuple(sorted(free_vars(f))))
                shrunk = Team(shrunk.domain, shrunk.rows, t.universe)
                assert eval_rel(t, f) == eval_rel(shrunk, f)

    def test_downward_closure_fo_dep(self):
        rng = random.Random(17)
        formulas = [parse("dep(x, y)"), parse("dep(x, y) | dep(y, x)"),
                    parse("E z . dep(x z, y) & nc(x; z)"), parse("ncc(x y)")]
        for _ in range(25):
            rows = [(rng.randint(0, 2), rng.randint(0, 2)) for _ in range(rng.randint(1, 5))]
            t = T(("x", "y"), rows, universe=range(3))
            for f in formulas:
                assert is_downward_closed(f)
                if eval_rel(t, f):
                    for keep in range(len(t.rows)):
                        sub = Team(t.domain, t.rows[:keep] + t.rows[keep + 1:], t.universe)
                        assert eval_rel(sub, f)


def exists_oracle(team, var, body):
    """Brute-force lax existential: every set-valued Skolem function."""
    values = team.universe
    choices = [c for size in range(1, len(values) + 1)
               for c in combinations(values, size)]
    for assignment in product(choices, repeat=len(team.rows)):
        rows = [row + (v,) for row, image in zip(team.rows, assignment) for v in image]
        extended = Team(team.domain + (var,), rows, team.universe)
        if eval_rel(extended, body):
            return True
    return False


class TestExistsClauseEquivalence:
    """The evaluator's subteam-of-generalisation search must agree with
    explicit enumeration of set-valued Skolem functions."""

    BODIES = [
        parse("dep(x, z)"),
        parse("dep(z, x)"),
        parse("x <= z"),
        parse("z _||_ y"),
        parse("nc(x; z)"),
        parse("dep(x, z) | z = 0"),
    ]

    def test_exhaustive_small(self):
        # every team with |rows| * |universe| <= 12 over this space
        space = list(product(range(2), repeat=2))
        checked = 0
        for count in range(0, 5):
            for rows in combinations(space, count):
                team = Team(("x", "y"), rows, universe=range(3))
                assert len(team.rows) * len(team.universe) <= 12
                for body in self.BODIES:
                    formula = parse(f"E z . {body}")
                    assert eval_rel(team, formula) == exists_oracle(team, "z", body), (
                        rows, str(body))
                    checked += 1
        assert checked == 16 * len(self.BODIES)

    def test_random_universe3(self):
        rng = random.Random(23)
        space = list(product(range(3), repeat=2))
        for _ in range(12):
            rows = rng.sample(space, rng.randint(1, 4))
            team = Team(("x", "y"), rows, universe=range(3))
            if len(team.rows) * len(team.universe) > 12:
                continue
            for body in self.BODIES:
                formula = parse(f"E z . {body}")
                assert eval_rel(team, formula) == exists_oracle(team, "z", body)


class TestBudget:
    def test_rows_budget(self):
        t = T(("x",), [(i,) for i in range(6)], universe=range(6))
        with pytest.raises(BudgetExceededError):
            eval_rel(t, parse("A a . A b . A c . dep(a b c, x)"),
                     EvalBudget(max_rows=100, memo_limit=10**6))

    def test_universe_budget(self):
        t = T(("x",), [(0,)], universe=range(30))
        with pytest.raises(BudgetExceededError):
            eval_rel(t, parse("A a . dep(x, a)"), EvalBudget(max_rows=8))

    @pytest.mark.parametrize("text, verdict", [
        ("dep(x, y)", False), ("x _||_ y", True), ("x = 0 | x = 1", True), ("x = y & y = y", False),
    ])
    def test_quantifier_free_formula_decides_past_the_universe_cap(self, text, verdict):
        t = T(("x", "y"), [(i, j) for i in range(2) for j in range(100, 230)])
        # over 128 values: no budget cap bounds the universe
        assert len(t.universe) > 128
        assert eval_rel(t, parse(text)) == verdict

    @pytest.mark.parametrize("text", ["E z . dep(x, z)", "dep(x, y) & E z . x = z"])
    def test_existential_past_the_universe_cap_raises(self, text):
        # 129 values (over 128), and 129 * 129 candidates within the
        # default budget: the existential decides
        t = T(("x", "y"), [(i, 0) for i in range(129)])
        assert eval_rel(t, parse(text)) is True

    @pytest.mark.parametrize("text, count, limit", [
        ("x _||_ y | x <= y", 9, 64),
        ("x = 0 | x <= y", 9, 64),
        # every left team of the eleven x = 0 rows holds: 3^11 (left,
        # right) pairs over 2^12 distinct teams, so the memo alone would
        # stay far inside this limit
        ("x _||_ y | x <= y", 11, 20_000),
    ])
    def test_split_search_honours_budget(self, text, count, limit):
        # no cover exists (x <= y fails on every nonempty team), so the
        # search runs to exhaustion: over every left team when neither side
        # is closed, over the 2^count right teams beside the flat side's rows
        team = T(("x", "y"), [(0, y) for y in range(10, 10 + count)] + [(1, 99)])
        formula = parse(text)
        with pytest.raises(BudgetExceededError):
            eval_rel(team, formula, EvalBudget(memo_limit=limit))
        assert not eval_rel(team, formula)

    def test_value_product_is_refused_before_it_is_built(self, monkeypatch):
        # 60**4 candidates for the one row: the first row's tick would
        # refuse them, so no product past the limit is built
        module = importlib.import_module("teamlogic.eval_rel")
        real = module.product

        def spy(*args, **kwargs):
            for count, item in enumerate(real(*args, **kwargs)):
                assert count < 1000, "a value product past the limit is being built"
                yield item

        monkeypatch.setattr(module, "product", spy)
        t = T(("x",), [(0,)], universe=range(60))
        with pytest.raises(BudgetExceededError, match="search exceeded budget of 1000 states"):
            eval_rel(t, parse("E a . E b . E c . E d . dep(x, a b c d)"), EvalBudget(memo_limit=1000))

    def test_budget_error_is_not_false(self):
        # same query under a generous budget evaluates fine
        t = T(("x",), [(i,) for i in range(6)], universe=range(6))
        assert eval_rel(t, parse("A a . dep(a x, a)"))


#: The hidden-variable query of the search benchmark, whose block
#: variable occurs only in dep atoms, so its search uses value precedence.
HIDDEN_QUERY = "E l . dep(m1 l, o1) & dep(m2 l, o2)"


class TestValuePrecedenceBudget:
    # a team on which the query fails: its search without value
    # precedence visits 5,388 nodes, so it exceeds a budget of 1,000
    ROWS = (
        (0, 0, 1, 2), (0, 0, 2, 0), (0, 1, 2, 0), (1, 2, 2, 0), (1, 2, 2, 2),
        (2, 1, 0, 0), (2, 1, 1, 0), (2, 2, 0, 0), (2, 2, 0, 2), (2, 2, 2, 2),
    )
    #: (rows, search nodes without value precedence) of seeded teams
    SEEDED = ((6, 27), (6, 29), (12, 84), (12, 534), (12, 84), (24, 120), (24, 174), (24, 120))

    @staticmethod
    def nodes(team):
        evaluator = _Evaluator(DEFAULT_BUDGET)
        node = compile([parse(HIDDEN_QUERY)], team.domain).roots[0]
        return node.decide(evaluator, team, node), evaluator.nodes

    def test_fixed_failing_team_decides_within_a_smaller_budget(self):
        team = T(("m1", "m2", "o1", "o2"), self.ROWS, universe=range(3))
        assert self.nodes(team) == (False, 924)
        assert not eval_rel(team, parse(HIDDEN_QUERY), EvalBudget(memo_limit=1_000))

    def test_search_visits_no_more_nodes_than_without_precedence(self):
        rng = random.Random(2021)
        space = list(product(range(3), repeat=4))
        counts = []
        for size, before in self.SEEDED:
            team = T(("m1", "m2", "o1", "o2"), rng.sample(space, size), universe=range(3))
            verdict, nodes = self.nodes(team)
            assert nodes <= before, team.rows
            counts.append(nodes)
        assert sum(counts) < sum(before for _, before in self.SEEDED)


class TestCandidateBudget:
    """The least ``memo_limit`` that decides a block, on a fixed team: the
    budget counts each row's candidates, so how they are built must not
    move it."""

    ROWS = ((0, 0, 1), (0, 0, 2), (0, 1, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0), (1, 2, 2), (2, 0, 2))

    @pytest.mark.parametrize("text, least", [
        # no inclusion covers the block: each row tries the value product
        ("E q . dep(x, q) & dep(q z, y) & q != y", 32),
        # each row tries the pairs that ``q r <= y x`` allows it
        ("E q . E r . q r <= y x & dep(z, q r) & dep(q, x)", 489),
    ])
    def test_least_deciding_budget(self, text, least):
        team = T(("x", "y", "z"), self.ROWS, universe=range(3))
        formula = parse(text)
        assert not eval_rel(team, formula, EvalBudget(memo_limit=least))
        with pytest.raises(BudgetExceededError):
            eval_rel(team, formula, EvalBudget(memo_limit=least - 1))


class TestKSAtom:
    def test_ks9_team_fails_ncc(self):
        from teamlogic.nogo import cabello_config, ks_team

        team = ks_team(cabello_config())
        assert not eval_atom_rel(team, NCC(("m1", "m2", "m3", "m4")))

    def test_ncc_search_honours_budget(self):
        from teamlogic.nogo import cabello_config, ks_team

        team = ks_team(cabello_config())
        with pytest.raises(BudgetExceededError):
            eval_rel(team, NCC(("m1", "m2", "m3", "m4")), EvalBudget(memo_limit=5))

    def test_two_basis_toy_satisfies_ncc(self):
        rows = [("e1", "e2", "e3", "e4"), ("f1", "f2", "f3", "f4")]
        team = Team(("m1", "m2", "m3", "m4"), rows)
        assert eval_atom_rel(team, NCC(("m1", "m2", "m3", "m4")))

    def test_exact_transversal_matches_brute_force(self):
        # random overlapping blocks force backtracking, so a search that
        # fails to undo a pick shows up as a wrong verdict or set
        rng = random.Random(2024)
        for _ in range(1500):
            blocks = [rng.sample(range(8), rng.randint(1, 3)) for _ in range(rng.randint(1, 8))]
            found = {
                frozenset(picks)
                for picks in product(*blocks)
                if all(len(set(picks).intersection(b)) == 1 for b in blocks)
            }
            chosen = exact_transversal(blocks, lambda: None)
            assert (chosen is not None) == bool(found), blocks
            assert chosen is None or frozenset(chosen) in found, blocks

    def test_depth_first_at_depth_zero_yields_once(self):
        def level(k):
            raise AssertionError("no level to decide")

        assert list(depth_first(0, level)) == [None]

    def test_depth_first_enumerates_and_keeps_state_on_early_stop(self):
        state = []

        def level(k):
            # after a 0, level 1 admits only 1 and level 2 nothing, so the
            # search backs up two levels
            options = {(0,): (1,), (0, 1): ()}.get(tuple(state), (0, 1))
            for v in options:
                state.append(v)
                yield True
                state.pop()

        assert [tuple(state) for _ in depth_first(3, level)] == [
            (1, 0, 0), (1, 0, 1), (1, 1, 0), (1, 1, 1),
        ]
        assert state == []
        for _ in depth_first(3, level):
            if state == [1, 0, 1]:
                break
        assert state == [1, 0, 1]

    def test_ncc_search_deeper_than_recursion_limit(self):
        # 1,500 two-value rows make a search 1,500 blocks deep; choosing
        # every x value (0..57) meets each row exactly once
        rows = [(s, t) for s in range(58) for t in range(58, 115)][:1500]
        assert eval_rel(Team(("x", "y"), rows), NCC(("x", "y")))
