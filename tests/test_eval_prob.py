import random
from fractions import Fraction

import pytest

from teamlogic.errors import BudgetExceededError, UnsupportedFragmentError, ZeroProbabilityError
from teamlogic.eval_prob import CondProbQuery, check_skolem_witness, cond_prob, eval_prob
from teamlogic.eval_rel import EvalBudget, eval_rel
from teamlogic.formulas import Dep, Indep, is_downward_closed, parse
from teamlogic.sampling import random_prob_team
from teamlogic.teams import ProbTeam, Team


class TestCondProb:
    def test_pt1_example(self, pt1):
        q = CondProbQuery(("z",), (0,), ("x", "y"), (0, 0))
        assert cond_prob(pt1, q) == Fraction(4, 7)

    def test_self_condition_is_one(self, pt1):
        q = CondProbQuery(("x", "y"), (0, 0), ("x", "y"), (0, 0))
        assert cond_prob(pt1, q) == 1

    def test_uniform_ex22(self, ex22):
        pt = ProbTeam.uniform(ex22.team)
        q = CondProbQuery(("o1",), ("+",), ("m1",), ("a1",))
        assert cond_prob(pt, q) == Fraction(1, 2)

    def test_zero_condition(self, pt1):
        with pytest.raises(ZeroProbabilityError):
            cond_prob(pt1, CondProbQuery(("z",), (0,), ("x", "y"), (7, 7)))


class TestEvalProb:
    def test_pt1_separation(self, pt1):
        psi1 = parse("z _||_{x} w & z _||_{y} w & x _||_{w z} y")
        phi1 = parse("z _||_{x y} w")
        assert eval_prob(pt1, psi1)
        assert not eval_prob(pt1, phi1)

    def test_point_mass_satisfies_dep(self):
        t = Team(("x", "y"), [(0, 1)])
        pt = ProbTeam(t, {(0, 1): Fraction(1)})
        assert eval_prob(pt, Dep(("x",), ("y",)))
        assert eval_prob(pt, Dep((), ("x", "y")))

    def test_siglam_uniform_properties(self, siglam):
        from teamlogic.models import from_team
        from teamlogic.properties import PropertyName, check_property

        pt = ProbTeam.uniform(siglam.team)
        model = from_team(pt, "hidden")
        assert check_property(model, PropertyName.OUT_INDEP_H)
        assert not check_property(model, PropertyName.PAR_INDEP_H)
        assert not check_property(model, PropertyName.STRONG_DET_H)

    def test_unsupported_fragment(self, pt1):
        with pytest.raises(UnsupportedFragmentError):
            eval_prob(pt1, parse("dep(x, y) | dep(y, x)"))
        with pytest.raises(UnsupportedFragmentError):
            eval_prob(pt1, parse("E v . dep(x, v)"))

    def test_forall_supported(self, pt1):
        assert eval_prob(pt1, parse("A v . dep(x v, x)"))

    def test_forall_honours_budget(self):
        pt = ProbTeam.uniform(Team(("x",), [(i,) for i in range(6)]))
        formula = parse("A y . A z . A w . dep(x, x)")
        # the first generalization builds 36 rows
        tight = EvalBudget(max_rows=30)
        with pytest.raises(BudgetExceededError):
            eval_rel(pt.team, formula, tight)
        with pytest.raises(BudgetExceededError):
            eval_prob(pt, formula, tight)
        # the row cap alone: the second generalization would build 216 rows
        with pytest.raises(BudgetExceededError):
            eval_prob(pt, formula, EvalBudget(max_rows=100))
        assert eval_prob(pt, formula)

    def test_dep_decides_past_universe_budget(self):
        # LCM hidden-variable constructions can carry hundreds of hidden
        # values; dep is a row scan and decides on any universe
        pt = ProbTeam.uniform(Team(("x", "y"), [(i, i % 2) for i in range(200)]))
        assert eval_prob(pt, parse("dep(x, y)"))
        assert not eval_prob(pt, parse("dep(y, x)"))

    def test_support_determined_atoms(self, pt1):
        assert eval_prob(pt1, parse("z <= x")) == eval_rel(pt1.support(), parse("z <= x"))
        assert eval_prob(pt1, parse("ncc(x y)")) == eval_rel(pt1.support(), parse("ncc(x y)"))

    def test_every_atom_decides_past_universe_budget(self):
        # each atom is a scan of the support rows, like dep; only the
        # universal quantifier reads the universe, 200 rows times 200 values
        pt = ProbTeam.uniform(Team(("x", "y"), [(i, i % 2) for i in range(200)]))
        verdicts = {
            "x <= y": False,
            "y <= x": True,
            "x = x": True,
            "dep((x; x), (y; y))": True,
            "nc(x; y)": True,
            "ncc(x y)": True,
        }
        for text, verdict in verdicts.items():
            assert eval_prob(pt, parse(text)) is verdict, text
        assert eval_prob(pt, parse("A z . dep(x, y)"))
        with pytest.raises(BudgetExceededError):
            eval_prob(pt, parse("A z . dep(x, y)"), EvalBudget(max_rows=39_999))
        assert eval_prob(pt, parse("A z . dep(x, y)"), EvalBudget(max_rows=40_000))

    def test_flat_disjunction_is_decided_on_the_support(self, pt1):
        # a flat formula holds of a probabilistic team exactly when it
        # holds of its support, row by row
        for text in ("x = 0 | x != 0", "x = 0 | y = 1", "x = y | z = w", "x = 0 & (y = 1 | z = 0)"):
            formula = parse(text)
            assert eval_prob(pt1, formula) == eval_rel(pt1.support(), formula), text
        assert eval_prob(pt1, parse("x = 0 | x != 0"))
        with pytest.raises(UnsupportedFragmentError):
            eval_prob(pt1, parse("dep(x, y) | x = 0"))


class TestWitnesses:
    def test_own_row_witness_certifies_strongdet(self, ex22):
        from teamlogic.properties import PropertyName, property_formula

        pt = ProbTeam.uniform(ex22.team)
        strongdet = property_formula(PropertyName.STRONG_DET_H, 2)
        assert check_skolem_witness(pt, "l", lambda s: {s.row: Fraction(1)}, strongdet)

    def test_constant_witness_certifies_singval(self, pt1):
        constancy = Dep((), ("v",))
        assert check_skolem_witness(pt1, "v", lambda s: {"c": Fraction(1)}, constancy)

    def test_lcm_witness_certifies_weakdet_lambdaindep(self, ex22):
        from teamlogic.constructions import construct_weakdet_lambdaindep
        from teamlogic.models import from_team
        from teamlogic.properties import PropertyName, check_property

        model = from_team(ProbTeam.uniform(ex22.team), "empirical")
        hv = construct_weakdet_lambdaindep(model)
        assert check_property(hv, PropertyName.WEAK_DET_H)
        assert check_property(hv, PropertyName.LAMBDA_INDEP_H)


def random_atom_conjunction(rng, variables, dep_only=False):
    from teamlogic.formulas import conjoin

    atoms = []
    for _ in range(rng.randint(1, 3)):
        xs = tuple(rng.sample(variables, rng.randint(1, 2)))
        ys = tuple(rng.sample(variables, rng.randint(1, 2)))
        if dep_only or rng.random() < 0.5:
            atoms.append(Dep(xs, ys))
        else:
            cond = tuple(rng.sample(variables, rng.randint(0, 2)))
            atoms.append(Indep(xs, cond, ys))
    return conjoin(atoms)


class TestCompareSemantics:
    """Probabilistic truth implies relational truth on the support; for
    dependence-only formulas the two coincide."""

    def test_forward_implication_random(self):
        rng = random.Random(101)
        variables = ["x", "y", "z", "w"]
        for _ in range(400):
            pt = random_prob_team(rng, tuple(variables), universe_size=2, max_rows=5)
            f = random_atom_conjunction(rng, variables)
            if eval_prob(pt, f):
                assert eval_rel(pt.support(), f), str(f)

    def test_dep_only_equivalence_random(self):
        rng = random.Random(103)
        variables = ["x", "y", "z"]
        for _ in range(400):
            pt = random_prob_team(rng, tuple(variables), universe_size=2, max_rows=5)
            f = random_atom_conjunction(rng, variables, dep_only=True)
            assert is_downward_closed(f)
            assert eval_prob(pt, f) == eval_rel(pt.support(), f), str(f)

    def test_indep_symmetry(self):
        rng = random.Random(107)
        for _ in range(200):
            pt = random_prob_team(rng, ("x", "y", "z"), universe_size=2, max_rows=5)
            a = Indep(("x",), ("z",), ("y",))
            b = Indep(("y",), ("z",), ("x",))
            assert eval_prob(pt, a) == eval_prob(pt, b)

    def test_marginal_coherence(self):
        rng = random.Random(109)
        f = parse("x _||_{z} y")
        for _ in range(100):
            pt = random_prob_team(rng, ("x", "y", "z", "junk"), universe_size=2, max_rows=6)
            assert eval_prob(pt, f) == eval_prob(pt.restrict(("x", "y", "z")), f)
