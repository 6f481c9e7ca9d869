import random
from fractions import Fraction
from itertools import chain, combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_formulas import formulas

from teamlogic.errors import BudgetExceededError, UnsupportedFragmentError, ZeroProbabilityError
from teamlogic.eval_prob import CondProbQuery, check_skolem_witness, cond_prob, eval_prob
from teamlogic.eval_rel import EvalBudget, eval_rel
from teamlogic.formulas import And, Dep, Exists, Forall, Indep, Or, is_downward_closed, parse
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
        # only a _||_ under a search reads the weights of its splits or
        # Skolem families; a search without one decides on the support
        for text in ("x _||_ y | dep(y, x)", "E v . x _||_ v", "E v . dep(x, v) & (A w . v _||_ w)"):
            with pytest.raises(UnsupportedFragmentError, match="_\\|\\|_"):
                eval_prob(pt1, parse(text))
        for text, verdict in (("dep(x, y) | dep(y, x)", True), ("E v . dep(x, v)", True)):
            assert eval_prob(pt1, parse(text)) is verdict is eval_rel(pt1.support(), parse(text)), text

    def test_search_refusal_reads_the_weights(self):
        # the support is a full product, so x _||_ y holds on it, but the
        # weights are not a product: a rule that decided E l . x _||_ y on
        # the support would give True
        team = Team(("x", "y"), [(0, 0), (0, 1), (1, 0), (1, 1)])
        pt = ProbTeam(team, dict(zip(team.rows, (Fraction(1, 2), Fraction(1, 6), Fraction(1, 6), Fraction(1, 6)))))
        assert eval_rel(pt.support(), parse("E l . x _||_ y"))
        assert not eval_prob(pt, parse("x _||_ y"))
        with pytest.raises(UnsupportedFragmentError):
            eval_prob(pt, parse("E l . x _||_ y"))

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
        # a non-flat disjunction decides on the support too, unless it has a _||_
        assert eval_prob(pt1, parse("dep(x, y) | x = 0")) is False is eval_rel(pt1.support(), parse("dep(x, y) | x = 0"))
        with pytest.raises(UnsupportedFragmentError):
            eval_prob(pt1, parse("x _||_ y | x = 0"))


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


def indep_placements(formula, under_search=False):
    """For each ``_||_`` atom of ``formula``, whether it lies under an ``E``
    or a ``|`` (a flat ``|`` holds no atom)."""
    match formula:
        case Indep():
            yield under_search
        case And(parts) | Or(parts):
            for part in parts:
                yield from indep_placements(part, under_search or isinstance(formula, Or))
        case Exists(_, body) | Forall(_, body):
            yield from indep_placements(body, under_search or isinstance(formula, Exists))


#: The variables of the ``formulas`` strategy, the domain of its teams.
STRATEGY_VARS = ("x", "y", "z", "m1", "o1", "l", "w2")


class TestSupportTransfer:
    """A formula with no ``_||_`` holds on a probabilistic team exactly when
    on its support (the lemma of :mod:`teamlogic.eval_prob`), so ``E`` and
    non-flat ``|`` decide there, and only a ``_||_`` under one is refused."""

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(formulas(3), st.integers(0, 2**32 - 1))
    def test_refusals_and_verdicts_follow_the_support(self, formula, seed):
        pt = random_prob_team(random.Random(seed), STRATEGY_VARS, universe_size=2, max_rows=3)
        budget = EvalBudget(memo_limit=20_000)
        placements = list(indep_placements(formula))
        try:
            verdict = eval_prob(pt, formula, budget)
        except UnsupportedFragmentError:
            assert any(placements), formula
            return
        except BudgetExceededError:
            return
        support = eval_rel(pt.support(), formula)
        if not placements:
            assert verdict is support, formula
        # a probabilistic True is a support True, _||_ included
        assert support or not verdict, formula

    #: Matrices with no ``_||_`` and no non-flat ``|``.
    MATRICES = ("dep(x, l) & l != y", "l <= y & l != x", "dep(y, l) & l != x", "nc(x y; l) & l != x",
                "A w . dep(w l, x) & l != y")

    def test_uniform_skolem_witnesses_certify_true_existentials(self):
        # a brute-forced relational Skolem function, made uniform over each
        # row's value set, is a probabilistic witness: a check that runs
        # only atom, flat and A clauses, independent of the search rule
        rng, verdicts = random.Random(23), []
        for i in range(200):
            pt = random_prob_team(rng, ("x", "y"), universe_size=rng.choice((2, 3)), max_rows=4)
            matrix = parse(self.MATRICES[i % len(self.MATRICES)])
            values = sorted(pt.universe)
            images = list(chain.from_iterable(combinations(values, k) for k in range(1, len(values) + 1)))
            support = pt.support()
            witness = None
            for choice in product(images, repeat=len(support.rows)):
                image = dict(zip(support.rows, choice))
                if eval_rel(support.skolem_extend("l", lambda s: image[s.row]), matrix):
                    witness = image
                    break
            verdicts.append(eval_prob(pt, Exists("l", matrix)))
            assert verdicts[-1] is (witness is not None), (pt, matrix)
            if witness is not None:
                family = {row: {v: Fraction(1, len(vs)) for v in vs} for row, vs in witness.items()}
                assert check_skolem_witness(pt, "l", lambda s: family[s.row], matrix), (pt, matrix)
        assert verdicts.count(True) == 141

    def test_witness_for_a_non_flat_disjunction(self):
        # neither disjunct holds on the whole extension, but a split does:
        # (0, 0) and (1, 1) by dep(x, v), (0, 1) and (1, 0) by dep(y, v)
        team = Team(("x", "y"), [(0, 0), (0, 1), (1, 0), (1, 1)])
        pt = ProbTeam(team, dict(zip(team.rows, (Fraction(1, 2), Fraction(1, 6), Fraction(1, 6), Fraction(1, 6)))))
        matrix = parse("dep(x, v) | dep(y, v)")

        def labels(s):
            return {"abcd"[2 * s["x"] + s["y"]]: Fraction(1)}

        assert check_skolem_witness(pt, "v", labels, matrix)
        assert not check_skolem_witness(pt, "v", labels, parse("dep(x, v) | dep(, v)"))
