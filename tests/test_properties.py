import random
from itertools import combinations, product

import pytest

from teamlogic.errors import InvalidArgumentError
from teamlogic.eval_prob import eval_prob
from teamlogic.eval_rel import eval_rel
from teamlogic.formulas import Dep, Indep, print_formula
from teamlogic.models import from_team, hidden_domain, possibilistic_collapse
from teamlogic.properties import (
    PropertyName,
    check_property,
    locality_oracle_prob,
    locality_oracle_rel,
    property_from_cli_name,
    property_formula,
)
from teamlogic.sampling import random_hv_prob_team, random_local_witness
from teamlogic.teams import ProbTeam, Team

P = PropertyName


class TestPropertyFormulas:
    def test_loc_is_conjunction(self):
        from teamlogic.formulas import And

        loc = property_formula(P.LOC_H, 2)
        out = property_formula(P.OUT_INDEP_H, 2)
        par = property_formula(P.PAR_INDEP_H, 2)
        assert loc == And(out, par)

    def test_singval_is_constancy_for_all_arities(self):
        for n in (1, 2, 5):
            assert property_formula(P.SING_VAL_H, n) == Dep((), ("l",))

    def test_arity1_strongdet_equals_weakdet(self):
        assert property_formula(P.STRONG_DET_E, 1) == Dep(("m1",), ("o1",))
        assert property_formula(P.WEAK_DET_E, 1) == Dep(("m1",), ("o1",))

    def test_nosig_structure(self):
        f = property_formula(P.NO_SIG_E, 2)
        assert print_formula(f) == "o1 _||_{m1} m2 & o2 _||_{m2} m1"

    def test_lambda_indep(self):
        assert property_formula(P.LAMBDA_INDEP_H, 2) == Indep(("m1", "m2"), (), ("l",))

    def test_arity1_nosig_tautology(self):
        t = Team(("m1", "o1"), [("a", 0), ("a", 1), ("b", 0)])
        assert eval_rel(t, property_formula(P.NO_SIG_E, 1))

    def test_cli_names(self):
        assert property_from_cli_name("weak-det", "empirical") is P.WEAK_DET_E
        assert property_from_cli_name("weak-det", "hidden") is P.WEAK_DET_H
        with pytest.raises(InvalidArgumentError):
            property_from_cli_name("locality", "empirical")
        with pytest.raises(InvalidArgumentError):
            property_from_cli_name("nonsense", "hidden")


class TestPaperExamples:
    def test_sig(self, sig):
        assert check_property(sig, P.WEAK_DET_E)
        assert not check_property(sig, P.STRONG_DET_E)
        assert not check_property(sig, P.NO_SIG_E)

    def test_siglam(self, siglam):
        assert check_property(siglam, P.WEAK_DET_H)
        assert check_property(siglam, P.OUT_INDEP_H)
        assert check_property(siglam, P.SING_VAL_H)
        assert not check_property(siglam, P.PAR_INDEP_H)
        assert not check_property(siglam, P.STRONG_DET_H)

    def test_loc6(self, loc6):
        assert not check_property(loc6, P.LOC_H)
        assert not check_property(loc6, P.PAR_INDEP_H)
        assert check_property(loc6, P.OUT_INDEP_H)
        assert check_property(loc6, P.LAMBDA_INDEP_H)

    def test_ex22(self, ex22):
        assert check_property(ex22, P.NO_SIG_E)
        assert not check_property(ex22, P.WEAK_DET_E)

    def test_hidden_property_needs_hidden_model(self, sig):
        with pytest.raises(InvalidArgumentError):
            check_property(sig, P.LOC_H)

    def test_noncontext_prob_decided_on_support(self, ex22):
        pm = from_team(ProbTeam.uniform(ex22.team), "empirical")
        assert check_property(pm, P.NON_CONTEXT_E)  # support evaluation


def hv_teams(max_rows, component_size=2):
    space = [
        m + o + (c,)
        for m in product(["a0", "a1"][:component_size], repeat=2)
        for o in product([0, 1][:component_size], repeat=2)
        for c in ["lam0", "lam1"][:component_size]
    ]
    for count in range(1, max_rows + 1):
        for rows in combinations(space, count):
            yield Team(hidden_domain(2), rows)


class TestLocalityOracles:
    def test_loc6_oracle(self, loc6):
        assert not locality_oracle_rel(loc6)

    def test_siglam_oracle(self, siglam):
        assert not locality_oracle_rel(siglam)

    def test_single_row_model(self):
        t = Team(hidden_domain(2), [("a", "b", 0, 1, "c")])
        assert locality_oracle_rel(from_team(t, "hidden"))

    def test_exhaustive_agreement_up_to_four_rows(self):
        checked = 0
        for team in hv_teams(max_rows=4):
            model = from_team(team, "hidden")
            assert locality_oracle_rel(model) == check_property(model, P.LOC_H), team.rows
            checked += 1
        assert checked == 32 + 496 + 4960 + 35960

    def test_prob_oracle_uniform_loc6(self, loc6):
        model = from_team(ProbTeam.uniform(loc6.team), "hidden")
        assert not locality_oracle_prob(model)
        assert not check_property(model, P.LOC_H)

    def test_agreement_random_larger(self):
        rng = random.Random(53)
        for _ in range(150):
            pt = random_hv_prob_team(rng, component_size=3, lambda_size=2, max_rows=8)
            model = from_team(pt.support(), "hidden")
            assert locality_oracle_rel(model) == check_property(model, P.LOC_H)

    def test_prob_oracle_agrees_with_formula(self):
        rng = random.Random(59)
        for _ in range(120):
            pt = random_hv_prob_team(rng, max_rows=6)
            model = from_team(pt, "hidden")
            assert locality_oracle_prob(model) == check_property(model, P.LOC_H)

    def test_prob_oracle_on_point_mass(self):
        from fractions import Fraction

        t = Team(hidden_domain(2), [("a", "b", 0, 1, "c")])
        model = from_team(ProbTeam(t, {t.rows[0]: Fraction(1)}), "hidden")
        assert locality_oracle_prob(model)

    def test_local_witnesses_pass_both_routes(self):
        rng = random.Random(61)
        for _ in range(40):
            rel = random_local_witness(rng)
            assert locality_oracle_rel(rel)
            assert check_property(rel, P.LOC_H)
            prob = random_local_witness(rng, probabilistic=True)
            assert locality_oracle_prob(prob)
            assert check_property(prob, P.LOC_H)


class TestProbVsRel:
    """A probabilistic property implies the relational one on the collapse;
    for the dependence-only properties the converse holds too."""

    ALL_PROPS = (
        P.WEAK_DET_H, P.STRONG_DET_H, P.SING_VAL_H, P.LAMBDA_INDEP_H,
        P.OUT_INDEP_H, P.PAR_INDEP_H, P.LOC_H,
    )
    DEP_ONLY = (P.WEAK_DET_H, P.STRONG_DET_H, P.SING_VAL_H)

    def test_forward_and_equivalence(self):
        rng = random.Random(67)
        for _ in range(150):
            pt = random_hv_prob_team(rng)
            prob_model = from_team(pt, "hidden")
            rel_model = possibilistic_collapse(prob_model)
            for prop in self.ALL_PROPS:
                if check_property(prob_model, prop):
                    assert check_property(rel_model, prop), prop
            for prop in self.DEP_ONLY:
                assert check_property(prob_model, prop) == check_property(rel_model, prop)
