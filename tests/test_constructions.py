import random
from fractions import Fraction
from itertools import product
from math import prod

import pytest

from teamlogic.constructions import (
    _partition,
    construct_single_valued,
    construct_strong_det,
    construct_weakdet_lambdaindep,
    localize_prob,
    localize_rel,
)
from teamlogic.errors import PreconditionError
from teamlogic.eval_rel import EvalBudget
from teamlogic.eval_prob import CondProbQuery, cond_prob
from teamlogic.jsonio import model_to_dict
from teamlogic.models import (
    LAMBDA_VAR,
    empirical_domain,
    empirically_equivalent,
    from_team,
    induced_empirical,
)
from teamlogic.properties import (
    PropertyName as P,
    check_property,
    locality_oracle_prob,
    locality_oracle_rel,
)
from teamlogic.sampling import random_empirical_model, random_local_witness
from teamlogic.teams import ProbTeam, Team, row_key, value_key


class TestSingleValued:
    def test_ex22(self, ex22):
        hv = construct_single_valued(ex22)
        assert len(hv.team) == 4 and hv.lambda_values() == ("l0",)
        assert check_property(hv, P.SING_VAL_H)
        assert check_property(hv, P.LAMBDA_INDEP_H)
        assert empirically_equivalent(ex22, hv)

    def test_probabilistic_weights_unchanged(self, ex22):
        pm = from_team(ProbTeam.uniform(ex22.team), "empirical")
        hv = construct_single_valued(pm)
        for row in ex22.team.rows:
            assert hv.prob_team.weight(row + ("l0",)) == Fraction(1, 4)
        assert empirically_equivalent(pm, hv)


class TestStrongDet:
    def test_ex22(self, ex22):
        hv = construct_strong_det(ex22)
        assert len(hv.lambda_values()) == 4
        assert check_property(hv, P.STRONG_DET_H)
        assert check_property(hv, P.LOC_H)  # strong determinism implies locality
        assert empirically_equivalent(ex22, hv)

    def test_fails_lambda_indep_on_ex22(self, ex22):
        hv = construct_strong_det(ex22)
        assert not check_property(hv, P.LAMBDA_INDEP_H)

    def test_single_row(self):
        m = from_team(Team(("m1", "o1"), [("a", 0)]), "empirical")
        hv = construct_strong_det(m)
        assert len(hv.lambda_values()) == 1

    def test_probabilistic(self, pt1):
        # relabel pt1's columns as a 2-component empirical model
        relabeled = Team(("m1", "m2", "o1", "o2"), pt1.team.rows)
        pm = from_team(ProbTeam(relabeled, dict(pt1.weights())), "empirical")
        hv = construct_strong_det(pm)
        assert check_property(hv, P.STRONG_DET_H)
        assert empirically_equivalent(pm, hv)


class TestWeakDetLambdaIndep:
    def test_uniform_ex22_has_two_lambdas(self, ex22):
        pm = from_team(ProbTeam.uniform(ex22.team), "empirical")
        hv = construct_weakdet_lambdaindep(pm)
        assert len(hv.lambda_values()) == 2
        assert check_property(hv, P.WEAK_DET_H)
        assert check_property(hv, P.LAMBDA_INDEP_H)
        assert empirically_equivalent(pm, hv)
        for a in (("a1", "b1"), ("a2", "b1")):
            for lam in hv.lambda_values():
                q = CondProbQuery(("l",), (lam,), ("m1", "m2"), a)
                assert cond_prob(hv.prob_team, q) == Fraction(1, 2)

    def test_deterministic_model_single_lambda(self, sig):
        pm = from_team(ProbTeam.uniform(sig.team), "empirical")
        hv = construct_weakdet_lambdaindep(pm)
        assert len(hv.lambda_values()) == 1

    def test_pt1_as_empirical(self, pt1):
        relabeled = Team(("m1", "m2", "o1", "o2"), pt1.team.rows)
        pm = from_team(ProbTeam(relabeled, dict(pt1.weights())), "empirical")
        hv = construct_weakdet_lambdaindep(pm)
        assert check_property(hv, P.WEAK_DET_H)
        assert check_property(hv, P.LAMBDA_INDEP_H)
        assert empirically_equivalent(pm, hv)

    def test_relational_variant(self, ex22):
        hv = construct_weakdet_lambdaindep(ex22)
        assert not hv.probabilistic
        assert check_property(hv, P.WEAK_DET_H)
        assert check_property(hv, P.LAMBDA_INDEP_H)
        assert empirically_equivalent(ex22, hv)

    def test_hidden_values_equally_likely_given_any_measurement(self):
        # the construction's point: P(l = c | m = a) = 1/N for every a, c
        rng = random.Random(97)
        for _ in range(15):
            pm = random_empirical_model(rng, arity=2, component_size=2, probabilistic=True)
            hv = construct_weakdet_lambdaindep(pm)
            lams = hv.lambda_values()
            share = Fraction(1, len(lams))
            for a in hv.team.values_of(("m1", "m2")):
                for c in lams:
                    q = CondProbQuery(("l",), (c,), ("m1", "m2"), a)
                    assert cond_prob(hv.prob_team, q) == share


class TestLocalize:
    def test_rel_roundtrip_on_single_valued_product(self):
        grid = Team(
            ("m1", "m2", "o1", "o2"),
            [(a, b, x, y) for a in ("a1", "a2") for b in ("b1",)
             for x in ("+", "-") for y in ("+",)],
        )
        h = construct_single_valued(from_team(grid, "empirical"))
        z = localize_rel(h)
        assert check_property(z, P.STRONG_DET_H)
        assert check_property(z, P.LAMBDA_INDEP_H)
        assert empirically_equivalent(induced_empirical(h), z)

    def test_rel_not_idempotent_but_stable(self, ex22):
        hv = construct_weakdet_lambdaindep(ex22)
        if check_property(hv, P.LOC_H):
            z = localize_rel(hv)
            assert check_property(z, P.STRONG_DET_H)
            assert check_property(z, P.LAMBDA_INDEP_H)

    def test_already_strongdet_input(self):
        rng = random.Random(71)
        witness = random_local_witness(rng)
        z = localize_rel(witness)
        z2 = localize_rel(z)
        for model in (z, z2):
            assert check_property(model, P.STRONG_DET_H)
            assert check_property(model, P.LAMBDA_INDEP_H)

    def test_loc6_precondition_error(self, loc6):
        with pytest.raises(PreconditionError) as err:
            localize_rel(loc6)
        assert "Locality" in str(err.value)

    def test_selector_budget(self):
        from teamlogic.errors import BudgetExceededError

        grid = Team(
            ("m1", "m2", "o1", "o2"),
            [(a, b, x, y) for a in ("a1", "a2", "a3") for b in ("b1", "b2", "b3")
             for x in (0, 1, 2) for y in (0, 1, 2)],
        )
        h = construct_single_valued(from_team(grid, "empirical"))
        with pytest.raises(BudgetExceededError, match="section space exceeds 100;"):
            localize_rel(h, EvalBudget(memo_limit=100))

    def test_random_relational_witnesses(self):
        rng = random.Random(73)
        for _ in range(25):
            witness = random_local_witness(rng)
            z = localize_rel(witness)
            assert check_property(z, P.STRONG_DET_H)
            assert check_property(z, P.LAMBDA_INDEP_H)
            assert locality_oracle_rel(z)
            assert empirically_equivalent(induced_empirical(witness), z)

    def test_random_probabilistic_witnesses(self):
        rng = random.Random(79)
        for _ in range(12):
            witness = random_local_witness(rng, probabilistic=True)
            z = localize_prob(witness)
            assert check_property(z, P.STRONG_DET_H)
            assert check_property(z, P.LAMBDA_INDEP_H)
            assert locality_oracle_prob(z)
            assert empirically_equivalent(induced_empirical(witness), z)
            # exact marginal equality, no tolerance (universes may differ:
            # the localized model's carries the new hidden tags)
            varE = witness.team.domain[:-1]
            assert z.prob_team.restrict(varE).weights() == \
                witness.prob_team.restrict(varE).weights()

    def test_prob_deterministic_input_keeps_lambda_size(self):
        rows = [("a", "b", 0, 1, "c")]
        pt = ProbTeam(Team(("m1", "m2", "o1", "o2", "l"), rows), {rows[0]: Fraction(1)})
        h = from_team(pt, "hidden")
        z = localize_prob(h)
        assert len(z.lambda_values()) == 1

    def test_prob_lambda_marginal_identity(self):
        # each new hidden value (c, cs) carries mass P_Y(l = c) / prod(N_i),
        # where prod(N_i) is the number of block combinations per c
        from teamlogic.eval_prob import marginal

        rng = random.Random(101)
        for _ in range(8):
            witness = random_local_witness(rng, probabilistic=True)
            z = localize_prob(witness)
            per_c: dict = {}
            for lam in z.lambda_values():
                per_c.setdefault(lam[0], []).append(lam)
            for c, lams in per_c.items():
                mass_c = marginal(witness.prob_team, ("l",), (c,))
                expected = mass_c / len(lams)
                for lam in lams:
                    assert marginal(z.prob_team, ("l",), (lam,)) == expected


def reference_localize_rel(model):
    """Relational localization by exhaustive selector families, the
    independent reference for :func:`localize_rel`.

    New hidden values are pairs of an old hidden value c and a family of
    per-component selectors f_i mapping each measurement value to an
    outcome witnessed with it under c; each row is extended by every pair
    whose selectors reproduce its outcomes.
    """
    n = model.arity
    witnessed: dict = {}
    for row in model.team.rows:
        c = row[2 * n]
        for i in range(n):
            witnessed.setdefault((i, c), {}).setdefault(row[i], set()).add(row[n + i])

    lam_values = model.lambda_values()
    selector_tags: dict = {}
    for c in lam_values:
        per_component = []
        for i in range(n):
            options = witnessed[(i, c)]
            keys = sorted(options, key=value_key)
            choices = [sorted(options[k], key=value_key) for k in keys]
            per_component.append([tuple(zip(keys, pick)) for pick in product(*choices)])
        selector_tags[c] = [tuple(fs) for fs in product(*per_component)]

    def compatible(s):
        a, b = s.row[:n], s.row[n:]
        tags = [
            (c, f)
            for c in lam_values
            for f in selector_tags[c]
            if all(dict(f[i]).get(a[i]) == b[i] for i in range(n))
        ]
        assert tags, "lambda-independence guarantees a compatible selector"
        return tags

    empirical = induced_empirical(model).team
    return from_team(empirical.skolem_extend(LAMBDA_VAR, compatible), "hidden")


class TestLocalizeReference:
    def test_sections_match_selector_families(self):
        # three seeded witnesses for each arity, component size and number
        # of hidden values; the serialized models must agree byte for byte
        rng = random.Random(123)
        for arity, size, lams in product((1, 2, 3), (2, 3), (1, 2, 3)):
            for _ in range(3):
                witness = random_local_witness(rng, arity, size, lams)
                assert model_to_dict(localize_rel(witness)) == model_to_dict(
                    reference_localize_rel(witness)
                )


class TestRandomSweep:
    def test_constructors_on_random_models(self):
        rng = random.Random(83)
        for _ in range(30):
            rel = random_empirical_model(rng, arity=rng.randint(1, 3), component_size=rng.randint(1, 3))
            sv = construct_single_valued(rel)
            sd = construct_strong_det(rel)
            wd = construct_weakdet_lambdaindep(rel)
            assert check_property(sv, P.SING_VAL_H) and empirically_equivalent(rel, sv)
            assert check_property(sd, P.STRONG_DET_H) and empirically_equivalent(rel, sd)
            assert check_property(wd, P.WEAK_DET_H)
            assert check_property(wd, P.LAMBDA_INDEP_H)
            assert empirically_equivalent(rel, wd)

    def test_constructors_on_random_prob_models(self):
        rng = random.Random(89)
        for _ in range(20):
            pm = random_empirical_model(rng, arity=rng.randint(1, 2),
                                        component_size=2, probabilistic=True)
            for builder, props in (
                (construct_single_valued, (P.SING_VAL_H, P.LAMBDA_INDEP_H)),
                (construct_strong_det, (P.STRONG_DET_H,)),
                (construct_weakdet_lambdaindep, (P.WEAK_DET_H, P.LAMBDA_INDEP_H)),
            ):
                hv = builder(pm)
                for prop in props:
                    assert check_property(hv, prop), (builder.__name__, prop)
                assert empirically_equivalent(pm, hv)


def reference_weakdet_lambdaindep(model):
    """The LCM construction through the checked ``skolem_extend``: each
    block is a ``Fraction`` distribution to a ``ProbTeam`` and an image to
    a ``Team``, keyed and sorted again by the extension."""
    n = model.arity
    data = model.data
    masses = (data if model.probabilistic else ProbTeam.uniform(data)).masses(empirical_domain(n))
    contexts: dict = {}
    for z, mass in masses.items():
        contexts.setdefault(z[:n], {})[z[n:]] = mass
    blocks = _partition(contexts)
    dists = {key: dict.fromkeys(block, Fraction(1, len(block))) for key, block in blocks.items()}
    return from_team(data.skolem_extend(LAMBDA_VAR, lambda s: dists[(s.row[:n], s.row[n:])]), "hidden")


def reference_localize_prob(model):
    """Probabilistic localization through the checked ``skolem_extend``,
    with each new hidden value's ``Fraction`` probability given its row."""
    pt = model.prob_team
    n = model.arity
    empirical = induced_empirical(model).prob_team
    blocks = []
    for i in range(n):
        joint = pt.masses((pt.domain[i], pt.domain[n + i], LAMBDA_VAR))
        groups: dict = {}
        for a, b, c in sorted(joint, key=row_key):
            groups.setdefault((a, c), {})[b] = joint[(a, b, c)]
        blocks.append(_partition(groups))
    row_mass: dict = {}
    for row, mass in pt.numerators().items():
        row_mass.setdefault((row[:n], row[n : 2 * n]), {})[row[2 * n]] = mass

    def family(s):
        a, b = s.row[:n], s.row[n:]
        by_lambda = row_mass[(a, b)]
        total = sum(by_lambda.values())
        dist: dict = {}
        for c, mass in by_lambda.items():
            ranges = [blocks[i][((a[i], c), b[i])] for i in range(n)]
            share = Fraction(mass, total * prod(len(r) for r in ranges))
            for combo in product(*ranges):
                dist[(c, combo)] = share
        return dist

    return from_team(empirical.skolem_extend(LAMBDA_VAR, family), "hidden")


#: Sampled string values renamed to ints, so that a column mixes kinds.
TO_INTS = {"x1": 1, "x2": 2, "lam0": 0, "lam2": 2}


def mixed_kinds(model):
    """The model with the values of :data:`TO_INTS` renamed: a renaming
    keeps every property, and the ints and strings left in one column
    cannot be compared natively."""
    def rename(row):
        return tuple(TO_INTS.get(v, v) for v in row)

    data = model.data
    if model.probabilistic:
        weights = {rename(row): w for row, w in data.weights().items()}
        data = ProbTeam(Team(data.domain, weights), weights)
    else:
        data = Team(data.domain, map(rename, data.rows))
    return from_team(data, model.kind)


def assert_same_model(found, expected):
    assert found == expected
    assert found.team.universe == expected.team.universe
    if expected.probabilistic:
        assert found.prob_team.same_weights(expected.prob_team)
    team = found.team
    assert team == Team(team.domain, team.rows, team.universe)


class TestTrustedExtensionsMatchSkolemExtend:
    """The LCM construction and probabilistic localization hand int
    shares to ``ProbTeam._split``; their outputs equal the checked
    ``skolem_extend`` route's, rows, weights and universe."""

    @pytest.mark.parametrize("probabilistic", [True, False], ids=["prob", "rel"])
    @pytest.mark.parametrize("arity", [1, 2, 3])
    def test_lcm_construction(self, arity, probabilistic):
        rng = random.Random(1000 * arity + probabilistic)
        for _ in range(12):
            model = random_empirical_model(
                rng, arity=arity, component_size=rng.randint(2, 3), probabilistic=probabilistic
            )
            for variant in (model, mixed_kinds(model)):
                assert_same_model(
                    construct_weakdet_lambdaindep(variant), reference_weakdet_lambdaindep(variant)
                )

    @pytest.mark.parametrize("arity", [1, 2, 3])
    def test_probabilistic_localization(self, arity):
        rng = random.Random(2000 + arity)
        for _ in range(6):
            witness = random_local_witness(
                rng, arity, rng.randint(2, 3), rng.randint(1, 3), probabilistic=True
            )
            for variant in (witness, mixed_kinds(witness)):
                assert_same_model(localize_prob(variant), reference_localize_prob(variant))
