import random
from decimal import Decimal
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from teamlogic.errors import DomainError, InvalidArgumentError
from teamlogic.eval_rel import DEFAULT_BUDGET, _Evaluator, compile
from teamlogic.formulas import parse
from teamlogic.models import from_team
from teamlogic.sampling import random_prob_team, random_team
from teamlogic.teams import (
    Assignment,
    ProbTeam,
    Team,
    _canonical_sort,
    _plain,
    _sorted_values,
    row_key,
    value_key,
)


def team(rows, domain=("m1", "m2", "o1", "o2"), universe=None):
    return Team(domain, rows, universe)


EX22_ROWS = [("a1", "b1", "+", "+"), ("a1", "b1", "-", "-"),
             ("a2", "b1", "+", "-"), ("a2", "b1", "-", "+")]


class TestValuesOf:
    def test_single_column(self, ex22):
        assert ex22.team.values_of(("m2",)) == {("b1",)}

    def test_full_domain_is_identity(self, ex22):
        assert ex22.team.values_of(ex22.team.domain) == set(ex22.team.rows)

    def test_outcome_pairs(self, ex22):
        assert ex22.team.values_of(("o1", "o2")) == {
            ("+", "+"), ("-", "-"), ("+", "-"), ("-", "+")}

    def test_unknown_variable(self, ex22):
        with pytest.raises(DomainError):
            ex22.team.values_of(("nope",))


class TestRestrict:
    def test_measurement_projection(self, ex22):
        r = ex22.team.restrict(("m1", "m2"))
        assert set(r.rows) == {("a1", "b1"), ("a2", "b1")}

    def test_identity(self, ex22):
        assert ex22.team.restrict(ex22.team.domain) == ex22.team

    def test_loc6_projection_merges_duplicate_rows(self, loc6):
        # rows (a,c,0,1,lam1) and (a,c,0,1,lam2) collapse under projection
        r = loc6.team.restrict(("m1", "m2", "o1", "o2"))
        assert len(r.rows) == 5
        assert ("a", "c", 0, 1) in r

    def test_universe_unchanged(self):
        t = team(EX22_ROWS).add_values(["extra"])
        assert "extra" in t.restrict(("m1",)).universe


class TestGeneralize:
    def test_product_count(self):
        t = team([("a", "b", "+", "+"), ("a", "b", "-", "-")])
        assert len(t.generalize("l", ["x", "y", "z"])) == 6

    def test_singleton(self):
        t = team(EX22_ROWS)
        g = t.generalize("l", ["v"])
        assert len(g) == len(t) and g.domain[-1] == "l"

    def test_ex22_with_two_lambdas(self, ex22):
        assert len(ex22.team.generalize("l", ["l1", "l2"])) == 8

    def test_empty_values_rejected(self):
        with pytest.raises(InvalidArgumentError):
            team(EX22_ROWS).generalize("l", [])

    def test_rebinding_dedupes(self):
        t = Team(("x", "y"), [(0, 0), (0, 1)])
        g = t.generalize("y", [5])
        assert set(g.rows) == {(0, 5)}


class TestSkolemExtend:
    def test_constant_function(self):
        t = team(EX22_ROWS)
        e = t.skolem_extend("l", lambda s: ("c",))
        assert len(e) == 4 and e.values_of(("l",)) == {("c",)}

    def test_own_row_tagging_is_injective(self, ex22):
        e = ex22.team.skolem_extend("l", lambda s: (s.row,))
        lam = e.values_of(("l",))
        assert len(lam) == 4

    def test_full_universe_equals_generalize(self):
        t = team(EX22_ROWS)
        assert t.skolem_extend("l", lambda s: t.universe) == t.generalize("l", t.universe)

    def test_mapping_form_and_missing_row(self):
        t = Team(("x",), [(0,), (1,)])
        table = {Assignment(("x",), (0,)): [9], Assignment(("x",), (1,)): [8]}
        assert set(t.skolem_extend("y", table).rows) == {(0, 9), (1, 8)}
        del table[Assignment(("x",), (1,))]
        with pytest.raises(InvalidArgumentError):
            t.skolem_extend("y", table)

    def test_empty_image_rejected(self):
        with pytest.raises(InvalidArgumentError):
            team(EX22_ROWS).skolem_extend("l", lambda s: ())


class TestSupportProtocol:
    """A Team answers the ProbTeam protocol: it is its own support, and a
    one-entry map of weight 1 extends it as it extends the uniform
    distribution on it, by the map's one key."""

    def test_team_is_its_own_support(self, ex22):
        t = team(EX22_ROWS)
        assert t.support() is t
        assert ex22.team.support() is ex22.team

    @pytest.mark.parametrize("seed", range(4))
    def test_one_point_skolem_extension_agrees_with_uniform(self, seed):
        rng = random.Random(seed)
        functions = (
            lambda s: {"c": 1},
            lambda s: {s.row: 1},
            lambda s: {(s["x"] + s["z"]) % 3: Fraction(1)},
            lambda s: {("t", s["y"]): 1},
        )
        for _ in range(20):
            t = random_team(rng, ("x", "y", "z"), universe_size=3, max_rows=6)
            for var in ("y", "l"):
                for f in functions:
                    extended = t.skolem_extend(var, f)
                    assert extended == ProbTeam.uniform(t).skolem_extend(var, f).support()


class TestAddValues:
    def test_empty_union(self, ex22):
        assert ex22.team.add_values([]) == ex22.team

    def test_fresh_values_counted(self, ex22):
        t = ex22.team.add_values(["l1", "l2"])
        assert len(t.universe) == len(ex22.team.universe) + 2

    def test_rows_unchanged(self, ex22):
        assert ex22.team.add_values(["l1"]).rows == ex22.team.rows


class TestProbTeam:
    def test_uniform_support(self, ex22):
        pt = ProbTeam.uniform(ex22.team)
        assert pt.support() == ex22.team

    def test_pt1_support_has_seven_rows(self, pt1):
        assert len(pt1.support()) == 7

    def test_zero_weight_rejected(self):
        t = Team(("x",), [(0,), (1,)])
        with pytest.raises(InvalidArgumentError):
            ProbTeam(t, {(0,): Fraction(1), (1,): Fraction(0)})

    def test_sum_must_be_one(self):
        t = Team(("x",), [(0,), (1,)])
        with pytest.raises(InvalidArgumentError):
            ProbTeam(t, {(0,): Fraction(1, 2), (1,): Fraction(1, 3)})

    def test_missing_row_rejected(self):
        t = Team(("x",), [(0,), (1,)])
        with pytest.raises(InvalidArgumentError):
            ProbTeam(t, {(0,): Fraction(1)})


class TestProbRestrict:
    def test_identity(self, pt1):
        assert pt1.restrict(pt1.domain) == pt1

    def test_merged_weights_add(self):
        t = Team(("x", "y"), [(0, 0), (0, 1), (1, 0)])
        pt = ProbTeam(t, {(0, 0): Fraction(1, 3), (0, 1): Fraction(1, 6), (1, 0): Fraction(1, 2)})
        m = pt.restrict(("x",))
        assert m.weight((0,)) == Fraction(1, 2)

    def test_pt1_xy_marginal(self, pt1):
        assert pt1.restrict(("x", "y")).weight((0, 0)) == Fraction(7, 10)


class TestProbSkolemExtend:
    def test_point_mass_keeps_weights(self, pt1):
        e = pt1.skolem_extend("v", lambda s: {("c",): Fraction(1)})
        for row in pt1.team.rows:
            assert e.weight(row + (("c",),)) == pt1.weight(row)

    def test_marginalization_recovers_input(self, pt1):
        e = pt1.skolem_extend("v", lambda s: {0: Fraction(1, 3), 1: Fraction(2, 3)})
        assert e.restrict(pt1.domain) == pt1

    def test_split_weights(self):
        t = Team(("x",), [(0,), (1,)])
        pt = ProbTeam(t, {(0,): Fraction(1, 2), (1,): Fraction(1, 2)})
        e = pt.skolem_extend("y", lambda s: {"a": Fraction(1, 3), "b": Fraction(2, 3)})
        assert e.weight((0, "a")) == Fraction(1, 6)
        assert e.weight((0, "b")) == Fraction(1, 3)

    def test_non_normalized_rejected(self, pt1):
        with pytest.raises(InvalidArgumentError):
            pt1.skolem_extend("v", lambda s: {0: Fraction(1, 2)})

    def test_rebinding_merges_masses(self):
        t = Team(("x", "y"), [(0, 0), (0, 1), (1, 0)])
        pt = ProbTeam(t, {(0, 0): Fraction(1, 2), (0, 1): Fraction(1, 4), (1, 0): Fraction(1, 4)})
        e = pt.skolem_extend("y", lambda s: {"a": Fraction(1, 2), s["x"] + 5: Fraction(1, 2)})
        assert e.domain == ("x", "y")
        assert e.weights() == {
            (0, 5): Fraction(3, 8), (0, "a"): Fraction(3, 8),
            (1, 6): Fraction(1, 8), (1, "a"): Fraction(1, 8),
        }
        assert e.universe == (0, 1, 5, 6, "a")

    def test_mapping_family_and_missing_row(self):
        t = Team(("x",), [(0,), (1,)])
        pt = ProbTeam(t, {(0,): Fraction(1, 3), (1,): Fraction(2, 3)})
        family = {Assignment(("x",), (0,)): {"a": 1}, Assignment(("x",), (1,)): {"a": Fraction(1, 2), "b": Fraction(1, 2)}}
        e = pt.skolem_extend("y", family)
        assert e.weights() == {(0, "a"): Fraction(1, 3), (1, "a"): Fraction(1, 3), (1, "b"): Fraction(1, 3)}
        del family[Assignment(("x",), (1,))]
        with pytest.raises(InvalidArgumentError, match=r"Skolem family is undefined on row \(1,\)"):
            pt.skolem_extend("y", family)

    @pytest.mark.parametrize("pairs, message", [
        # merged by a dict, each of these was weight 1 on (0, 1)
        ([(1, Fraction(1, 2)), (True, Fraction(1))], "booleans are not valid team values"),
        ([(1, Fraction(1, 2)), (Fraction(1), Fraction(1))], r"value Fraction\(1, 1\) is given probabilities 1/2 and 1"),
        ([(1, Fraction(1, 2)), (1, 1)], "value 1 is given probabilities 1/2 and 1"),
    ])
    def test_pairs_are_keyed_before_they_merge(self, pairs, message):
        pt = ProbTeam.uniform(Team(("x",), [(0,)]))
        with pytest.raises(InvalidArgumentError, match=message):
            pt.skolem_extend("y", lambda s: pairs)

    def test_a_repeated_pair_counts_once(self):
        pt = ProbTeam.uniform(Team(("x",), [(0,)]))
        pairs = [(1, Fraction(1, 2)), (Fraction(1), Fraction(1, 2)), (2, Fraction(1, 2))]
        e = pt.skolem_extend("y", lambda s: pairs)
        assert e.weights() == {(0, 1): Fraction(1, 2), (0, 2): Fraction(1, 2)}
        assert type(e.team.rows[0][1]) is int

    def test_zero_mass_values_dropped(self):
        t = Team(("x",), [(0,)])
        pt = ProbTeam(t, {(0,): Fraction(1)})
        e = pt.skolem_extend("y", lambda s: {0: Fraction(1), 1: Fraction(0)})
        assert set(e.team.rows) == {(0, 0)}


class TestUniformExtend:
    def test_singleton_keeps_weights(self, pt1):
        e = pt1.uniform_extend("v", ["only"])
        assert e.weight(pt1.team.rows[0] + ("only",)) == pt1.weight(pt1.team.rows[0])

    def test_halving(self):
        t = Team(("x",), [(0,)])
        pt = ProbTeam(t, {(0,): Fraction(1)})
        e = pt.uniform_extend("y", [0, 1])
        assert e.weight((0, 0)) == Fraction(1, 2)

    def test_rebinding_merges_masses(self):
        t = Team(("x", "y"), [(0, 0), (0, 1), (1, 0)])
        pt = ProbTeam(t, {(0, 0): Fraction(1, 2), (0, 1): Fraction(1, 4), (1, 0): Fraction(1, 4)})
        e = pt.uniform_extend("y", ["v", "w"])
        assert e.domain == ("x", "y")
        assert e.weights() == {
            (0, "v"): Fraction(3, 8), (0, "w"): Fraction(3, 8),
            (1, "v"): Fraction(1, 8), (1, "w"): Fraction(1, 8),
        }

    def test_support_matches_generalize(self, pt1):
        e = pt1.uniform_extend("v", [0, 1, 2])
        assert e.support().rows == pt1.support().generalize("v", [0, 1, 2]).rows


class TestExactWeights:
    @pytest.mark.parametrize("weights", [
        {(0,): True},
        {(0,): 1.0},
        {(0,): Decimal(1)},
        {(0,): "1"},
        {(0,): Fraction(1, 2), (1,): 0.5},
        {(0,): 0.5, (1,): 0.5},
    ], ids=repr)
    def test_non_exact_weights_rejected(self, weights):
        t = Team(("x",), list(weights))
        with pytest.raises(InvalidArgumentError, match="int or a Fraction"):
            ProbTeam(t, weights)

    @pytest.mark.parametrize("dist", [
        {"a": True},
        {"a": 1.0},
        {"a": 0.25, "b": 0.75},
        {"a": Fraction(1, 4), "b": 0.75},
        {"a": Decimal("0.5"), "b": Fraction(1, 2)},
    ], ids=repr)
    def test_non_exact_probabilities_rejected(self, dist):
        pt = ProbTeam(Team(("x",), [(0,)]), {(0,): 1})
        with pytest.raises(InvalidArgumentError, match="int or a Fraction"):
            pt.skolem_extend("y", lambda s: dist)

    def test_int_weights_and_probabilities_accepted(self):
        pt = ProbTeam(Team(("x",), [(0,)]), {(0,): 1})
        e = pt.skolem_extend("y", lambda s: {"a": 1, "b": 0})
        assert e.weights() == {(0, "a"): Fraction(1)}


class TestCanonicalForm:
    """Equal distributions are equal ProbTeams with equal hashes, in lowest
    terms, whatever route built them."""

    def test_routes_agree(self):
        t = Team(("x",), [(0,), (1,), (2,)])
        direct = ProbTeam(t, {(0,): Fraction(1, 6), (1,): Fraction(1, 3), (2,): Fraction(1, 2)})
        unreduced_input = ProbTeam(
            t, {(2,): Fraction(3, 6), (1,): Fraction(4, 12), (0,): Fraction(1, 6)}
        )
        round_trip = direct.uniform_extend("y", [0, 1, 2]).restrict(("x",))
        skolem_round_trip = direct.skolem_extend(
            "y", lambda s: {0: Fraction(1, 7), 1: Fraction(2, 5), 2: Fraction(16, 35)}
        ).restrict(("x",))
        for pt in (unreduced_input, round_trip, skolem_round_trip):
            assert pt == direct and hash(pt) == hash(direct)
            assert (pt.denominator, pt.numerators()) == (6, {(0,): 1, (1,): 2, (2,): 3})

    def test_merged_masses_are_reduced(self):
        t = Team(("x", "y"), [(0, 0), (0, 1), (1, 0)])
        pt = ProbTeam(t, {(0, 0): Fraction(1, 4), (0, 1): Fraction(1, 4), (1, 0): Fraction(1, 2)})
        merged = pt.restrict(("x",))
        assert (merged.denominator, merged.numerators()) == (2, {(0,): 1, (1,): 1})
        uniform = ProbTeam.uniform(Team(("x",), [(0,), (1,)], universe=pt.universe))
        assert merged == uniform and hash(merged) == hash(uniform)

    def test_point_mass(self):
        t = Team(("x", "y"), [(0, 0), (0, 1)])
        pt = ProbTeam(t, {(0, 0): Fraction(1, 3), (0, 1): Fraction(2, 3)})
        point = pt.restrict(("x",))
        assert (point.denominator, point.numerators()) == (1, {(0,): 1})
        assert point.weights() == {(0,): Fraction(1)}


def test_masses_match_fraction_group_by():
    rng = random.Random(2718)
    for _ in range(300):
        pt = random_prob_team(
            rng, ("x", "y", "z"), universe_size=rng.choice((2, 3)), max_rows=6,
            denominator=rng.choice((6, 12, 120)),
        )
        assert gcd(pt.denominator, *pt.numerators().values()) == 1
        variables = tuple(rng.choice(pt.domain) for _ in range(rng.randint(0, 3)))
        expected: dict = {}
        for row, w in pt.weights().items():
            key = tuple(row[pt.domain.index(v)] for v in variables)
            expected[key] = expected.get(key, Fraction(0)) + w
        masses = pt.masses(variables)
        assert list(masses) == list(expected)
        assert {k: Fraction(n, pt.denominator) for k, n in masses.items()} == expected


# property-based invariants

rows_strategy = st.lists(
    st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2)),
    min_size=0, max_size=6,
)


@given(rows_strategy, st.permutations(["x", "y", "z"]))
def test_restrict_composition(rows, order):
    t = Team(("x", "y", "z"), rows)
    smaller = tuple(order[:2])
    assert t.restrict(order).restrict(smaller) == t.restrict(smaller)


@given(rows_strategy)
def test_restrict_idempotent(rows):
    t = Team(("x", "y", "z"), rows)
    once = t.restrict(("x", "y"))
    assert once.restrict(("x", "y")) == once


@given(rows_strategy)
@settings(max_examples=40)
def test_skolem_full_universe_equals_generalize(rows):
    t = Team(("x", "y", "z"), rows, universe=range(3))
    assert t.skolem_extend("w", lambda s: t.universe) == t.generalize("w", t.universe)


@given(st.integers(0, 10**6))
@settings(max_examples=40)
def test_prob_roundtrip_exact(seed):
    rng = random.Random(seed)
    from teamlogic.sampling import random_prob_team, random_team

    pt = random_prob_team(rng, ("x", "y"), universe_size=3, max_rows=5)
    dist = {0: Fraction(rng.randint(1, 3), 5)}
    dist[1] = 1 - dist[0]
    extended = pt.skolem_extend("z", lambda s: dist)
    assert extended.restrict(pt.domain) == pt
    assert sum(extended.weights().values(), Fraction(0)) == 1


def test_value_key_total_order():
    values = ["b", 3, ("x", 1), "a", 0, (0, 1, 0, 0), Fraction(1, 2)]
    ordered = sorted(values, key=value_key)
    assert ordered == sorted(ordered, key=value_key)
    assert ordered[0] == 0 and isinstance(ordered[-1], tuple)


def test_rows_canonically_sorted_regardless_of_input_order():
    a = Team(("x", "y"), [(1, 0), (0, 1), (0, 0)])
    b = Team(("x", "y"), [(0, 0), (0, 1), (1, 0)])
    assert a.rows == b.rows and a == b


def reference_value_key(value):
    """The canonical key as first written, an isinstance chain that boxes
    every number as a Fraction: the oracle for the fast key."""
    if isinstance(value, bool):
        raise InvalidArgumentError("booleans are not valid team values")
    if isinstance(value, (int, Fraction)):
        return ("n", Fraction(value))
    if isinstance(value, str):
        return ("s", value)
    if isinstance(value, tuple):
        return ("t", tuple(reference_value_key(v) for v in value))
    raise InvalidArgumentError(f"unsupported value type: {type(value).__name__}")


team_values = st.recursive(
    st.integers(-3, 3)
    | st.fractions(min_value=-2, max_value=2, max_denominator=3)
    | st.sampled_from(["", "a", "b", "ab"]),
    lambda inner: st.tuples(inner) | st.tuples(inner, inner) | st.tuples(inner, inner, inner),
    max_leaves=6,
)


@given(st.lists(team_values, max_size=8))
@settings(max_examples=300)
def test_value_key_agrees_with_reference(values):
    assert sorted(values, key=value_key) == sorted(values, key=reference_value_key)
    for a in values:
        for b in values:
            assert (value_key(a) == value_key(b)) == (reference_value_key(a) == reference_value_key(b))
            assert (value_key(a) < value_key(b)) == (reference_value_key(a) < reference_value_key(b))


@pytest.mark.parametrize("bad", [True, False, 1.0, None])
def test_value_key_rejects_bool_float_none_at_any_depth(bad):
    for value in (bad, (1, bad), ("a", (bad,))):
        with pytest.raises(InvalidArgumentError):
            value_key(value)
        with pytest.raises(InvalidArgumentError):
            Team(("x",), [(value,)])


@pytest.mark.parametrize("twin", [True, 1.0])
def test_team_rejects_value_equal_to_an_admitted_one(twin):
    # True == 1 and 1.0 == 1, so a duplicate row must still be validated
    with pytest.raises(InvalidArgumentError):
        Team(("x",), [(1,), (twin,)])
    with pytest.raises(InvalidArgumentError):
        Team(("x",), [(1,)], universe=[1, twin])


def test_int_and_str_subclass_values_order_like_their_bases():
    class Tag(str):
        pass

    class Count(int):
        pass

    values = [Tag("b"), Count(2), "a", 1, Count(0), Tag("a0"), (Count(1), Tag("z"))]
    plain = ["b", 2, "a", 1, 0, "a0", (1, "z")]
    assert [value_key(v) for v in values] == [value_key(v) for v in plain]
    t = Team(("x",), [(v,) for v in values])
    assert t.rows == Team(("x",), [(v,) for v in plain]).rows


MIXED_VALUES = [0, 2, -1, Fraction(1, 2), Fraction(-3, 4), "", "a", "b",
                (1, "a"), ((0,), Fraction(1, 3)), ("x", (2, ("y",)))]


@pytest.mark.parametrize("seed", range(4))
def test_sub_team_agrees_with_validated_team(seed):
    rng = random.Random(seed)
    dep = parse("dep(, x)")
    for _ in range(50):
        domain = ("x", "y", "z")[: rng.randint(1, 3)]
        rows = [tuple(rng.choice(MIXED_VALUES) for _ in domain) for _ in range(rng.randint(0, 8))]
        t = Team(domain, rows, [v for row in rows for v in row] + rng.sample(MIXED_VALUES, 2))
        picked = [row for row in t.rows if rng.random() < 0.5]
        sub = t._sub(picked)
        twin = Team(t.domain, picked, t.universe)
        assert sub == twin and twin == sub and hash(sub) == hash(twin)
        assert sub.rows == twin.rows == tuple(picked)
        assert sub.universe == twin.universe == t.universe
        assert len(sub) == len(twin) == len(picked)
        for row in t.rows:
            assert (row in sub) == (row in twin) == (row in picked)
        # a memo entry stored under either team is found under the other
        node = compile([dep], domain).roots[0]
        for first, second in ((sub, twin), (twin, sub)):
            evaluator = _Evaluator(DEFAULT_BUDGET)
            verdict = evaluator.memo_eval(first, node)
            assert evaluator.memo_eval(second, node) == verdict
            assert list(evaluator.memo) == [(node, first)]


# -- the native canonical sort against the keyed order -------------------------


class Tag(str):
    pass


class Count(int):
    pass


def reference_sort(values):
    """The distinct ``values`` sorted by the reference key."""
    return sorted(dict.fromkeys(values), key=reference_value_key)


def reference_rows(rows):
    return tuple(sorted(dict.fromkeys(rows), key=lambda row: tuple(map(reference_value_key, row))))


#: Values with ``Tag`` and ``Count`` leaves, at the top level or nested.
subclass_values = st.recursive(
    st.integers(-3, 3).map(Count) | st.sampled_from(["", "a", "b"]).map(Tag) | team_values,
    lambda inner: st.tuples(inner) | st.tuples(inner, inner),
    max_leaves=6,
)

#: Scalars of two kinds, so that a column mixes them at a deciding position.
mixed_scalars = st.integers(-2, 2) | st.sampled_from(["a", "b"]) | st.sampled_from(MIXED_VALUES[:4])


@given(st.lists(team_values | st.sampled_from(MIXED_VALUES), max_size=8))
@settings(max_examples=300)
def test_native_sort_agrees_with_reference(values):
    # every leaf is an exact str, int or Fraction: the native path applies
    expected = reference_sort(values)
    for got in (_canonical_sort(values, True), _sorted_values(values)):
        assert got == expected
        assert [typed(v) for v in got] == [typed(v) for v in expected]


@given(st.lists(st.tuples(team_values, team_values | st.sampled_from(MIXED_VALUES)), max_size=8))
@settings(max_examples=200)
def test_team_rows_agree_with_reference(rows):
    t = Team(("x", "y"), rows)
    assert t.rows == tuple(sorted(dict.fromkeys(rows), key=row_key)) == reference_rows(rows)
    assert t.universe == tuple(reference_sort(v for row in rows for v in row))


@given(st.lists(st.tuples(mixed_scalars, mixed_scalars), min_size=2, max_size=8))
@settings(max_examples=200)
def test_mixed_kind_columns_fall_back_to_the_key(rows):
    t = Team(("x", "y"), rows, universe=[v for row in rows for v in row] + ["c", 3])
    assert t.rows == reference_rows(rows)
    assert t.universe == tuple(reference_sort([v for row in rows for v in row] + ["c", 3]))


def test_a_mixed_kind_column_is_sorted_by_key():
    rows = [(1, 0), ("a", 0), (0, "b"), ("b", 1), (Fraction(1, 2), "a")]
    with pytest.raises(TypeError):
        sorted(rows)
    t = Team(("x", "y"), rows)
    assert t.rows == ((0, "b"), (Fraction(1, 2), "a"), (1, 0), ("a", 0), ("b", 1))
    assert t.universe == (0, Fraction(1, 2), 1, "a", "b")


@given(st.lists(st.tuples(subclass_values, subclass_values), max_size=6))
@settings(max_examples=200)
def test_subclass_values_take_the_keyed_order(rows):
    t = Team(("x", "y"), rows)
    assert t.rows == reference_rows(rows)
    values = [v for row in rows for v in row]
    assert _sorted_values(values) == reference_sort(values)


def test_only_exact_scalars_are_plain():
    assert _plain(["a", 0, Fraction(1, 2)])
    for value in (Tag("a"), Count(1), (1,), True, 1.0, None):
        assert not _plain(["a", value])


def test_tuples_are_keyed_so_nested_twins_are_refused():
    with pytest.raises(InvalidArgumentError):
        Team(("x",), [((1,),), ((True,),)])
    with pytest.raises(InvalidArgumentError):
        Team(("x",), [((1,),)], universe=[(1,), (True,)])


# -- the stored fast paths against the validated constructor -------------------

#: ``Fraction(2)`` and ``Fraction(0)`` equal the ints beside them: a row or
#: universe holds whichever it met first, and both routes must keep that one.
TWIN_VALUES = MIXED_VALUES + [Fraction(2), Fraction(0)]


def typed(value):
    """``value`` with the type of each member spelled out, so that ``2`` and
    ``Fraction(2)`` differ."""
    if type(value) is tuple:
        return tuple(map(typed, value))
    return (type(value).__name__, value)


def assert_same_team(fast, ref, probes):
    assert fast == ref and ref == fast and hash(fast) == hash(ref)
    assert typed(fast.rows) == typed(ref.rows)
    assert typed(fast.universe) == typed(ref.universe)
    for row in (*ref.rows, *probes):
        assert (row in fast) == (row in ref)


def assert_same_prob(fast, ref, probes):
    assert_same_team(fast.team, ref.team, probes)
    assert fast == ref and hash(fast) == hash(ref)
    assert fast.denominator == ref.denominator
    assert list(fast.numerators().items()) == list(ref.numerators().items())


def bound_domain(domain, var):
    return domain if var in domain else domain + (var,)


def put_row(domain, var, row, value):
    """``row`` over ``domain`` with ``var`` bound to ``value``: rebound in
    place, or appended."""
    if var not in domain:
        return row + (value,)
    pos = domain.index(var)
    return row[:pos] + (value,) + row[pos + 1:]


def reference_extend(t, var, images):
    """The validated team of ``t`` with row i bound to each value of
    ``images[i]``, built as a set and sorted by ``Team``."""
    rows, universe = set(), set(t.universe)
    for row, image in zip(t.rows, images):
        for v in image:
            rows.add(put_row(t.domain, var, row, v))
            universe.add(v)
    return Team(bound_domain(t.domain, var), rows, universe)


def reference_prob_extend(p, var, dists):
    """The checked probabilistic team of ``p`` with row i's weight split
    over ``dists[i]``, a value -> ``Fraction`` map, summed in ``Fraction``s."""
    domain = bound_domain(p.domain, var)
    column = domain.index(var)
    out = {}
    for row, dist in zip(p.rows, dists):
        for v, q in dist.items():
            if q:
                new = put_row(p.domain, var, row, v)
                out[new] = out.get(new, 0) + p.weight(row) * q
    universe = set(p.universe) | {row[column] for row in out}
    return ProbTeam(Team(domain, out, universe), out)


def reference_marginal(p, variables):
    pos = [p.domain.index(v) for v in variables]
    out = {}
    for row, w in p.weights().items():
        key = tuple(row[i] for i in pos)
        out[key] = out.get(key, 0) + w
    return ProbTeam(Team(variables, out, p.universe), out)


def random_values(rng, low=1):
    """A few values, out of canonical order, with repeats and int twins."""
    return [rng.choice(TWIN_VALUES) for _ in range(rng.randint(low, 5))]


def random_dist(rng):
    """A distribution as (value, probability) pairs, out of canonical order,
    with a zero entry, an exact repeat or an int's ``Fraction`` twin."""
    values = list(dict.fromkeys(random_values(rng)))
    weights = [rng.randint(0, 3) for _ in values]
    if not any(weights):
        weights[0] = 1
    pairs = [(v, Fraction(w, sum(weights))) for v, w in zip(values, weights)]
    v, q = rng.choice(pairs)
    pairs.append((Fraction(v) if type(v) is int else v, q))
    rng.shuffle(pairs)
    return pairs


@pytest.mark.parametrize("seed", range(4))
def test_fast_paths_agree_with_validated_team(seed):
    rng = random.Random(seed)
    for _ in range(500):
        domain = ("x", "y", "z")[: rng.randint(0, 3)]
        rows = [tuple(rng.choice(TWIN_VALUES) for _ in domain) for _ in range(rng.randint(0, 6))]
        t = Team(domain, rows, [*rng.sample(TWIN_VALUES, 2), *(v for row in rows for v in row)])
        probes = [tuple(rng.choice(TWIN_VALUES) for _ in range(k)) for k in range(5)]
        var = rng.choice(("x", "y", "z", "w"))

        values = random_values(rng)
        assert_same_team(t.generalize(var, values), reference_extend(t, var, [values] * len(t)), probes)
        images = {row: random_values(rng) for row in t.rows}
        expected = reference_extend(t, var, list(images.values()))
        assert_same_team(t.skolem_extend(var, lambda a: images[a.row]), expected, probes)
        table = {Assignment(t.domain, row): image for row, image in images.items()}
        assert_same_team(t.skolem_extend(var, table), expected, probes)

        k = rng.randint(0, len(domain))
        for variables in (domain[:k], tuple(rng.sample(domain, k))):
            projected = {tuple(row[domain.index(v)] for v in variables) for row in t.rows}
            assert_same_team(t.restrict(variables), Team(variables, projected, t.universe), probes)
        extra = random_values(rng, low=0)
        assert_same_team(t.add_values(extra), Team(domain, t.rows, (*t.universe, *extra)), probes)

        if not t.rows:
            continue
        p = ProbTeam(t, {row: Fraction(w, 4 * len(t)) for row, w in zip(t.rows, [3, 5] * len(t))}
                     if len(t) % 2 == 0 else {row: Fraction(1, len(t)) for row in t.rows})
        dists = {row: random_dist(rng) for row in t.rows}
        expected = reference_prob_extend(p, var, [dict(d) for d in dists.values()])
        assert_same_prob(p.skolem_extend(var, lambda a: dists[a.row]), expected, probes)
        table = {Assignment(t.domain, row): dict(d) for row, d in dists.items()}
        assert_same_prob(p.skolem_extend(var, table), expected, probes)
        uniform = dict.fromkeys(values, Fraction(1, len(set(values))))
        expected = reference_prob_extend(p, var, [uniform] * len(t))
        assert_same_prob(p.uniform_extend(var, values), expected, probes)
        assert_same_prob(p.generalize(var, values), expected, probes)
        for variables in (domain[:k], tuple(rng.sample(domain, k))):
            assert_same_prob(p.restrict(variables), reference_marginal(p, variables), probes)


@pytest.mark.parametrize("seed", range(2))
def test_narrowed_model_agrees_with_validated_team(seed):
    rng = random.Random(seed)
    for _ in range(200):
        rows = [(rng.choice(TWIN_VALUES), rng.choice(TWIN_VALUES)) for _ in range(rng.randint(1, 6))]
        t = Team(("m1", "o1"), rows, [*rng.sample(TWIN_VALUES, 3), *(v for row in rows for v in row)])
        narrowed = set(t.universe) != {v for row in t.rows for v in row}
        model = from_team(t, "empirical")
        assert_same_team(model.data, Team(t.domain, t.rows) if narrowed else t, [(0, 0), ("a", 2)])
        assert bool(model.warnings) == narrowed


def test_rebound_column_comes_out_sorted():
    t = Team(("x", "y"), [(0, "b"), (1, "a"), (2, "c")])
    for rebound in (t.generalize("x", ["z", 5]), t.skolem_extend("x", lambda a: [a["y"], 9 - a.row[0]])):
        assert list(rebound.rows) == sorted(rebound.rows, key=lambda row: tuple(map(value_key, row)))
    p = ProbTeam.uniform(t).skolem_extend("x", lambda a: {(3, a["y"]): Fraction(1, 2), -a.row[0]: Fraction(1, 2)})
    assert p.rows == ((-2, "c"), (-1, "a"), (0, "b"), ((3, "a"), "a"), ((3, "b"), "b"), ((3, "c"), "c"))


class TestFastPathValidation:
    """The stored paths skip keying the rows, never checking the values
    that a caller hands in."""

    T = Team(("x",), [(0,), (1,)])

    @pytest.mark.parametrize("bad", [[True], [1, True], [True, 1], [0, 1.0], [1.5], [(0, False)]])
    def test_bool_or_float_in_an_image_raises(self, bad):
        for extend in (
            lambda: self.T.skolem_extend("y", lambda a: bad),
            lambda: self.T.skolem_extend("x", lambda a: bad),
            lambda: self.T.generalize("y", bad),
            lambda: ProbTeam.uniform(self.T).uniform_extend("y", bad),
            lambda: self.T.add_values(bad),
        ):
            with pytest.raises(InvalidArgumentError):
                extend()

    @pytest.mark.parametrize("bad", [True, 1.0, (0, True)])
    def test_bool_or_float_in_a_distribution_raises(self, bad):
        with pytest.raises(InvalidArgumentError):
            ProbTeam.uniform(self.T).skolem_extend("y", lambda a: {bad: 1})

    def test_weights_must_cover_a_stored_team(self):
        whole = Team(("x",), [(0,), (1,), (2,)])
        for t in (whole._sub(whole.rows[:2]), whole.restrict(("x",)), self.T.generalize("y", [5])):
            share = Fraction(1, len(t))
            with pytest.raises(InvalidArgumentError, match="cover exactly"):
                ProbTeam(t, {t.rows[0]: 1})
            with pytest.raises(InvalidArgumentError, match="cover exactly"):
                ProbTeam(t, {**dict.fromkeys(t.rows, share), (7,) * len(t.domain): 0})
            assert ProbTeam(t, dict.fromkeys(t.rows, share)).rows == t.rows

    def test_unhashed_sub_team_answers_membership(self):
        whole = Team(("x", "y"), [(i, j) for i in range(3) for j in range(3)])
        sub = whole._sub(whole.rows[2:5])
        assert [row in sub for row in whole.rows] == [False, False, True, True, True, False, False, False, False]
        assert [0, 2] in sub and (2, 2) not in sub
