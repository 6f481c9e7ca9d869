"""Differential test: the optimized relational evaluator against a naive
reference that implements the satisfaction clauses literally.

The reference enumerates every covering pair of subteams for disjunction
and every set-valued Skolem function for the existential quantifier, with
no flatness shortcuts, no downward-closure reductions and no component
decomposition.  Agreement over random teams and random formulas spanning
all atom kinds and connectives exercises exactly the machinery the
optimized evaluator is allowed to be clever about.

The row-mask part checks plans compiled over an assignment space, which
decide ``dep`` and ``_||_`` on each sub-team of the space by an OR of
row masks, against the same formulas compiled without a space, which run
the batch kernels.

The probabilistic part checks the exact-marginal readers (the
independence atom, ``cond_prob`` and ``marginal``) against probabilities
summed by plain comprehension over the weight table, with conditional
independence tested by division rather than in cleared form.  A naive
probabilistic evaluator for atoms, conjunction and the universal
quantifier, which splits weights by its own arithmetic, is checked
against ``eval_prob`` and against compiled plans run on probabilistic
teams.
"""

import importlib
import random
from fractions import Fraction
from functools import reduce
from itertools import combinations, product

import pytest

from teamlogic.datasets import load_bundled
from teamlogic.entailment import (
    IMPLICATIONS,
    PHI1,
    PSI1,
    _formula_of,
    _property_columns,
    assignment_space,
    enumerate_teams,
)
from teamlogic.errors import ZeroProbabilityError
from teamlogic.eval_prob import CondProbQuery, cond_prob, eval_prob, marginal
from teamlogic.eval_rel import compile, eval_rel
from teamlogic.formulas import (
    NC,
    NCC,
    And,
    Const,
    Dep,
    Eq,
    Exists,
    Forall,
    GenDep,
    Incl,
    Indep,
    Neq,
    Or,
    Var,
    disjoin,
    free_vars,
    is_downward_closed,
    parse,
    print_formula,
)
from teamlogic.masks import MASK_BITS
from teamlogic.properties import PropertyName, property_formula
from teamlogic.sampling import random_prob_team
from teamlogic.teams import ProbTeam, Team


def _tarski(row, domain, literal):
    def term(t):
        return row[domain.index(t.name)] if isinstance(t, Var) else t.value

    if isinstance(literal, Eq):
        return term(literal.lhs) == term(literal.rhs)
    return term(literal.lhs) != term(literal.rhs)


def naive_eval(team: Team, f) -> bool:
    domain, rows = team.domain, team.rows
    if isinstance(f, (Eq, Neq)):
        return all(_tarski(r, domain, f) for r in rows)
    if isinstance(f, Dep):
        xp = team.positions(f.xs)
        yp = team.positions(f.ys)
        return all(
            tuple(s[i] for i in yp) == tuple(t[i] for i in yp)
            for s in rows for t in rows
            if tuple(s[i] for i in xp) == tuple(t[i] for i in xp)
        )
    if isinstance(f, GenDep):
        p1, p2 = team.positions(f.x1), team.positions(f.x2)
        q1, q2 = team.positions(f.y1), team.positions(f.y2)
        return all(
            tuple(s[i] for i in q1) == tuple(t[i] for i in q2)
            for s in rows for t in rows
            if tuple(s[i] for i in p1) == tuple(t[i] for i in p2)
        )
    if isinstance(f, Indep):
        xp, zp, yp = team.positions(f.xs), team.positions(f.cond), team.positions(f.ys)
        for s in rows:
            for t in rows:
                if tuple(s[i] for i in zp) != tuple(t[i] for i in zp):
                    continue
                want_x = tuple(s[i] for i in xp)
                want_y = tuple(t[i] for i in yp)
                want_z = tuple(s[i] for i in zp)
                if not any(
                    tuple(u[i] for i in xp) == want_x
                    and tuple(u[i] for i in yp) == want_y
                    and tuple(u[i] for i in zp) == want_z
                    for u in rows
                ):
                    return False
        return True
    if isinstance(f, Incl):
        return team.values_of(f.xs) <= team.values_of(f.ys)
    if isinstance(f, NC):
        xp = team.positions(f.xs)
        (yp,) = team.positions((f.y,))
        return all(
            s[yp] == t[yp]
            for s in rows for t in rows
            if t[yp] in {s[i] for i in xp}
        )
    if isinstance(f, NCC):
        xp = team.positions(f.xs)
        options = [sorted({r[i] for i in xp}, key=repr) for r in rows]
        for picks in product(*options):
            chosen = dict(zip(rows, picks))
            if all(
                chosen[s] == chosen[t]
                for s in rows for t in rows
                if chosen[t] in {s[i] for i in xp}
            ):
                return True
        return not rows
    if isinstance(f, And):
        return all(naive_eval(team, part) for part in f.parts)
    if isinstance(f, Or):
        # a chain splits as its first part | the rest, folded binary
        first, rest = f.parts[0], disjoin(f.parts[1:])
        if not rows:
            return True
        n = len(rows)
        for lmask in range(1 << n):
            left = Team(domain, (rows[i] for i in range(n) if lmask >> i & 1), team.universe)
            if not naive_eval(left, first):
                continue
            need = ((1 << n) - 1) & ~lmask
            for rmask in range(1 << n):
                if rmask & need != need:
                    continue
                right = Team(domain, (rows[i] for i in range(n) if rmask >> i & 1), team.universe)
                if naive_eval(right, rest):
                    return True
        return False
    if isinstance(f, Forall):
        if not rows:
            return True
        return naive_eval(team.generalize(f.var, team.universe), f.body)
    if isinstance(f, Exists):
        if not rows:
            return True
        values = team.universe
        images = [c for size in range(1, len(values) + 1)
                  for c in combinations(values, size)]
        for choice in product(images, repeat=len(rows)):
            extended = team.skolem_extend(
                f.var,
                {s: img for s, img in
                 zip(team.assignments(), choice)},
            )
            if naive_eval(extended, f.body):
                return True
        return False
    raise AssertionError(f"unhandled node {f!r}")


VARS = ("x", "y", "z")


def random_formula(rng, depth, quantifiers_left=1, names=VARS):
    pick = rng.random()
    if depth == 0 or pick < 0.45:
        kind = rng.randrange(8)
        xs = tuple(rng.sample(names, rng.randint(1, 2)))
        ys = tuple(rng.sample(names, rng.randint(1, 2)))
        if kind == 0:
            return Eq(Var(rng.choice(names)), Const(rng.randint(0, 1)))
        if kind == 1:
            return Neq(Var(rng.choice(names)), Var(rng.choice(names)))
        if kind == 2:
            return Dep(xs, ys)
        if kind == 3:
            return Indep(xs, tuple(rng.sample(names, rng.randint(0, 1))), ys)
        if kind == 4:
            k = rng.randint(1, 2)
            return Incl(tuple(rng.sample(names, k)), tuple(rng.sample(names, k)))
        if kind == 5:
            return GenDep(
                (rng.choice(names),), (rng.choice(names),),
                (rng.choice(names),), (rng.choice(names),),
            )
        if kind == 6:
            return NC(xs, rng.choice(names))
        return NCC(xs)
    if pick < 0.65:
        return And(random_formula(rng, depth - 1, quantifiers_left, names),
                   random_formula(rng, depth - 1, 0, names))
    if pick < 0.85 or not quantifiers_left:
        return Or(random_formula(rng, depth - 1, 0, names),
                  random_formula(rng, depth - 1, 0, names))
    var = f"q{rng.randint(1, 2)}"
    body_vars = rng.random() < 0.5
    body = random_formula(rng, depth - 1, quantifiers_left - 1, names)
    if body_vars:
        body = And(body, Dep((var,), (rng.choice(names),)))
    return Exists(var, body) if rng.random() < 0.7 else Forall(var, body)


def test_differential_random_formulas():
    rng = random.Random(424242)
    space = list(product((0, 1), repeat=3))
    agreements = 0
    for round_ in range(350):
        rows = rng.sample(space, rng.randint(0, 3))
        team = Team(VARS, rows, universe=(0, 1))
        f = random_formula(rng, depth=2)
        expected = naive_eval(team, f)
        actual = eval_rel(team, f)
        assert actual == expected, (rows, print_formula(f))
        agreements += 1
    assert agreements == 350


def test_differential_quantifier_heavy():
    rng = random.Random(777)
    space = list(product((0, 1), repeat=2))
    for round_ in range(120):
        rows = rng.sample(space, rng.randint(1, 3))
        team = Team(("x", "y"), rows, universe=(0, 1))
        inner = random_formula(rng, depth=0, names=("x", "y"))
        shell = rng.randrange(3)
        if shell == 0:
            f = Exists("q1", Or(inner, Dep(("q1",), ("x",))))
        elif shell == 1:
            f = Exists("q1", Exists("q2", And(inner, Dep(("q1", "x"), ("q2",)))))
        else:
            f = Forall("q1", Or(Dep(("q1",), ("x",)), inner))
        assert eval_rel(team, f) == naive_eval(team, f), (rows, print_formula(f))


def test_closed_flags_are_downward_closure(monkeypatch):
    # compile reads each node's flag off its operand nodes; it must agree
    # with the syntactic test on every node built, over random formulas
    # and every property formula
    module = importlib.import_module("teamlogic.eval_rel")
    build, built = module._build, []

    def spy(*args):
        built.append(build(*args))
        return built[-1]

    monkeypatch.setattr(module, "_build", spy)
    rng = random.Random(424242)
    corpus = [random_formula(rng, depth, quantifiers_left=2) for depth in (2, 4) for _ in range(150)]
    corpus += [property_formula(p, n) for p in PropertyName for n in (1, 2, 3)]
    for f in corpus:
        compile([f], sorted(free_vars(f)))
    assert {node.closed for node in built} == {True, False}
    for node in built:
        assert node.closed is is_downward_closed(node.formula), print_formula(node.formula)


def test_differential_rebinding():
    rng = random.Random(31337)
    space = list(product((0, 1), repeat=2))
    for round_ in range(80):
        rows = rng.sample(space, rng.randint(1, 3))
        team = Team(("x", "y"), rows, universe=(0, 1))
        inner = random_formula(rng, depth=1, quantifiers_left=0, names=("x", "y"))
        if isinstance(inner, (Exists, Forall)):
            inner = random_formula(rng, depth=0, names=("x", "y"))
        f = Exists("x", inner)  # re-quantifies a bound column
        assert eval_rel(team, f) == naive_eval(team, f), (rows, print_formula(f))


def test_differential_same_variable_exists():
    # E q . E q . φ is E q . φ: one node, and the naive clauses, which
    # quantify twice, agree; also where q re-quantifies a bound column
    rng = random.Random(2718)
    space = list(product((0, 1), repeat=2))
    for round_ in range(30):
        rows = rng.sample(space, rng.randint(1, 3))
        team = Team(("x", "y"), rows, universe=(0, 1))
        for var, names in (("q1", ("x", "y", "q1")), ("x", ("x", "y"))):
            inner = random_formula(rng, depth=1, quantifiers_left=0, names=names)
            once, twice = Exists(var, inner), Exists(var, Exists(var, inner))
            plan = compile([once, twice, Exists(var, twice)], team.domain)
            assert plan.roots[0] is plan.roots[1] is plan.roots[2]
            assert eval_rel(team, twice) == naive_eval(team, twice), (rows, print_formula(twice))


def test_differential_shared_plans():
    # the formulas of one plan are built from a small pool, so they share
    # subformulas; verdicts are asked for in a random order, and each is
    # decided as its lone eval_rel is, whatever was asked before it
    rng = random.Random(8086)
    space = list(product((0, 1), repeat=3))
    for round_ in range(60):
        pool = [random_formula(rng, depth=1) for _ in range(4)]
        formulas = [
            rng.choice((And, Or))(rng.choice(pool), rng.choice(pool)) for _ in range(5)
        ] + pool
        plan = compile(formulas, VARS)
        for _ in range(4):
            team = Team(VARS, rng.sample(space, rng.randint(0, 3)), universe=(0, 1))
            verdict = plan.run(team)
            order = list(range(len(formulas)))
            rng.shuffle(order)
            for i in order:
                expected = naive_eval(team, formulas[i])
                assert verdict(i) == eval_rel(team, formulas[i]) == expected, (
                    team.rows, print_formula(formulas[i]))


#: Atoms with empty variable tuples: the constancy atom, unconditional
#: and one-sided independence, and the vacuous cases of each atom kind.
EMPTY_TUPLE_ATOMS = (
    Dep((), ("x",)),
    Dep((), ("x", "y")),
    Dep((), ()),
    Indep(("x",), (), ("y",)),
    Indep((), ("z",), ("y",)),
    Indep(("x",), ("z",), ()),
    Indep((), (), ()),
    Incl((), ()),
    GenDep((), (), ("x",), ("y",)),
    GenDep(("x",), ("y",), (), ()),
    NC((), "x"),
    NCC(()),
    Exists("q1", And(Dep((), ("q1",)), Incl(("q1",), ("x",)))),
)

#: Atoms that repeat a variable, within one tuple or across tuples.
REPEATED_VARIABLE_ATOMS = (
    Dep(("x", "x"), ("y",)),
    Dep(("x",), ("x", "y", "x")),
    Indep(("x",), ("x",), ("y",)),
    Indep(("x",), (), ("x",)),
    Indep(("x", "y"), ("z", "z"), ("y", "x")),
    Incl(("x", "y"), ("y", "x")),
    Incl(("x", "x"), ("y", "z")),
    GenDep(("x", "x"), ("y", "y"), ("z",), ("z",)),
    NC(("x", "x"), "x"),
    NC(("x", "y", "x"), "y"),
    NCC(("x", "x")),
    NCC(("x", "y", "x")),
    Exists("q1", And(Incl(("q1", "q1"), ("x", "y")), Dep(("q1", "q1"), ("z",)))),
)


@pytest.mark.parametrize(
    "atom", EMPTY_TUPLE_ATOMS + REPEATED_VARIABLE_ATOMS, ids=print_formula
)
def test_differential_degenerate_atoms(atom):
    space = list(product((0, 1), repeat=3))
    for count in range(4):
        for rows in combinations(space, count):
            team = Team(VARS, rows, universe=(0, 1))
            assert eval_rel(team, atom) == naive_eval(team, atom), rows


@pytest.mark.parametrize(
    "atom",
    [a for a in EMPTY_TUPLE_ATOMS + REPEATED_VARIABLE_ATOMS if isinstance(a, (GenDep, NC))],
    ids=print_formula,
)
def test_differential_degenerate_atoms_in_search(atom):
    # the same atom as a conjunct under an existential, so that the
    # search's incremental constraint decides it
    formula = Exists("q1", And(atom, Dep((), ("q1",))))
    space = list(product((0, 1), repeat=3))
    for count in range(4):
        for rows in combinations(space, count):
            team = Team(VARS, rows, universe=(0, 1))
            assert eval_rel(team, formula) == naive_eval(team, formula), rows


#: Disjunctions of each shape the split search orients: a flat side
#: (left or right) beside a downward-closed or a non-closed side, one
#: downward-closed side (left or right), both closed, and neither closed.
SPLIT_SHAPES = (
    Or(Eq(Var("x"), Const(0)), Dep(("y",), ("z",))),
    Or(Neq(Var("x"), Var("y")), Incl(("x",), ("z",))),
    Or(Dep((), ("x",)), Eq(Var("y"), Const(1))),
    Or(Indep(("x",), (), ("y",)), And(Neq(Var("x"), Var("z")), Eq(Var("y"), Const(0)))),
    Or(And(Dep(("x",), ("y",)), Dep((), ("z",))), Indep(("x",), (), ("y",))),
    Or(Incl(("x",), ("y",)), Dep((), ("z",))),
    Or(Dep((), ("x",)), Dep(("y",), ("z",))),
    Or(Indep(("x",), (), ("y",)), Incl(("x",), ("y",))),
    Or(Incl(("x",), ("y",)), Incl(("y",), ("x",))),
    Or(And(Incl(("y",), ("z",)), Dep(("x",), ("z",))), Indep(("x",), ("z",), ("y",))),
)


@pytest.mark.parametrize("formula", SPLIT_SHAPES, ids=print_formula)
def test_differential_split_shapes(formula):
    # teams of up to 5 rows, so that a cover may add up to 4 of the left
    # side's rows to the right side; few teams need an overlapping cover
    # at all, so there are many
    rng = random.Random(print_formula(formula))
    space = list(product((0, 1, 2), repeat=3))
    verdicts = set()
    for count in [1] + [2, 3, 4, 5] * 30:
        team = Team(VARS, rng.sample(space, count), universe=(0, 1, 2))
        verdict = eval_rel(team, formula)
        assert verdict == naive_eval(team, formula), team.rows
        verdicts.add(verdict)
    assert verdicts == {True, False}


#: Disjuncts for chains: flat ones, downward-closed ones and ones that are
#: not closed, so that a chain's flat disjuncts, wherever they stand, make
#: its one flat part, and its search meets each kind of later part.
CHAIN_POOL = tuple(map(parse, (
    "x = 0", "y != z", "x = 1 & z != 2",
    "dep(x, y)", "dep(, z)", "ncc(x y)", "A q . dep(x q, y)", "E q . dep(x, q) & q != y",
    "x _||_ y", "z <= x", "y _||_{x} z", "E q . q <= y & q != x",
)))


def test_differential_long_chains():
    # the reference folds a chain binary in parse order, independently of
    # the order in which the evaluator takes its parts
    rng = random.Random(3535)
    space = list(product((0, 1, 2), repeat=3))
    verdicts = set()
    for _ in range(300):
        formula = Or(*(rng.choice(CHAIN_POOL) for _ in range(rng.randint(3, 5))))
        team = Team(VARS, rng.sample(space, rng.randint(0, 4)), universe=(0, 1, 2))
        verdict = eval_rel(team, formula)
        assert verdict == naive_eval(team, formula), (team.rows, print_formula(formula))
        verdicts.add(verdict)
    assert verdicts == {True, False}


#: Splits of a part that is not closed, or of a closed one, beside a
#: closed part, all three masked: the benchmark's split query and a
#: split of two dependences.  Each is (left part, right part, domain).
MASKED_PAIRS = (
    ("o1 _||_{m1} m2", "dep(m1,o1) & dep(m2,o2)", ("m1", "m2", "o1", "o2")),
    ("dep(x, y)", "dep(y, z)", VARS),
)


def partition_split(team, left, right) -> bool:
    """Whether some set of ``team``'s rows satisfies ``left`` and the other
    rows satisfy ``right``, each decided by ``eval_rel`` on a team built
    from its rows: the split, when ``right`` is downward closed."""
    rows, domain, universe = team.rows, team.domain, team.universe
    for mask in range(1 << len(rows)):
        picked = [row for i, row in enumerate(rows) if mask >> i & 1]
        rest = [row for i, row in enumerate(rows) if not mask >> i & 1]
        if eval_rel(Team(domain, picked, universe), left) and eval_rel(Team(domain, rest, universe), right):
            return True
    return False


@pytest.mark.parametrize("left, right, domain", MASKED_PAIRS, ids=[f"{r} | {l}" for l, r, _ in MASKED_PAIRS])
def test_masked_splits_agree_with_every_partition(left, right, domain):
    # 9 to 12 rows, so that a sub-team's mask spans two 8-row chunks of
    # the split team's rows
    formula = parse(f"({right}) | ({left})")
    rng = random.Random(left + right)
    space = list(product((0, 1, 2), repeat=len(domain)))
    verdicts = set()
    for count in [9, 10, 11, 12] * 3:
        team = Team(domain, rng.sample(space, count), universe=(0, 1, 2))
        verdict = eval_rel(team, formula)
        assert verdict == partition_split(team, parse(left), parse(right)), team.rows
        verdicts.add(verdict)
    assert verdicts == {True, False}


#: Chains with three or four masked parts, alone or beside a flat part,
#: an inclusion and other closed parts, and masked splits under ``A q``;
#: each with the verdicts it takes on the teams of the test below.  The
#: first chain of each kind holds on every team of up to 5 rows.
MASKED_CHAINS = (
    ("dep(x, y) | dep(y, z) | x _||_ z", {True}),
    ("dep(, x) & dep(, y) | dep(, y) & dep(, z) | dep(, x) & dep(, z)", {True, False}),
    ("x = 0 | x _||_ y | z <= x | dep(x, z)", {True}),
    ("x = 0 & y = 0 | x _||_ y & dep(, z) | z <= x & dep(, y) | dep(, x z)", {True, False}),
    ("A q . (dep(x q, y) | x _||_ q)", {True}),
    ("A q . (dep(x, q) | y _||_ z)", {True, False}),
)


@pytest.mark.parametrize("text, expected", MASKED_CHAINS, ids=[text for text, _ in MASKED_CHAINS])
def test_differential_masked_chains(text, expected):
    # teams of up to 5 rows; under A q over two values, the split team
    # has twice as many
    formula = parse(text)
    values = (0, 1) if isinstance(formula, Forall) else (0, 1, 2)
    rng = random.Random(text)
    space = list(product(values, repeat=3))
    verdicts = set()
    for count in [1] + [2, 3, 4, 5] * 8:
        team = Team(VARS, rng.sample(space, count), universe=values)
        verdict = eval_rel(team, formula)
        assert verdict == naive_eval(team, formula), team.rows
        verdicts.add(verdict)
    assert verdicts == expected


#: Values whose one-column projection is itself a tuple, beside bare
#: values, so a one-column key and a one-tuple key would collide.
MIXED_VALUES = ((0,), (0, 1), "a", 0)

#: Atoms over single columns, plus existentials whose inclusion filter
#: has a single column and drives the choice of the quantified value.
SINGLE_COLUMN_FORMULAS = (
    Dep(("x",), ("y",)),
    Dep(("y",), ("x",)),
    Indep(("x",), (), ("y",)),
    Indep(("x",), ("z",), ("y",)),
    Incl(("x",), ("y",)),
    Incl(("y",), ("z",)),
    Incl(("x", "y"), ("y", "x")),
    GenDep(("x",), ("y",), ("z",), ("z",)),
    NC(("x",), "y"),
    NC(("x", "y"), "z"),
    NCC(("x", "y")),
    Eq(Var("x"), Const((0,))),
    Neq(Var("x"), Var("y")),
    Exists("q1", And(Incl(("q1",), ("x",)), Dep(("y",), ("q1",)))),
    Exists("q1", And(Incl(("q1",), ("y",)), Indep(("q1",), (), ("x",)))),
    Exists("q1", And(Incl(("q1", "x"), ("y", "x")), Dep(("q1",), ("z",)))),
)


@pytest.mark.parametrize("formula", SINGLE_COLUMN_FORMULAS, ids=repr)
def test_differential_tuple_valued_single_columns(formula):
    rng = random.Random(repr(formula))
    space = list(product(MIXED_VALUES, repeat=3))
    for _ in range(40):
        team = Team(VARS, rng.sample(space, rng.randint(1, 3)), universe=MIXED_VALUES)
        assert eval_rel(team, formula) == naive_eval(team, formula), team.rows


#: Constants of every admissible value type, which a generated predicate
#: must take as values, not as source: strings that would end, escape or
#: break a quoted literal or inject code, ints past a machine word, a
#: Fraction and one equal to the int 2, and nested tuples.
GENERATED_CONSTANTS = (
    'say "a"', "back\\slash", "two\nlines", '") or True or ("', -3, 2**70,
    Fraction(1, 2), Fraction(2, 1), 2, ((0, "a"), ()), (("\\",), 2**70),
)

#: The team values: Fraction(2, 1) is the int 2 in a team.
GENERATED_VALUES = tuple(v for v in GENERATED_CONSTANTS if type(v) is not Fraction or v.denominator != 1)


def random_classical(rng, depth, names):
    if depth == 0 or rng.random() < 0.3:
        lhs = Var(rng.choice(names))
        rhs = Var(rng.choice(names)) if rng.random() < 0.25 else Const(rng.choice(GENERATED_CONSTANTS))
        if rng.random() < 0.5:
            lhs, rhs = rhs, lhs
        return (Eq if rng.random() < 0.5 else Neq)(lhs, rhs)
    parts = [random_classical(rng, depth - 1, names) for _ in range(rng.randint(2, 3))]
    return (And if rng.random() < 0.5 else Or)(*parts)


def flat_holds(row, domain, f) -> bool:
    """A classical formula on one row, by the Tarski clauses."""
    if isinstance(f, (Eq, Neq)):
        return _tarski(row, domain, f)
    return (all if isinstance(f, And) else any)(flat_holds(row, domain, part) for part in f.parts)


def naive_block(team, f) -> bool:
    """``naive_eval`` of ``E q . ψ`` for a conjunction ``ψ`` of inclusions
    and classical formulas, whose splits over an extension's many rows
    are too many to enumerate: it decides the classical conjuncts row by
    row, as the other shells check against ``naive_eval``."""
    values = team.universe
    images = [c for size in range(1, len(values) + 1) for c in combinations(values, size)]
    for choice in product(images, repeat=len(team.rows)):
        ext = team.skolem_extend(f.var, dict(zip(team.assignments(), choice)))
        if all(
            naive_eval(ext, part) if isinstance(part, Incl) else all(flat_holds(r, ext.domain, part) for r in ext.rows)
            for part in f.body.parts
        ):
            return True
    return False


def _block_shell(second):
    def shell(rng):
        return Exists("q", And(random_classical(rng, 2, VARS + ("q",)), Incl(("q",), ("x",)), second))

    return shell


#: Where a classical formula is decided, with its oracle: alone and as a
#: split's flat part, also one made of two classical disjuncts; and as the row
#: test of an existential block, beside an inclusion that sources the
#: candidates and one tested per candidate, which reads the block or not.
GENERATED_SHELLS = (
    (lambda rng: random_classical(rng, 2, VARS), naive_eval),
    (lambda rng: Or(random_classical(rng, 2, VARS), Dep(("x",), ("y",))), naive_eval),
    (lambda rng: Or(Dep(("y",), ("z",)), random_classical(rng, 1, VARS), random_classical(rng, 1, VARS)), naive_eval),
    (_block_shell(Incl(("z",), ("y",))), naive_block),
    (_block_shell(Incl(("q",), ("z",))), naive_block),
)


@pytest.mark.parametrize("shell", range(len(GENERATED_SHELLS)))
def test_differential_generated_predicates(shell):
    build, oracle = GENERATED_SHELLS[shell]
    rng = random.Random(shell)
    verdicts = set()
    for _ in range(60):
        values = rng.sample(GENERATED_VALUES, 3)
        rows = [tuple(rng.choice(values) for _ in VARS) for _ in range(rng.randint(1, 3))]
        team = Team(VARS, rows, universe=values)
        formula = build(rng)
        verdict = eval_rel(team, formula)
        assert verdict == oracle(team, formula), (rows, print_formula(formula))
        verdicts.add(verdict)
    assert verdicts == {True, False}


#: Existential blocks, each with the variables that its search tries in
#: value-precedence order: closed blocks whose variables occur only in
#: ``dep`` and ``_||_`` atoms, also under ``|``, ``A`` and a nested ``E``
#: that binds them again; then blocks where no pruning may happen, because
#: the variable meets ``=``, ``!=``, a constant, ``<=``, ``ncc``, ``nc`` or
#: generalized dependence, or because ``_||_`` or ``<=`` leaves the block
#: non-closed (its choices are value sets).  Last, a block over a bound
#: column: it runs fresh on the team without that column, so its variable
#: is value-symmetric like any other.
PRECEDENCE_BLOCKS = (
    ("E l . dep(x, l) & dep(y l, z)", ("l",)),
    ("E l . dep(x, l) & dep(l, y) & (dep(l, z) | dep(z, y))", ("l",)),
    ("E l . dep(x, l) & A w . dep(w l, y)", ("l",)),
    ("E l . dep(y, l) & dep(l, z) & E l . l = x & dep(l y, z)", ("l",)),
    ("E l . E k . dep(x, l) & dep(y, k) & dep(l k, z)", ("l", "k")),
    ("E l . E k . dep(x, l) & dep(l, y) & dep(y, k) & (dep(l, z) | dep(k, z))", ("l", "k")),
    ("E l . E k . dep(x, l) & dep(y, k) & A w . dep(w l k, z)", ("l", "k")),
    ("E l . E k . dep(x, l) & dep(l, k) & k = y", ("l",)),
    ("E l . dep(x, l) & l _||_ y", ()),
    ("E l . E k . dep(x, l) & dep(y, k) & l _||_ k", ()),
    ("E l . dep(x, l) & l = y", ()),
    ("E l . dep(x, l) & l != y", ()),
    ("E l . dep(x, l) & (l = 1 | z = 0) & (l = 0 | y = 0)", ()),
    ("E l . dep(x, l) & l != 0", ()),
    ("E l . dep(x, l) & dep(l, y) & l <= z", ()),
    ("E l . dep(y, l) & ncc(x l) & dep(l, z)", ()),
    ("E l . dep(x, l) & nc(l; y)", ()),
    ("E l . dep(x, l) & nc(y l; z)", ()),
    ("E l . dep(x, l) & dep((l; x), (y; y))", ()),
    ("E l . dep(x, l) & dep((y; l), (z; z))", ()),
    ("E l . dep(x, l) & dep((x; y), (l; z))", ()),
    ("E x . dep(y, x) & dep(x, z)", ("x",)),
)


def _root_block(formula):
    """The search block of ``formula``'s root over ``VARS``, read through
    the node that drops a bound column its quantifier binds."""
    node = compile([formula], VARS).roots[0]
    return (node.body or node).block


@pytest.mark.parametrize("text, symmetric", PRECEDENCE_BLOCKS, ids=[t for t, _ in PRECEDENCE_BLOCKS])
def test_value_precedence_flags(text, symmetric):
    block = _root_block(parse(text))
    assert tuple(block.ext_domain[p] for p in block.symmetric) == symmetric


@pytest.mark.parametrize("text", [t for t, _ in PRECEDENCE_BLOCKS])
def test_value_precedence_agrees_with_naive(text):
    # teams of at most 3 rows over 2 and 3 values; a block of two
    # variables over 2 values only, and fewer, which keeps the naive
    # search small
    formula = parse(text)
    one = len(_root_block(formula).variables) == 1
    rng = random.Random(text)
    for universe in ((0, 1), (0, 1, 2)) if one else ((0, 1),):
        space = list(product(universe, repeat=3))
        for _ in range(30 if one else 12):
            team = Team(VARS, rng.sample(space, rng.randint(1, 3)), universe=universe)
            assert eval_rel(team, formula) == naive_eval(team, formula), team.rows


#: Existential blocks whose choices come from an inclusion whose left
#: side reads every block variable: beside columns outside the block,
#: with a block variable repeated, with an outside column repeated, over
#: two block variables (also with a flat conjunct), with two covering
#: inclusions of one column, over a bound column, and with a
#: one-column left side and a flat conjunct.
CANDIDATE_TABLE_BLOCKS = (
    "E q . x q <= y z",
    "E q . q q <= x y",
    "E q . x x q <= y z x",
    "E q . E r . q r <= x y & dep(q, r)",
    "E q . E r . q r <= x y & dep(q, r) & r != z",
    "E q . q <= x & q <= y & dep(x, q)",
    "E x . x <= y & dep(x, z)",
    "E q . q <= z & q != x",
)


@pytest.mark.parametrize("text", CANDIDATE_TABLE_BLOCKS)
def test_candidate_tables_agree_with_naive(text):
    formula = parse(text)
    one = len(_root_block(formula).variables) == 1
    rng = random.Random(text)
    for universe in ((0, 1), (0, 1, 2)) if one else ((0, 1),):
        space = list(product(universe, repeat=3))
        for _ in range(30 if one else 12):
            team = Team(VARS, rng.sample(space, rng.randint(1, 3)), universe=universe)
            assert eval_rel(team, formula) == naive_eval(team, formula), team.rows


def _masked_and_batch(formulas, space):
    """The formulas compiled over ``space``, with its row masks, and
    compiled without a space."""
    masked = compile(formulas, space.domain, space)
    assert masked.masks is not None
    return masked, compile(formulas, space.domain)


def _agree(masked, batch, team, count):
    """The verdicts of both plans on ``team``, which must agree."""
    mine, theirs = masked.run(team), batch.run(team)
    verdicts = [mine(i) for i in range(count)]
    assert verdicts == [theirs(i) for i in range(count)], team.rows
    return verdicts


@pytest.mark.parametrize("suite", ["entailments", "separations"])
def test_masks_agree_on_every_sweep_team(suite):
    # every team of the default sweep, with every formula the sweep asks
    if suite == "entailments":
        columns, max_rows = _property_columns(2, 2), 4
        # the five implications and the dropped-conjunct non-implication
        pairs = [(lhs, rhs) for _, lhs, rhs in IMPLICATIONS]
        pairs.append(((PropertyName.PAR_INDEP_H,), (PropertyName.NO_SIG_E,)))
        formulas = [_formula_of(side, 2) for pair in pairs for side in pair]
    else:
        columns, max_rows = [(v, [0, 1]) for v in ("x", "y", "z", "w")], 7
        formulas = [PSI1, PHI1]
    masked, batch = _masked_and_batch(formulas, assignment_space(columns))
    teams, verdicts = 0, set()
    for team in enumerate_teams(columns, max_rows):
        verdicts.update(_agree(masked, batch, team, len(formulas)))
        teams += 1
    assert teams == {"entailments": 41_448, "separations": 26_332}[suite]
    assert verdicts == {True, False}


#: Column values of mixed kinds: ints, strings, fractions and tuples,
#: with a one-tuple beside the bare value it holds.
MIXED_COLUMN_VALUES = (0, 1, "a", Fraction(1, 2), (0,), (0, "a"))


def test_masks_agree_on_random_subteams_of_mixed_spaces():
    rng = random.Random(9091)
    verdicts = set()
    for _ in range(40):
        columns = [(v, rng.sample(MIXED_COLUMN_VALUES, rng.randint(1, 4))) for v in VARS]
        space = assignment_space(columns)
        # quantifier-free: the search tests below quantify
        formulas = [random_formula(rng, depth=2, quantifiers_left=0) for _ in range(4)] + [
            Dep(("x",), ("y",)), Indep(("x",), ("z",), ("y",)),
        ]
        masked, batch = _masked_and_batch(formulas, space)
        for _ in range(12):
            count = rng.randint(0, min(5, len(space.rows)))
            picked = sorted(rng.sample(range(len(space.rows)), count))
            rows = [space.rows[i] for i in picked]
            # a sub-team, and the same rows validated as a new team
            for team in (space._sub(rows), Team(VARS, rows, space.universe)):
                got = _agree(masked, batch, team, len(formulas))
                assert got == [naive_eval(team, f) for f in formulas], team.rows
                verdicts.update(got)
    assert verdicts == {True, False}


@pytest.mark.parametrize(
    "atom",
    [a for a in EMPTY_TUPLE_ATOMS + REPEATED_VARIABLE_ATOMS if isinstance(a, (Dep, Indep))],
    ids=print_formula,
)
def test_masks_agree_on_degenerate_atoms(atom):
    # every team of up to 3 rows, the empty team among them
    columns = [(v, [0, 1]) for v in VARS]
    masked, batch = _masked_and_batch([atom], assignment_space(columns))
    teams = list(enumerate_teams(columns, 3, nonempty=False))
    assert not teams[0].rows
    for team in teams:
        assert _agree(masked, batch, team, 1) == [naive_eval(team, atom)], team.rows


def test_combined_tests_agree_on_conjunctions():
    # every conjunction of 1 to 4 distinct atoms, drawn from the degenerate
    # dep and _||_ atoms and seeded random ones, is decided by one test on
    # the masks; on every team of up to 3 rows, the empty team among them
    rng = random.Random(1818)
    atoms = [a for a in EMPTY_TUPLE_ATOMS + REPEATED_VARIABLE_ATOMS if isinstance(a, (Dep, Indep))]
    for atom in iter(lambda: random_formula(rng, depth=0), None):
        if isinstance(atom, (Dep, Indep)) and atom not in atoms:
            atoms.append(atom)
            if len(atoms) == 15:
                break
    picks = [picked for k in range(1, 5) for picked in combinations(atoms, k)]
    conjunctions = [reduce(And, picked) for picked in picks]
    columns = [(v, [0, 1]) for v in VARS]
    masked, batch = _masked_and_batch(conjunctions, assignment_space(columns))
    assert set(masked.roots) <= masked.tests.keys()
    teams = list(enumerate_teams(columns, 3, nonempty=False))
    assert not teams[0].rows
    verdicts = set()
    for team in teams:
        got = _agree(masked, batch, team, len(conjunctions))
        # a team satisfies a conjunction when it satisfies every conjunct
        naive = {atom: naive_eval(team, atom) for atom in atoms}
        assert got == [all(naive[atom] for atom in picked) for picked in picks], team.rows
        verdicts.update(got)
    assert verdicts == {True, False}


#: Splits and existentials, which no test of the plan's masks decides: a
#: split decides its masked parts by masks over its own team's rows, and
#: the other atoms run the batch kernels, on the whole team and on
#: sub-teams and extensions.  The last formula is a masked root, whose
#: atoms are the only ones the plan's masks hold.
SEARCH_FORMULAS = SPLIT_SHAPES + tuple(parse(text) for text in (
    "dep(x, y) & (x _||_{z} y | dep(z, x))",
    "E q . dep(x, q) & x _||_ y",
    "E q . (x _||_{z} q | dep(q, y)) & dep(x, y)",
    "A q . dep(x q, y) | x _||_ y",
    "E x . dep(x, y) & x _||_ z",
    "dep(x, y) & x _||_{z} y",
))


def test_masks_agree_under_splits_and_quantifiers():
    rng = random.Random(4040)
    space = assignment_space([(v, [0, 1, 2]) for v in VARS])
    masked, batch = _masked_and_batch(SEARCH_FORMULAS, space)
    assert list(masked.tests) == [masked.roots[-1]]
    verdicts = set()
    for count in [0, 1] + [2, 3, 4] * 25:
        team = space._sub(sorted(rng.sample(space.rows, count)))
        verdicts.update(_agree(masked, batch, team, len(SEARCH_FORMULAS)))
    assert verdicts == {True, False}


def test_masks_over_the_bit_cap_are_not_built():
    # dep(x, y) & x _||_ y over an n-by-n space: n key and n * n pair
    # classes, and three fields of the 1 * n * n grid, in each of n * n rows
    formulas = [parse("dep(x, y) & x _||_ y"), parse("dep(x, y)"), parse("x _||_ y")]
    n = next(n for n in range(1, 100) if n * n * (n + 4 * n * n) > MASK_BITS)
    rng = random.Random(n)
    for size, built in ((n - 1, True), (n, False)):
        space = assignment_space([(v, list(range(size))) for v in ("x", "y")])
        masked, batch = compile(formulas, space.domain, space), compile(formulas, space.domain)
        assert (masked.masks is not None) == built
        verdicts = set()
        for _ in range(20):
            a, b = sorted(rng.sample(range(size), 2))
            for rows in ([(a, b)], [(a, a), (b, b)], [(a, a), (a, b), (b, b)],
                         [(a, a), (a, b), (b, a), (b, b)]):
                verdicts.update(_agree(masked, batch, space._sub(rows), len(formulas)))
        assert verdicts == {True, False}


def test_masks_leave_probabilistic_teams_stochastic():
    # pt1's support lies in the space, yet the plan decides _||_ on pt1
    # by its weights, where PSI1 holds and PHI1 does not
    pt1 = load_bundled("pt1")
    space = assignment_space([(v, list(pt1.universe)) for v in pt1.domain])
    plan = compile([PSI1, PHI1], pt1.domain, space)
    assert plan.masks is not None and plan.masks.of(pt1.support()) is not None
    verdict = plan.run(pt1)
    assert [verdict(0), verdict(1)] == [eval_prob(pt1, PSI1), eval_prob(pt1, PHI1)] == [True, False]
    relational = plan.run(pt1.support())
    assert [relational(0), relational(1)] == [True, True]


def naive_prob(pt: ProbTeam, variables, values) -> Fraction:
    """P(variables = values), summed over the rows that match it."""
    domain = pt.domain
    return sum(
        (w for row, w in pt.weights().items()
         if tuple(row[domain.index(v)] for v in variables) == tuple(values)),
        Fraction(0),
    )


def naive_indep(pt: ProbTeam, xs, cond, ys) -> bool:
    """P(x, y | z) == P(x | z) * P(y | z) for every occurring z and every
    occurring x and y value tuple."""
    domain = pt.domain

    def occurring(variables):
        return {tuple(row[domain.index(v)] for v in variables) for row in pt.team.rows}

    for z in occurring(cond):
        pz = naive_prob(pt, cond, z)
        for x in occurring(xs):
            px = naive_prob(pt, cond + xs, z + x) / pz
            for y in occurring(ys):
                py = naive_prob(pt, cond + ys, z + y) / pz
                if naive_prob(pt, cond + xs + ys, z + x + y) / pz != px * py:
                    return False
    return True


def _random_names(rng, low, high):
    # drawn with replacement, so names repeat within and across tuples
    return tuple(rng.choice(VARS) for _ in range(rng.randint(low, high)))


def _random_prob_team(rng) -> ProbTeam:
    """A seeded random team, or a product of one over x and one over
    (y, z), where x _||_ (y, z) holds, so both verdicts occur."""
    if rng.random() < 0.6:
        return random_prob_team(rng, VARS, universe_size=rng.choice((2, 3)), max_rows=6)
    left = random_prob_team(rng, ("x",), universe_size=2, max_rows=2)
    right = random_prob_team(rng, ("y", "z"), universe_size=2, max_rows=3)
    weights = {
        a + b: wa * wb
        for a, wa in left.weights().items()
        for b, wb in right.weights().items()
    }
    return ProbTeam(Team(VARS, weights.keys()), weights)


def test_differential_prob_indep():
    rng = random.Random(5150)
    verdicts = []
    for _ in range(400):
        pt = _random_prob_team(rng)
        xs, cond, ys = _random_names(rng, 1, 2), _random_names(rng, 0, 2), _random_names(rng, 1, 2)
        expected = naive_indep(pt, xs, cond, ys)
        assert eval_prob(pt, Indep(xs, cond, ys)) == expected, (pt.weights(), xs, cond, ys)
        verdicts.append(expected)
    assert 40 <= sum(verdicts) <= 360


def test_differential_cond_prob_and_marginal():
    rng = random.Random(6160)
    zero_conditions = 0
    for _ in range(400):
        pt = _random_prob_team(rng)
        event, cond = _random_names(rng, 1, 2), _random_names(rng, 0, 2)
        ev_vals = tuple(rng.randrange(3) for _ in event)
        cond_vals = tuple(rng.randrange(3) for _ in cond)
        assert marginal(pt, event, ev_vals) == naive_prob(pt, event, ev_vals)
        query = CondProbQuery(event, ev_vals, cond, cond_vals)
        pz = naive_prob(pt, cond, cond_vals)
        if pz == 0:
            zero_conditions += 1
            with pytest.raises(ZeroProbabilityError):
                cond_prob(pt, query)
        else:
            assert cond_prob(pt, query) == naive_prob(pt, cond + event, cond_vals + ev_vals) / pz
    assert 0 < zero_conditions < 400


def naive_prob_eval(pt: ProbTeam, f) -> bool:
    """The probabilistic clauses for atoms, ``&`` and ``A``: ``_||_`` by
    division, ``dep`` by conditional probabilities 0 or 1, the other
    atoms on the support, and ``A`` by splitting each row's weight into
    equal shares, one per value of the universe."""
    if isinstance(f, Indep):
        return naive_indep(pt, f.xs, f.cond, f.ys)
    if isinstance(f, Dep):
        domain = pt.domain
        for row in pt.team.rows:
            x = tuple(row[domain.index(v)] for v in f.xs)
            y = tuple(row[domain.index(v)] for v in f.ys)
            if naive_prob(pt, f.xs + f.ys, x + y) != naive_prob(pt, f.xs, x):
                return False
        return True
    if isinstance(f, And):
        return all(naive_prob_eval(pt, part) for part in f.parts)
    if isinstance(f, Forall):
        domain, values = pt.domain, pt.universe
        if f.var in domain:
            pos = domain.index(f.var)
            extended = domain
        else:
            pos = len(domain)
            extended = domain + (f.var,)
        weights: dict = {}
        for row, w in pt.weights().items():
            for v in values:
                new = row[:pos] + (v,) + row[pos + 1 :]
                weights[new] = weights.get(new, 0) + w / len(values)
        return naive_prob_eval(ProbTeam(Team(extended, weights, values), weights), f.body)
    return naive_eval(pt.support(), f)


def random_prob_formula(rng, depth, names=VARS):
    """Atoms and literals joined by ``&`` and ``A``; a quantified variable
    is fresh or rebinds a column, and its body may mention it."""
    pick = rng.random()
    if depth == 0 or pick < 0.4:
        return random_formula(rng, 0, names=names)
    if pick < 0.7:
        return And(random_prob_formula(rng, depth - 1, names),
                   random_prob_formula(rng, depth - 1, names))
    var = rng.choice(("q1", "q2", "x"))
    inner = names if var in names else names + (var,)
    body = random_prob_formula(rng, depth - 1, inner)
    if rng.random() < 0.5:
        body = And(body, Indep((var,), (), (rng.choice(names),)))
    return Forall(var, body)


def test_differential_prob_fragment():
    rng = random.Random(2718)
    verdicts = []
    for _ in range(60):
        formulas = [random_prob_formula(rng, depth=2) for _ in range(4)]
        plan = compile(formulas, VARS)
        for _ in range(3):
            pt = random_prob_team(rng, VARS, universe_size=2, max_rows=4)
            verdict = plan.run(pt)
            order = list(range(len(formulas)))
            rng.shuffle(order)
            for i in order:
                expected = naive_prob_eval(pt, formulas[i])
                assert verdict(i) == eval_prob(pt, formulas[i]) == expected, (
                    pt.weights(), print_formula(formulas[i]))
                verdicts.append(expected)
    assert 0.2 < sum(verdicts) / len(verdicts) < 0.8
