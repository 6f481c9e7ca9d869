import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from teamlogic.errors import InvalidArgumentError, ParseError
from teamlogic.formulas import (
    MAX_NESTING,
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
    free_vars,
    gendep_defining_formula,
    is_downward_closed,
    nc_defining_formula,
    parse,
    print_formula,
)
from teamlogic.teams import Team


class TestParse:
    def test_dep(self):
        assert parse("dep(m1 m2, o1 o2)") == Dep(("m1", "m2"), ("o1", "o2"))

    def test_constancy(self):
        assert parse("dep(, l)") == Dep((), ("l",))

    def test_conditional_independence(self):
        assert parse("o1 _||_{m1} m2") == Indep(("o1",), ("m1",), ("m2",))

    def test_simple_independence(self):
        assert parse("m1 m2 _||_ l") == Indep(("m1", "m2"), (), ("l",))

    def test_quantifier_scope_is_greedy(self):
        f = parse("E l . dep(m1 l, o1) & dep(m2 l, o2)")
        assert f == Exists("l", And(Dep(("m1", "l"), ("o1",)), Dep(("m2", "l"), ("o2",))))

    def test_inclusion(self):
        assert parse("m1 v1 <= m1 o1") == Incl(("m1", "v1"), ("m1", "o1"))

    def test_gendep(self):
        assert parse("dep((m1; m2), (v1; v2))") == GenDep(("m1",), ("m2",), ("v1",), ("v2",))

    def test_nc_and_ncc(self):
        assert parse("nc(x1 x2; y)") == NC(("x1", "x2"), "y")
        assert parse("ncc(m1 m2 m3 m4)") == NCC(("m1", "m2", "m3", "m4"))

    def test_literals(self):
        assert parse('x = "a"') == Eq(Var("x"), Const("a"))
        assert parse("x != 0") == Neq(Var("x"), Const(0))
        assert parse('"0" = x') == Eq(Const("0"), Var("x"))

    def test_precedence(self):
        f = parse("x = 0 & y = 1 | z = 2")
        assert isinstance(f, Or) and isinstance(f.parts[0], And)

    def test_parenthesized_quantifier(self):
        f = parse("(E x . x = 0) & y = 1")
        assert isinstance(f, And) and isinstance(f.parts[0], Exists)

    def test_forall(self):
        assert parse("A x . dep(x, y)") == Forall("x", Dep(("x",), ("y",)))

    def test_syntax_error_position(self):
        with pytest.raises(ParseError) as err:
            parse("dep(m1,")
        assert err.value.line == 1 and err.value.column >= 7

    def test_arity_mismatch_rejected(self):
        with pytest.raises(ParseError):
            parse("x y <= z")

    def test_gendep_arity_mismatch(self):
        with pytest.raises(ParseError):
            parse("dep((a; b c), (d; e))")

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse("dep(x, y) dep(y, z)")

    def test_deep_parentheses(self):
        assert parse("(" * 150 + "x = y" + ")" * 150) == Eq(Var("x"), Var("y"))
        with pytest.raises(ParseError, match="nested too deeply"):
            parse("(" * 400 + "x = y" + ")" * 400)

    def test_nesting_error_is_one_column_from_any_stack(self):
        # the parser counts its own nesting, so neither the caller's stack
        # nor the process it runs in moves the error
        deep = "(" * 400 + "x = y" + ")" * 400
        expected = f"formula nested too deeply to parse (line 1, column {MAX_NESTING + 1})"

        def message(frames):
            if frames:
                return message(frames - 1)
            with pytest.raises(ParseError) as info:
                parse(deep)
            return str(info.value)

        assert message(0) == message(200) == expected
        proc = subprocess.run(
            [sys.executable, "-m", "teamlogic.cli", "eval", "--team", "builtin:rt2", "--formula", deep],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2 and proc.stderr == f"error[parse-error]: {expected}\n"
        with pytest.raises(ParseError, match=f"column {6 * MAX_NESTING + 1}\\)"):
            parse("E a . " * (MAX_NESTING + 1) + "x = y")

    def test_nesting_limit_parses_from_a_deep_caller(self):
        at_limit = "(" * MAX_NESTING + "x = y" + ")" * MAX_NESTING

        def parse_from(frames):
            return parse_from(frames - 1) if frames else parse(at_limit)

        assert parse_from(200) == Eq(Var("x"), Var("y"))

    def test_indep_needs_no_spaces(self):
        assert parse("x_||_{z}y") == parse("x _||_{z} y") == Indep(("x",), ("z",), ("y",))
        assert parse("dep(x,y)&x_||_y") == parse("dep(x, y) & x _||_ y")
        # an underscore that does not begin _||_ stays in the name
        assert parse("x_1 = y") == Eq(Var("x_1"), Var("y"))
        assert parse("a_b <= c") == Incl(("a_b",), ("c",))
        assert parse("x_ _||_ y") == Indep(("x_",), (), ("y",))


class TestFreeVars:
    def test_atom(self):
        assert free_vars(Dep(("m1", "l"), ("o1",))) == {"m1", "l", "o1"}

    def test_binding(self):
        assert free_vars(Exists("l", Dep(("m1", "l"), ("o1",)))) == {"m1", "o1"}

    def test_ncc(self):
        assert free_vars(NCC(("m1", "m2", "m3", "m4"))) == {"m1", "m2", "m3", "m4"}

    def test_literal_constants_have_no_vars(self):
        assert free_vars(parse('x = "a"')) == {"x"}


class TestClassify:
    def test_strongdet_is_fo_dep(self):
        from teamlogic.properties import PropertyName, property_formula

        assert is_downward_closed(property_formula(PropertyName.STRONG_DET_H, 3))

    def test_noncontext_is_not_downward_closed(self):
        from teamlogic.properties import PropertyName, property_formula

        assert not is_downward_closed(property_formula(PropertyName.NON_CONTEXT_E, 2))

    def test_bare_literal(self):
        assert is_downward_closed(parse("x = y"))

    def test_defining_formulas_are_fo_dep(self):
        g = gendep_defining_formula(GenDep(("x1",), ("x2",), ("y1",), ("y2",)))
        n = nc_defining_formula(NC(("x1", "x2"), "y"))
        assert is_downward_closed(g) and is_downward_closed(n)

    @pytest.mark.parametrize("text, closed", [
        ("dep(x, y) | E z . A w . ncc(x z w) & dep((x; y), (z; w))", True),
        ("nc(x y; z) & x != 1", True),
        ("x _||_ y", False),
        ("x <= y", False),
        ("dep(x, y) | x _||_{z} y", False),
        ("E z . A w . dep(x, y) & z <= w", False),
    ])
    def test_independence_or_inclusion_anywhere_breaks_closure(self, text, closed):
        assert is_downward_closed(parse(text)) is closed


def _chains(f):
    """The And and Or nodes of ``f``, each checked to have no part of its
    own connective."""
    stack = [f]
    while stack:
        node = stack.pop()
        if isinstance(node, (And, Or)):
            assert len(node.parts) >= 2 and not any(type(part) is type(node) for part in node.parts)
            yield node
            stack.extend(node.parts)
        elif isinstance(node, (Exists, Forall)):
            stack.append(node.body)


class TestChains:
    a, b, c = parse("x = 0"), parse("dep(x, y)"), parse("E z . z <= x")

    def test_and_flattens(self):
        a, b, c = self.a, self.b, self.c
        assert And(And(a, b), c) == And(a, And(b, c)) == a & b & c == parse("x = 0 & dep(x, y) & (E z . z <= x)")
        assert And(And(a, b), c).parts == (a, b, c)

    def test_or_flattens(self):
        a, b, c = self.a, self.b, self.c
        assert Or(Or(a, b), c) == Or(a, Or(b, c)) == a | b | c == parse("x = 0 | dep(x, y) | E z . z <= x")
        assert Or(a, Or(b, c)).parts == (a, b, c)
        # a chain of the other connective stays one part
        assert Or(a, And(b, c)).parts == (a, And(b, c))

    def test_loc_h_is_one_conjunction(self):
        from teamlogic.properties import PropertyName, property_formula

        loc = property_formula(PropertyName.LOC_H, 2)
        assert isinstance(loc, And) and len(loc.parts) == 4
        assert all(isinstance(part, Indep) for part in loc.parts)

    def test_left_nested_prints_flat(self):
        f = And(And(self.a, self.b), self.b)
        assert print_formula(f) == "x = 0 & dep(x, y) & dep(x, y)"
        assert parse(print_formula(f)) == f

    @pytest.mark.parametrize("text", [
        "x = 0 | y = 1 | E z . dep(x, z)",
        "x = 0 | (E z . dep(x, z)) | y = 1",
        "(E z . dep(x, z)) | x = 0 & y = 1 | E z . z = 0 | x = 1",
        "x = 0 & (E z . dep(x, z)) & y = 1",
        "x = 0 & y = 1 & (E z . dep(x, z) | z = 0)",
        "(x = 0 | y = 1 | dep(x, y)) & (y = 0 | (A y . y = x) | E y . y = x & x <= y)",
        "E x . x = 0 | (A y . dep(x, y)) | dep(, x) & (x = 0 | y = 1) & x _||_ y",
    ])
    def test_parsed_chains_are_flat_and_print_back(self, text):
        # only the last disjunct prints a quantifier without parentheses
        f = parse(text)
        assert any(len(chain.parts) > 2 for chain in _chains(f))
        assert print_formula(f) == text


class TestDefiningFormulas:
    def test_gendep_shape(self):
        f = gendep_defining_formula(GenDep(("a",), ("b",), ("c",), ("d",)))
        text = print_formula(f)
        assert text.count("E u") == 3 and text.count("A ") == 4
        assert text.count("dep(") == 3

    def test_nc_uses_fresh_names(self):
        f = nc_defining_formula(NC(("z1", "w1", "u1"), "y"))
        bound = free_vars(f)
        assert bound == {"z1", "w1", "u1", "y"}


# round-trip property

variables = st.sampled_from(["x", "y", "z", "m1", "o1", "l", "w2"])
varlists = st.lists(variables, min_size=1, max_size=3).map(tuple)
terms = st.one_of(
    variables.map(Var),
    st.integers(-3, 3).map(Const),
    st.sampled_from(["a", "b", "0", "lam1"]).map(Const),
)

atoms = st.one_of(
    st.tuples(terms, terms).map(lambda p: Eq(*p)),
    st.tuples(terms, terms).map(lambda p: Neq(*p)),
    st.tuples(st.one_of(st.just(()), varlists), varlists).map(lambda p: Dep(*p)),
    st.tuples(varlists, varlists, varlists).map(lambda p: Indep(p[0], p[1], p[2])),
    st.tuples(varlists, st.one_of(st.just(()), varlists), varlists).map(
        lambda p: Indep(p[0], p[1], p[2])
    ),
    st.integers(1, 3).flatmap(
        lambda k: st.tuples(
            st.lists(variables, min_size=k, max_size=k).map(tuple),
            st.lists(variables, min_size=k, max_size=k).map(tuple),
        ).map(lambda p: Incl(*p))
    ),
    st.integers(1, 2).flatmap(
        lambda k: st.tuples(
            *([st.lists(variables, min_size=k, max_size=k).map(tuple)] * 2),
            st.lists(variables, min_size=1, max_size=2).map(tuple),
            st.lists(variables, min_size=1, max_size=2).map(tuple),
        )
    ).filter(lambda t: len(t[2]) == len(t[3])).map(lambda t: GenDep(*t)),
    st.tuples(varlists, variables).map(lambda p: NC(*p)),
    varlists.map(NCC),
)


def formulas(depth: int):
    if depth == 0:
        return atoms
    sub = formulas(depth - 1)
    return st.one_of(
        atoms,
        st.tuples(sub, sub).map(lambda p: And(*p)),
        st.tuples(sub, sub).map(lambda p: Or(*p)),
        st.tuples(variables, sub).map(lambda p: Exists(*p)),
        st.tuples(variables, sub).map(lambda p: Forall(*p)),
    )


@pytest.mark.parametrize("value", [True, 1.0, [1], (0, True)], ids=repr)
def test_const_refuses_a_value_no_team_can_hold(value):
    # True and 1.0 equal 1, so such a constant would make its formula equal
    # to one over 1; a team refuses the value as well
    with pytest.raises(InvalidArgumentError):
        Const(value)
    with pytest.raises(InvalidArgumentError):
        Team(("x",), [(value,)])


def test_equal_constants_are_one_constant():
    assert Const(Fraction(1)) == Const(1) and hash(Const(Fraction(1))) == hash(Const(1))
    assert Eq(Var("x"), Const(Fraction(2, 1))) == parse("x = 2")


@pytest.mark.parametrize("value", ['a"b', Fraction(1, 2), (0, "a")], ids=repr)
def test_a_constant_without_concrete_syntax_is_not_printed(value):
    # a quote would end the quoted symbol early, and parse would refuse the text
    with pytest.raises(InvalidArgumentError, match="has no concrete syntax"):
        print_formula(Eq(Var("x"), Const(value)))


@given(formulas(3))
@settings(max_examples=300)
def test_roundtrip_parse_print(f):
    assert parse(print_formula(f)) == f


@given(formulas(2))
@settings(max_examples=100)
def test_print_parse_print_is_stable(f):
    text = print_formula(f)
    assert print_formula(parse(text)) == text


@given(st.text(alphabet='depncxyzmol123 _|&()=!<>{}.,;"EA', max_size=40))
@settings(max_examples=400)
def test_parser_rejects_garbage_gracefully(text):
    # arbitrary input either parses or raises ParseError; never crashes
    try:
        parse(text)
    except ParseError:
        pass


@given(formulas(2), st.integers(0, 2))
@settings(max_examples=60)
def test_whitespace_insensitivity(f, style):
    text = print_formula(f)
    if style == 1:
        text = text.replace(" ", "  ")
    elif style == 2:
        text = text.replace(" & ", " &\n  ").replace(" | ", "\n| ")
    assert parse(text) == f
