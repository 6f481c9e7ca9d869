"""Formula language: AST, concrete grammar, parser, printer, analysis.

The logic has first-order (in)equality literals over variables and value
constants, the team atoms (dependence, generalized dependence, conditional
independence, inclusion, non-contextuality ``nc`` and non-contextual choice
``ncc``), and the connectives/quantifiers ``&``, ``|``, ``E``, ``A``.
Negation appears only on literals.

Concrete grammar (whitespace-insensitive except inside variable lists,
which are whitespace-separated)::

    formula := disj
    disj    := conj ('|' conj)*
    conj    := unit ('&' unit)*
    unit    := 'E' var '.' disj | 'A' var '.' disj | atom | '(' formula ')'
    atom    := 'dep(' varlist? ',' varlist ')'
             | 'dep((' varlist ';' varlist '),(' varlist ';' varlist '))'
             | varlist '_||_' ('{' varlist '}')? varlist
             | varlist '<=' varlist
             | 'nc(' varlist ';' var ')'
             | 'ncc(' varlist ')'
             | term ('=' | '!=') term
    term    := var | integer | '"' symbol '"'

A chain ``a & b & c`` is one n-ary :class:`And` node, however it is
bracketed, and likewise for ``|``: both connectives are associative.
Quantifier bodies extend as far right as possible, so
``E l . dep(m1 l, o1) & dep(m2 l, o2)`` binds the whole conjunction.
``E`` and ``A`` are reserved words and cannot name variables.  A name
ends before a ``_`` that begins ``_||_``, so ``x_||_y`` reads as
``x _||_ y``.  Quoted constants are symbols, bare numerals are integer
values; ``dep(, l)`` is the constancy atom with empty antecedent.
Parentheses and quantifier bodies nest at most :data:`MAX_NESTING` deep.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from typing import NamedTuple

from .errors import InvalidArgumentError, ParseError
from .teams import Value, value_key

_RESERVED = {"E", "A"}


@dataclass(frozen=True, eq=True)
class Term:
    pass


@dataclass(frozen=True)
class Var(Term):
    name: str


@dataclass(frozen=True)
class Const(Term):
    """A value constant.  Building one refuses a value that no team can
    hold (:func:`~teamlogic.teams.value_key`), so ``x = 1`` equals only
    itself: ``Const(True)`` and ``Const(1.0)``, equal to ``Const(1)``, raise."""

    value: Value

    def __post_init__(self):
        value_key(self.value)


class Formula:
    """Base class for all AST nodes.  Instances are immutable and hashable."""

    __slots__ = ()

    def __and__(self, other: "Formula") -> "Formula":
        return And(self, other)

    def __or__(self, other: "Formula") -> "Formula":
        return Or(self, other)

    def __str__(self) -> str:
        return print_formula(self)


@dataclass(frozen=True)
class Eq(Formula):
    lhs: Term
    rhs: Term


@dataclass(frozen=True)
class Neq(Formula):
    lhs: Term
    rhs: Term


@dataclass(frozen=True)
class Dep(Formula):
    """dep(xs, ys): the value of ``ys`` is a function of the value of ``xs``.
    Empty ``xs`` is the constancy atom."""

    xs: tuple[str, ...]
    ys: tuple[str, ...]


@dataclass(frozen=True)
class GenDep(Formula):
    """dep((x1; x2), (y1; y2)): whenever some row's ``x1`` equals another
    row's ``x2``, the first row's ``y1`` equals the second row's ``y2``."""

    x1: tuple[str, ...]
    x2: tuple[str, ...]
    y1: tuple[str, ...]
    y2: tuple[str, ...]

    def __post_init__(self):
        if len(self.x1) != len(self.x2) or len(self.y1) != len(self.y2):
            raise InvalidArgumentError("generalized dependence tuple lengths must agree")


@dataclass(frozen=True)
class Indep(Formula):
    """xs _||_{cond} ys: conditional independence; empty ``cond`` is the
    simple independence atom."""

    xs: tuple[str, ...]
    cond: tuple[str, ...]
    ys: tuple[str, ...]


@dataclass(frozen=True)
class Incl(Formula):
    """xs <= ys: every value of ``xs`` occurs as a value of ``ys``."""

    xs: tuple[str, ...]
    ys: tuple[str, ...]

    def __post_init__(self):
        if len(self.xs) != len(self.ys):
            raise InvalidArgumentError("inclusion atom tuple lengths must agree")


@dataclass(frozen=True)
class NC(Formula):
    """nc(xs; y): a value of ``y`` that appears among some row's ``xs``
    values pins that row's ``y``."""

    xs: tuple[str, ...]
    y: str


@dataclass(frozen=True)
class NCC(Formula):
    """ncc(xs): one value per row can be chosen from its ``xs`` values such
    that a value chosen anywhere is chosen everywhere it appears."""

    xs: tuple[str, ...]


@dataclass(frozen=True, init=False)
class _Chain(Formula):
    """A connective over two or more ``parts``, flattened when built: no
    part is a chain of the same connective, so every way of bracketing a
    chain builds one node."""

    parts: tuple[Formula, ...]

    def __init__(self, *parts: Formula):
        flat = tuple(chain.from_iterable(p.parts if type(p) is type(self) else (p,) for p in parts))
        if len(flat) < 2:
            raise InvalidArgumentError(f"{type(self).__name__} needs at least two parts, not {len(flat)}")
        object.__setattr__(self, "parts", flat)


class And(_Chain):
    """Conjunction: every part holds on the team."""


class Or(_Chain):
    """Lax disjunction: sub-teams, one per part, cover the team."""


@dataclass(frozen=True)
class Exists(Formula):
    var: str
    body: Formula


@dataclass(frozen=True)
class Forall(Formula):
    var: str
    body: Formula


ATOM_TYPES = (Eq, Neq, Dep, GenDep, Indep, Incl, NC, NCC)


def conjoin(parts) -> Formula:
    """The conjunction of a nonempty sequence; one part is itself."""
    parts = tuple(parts)
    return parts[0] if len(parts) == 1 else And(*parts)


def disjoin(parts) -> Formula:
    """The disjunction of a nonempty sequence; one part is itself."""
    parts = tuple(parts)
    return parts[0] if len(parts) == 1 else Or(*parts)


# ---------------------------------------------------------------------------
# analysis


def free_vars(formula: Formula) -> frozenset[str]:
    """The free variables of a formula; quantifiers bind."""
    match formula:
        case Eq(lhs, rhs) | Neq(lhs, rhs):
            return frozenset(t.name for t in (lhs, rhs) if isinstance(t, Var))
        case NC(xs, y):
            return frozenset(xs) | {y}
        case Dep() | GenDep() | Indep() | Incl() | NCC():
            # every field of these atoms is a tuple of variables
            return frozenset(chain.from_iterable(vars(formula).values()))
        case And(parts) | Or(parts):
            return frozenset().union(*map(free_vars, parts))
        case Exists(var, body) | Forall(var, body):
            return free_vars(body) - {var}
    raise InvalidArgumentError(f"unknown formula node {formula!r}")


def is_downward_closed(formula: Formula) -> bool:
    """Syntactic sufficient condition for downward closure: the formula
    lies in ``FO(dep)``.

    Independence and inclusion atoms are the only sources of non-monotone
    behaviour in this language; everything built without them is satisfied
    by every subteam of a satisfying team.  The generalized dependence,
    ``nc`` and ``ncc`` atoms count as ``FO(dep)`` because they are
    definable there (see :func:`gendep_defining_formula`).
    """
    match formula:
        case Indep() | Incl():
            return False
        case And(parts) | Or(parts):
            return all(map(is_downward_closed, parts))
        case Exists(_, body) | Forall(_, body):
            return is_downward_closed(body)
    return True


# ---------------------------------------------------------------------------
# FO(dep) defining formulas for the extended atoms


def _fresh(base: str, count: int, taken: set[str]) -> list[str]:
    names = []
    i = 1
    while len(names) < count:
        name = f"{base}{i}"
        while name in taken:
            name += "_"
        names.append(name)
        taken.add(name)
        i += 1
    return names


def _tuple_neq(xs: tuple[str, ...], ys: tuple[str, ...]) -> Formula:
    """Pointwise tuple disequality: the tuples differ in some position.

    A flat classical formula, so a subteam satisfies it exactly when no row
    pairs the two tuple values equally.
    """
    return disjoin([Neq(Var(a), Var(b)) for a, b in zip(xs, ys)])


def _flag_block(copies: tuple[str, ...], us: list[str], d1: Formula, d2: Formula, d3: Formula) -> Formula:
    """``A copies . E us .`` the flags' dependences and the disjuncts they route to."""
    u1, u2, u3 = us
    deps = [Dep(copies, (u,)) for u in us]
    disj = disjoin(
        [
            conjoin([Eq(Var(u1), Var(u2)), Eq(Var(u2), Var(u3)), d1]),
            conjoin([Eq(Var(u1), Var(u2)), Neq(Var(u2), Var(u3)), d2]),
            conjoin([Neq(Var(u1), Var(u2)), Eq(Var(u2), Var(u3)), d3]),
        ]
    )
    body = conjoin(deps + [disj])
    for u in reversed(us):
        body = Exists(u, body)
    for v in reversed(copies):
        body = Forall(v, body)
    return body


def gendep_defining_formula(atom: GenDep) -> Formula:
    """The FO(dep) formula equivalent to a generalized dependence atom.

    Fresh copies ``z1/w1`` of ``x1/y1`` and ``z2/w2`` of ``x2/y2`` are swept
    over all value combinations; three flags, functionally dependent on the
    copies, route every combination to the disjunct it can satisfy.  The
    first two disjuncts absorb combinations whose copy value never occurs
    as an actual value; the third enforces the dependence on the rest.

    Correct over universes with at least two values (the flags need two
    distinct values to realise all three patterns).
    """
    taken = set(atom.x1) | set(atom.x2) | set(atom.y1) | set(atom.y2)
    k, m = len(atom.x1), len(atom.y1)
    z1 = tuple(_fresh("z", k, taken))
    z2 = tuple(_fresh("zz", k, taken))
    w1 = tuple(_fresh("w", m, taken))
    w2 = tuple(_fresh("ww", m, taken))
    us = _fresh("u", 3, taken)
    return _flag_block(
        z1 + z2 + w1 + w2,
        us,
        _tuple_neq(z1 + w1, atom.x1 + atom.y1),
        _tuple_neq(z2 + w2, atom.x2 + atom.y2),
        Or(_tuple_neq(z1, z2), conjoin([Eq(Var(a), Var(b)) for a, b in zip(w1, w2)])),
    )


def nc_defining_formula(atom: NC) -> Formula:
    """The FO(dep) formula equivalent to the ``nc`` atom.

    ``z/w1`` copy ``xs/y`` of one row, ``w2`` copies ``y`` of another; the
    third disjunct states that a ``y`` value appearing among the first
    row's ``xs`` values pins it: ``w2`` equals ``w1`` or avoids every
    selector copy.  (Avoiding every copy is a conjunction; a disjunction
    would let a value escape through any single differing selector and
    fails against the atom's semantics from two selectors on.)
    """
    taken = set(atom.xs) | {atom.y}
    k = len(atom.xs)
    zs = tuple(_fresh("z", k, taken))
    w1, w2 = _fresh("w", 2, taken)
    us = _fresh("u", 3, taken)
    third = Or(Eq(Var(w2), Var(w1)), conjoin([Neq(Var(w2), Var(z)) for z in zs]))
    return _flag_block(
        zs + (w1, w2), us, _tuple_neq(zs + (w1,), atom.xs + (atom.y,)), Neq(Var(w2), Var(atom.y)), third
    )


def ncc_defining_formula(atom: NCC) -> Formula:
    """ncc(xs) unfolded to its definition: a chosen column ``y`` that equals
    some ``x`` in every row and respects ``nc(xs, y)``."""
    taken = set(atom.xs)
    (y,) = _fresh("y", 1, taken)
    pick = disjoin([Eq(Var(y), Var(x)) for x in atom.xs])
    return Exists(y, And(pick, NC(atom.xs, y)))


# ---------------------------------------------------------------------------
# parser

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<indep>_\|\|_)
  | (?P<neq>!=)
  | (?P<leq><=)
  | (?P<sym>[(),;.{}=|&])
  | (?P<int>-?\d+)
  | (?P<name>[A-Za-z_](?:[A-Za-z0-9']|_(?!\|\|_))*)
  | (?P<str>"[^"]*")
    """,
    re.VERBOSE,
)


class _Token(NamedTuple):
    kind: str
    text: str
    line: int
    column: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        chunk = m.group()
        if kind != "ws":
            tokens.append(_Token(kind, chunk, line, col))
        newlines = chunk.count("\n")
        if newlines:
            line += newlines
            col = len(chunk) - chunk.rfind("\n")
        else:
            col += len(chunk)
        pos = m.end()
    tokens.append(_Token("eof", "", line, col))
    return tokens


#: The deepest nesting of parentheses and quantifier bodies the parser
#: takes, counted by the parser so that the error's position does not
#: depend on the caller's stack.  At three frames a level, a parse at the
#: limit fits the default recursion limit from a caller 200 frames deep.
MAX_NESTING = 200


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0

    def peek(self, ahead: int = 0) -> _Token:
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def expect(self, text: str) -> _Token:
        tok = self.next()
        if tok.text != text:
            raise ParseError(f"expected {text!r}, found {tok.text or 'end of input'!r}", tok.line, tok.column)
        return tok

    def fail(self, message: str) -> "ParseError":
        tok = self.peek()
        return ParseError(message, tok.line, tok.column)

    # grammar rules -----------------------------------------------------

    def formula(self) -> Formula:
        f = self.disj()
        tok = self.peek()
        if tok.kind != "eof":
            raise ParseError(f"unexpected trailing input {tok.text!r}", tok.line, tok.column)
        return f

    def disj(self) -> Formula:
        parts = [self.conj()]
        while self.peek().text == "|":
            self.next()
            parts.append(self.conj())
        return disjoin(parts)

    def conj(self) -> Formula:
        parts = [self.unit()]
        while self.peek().text == "&":
            self.next()
            parts.append(self.unit())
        return conjoin(parts)

    def unit(self) -> Formula:
        tok = self.peek()
        if tok.text not in _RESERVED and tok.text != "(":
            return self.atom()
        self.next()
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError("formula nested too deeply to parse", tok.line, tok.column)
        if tok.text == "(":
            inner = self.disj()
            self.expect(")")
        else:
            var = self.variable()
            self.expect(".")
            body = self.disj()
            inner = Exists(var, body) if tok.text == "E" else Forall(var, body)
        self.depth -= 1
        return inner

    def variable(self) -> str:
        tok = self.next()
        if tok.kind != "name" or tok.text in _RESERVED:
            raise ParseError(f"expected a variable, found {tok.text!r}", tok.line, tok.column)
        return tok.text

    def varlist(self, stop: set[str]) -> tuple[str, ...]:
        names = []
        while self.peek().kind == "name" and self.peek().text not in _RESERVED:
            names.append(self.next().text)
        if self.peek().text not in stop:
            raise self.fail(f"expected one of {sorted(stop)} after variable list")
        return tuple(names)

    def term(self) -> Term:
        tok = self.next()
        if tok.kind == "name" and tok.text not in _RESERVED:
            return Var(tok.text)
        if tok.kind == "int":
            return Const(int(tok.text))
        if tok.kind == "str":
            return Const(tok.text[1:-1])
        raise ParseError(f"expected a term, found {tok.text!r}", tok.line, tok.column)

    def atom(self) -> Formula:
        tok = self.peek()
        if tok.text == "dep":
            return self.dep_atom()
        if tok.text == "nc" and self.peek(1).text == "(":
            return self.nc_atom()
        if tok.text == "ncc" and self.peek(1).text == "(":
            self.next()
            self.expect("(")
            xs = self.varlist({")"})
            if not xs:
                raise self.fail("ncc needs at least one variable")
            self.expect(")")
            return NCC(xs)
        # varlist-led atoms (independence, inclusion) or a literal
        if tok.kind in ("int", "str"):
            return self.literal(self.term())
        start = self.pos
        names = []
        while self.peek().kind == "name" and self.peek().text not in _RESERVED:
            names.append(self.next().text)
        follow = self.peek().text
        if follow == "_||_":
            return self.indep_atom(tuple(names))
        if follow == "<=" and names:
            self.next()
            ys = self.varlist({")", "&", "|", ""})
            if len(ys) != len(names):
                raise self.fail("inclusion atom sides must have equal length")
            return Incl(tuple(names), ys)
        if len(names) == 1 and follow in ("=", "!="):
            self.pos = start
            return self.literal(self.term())
        raise self.fail("expected an atom")

    def literal(self, lhs: Term) -> Formula:
        op = self.next()
        if op.text == "=":
            return Eq(lhs, self.term())
        if op.text == "!=":
            return Neq(lhs, self.term())
        raise ParseError(f"expected '=' or '!=', found {op.text!r}", op.line, op.column)

    def dep_atom(self) -> Formula:
        self.next()  # dep
        self.expect("(")
        if self.peek().text == "(":
            self.next()
            x1 = self.varlist({";"})
            self.expect(";")
            x2 = self.varlist({")"})
            self.expect(")")
            self.expect(",")
            self.expect("(")
            y1 = self.varlist({";"})
            self.expect(";")
            y2 = self.varlist({")"})
            self.expect(")")
            self.expect(")")
            if len(x1) != len(x2) or len(y1) != len(y2):
                raise self.fail("generalized dependence tuple lengths must agree")
            return GenDep(x1, x2, y1, y2)
        xs = self.varlist({","})
        self.expect(",")
        ys = self.varlist({")"})
        if not ys:
            raise self.fail("dependence atom needs a consequent")
        self.expect(")")
        return Dep(xs, ys)

    def nc_atom(self) -> Formula:
        self.next()  # nc
        self.expect("(")
        xs = self.varlist({";"})
        if not xs:
            raise self.fail("nc needs at least one selector variable")
        self.expect(";")
        y = self.variable()
        self.expect(")")
        return NC(xs, y)

    def indep_atom(self, xs: tuple[str, ...]) -> Formula:
        # Empty sides are legal and vacuously true; the arity-1 property
        # formulas produce them.
        self.expect("_||_")
        cond: tuple[str, ...] = ()
        if self.peek().text == "{":
            self.next()
            cond = self.varlist({"}"})
            self.expect("}")
        ys = self.varlist({")", "&", "|", ""})
        return Indep(xs, cond, ys)


#: Texts whose formula :func:`parse` keeps, the least recently used going first.
PARSE_CACHE_SIZE = 32


@lru_cache(maxsize=PARSE_CACHE_SIZE)
def parse(text: str) -> Formula:
    """Parse formula text into an AST.  Raises :class:`ParseError` with a
    line/column position on malformed input, also on input nested more
    than :data:`MAX_NESTING` deep, or too deep for what is left of the
    caller's stack.

    The last :data:`PARSE_CACHE_SIZE` texts parsed keep their formula, so
    parsing one text again returns the same object without parsing it.
    An error is not cached, so it is raised again."""
    parser = _Parser(text)
    try:
        return parser.formula()
    except RecursionError:
        raise parser.fail("formula nested too deeply to parse") from None


# ---------------------------------------------------------------------------
# printer


def _print_term(t: Term) -> str:
    if isinstance(t, Var):
        return t.name
    if isinstance(t.value, int):
        return str(t.value)
    if isinstance(t.value, str) and '"' not in t.value:
        return f'"{t.value}"'
    raise InvalidArgumentError(f"constant {t.value!r} has no concrete syntax")


def _vl(names: tuple[str, ...]) -> str:
    return " ".join(names)


# precedence levels: 0 disjunction, 1 conjunction, 2 unit
def _print(formula: Formula, level: int) -> str:
    match formula:
        case Eq(lhs, rhs):
            return f"{_print_term(lhs)} = {_print_term(rhs)}"
        case Neq(lhs, rhs):
            return f"{_print_term(lhs)} != {_print_term(rhs)}"
        case Dep(xs, ys):
            return f"dep({_vl(xs)}, {_vl(ys)})" if xs else f"dep(, {_vl(ys)})"
        case GenDep(x1, x2, y1, y2):
            return f"dep(({_vl(x1)}; {_vl(x2)}), ({_vl(y1)}; {_vl(y2)}))"
        case Indep(xs, cond, ys):
            middle = f"_||_{{{_vl(cond)}}}" if cond else "_||_"
            return " ".join(p for p in (_vl(xs), middle, _vl(ys)) if p)
        case Incl(xs, ys):
            return f"{_vl(xs)} <= {_vl(ys)}"
        case NC(xs, y):
            return f"nc({_vl(xs)}; {y})"
        case NCC(xs):
            return f"ncc({_vl(xs)})"
        case And(parts):
            text = " & ".join(_print(part, 2) for part in parts)
            return f"({text})" if level > 1 else text
        case Or(parts):
            # only the last disjunct may be a quantifier without parentheses
            text = " | ".join([_print(part, 1) for part in parts[:-1]] + [_print(parts[-1], 0)])
            return f"({text})" if level > 0 else text
        case Exists(var, body) | Forall(var, body):
            text = f"{'E' if isinstance(formula, Exists) else 'A'} {var} . {_print(body, 0)}"
            return f"({text})" if level > 0 else text
    raise InvalidArgumentError(f"unknown formula node {formula!r}")


def print_formula(formula: Formula) -> str:
    """Deterministic concrete syntax; ``parse(print_formula(f)) == f``.
    Raises :class:`InvalidArgumentError` on a constant with none: a
    ``Fraction``, a tuple, or a string holding ``"``."""
    return _print(formula, 0)
