"""Team-semantics evaluator, relational and probabilistic.

Implements the inductive satisfaction clauses exactly, with lax semantics
throughout: a disjunction ``a | b | c`` holds when three (possibly
overlapping) subteams, one per disjunct, cover the team, the existential
quantifier ranges over set-valued Skolem functions, and the universal
quantifier generalises over the team's value universe.  Run on a
:class:`~teamlogic.teams.ProbTeam`, the same plan decides the formula
probabilistically (:mod:`teamlogic.eval_prob`): a split or existential
search whose subformula has no ``_||_`` atom runs on the team's support,
and one whose subformula has one raises
:class:`~teamlogic.errors.UnsupportedFragmentError`.

Evaluation compiles, then runs.  :func:`compile` turns formulas into a
:class:`Plan` over one variable domain, in which each distinct subformula
is one node, built once: its downward-closure flag, its generated row
predicate or atom kernel (over column projections computed at build time)
and, for an existential, the static half of its search.  A chain of ``&``
or of ``|`` is one node, and ``Q y . R y . φ`` is built as ``R y . φ``.
No quantifier rebinds a column: lax semantics is local, so one over a
bound column runs fresh on the team without that column.  A plan is
complete when :func:`compile` returns, and no run changes it.
:meth:`Plan.run` decides the formulas on one team, each verdict by a
search state of its own, as one :func:`eval_rel` call decides it.
:func:`eval_rel` runs its formula's plan, which it takes from a cache of
:data:`PLAN_CACHE_SIZE` plans keyed by the formula and the domain
(:func:`_plan`).

A node that is a ``dep`` or ``_||_`` atom, or a conjunction of them, is
masked: over a fixed set of rows, one packed int per row holds the class
bits of each such atom, and a test on the OR of a sub-team's row ints
decides the node on it (:mod:`teamlogic.masks`).  A plan compiled over an
assignment space (a sweep's plan) holds the ints of the space's rows for
the atoms of its masked roots: a run ORs its team's row ints once and
decides a masked root by one test, with no search state.  A split search
builds the ints of its own team's rows and decides a masked disjunct on
each team it tries by one test.
The atom kernels, which read the rows, decide everything else: any other
node, and a masked node that is neither a disjunct nor the root of a plan
with a space; a node on a :class:`~teamlogic.teams.ProbTeam`, not its
support, whose ``_||_`` is stochastic; a team with a row outside the
plan's space; and rows whose masks would exceed
:data:`~teamlogic.masks.MASK_BITS`.

Generalized dependence and ``nc`` share one definition, the incremental
constraint that an existential search keeps: ``nc(xs; y)`` is the
generalized dependence whose side-1 key is the set of a row's ``xs``
values.  Their atom kernel adds a team's rows to a fresh constraint.

The clauses for disjunction and existential quantification are genuinely
exponential, so the evaluator leans on five exact reductions:

* a maximal classical (``=``, ``!=``, ``&``, ``|``) subformula is flat,
  one node decided pointwise by one generated function (:func:`_generate`);
* the flat disjuncts of a chain are one part, which takes every row it
  holds on, and a downward-closed operand needs only a minimal choice
  (one rule, :func:`_choices`): a cover by closed disjuncts is a
  partition, and a Skolem function for a closed matrix is single-valued;
* a masked disjunct is decided on each team the split tries by the OR of
  its rows' masks, with no sub-team built and no memo entry kept;
* an existential block is compiled once into row tests (flat conjuncts,
  and inclusions whose right side reads no block variable), incremental
  constraints (dependence-family atoms) and the grouping of rows into
  independent components; a run takes each row's candidates from one
  table, the smallest inclusion covering the block or else the value
  product, and searches them by backtracking over canonically ordered rows;
* that search tries the values of a block variable read only by ``dep``
  and ``_||_`` atoms in value-precedence order (:class:`_Precedence`),
  which skips relabellings of witnesses it has already tried.

Searches that outgrow the :class:`EvalBudget` raise
:class:`~teamlogic.errors.BudgetExceededError`, a third outcome that is
never conflated with ``False``.  The evaluator is pure, so independent
runs may share a plan and run concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import chain, combinations, product
from typing import Callable, Iterable, Iterator, Sequence

from .errors import BudgetExceededError, DomainError, InvalidArgumentError, UnsupportedFragmentError
from .formulas import (
    ATOM_TYPES,
    NC,
    NCC,
    And,
    Dep,
    Eq,
    Exists,
    Forall,
    Formula,
    GenDep,
    Incl,
    Indep,
    Neq,
    Or,
    Var,
    conjoin,
    disjoin,
    free_vars,
)
from .masks import RowMasks, ors
from .teams import ProbTeam, Row, Team, positions, project, row_key, value_key


@dataclass(frozen=True)
class EvalBudget:
    """Caps on the effort of every search.

    ``max_rows`` bounds the size of any team built by quantification
    (a universal's rows times its universe), and ``memo_limit`` the
    combined number of memo entries and visited search states: an
    existential's candidates (a value product is refused before it is
    built), the nodes of a Kochen-Specker search, and the section space
    of a no-go or localization search, which bounds its leaves.  No cap
    bounds the universe itself.  Exceeding any cap aborts the search
    with a budget error; no search approximates.
    """

    max_rows: int = 200_000
    memo_limit: int = 5_000_000

    def __post_init__(self):
        if self.max_rows <= 0 or self.memo_limit <= 0:
            raise InvalidArgumentError("budget limits must be positive")

    def check_rows(self, count: int):
        if count > self.max_rows:
            raise BudgetExceededError(
                f"quantification would build {count} rows, budget is {self.max_rows}"
            )


DEFAULT_BUDGET = EvalBudget()


def compile(formulas: Iterable[Formula], domain: Sequence[str], space: Team | None = None) -> Plan:
    """Compile ``formulas`` into one plan for teams over ``domain``.

    Each distinct subformula, over each domain that quantifiers make of
    ``domain``, is built into one node, so formulas that share
    subformulas share their nodes.  Raises
    :class:`~teamlogic.errors.DomainError` when a formula has a free
    variable outside ``domain``.

    ``space`` is the assignment space whose sub-teams the plan will run
    on, if one is known: the plan then packs the class bits of the atoms
    of each root that is a ``dep`` or ``_||_`` atom or a conjunction of
    them into one mask per space row (see :mod:`teamlogic.masks`), unless
    they would take more than :data:`~teamlogic.masks.MASK_BITS` bits,
    with a test on an OR of masks of each such root.
    """
    domain = tuple(domain)
    nodes: dict = {}
    roots = []
    for formula in formulas:
        missing = free_vars(formula) - set(domain)
        if missing:
            raise DomainError(f"free variables {sorted(missing)} not bound by team domain {domain}")
        roots.append(_build(formula, domain, nodes))
    masks, tests = None, {}
    if space is not None:
        if space.domain != domain:
            raise DomainError(f"space domain {space.domain} differs from plan domain {domain}")
        masks, tests = _masked(domain, space.rows, roots)
    return Plan(domain, tuple(roots), masks, tests)


def _masked(domain: tuple[str, ...], rows: Sequence[Row], nodes: Sequence[_Node]) -> tuple[RowMasks | None, dict]:
    """The row masks of ``rows`` for the atoms of the masked ``nodes``, and
    the test on an OR of masks of each masked node: none when the masks
    would exceed :data:`~teamlogic.masks.MASK_BITS`."""
    masks = RowMasks.build(domain, rows, dict.fromkeys(chain.from_iterable(n.atoms or () for n in nodes)))
    return masks, {n: masks.test(n.atoms) for n in nodes if n.atoms} if masks else {}


def eval_rel(team: Team, formula: Formula, budget: EvalBudget | None = None) -> bool:
    """Decide whether ``team`` satisfies ``formula`` relationally.

    The plan comes from a cache of the last :data:`PLAN_CACHE_SIZE` plans
    (64), keyed by the formula and the team's domain (:func:`_plan`), so
    asking one formula, or an equal one, on many teams compiles it once."""
    return _plan(formula, team.domain).run(team, budget)(0)


def eval_atom_rel(team: Team, atom: Formula, budget: EvalBudget | None = None) -> bool:
    """Evaluate a single atom (or literal) by its direct definition.

    Only the ``ncc`` atom involves any search (over per-row selections),
    bounded by ``budget``; everything else is a scan of the rows, and
    decides on any value universe.  The plan comes from
    :func:`eval_rel`'s cache of :data:`PLAN_CACHE_SIZE` plans, keyed by
    the atom and the team's domain.
    """
    if not isinstance(atom, ATOM_TYPES):
        raise InvalidArgumentError(f"{atom!r} is not an atom")
    return _plan(atom, team.domain).run(team, budget)(0)


#: Plans that :func:`_plan` keeps, the least recently used going first.
PLAN_CACHE_SIZE = 64


@lru_cache(maxsize=PLAN_CACHE_SIZE)
def _plan(formula: Formula, domain: tuple[str, ...]) -> Plan:
    """The plan of one formula over ``domain``, for :func:`eval_rel`,
    :func:`eval_atom_rel` and :func:`~teamlogic.eval_prob.eval_prob`.  An
    entry holds no team, and a refusal is not cached, so it is raised again."""
    return compile([formula], domain)


def search_tick(budget: EvalBudget | None) -> Callable[[], None]:
    """A node count for a search run outside a plan: each call ticks one
    node against ``budget.memo_limit`` and raises as the evaluator does."""
    return _Evaluator(budget or DEFAULT_BUDGET).tick


@dataclass(frozen=True)
class Plan:
    """Formulas compiled by :func:`compile` for teams over one variable
    domain: ``roots`` holds the node of each formula, in order, ``masks``
    the row masks of the masked roots' atoms over the assignment space it
    was compiled over, if any, and ``tests`` the test, on an OR of masks,
    of each root that is a masked atom or a conjunction of them.  Runs on
    different teams may share a plan."""

    domain: tuple[str, ...]
    roots: tuple[_Node, ...]
    masks: RowMasks | None
    tests: dict

    def run(self, team: Team | ProbTeam, budget: EvalBudget | None = None) -> Callable[[int], bool]:
        """The verdict of the ``i``-th formula on ``team``, as a function of ``i``.

        A :class:`~teamlogic.teams.ProbTeam` is decided probabilistically.
        A verdict is decided when it is asked for: by its root's test, when
        it has one and the team is relational and within the plan's space;
        else by a search state of its own, under the whole ``budget``.  So
        each verdict is decided, and raises, as one :func:`eval_rel` call
        does, whatever was asked before it.
        """
        if team.domain != self.domain:
            raise DomainError(f"team domain {team.domain} differs from plan domain {self.domain}")
        budget = budget or DEFAULT_BUDGET
        bits = self.masks.of(team) if self.masks and isinstance(team, Team) else None
        roots, tests = self.roots, {} if bits is None else self.tests

        def verdict(i: int) -> bool:
            node = roots[i]
            test = tests.get(node)
            return test(bits) if test else node.decide(_Evaluator(budget), team, node)

        return verdict


@dataclass(eq=False, slots=True)
class _Node:
    """One distinct subformula of a plan, over one domain.

    ``decide(evaluator, team, node)`` applies the node's clause,
    ``closed`` records downward closure (the formula lies in ``FO(dep)``)
    and ``weighted`` whether the formula has a ``_||_`` atom, the only
    atom that reads a :class:`~teamlogic.teams.ProbTeam`'s weights.
    ``atoms`` holds the ``dep`` and ``_||_`` atoms whose conjunction the
    node is, when it is one (an atom counts as a conjunction of one): a
    test on an OR of row masks decides such a node (:mod:`teamlogic.masks`).
    A maximal classical node carries its generated row predicate ``check``
    and an atom node its ``kernel``.  Any other connective links its
    operand nodes as ``parts``: a conjunction its conjuncts, a disjunction
    its disjuncts in the order the split search takes them (:func:`_build`).
    A universal links its variable and body, and an existential its
    variable and search ``block``.  A quantifier over a bound column links
    that column and, as its body, the same formula over the domain
    without it.  Nodes compare by identity.
    """

    formula: Formula
    decide: Callable
    closed: bool
    weighted: bool
    atoms: tuple[Formula, ...] | None = None
    check: Callable | None = None
    kernel: Callable | None = None
    parts: tuple[_Node, ...] | None = None
    var: str | None = None
    body: _Node | None = None
    block: _Block | None = None


def _build(formula: Formula, domain: tuple[str, ...], nodes: dict) -> _Node:
    """The node of ``formula`` over ``domain``, built once per plan.  A
    quantifier over a bound column is decided on the team without it, and
    ``Q y . R y . ψ`` is built as ``R y . ψ`` (:func:`_innermost`)."""
    node = nodes.get((formula, domain))
    if node is not None:
        return node
    # ``closed`` is is_downward_closed(formula), ``weighted`` whether it
    # has a ``_||_`` atom and ``atoms`` the masked conjuncts, all read off
    # the operand nodes
    match formula:
        case Eq() | Neq() | And() | Or() if _classical(formula):
            node = _Node(formula, _Evaluator.pointwise, True, False, check=_generate("row", partial(_source, formula, domain)))
        case Dep() | GenDep() | Indep() | Incl() | NC() | NCC():
            closed = not isinstance(formula, (Indep, Incl))
            atoms = (formula,) if type(formula) in (Dep, Indep) else None
            node = _Node(formula, _decide_atom, closed, isinstance(formula, Indep), atoms, kernel=_kernel(formula, domain))
        case And(parts):
            # a repeated conjunct is one part, decided once
            subs = tuple(dict.fromkeys(_build(part, domain, nodes) for part in parts))
            atoms = tuple(chain.from_iterable(s.atoms for s in subs)) if all(s.atoms for s in subs) else None
            node = _Node(formula, _Evaluator.conj, all(s.closed for s in subs), any(s.weighted for s in subs), atoms, parts=subs)
        case Or(parts):
            # one flat part of the classical disjuncts, then the parts that
            # are not downward closed, then the closed ones
            flat, rest = [], []
            for part in parts:
                (flat if _classical(part) else rest).append(part)
            subs = sorted((_build(part, domain, nodes) for part in rest), key=lambda s: s.closed)
            if flat:
                subs.insert(0, _build(disjoin(flat), domain, nodes))
            node = _Node(formula, _Evaluator.or_split, all(s.closed for s in subs), any(s.weighted for s in subs), parts=tuple(subs))
        case Exists() | Forall() if (last := _innermost(formula)) is not formula:
            node = _build(last, domain, nodes)
        case Exists(var) | Forall(var) if var in domain:
            # lax semantics is local: the formula holds on a team exactly
            # when on its restriction to the formula's free variables
            inner = _build(formula, tuple(v for v in domain if v != var), nodes)
            node = _Node(formula, _Evaluator.fresh, inner.closed, inner.weighted, var=var, body=inner)
        case Forall(var, body):
            inner = _build(body, domain + (var,), nodes)
            node = _Node(formula, _Evaluator.forall, inner.closed, inner.weighted, var=var, body=inner)
        case Exists(var, body):
            block = _Block(var, body, domain, nodes)
            # a ``_||_`` conjunct of the matrix is in the residual
            weighted = bool(block.residual and block.residual.weighted)
            node = _Node(formula, _Evaluator.exists, block.closed, weighted, var=var, block=block)
        case _:
            raise InvalidArgumentError(f"unknown formula node {formula!r}")
    nodes[formula, domain] = node
    return node


def _innermost(formula: Formula) -> Formula:
    """The last quantifier of a nest ``Q y . R y . ...`` over one variable,
    which is the nest under lax semantics: it binds ``y`` afresh whatever
    the others chose, and any nonempty set of values stays reachable."""
    while isinstance(formula, (Exists, Forall)) and getattr(formula.body, "var", None) == formula.var:
        formula = formula.body
    return formula


#: Chains nest at most this deep in one generated function: CPython's parser fails near 200.
_NEST = 32


def _classical(formula: Formula) -> bool:
    """Whether ``formula`` is built from ``=`` and ``!=`` by ``&`` and ``|`` alone."""
    return isinstance(formula, (Eq, Neq)) or isinstance(formula, (And, Or)) and all(map(_classical, formula.parts))


def _source(formula: Formula, domain: tuple[str, ...], names: dict, depth: int = 0) -> str:
    """The source of a classical formula's truth on ``row``.  Its constants,
    and its chains ``_NEST`` deep as generated functions, enter ``names``."""
    if isinstance(formula, (Eq, Neq)):
        sides = []
        for term in (formula.lhs, formula.rhs):
            if isinstance(term, Var):
                sides.append(f"row[{positions(domain, (term.name,))[0]}]")
            else:
                sides.append(f"c{len(names)}")
                names[sides[-1]] = term.value
        return (" == " if isinstance(formula, Eq) else " != ").join(sides)
    if depth == _NEST:
        names[f"f{len(names)}"] = _generate("row", partial(_source, formula, domain))
        return f"f{len(names) - 1}(row)"
    joint = " and " if isinstance(formula, And) else " or "
    return "(" + joint.join(_source(part, domain, names, depth + 1) for part in formula.parts) + ")"


def _row_test(filters: list[Formula], inclusions: list, source, domain: tuple[str, ...]) -> Callable | None:
    """The factory, given the value sets of ``inclusions``, of the generated
    test that a row satisfies ``filters`` and that its left side values lie
    in each set but the ``source``'s; None when that tests nothing."""
    tested = [(j, "(" + "".join(f"row[{p}], " for p in left) + ")")
              for j, (left, *_) in enumerate(inclusions) if j != source]
    if not filters and not tested:
        return None
    return _generate(", ".join(f"a{j}" for j in range(len(inclusions))), lambda names: "lambda row: " + " and ".join(
        [_source(f, domain, names) for f in filters] + [f"{values} in a{j}" for j, values in tested]
    ))


def _generate(params: str, body: Callable[[dict], str]) -> Callable:
    """``lambda params: body(names)``, the one code generator: its globals
    hold no builtins, only what ``body`` names, so no constant is a ``repr``."""
    names = {"__builtins__": {}}
    return eval(f"lambda {params}: {body(names)}", names)


def _tuples(pos: tuple[int, ...]) -> Callable[[Row], tuple]:
    """Row -> the tuple of its values at ``pos``, also for one position."""
    return project(pos) if len(pos) != 1 else lambda row, p=pos[0]: (row[p],)


def _decide_atom(evaluator: _Evaluator, team: Team | ProbTeam, node: _Node) -> bool:
    # through the method, so that wrapping ``_Evaluator.atom`` sees every
    # atom decision that runs a kernel: the mask tests of a masked root
    # (``Plan.run``) and of a masked split part (``or_split``) bypass it
    return evaluator.atom(team, node)


def _kernel(atom: Formula, domain: tuple[str, ...]) -> Callable[[_Evaluator, Team | ProbTeam], bool]:
    """The atom's test on a team, over projections computed once.  Only
    ``_||_`` reads a probabilistic team's weights; every other atom reads
    its support rows."""
    match atom:
        case Dep(xs, ys):
            key = project(positions(domain, xs))
            pair = project(positions(domain, xs + ys))

            def dep(evaluator, team) -> bool:
                # ys is a function of xs exactly when no xs value comes
                # with two ys values: both projections count alike
                rows = team.rows
                return len(set(map(pair, rows))) == len(set(map(key, rows)))

            return dep
        case GenDep() | NC():
            # a pairwise condition: adding every row to a fresh constraint,
            # in any order, decides it on the team
            make = partial(_CONSTRAINTS[type(atom)], domain, atom)
            return lambda evaluator, team: all(map(make().add, team.rows))
        case Indep(xs, cond, ys):
            x, z, y = (project(positions(domain, v)) for v in (xs, cond, ys))

            def indep(evaluator, team) -> bool:
                if isinstance(team, ProbTeam):
                    return _stochastic_indep(team, xs, cond, ys)
                groups: dict = {}
                for row in team.rows:
                    key = z(row)
                    g = groups.get(key)
                    if g is None:
                        g = groups[key] = (set(), set(), set())
                    xv, yv = x(row), y(row)
                    g[0].add(xv)
                    g[1].add(yv)
                    g[2].add((xv, yv))
                return all(len(pairs) == len(xv) * len(yv) for xv, yv, pairs in groups.values())

            return indep
        case Incl(xs, ys):
            x, y = project(positions(domain, xs)), project(positions(domain, ys))
            return lambda evaluator, team: set(map(x, team.rows)) <= set(map(y, team.rows))
        case NCC(xs):
            p_x = positions(domain, xs)

            def ncc(evaluator, team) -> bool:
                """Search for a per-row selection that is globally
                non-contextual.

                Equivalent to choosing a value set that meets every row's
                selector values exactly once; singleton choices suffice
                because the atom is downward closed.
                """
                blocks = [sorted({row[i] for i in p_x}, key=value_key) for row in team.rows]
                return exact_transversal(blocks, evaluator.tick) is not None

            return ncc


def _stochastic_indep(prob_team: ProbTeam, xs, cond, ys) -> bool:
    """Conditional stochastic independence, checked exactly.

    For every combination of an occurring xs value, ys value and condition
    value, the conditional joint must equal the product of the conditional
    marginals; the identity is verified in cleared form
    joint * total == x_marginal * y_marginal on the masses' numerators,
    so it is decided on ints, without division.
    """
    totals = prob_team.masses(cond)
    x_mass = prob_team.masses((*cond, *xs))
    y_mass = prob_team.masses((*cond, *ys))
    joint_mass = prob_team.masses((*cond, *xs, *ys))
    k = len(cond)
    xvals = {key[k:] for key in x_mass}
    yvals = {key[k:] for key in y_mass}
    for z, total in totals.items():
        for x in xvals:
            mx = x_mass.get(z + x, 0)
            for y in yvals:
                if joint_mass.get(z + x + y, 0) * total != mx * y_mass.get(z + y, 0):
                    return False
    return True


def exact_transversal(blocks: Sequence[Sequence], tick: Callable[[], None]) -> set | None:
    """A value set meeting every block exactly once, or None.

    Depth-first choice with propagation: blocks are taken fewest options
    first (ties in input order) and their options in input order, with
    duplicates dropped.  Choosing a value excludes its block siblings
    everywhere, and a block already holding a chosen value is forced.
    ``tick`` is called once per search node, which bounds the search.
    The result is the first transversal found in that order.
    """
    options = [list(dict.fromkeys(block)) for block in blocks]
    order = sorted(range(len(options)), key=lambda j: (len(options[j]), j))
    state: dict = {}

    def picks(block: list) -> Iterator[bool]:
        """Set ``state`` for each admissible pick of ``block`` in turn,
        yielding while it holds; undone on resumption."""
        tick()
        chosen = [v for v in block if state.get(v) is True]
        if len(chosen) > 1:
            return
        free = [v for v in block if v not in state]
        for pick in chosen or free:
            for v in free:
                state[v] = v == pick
            yield True
            for v in free:
                del state[v]

    for _ in depth_first(len(order), lambda k: picks(options[order[k]])):
        return {v for v, picked in state.items() if picked}
    return None


def depth_first(depth: int, level: Callable[[int], Iterator[bool]]) -> Iterator[None]:
    """Depth-first search over ``depth`` levels of choices.

    ``level(k)`` makes each choice of level ``k`` in turn, yielding True
    while it holds and undoing it on resumption.  Yields once per complete
    choice, with every level's choice made; a caller that stops early
    keeps the state of its last yield.  One suspended ``level(k)`` per
    decided level is kept on an explicit stack, so that a search as deep
    as a team is long stays off the recursion limit.
    """
    frames: list[Iterator[bool]] = []
    while True:
        if len(frames) < depth:
            frames.append(level(len(frames)))
        else:
            yield
        while frames and not next(frames[-1], False):
            frames.pop()
        if not frames:
            return


class _Evaluator:
    """The search state of one verdict: the memo of verdicts on the
    subteams and extensions that its searches build, and the node count
    that the budget bounds with it."""

    def __init__(self, budget: EvalBudget):
        self.budget = budget
        self.nodes = 0
        self.memo: dict = {}

    # -- bookkeeping ----------------------------------------------------

    def tick(self, n: int = 1):
        self.nodes += n
        self._check(self.nodes)

    def _check(self, nodes: int):
        if nodes + len(self.memo) > self.budget.memo_limit:
            raise BudgetExceededError(f"search exceeded budget of {self.budget.memo_limit} states")

    # -- dispatch ----------------------------------------------------------

    def memo_eval(self, team: Team, node: _Node) -> bool:
        key = (node, team)
        hit = self.memo.get(key)
        if hit is None:
            hit = self.memo[key] = node.decide(self, team, node)
            self.tick(0)
        return hit

    def pointwise(self, team: Team, node: _Node) -> bool:
        return all(map(node.check, team.rows))

    def atom(self, team: Team | ProbTeam, node: _Node) -> bool:
        return node.kernel(self, team)

    def conj(self, team: Team, node: _Node) -> bool:
        for part in node.parts:
            if not part.decide(self, team, part):
                return False
        return True

    def forall(self, team: Team | ProbTeam, node: _Node) -> bool:
        if not team.rows:
            return True
        self.budget.check_rows(len(team.rows) * len(team.universe))
        return node.body.decide(self, team.generalize(node.var, team.universe), node.body)

    def fresh(self, team: Team | ProbTeam, node: _Node) -> bool:
        return node.body.decide(self, team.restrict([v for v in team.domain if v != node.var]), node.body)

    # -- disjunction -----------------------------------------------------

    def or_split(self, team: Team | ProbTeam, node: _Node) -> bool:
        """Search the covers of ``team`` by one sub-team per part.

        Level ``k`` chooses the rows of ``teams[k]`` that ``parts[k]``
        covers: the one mask of rows a flat part holds on (flat formulas
        are closed under unions and subsets), after the empty one when rows
        are left to a later part that is not closed; else each mask the
        part holds on, the whole team first and the empty one next.  The
        later parts must cover ``teams[k + 1]``, the rest plus a choice of the
        chosen rows, none when ``parts[k + 1]``, and so each later part, is
        closed.  The last part is decided inside the level before it, and
        a team that no suffix covers is memoized as ``(node, k, team)``.

        A part that is a conjunction of ``dep`` and ``_||_`` atoms (its
        ``atoms``) is masked: one :class:`~teamlogic.masks.RowMasks` over
        ``team``'s own rows serves every level, whose teams are sub-teams
        of ``team``, and a masked part is decided on a mask of a level's
        rows by its test on the OR of their masks (:func:`~teamlogic.masks.ors`),
        with no sub-team and no memo entry.  The other parts are decided on
        sub-teams, through the memo, as are all parts when the masks would
        exceed :data:`~teamlogic.masks.MASK_BITS`."""
        team = _search_team(team, node)
        if not team.rows:
            return True
        parts = node.parts
        masks, tests = _masked(team.domain, team.rows, parts)
        teams = [team] * len(parts)

        def level(k: int) -> Iterator[bool]:
            sub, part, closed = teams[k], parts[k], parts[k + 1].closed
            if k and (node, k, sub) in self.memo:
                return
            rows, last = sub.rows, parts[-1] if k + 2 == len(parts) else None
            full = (1 << len(rows)) - 1
            union = ors([masks.rows[row] for row in rows]) if part in tests or last in tests else None

            def team_of(mask: int) -> Team:
                # the rows whose bits are set, in row order; ``sub`` for all
                return sub if mask == full else sub._sub([row for i, row in enumerate(rows) if mask >> i & 1])

            def holds(side: _Node, mask: int) -> bool:
                test = tests.get(side)
                return test(union(mask)) if test else self.memo_eval(team_of(mask), side)

            if part.check:
                held = sum(1 << i for i, row in enumerate(rows) if part.check(row))
                lefts = (held,) if closed or held == full else (0, held)
            else:
                lefts = chain((full, 0), range(1, full))
            for mask in lefts:
                # an empty left team holds, and so does an empty right team
                if mask:
                    self.tick()
                    if not part.check and not holds(part, mask):
                        continue
                free = () if closed else [1 << i for i in range(len(rows)) if mask >> i & 1]
                for extra in _choices(free, 0, closed):
                    # different left teams share right teams, whose repeats
                    # are memo hits, so each right team ticks
                    if not closed:
                        self.tick()
                    right = full & ~mask | sum(extra)
                    if last is None:
                        teams[k + 1] = team_of(right)
                        yield True
                    elif not right or holds(last, right):
                        yield True
            if k:
                self.memo[node, k, sub] = False
                self.tick(0)

        for _ in depth_first(len(parts) - 1, level):
            return True
        return False

    # -- existential quantification ----------------------------------------

    def exists(self, team: Team | ProbTeam, node: _Node) -> bool:
        team = _search_team(team, node)
        if not team.rows:
            return True
        block = node.block
        values = team.universe
        if not values:
            raise InvalidArgumentError("cannot quantify over an empty universe")
        residual, inclusions = block.residual, block.inclusions
        allowed = [set(map(right, team.rows)) for _, right, _ in inclusions]
        # the smallest covering inclusion (the first of equals) generates
        # the choices, and so needs no test of its own
        source = None if None in block.tests else min(block.tests, key=lambda j: len(allowed[j]))
        if source is None:
            # every row takes the whole product, so the first row's tick
            # would refuse it: refuse it before it is built
            self._check(self.nodes + len(values) ** len(block.variables))
            reads, table = (), {(): list(product(values, repeat=len(block.variables)))}
        else:
            reads, *layout = inclusions[source][2]
            table = _candidate_table(allowed[source], *layout)
        test = block.tests[source] and block.tests[source](*allowed)
        candidates: list[list[Row]] = []
        for row in team.rows:
            choices = table.get(tuple(row[p] for p in reads), ())
            self.tick(len(choices))
            cands = [row + choice for choice in choices]
            if test:
                cands = list(filter(test, cands))
            if not cands:
                return False
            candidates.append(cands)

        if not block.constraints and not residual:
            return True

        constraints = [make() for make in block.constraints]
        rank = {v: i for i, v in enumerate(values)}
        components = self._components(team, candidates, constraints, block, rank)

        chosen: list[tuple[Row, ...]] = []

        def chosen_team() -> Team:
            return Team(block.ext_domain, chain.from_iterable(chosen), team.universe)

        # one precedence state over the whole search order: a solved
        # component's values stay used for the components after it
        precedence = _Precedence(block.symmetric, rank) if block.symmetric else None

        def groups(i: int) -> Iterator[bool]:
            """Add each admissible choice group of row ``i`` to the
            constraints and ``chosen`` in turn, yielding while it holds;
            undone on resumption."""
            for group in _choices(candidates[i], 1, block.closed):
                # a closed block's group is one row; a relabelling of a
                # symmetric column is skipped before it ticks
                if precedence is not None and not precedence.admit(group[0]):
                    continue
                self.tick()
                progress = []
                ok = True
                for ext in group:
                    for c in constraints:
                        if c.add(ext):
                            progress.append(c)
                        else:
                            ok = False
                            break
                    if not ok:
                        break
                if ok:
                    chosen.append(group)
                    if not residual or not residual.closed or self.memo_eval(chosen_team(), residual):
                        yield True
                    chosen.pop()
                for c in reversed(progress):
                    c.undo()
                if precedence is not None:
                    precedence.undo()

        # Solving components separately keeps a failure in one from
        # triggering backtracking through the alternatives of the others.
        # Constraint state carries over: by construction no key or value is
        # shared across components, so solved components never interfere.
        for order in components:
            # a solved component stops its search at the solution, so its
            # choices stay in the constraints and ``chosen``
            for _ in depth_first(len(order), lambda k: groups(order[k])):
                if not residual or residual.closed or self.memo_eval(chosen_team(), residual):
                    break
            else:
                return False
        return True

    @staticmethod
    def _components(team: Team, candidates, constraints, block: _Block, rank: dict) -> list[list[int]]:
        """Partition row indices into independent search components, each
        in the order of the rows' signature values (by their ``rank`` in
        the universe), then of their candidate counts.

        Rows belong together when some constraint can relate them (shared
        dependence key, shared nc value); ``block.whole`` forces a single
        component (see :class:`_Block`).
        """
        rows = team.rows
        n = len(rows)
        signature = block.signature
        order_all = sorted(
            range(n),
            key=lambda i: (tuple(rank[rows[i][p]] for p in signature), len(candidates[i]), i),
        )
        if block.whole:
            return [order_all]
        parent = list(range(n))

        def find(i: int) -> int:
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        def union(i: int, j: int):
            ri, rj = find(i), find(j)
            if ri != rj:
                parent[rj] = ri

        anchors: dict = {}
        for ci, c in enumerate(constraints):
            for i in range(n):
                for node in c.interaction_nodes(rows[i]):
                    key = (ci, node)
                    if key in anchors:
                        union(anchors[key], i)
                    else:
                        anchors[key] = i
        buckets: dict[int, list[int]] = {}
        for i in order_all:
            buckets.setdefault(find(i), []).append(i)
        return sorted(buckets.values(), key=lambda g: g[0])


def _candidate_table(allowed: set, outer, slots, same) -> dict:
    """The choices a covering inclusion allows, keyed by the values that
    a row must have at the positions it reads outside the block.

    Each allowed tuple whose values agree at each ``same`` pair of indices
    gives the choice of its values at ``slots``, under the key of its
    values at ``outer``.  Tuples are taken in ``row_key`` order, and each
    key keeps a choice at its first occurrence."""
    table: dict = {}
    for entry in sorted(allowed, key=row_key):
        if all(entry[i] == entry[j] for i, j in same):
            table.setdefault(tuple(entry[i] for i in outer), {})[tuple(entry[k] for k in slots)] = None
    return table


def _choices(items: Sequence, least: int, closed: bool) -> Iterable[tuple]:
    """The sub-tuples of ``items`` with at least ``least`` members,
    smallest first; only those of size ``least`` when ``closed``, since a
    downward-closed formula that holds with a larger choice holds with a
    smaller one.  A split's right team takes any of the left's rows
    (``least`` 0), an existential any nonempty set of values for a row
    (``least`` 1)."""
    if closed:
        return combinations(items, least)
    return chain.from_iterable(combinations(items, k) for k in range(least, len(items) + 1))


def _search_team(team: Team | ProbTeam, node: _Node) -> Team:
    """The relational team on which a split or existential search
    decides ``node``: the team's support, which decides a node with no
    ``_||_`` on a :class:`~teamlogic.teams.ProbTeam` too (the lemma of
    :mod:`teamlogic.eval_prob`).  A node with one is refused there: its
    verdict reads the weights of a continuum of splits or Skolem families."""
    if node.weighted and isinstance(team, ProbTeam):
        raise UnsupportedFragmentError(
            "a _||_ atom under a probabilistic disjunction or existential "
            "quantifier is not decided; check an explicit witness instead"
        )
    return team.support()


class _Block:
    """The static half of an existential search, compiled once: the block
    of fresh variables it quantifies together, whose values a row's choice
    appends to it (``ext_domain``), whether the matrix is downward closed,
    and the matrix's conjuncts sorted into row tests (``tests``, one
    :func:`_row_test` per candidate source), inclusions, incremental
    constraints and one ``residual`` node, of the conjuncts built as nodes.

    An inclusion's right side reads no block variable, so it has one value
    set on a team.  When its left side reads every block position, its
    ``cover`` lays out the table of the choices it allows
    (:func:`_candidate_table`): the row positions the left side reads
    outside the block, their indices in it, the index of each block
    variable's first position, and the index pairs of a repeated one.
    ``signature`` holds the positions outside the block that constraints
    group rows by, and ``whole`` forces one search component: a residual
    conjunct sees the whole team, and a constraint grouping on a block
    position relates rows by values that the search changes.

    ``symmetric`` holds the positions of the value-symmetric variables: a
    variable is value-symmetric when the block is closed (each row takes
    one value tuple) and it occurs free in the matrix only inside ``dep``
    and ``_||_`` atoms, also under ``|``, ``A`` or a nested ``E``.  Those
    atoms compare a column only with itself, so permuting the universe on
    that column alone maps witnesses to witnesses, and the search tries
    its values in precedence order (:class:`_Precedence`).  Any other
    occurrence breaks the symmetry: ``=``, ``!=``, ``<=`` and ``ncc``
    compare the column with other columns or constants, ``nc(xs; y)``
    compares ``y`` with the ``xs`` values, and generalized dependence
    compares ``x1`` keys with ``x2`` keys."""

    __slots__ = (
        "variables", "ext_domain", "tests", "inclusions", "constraints",
        "residual", "closed", "symmetric", "signature", "whole",
    )

    def __init__(self, var: str, body: Formula, domain: tuple[str, ...], nodes: dict):
        # nested E's over fresh columns join the block unbuilt, collapsed as in _build
        variables = [var]
        body = _innermost(body)
        while isinstance(body, Exists) and body.var not in domain and body.var not in variables:
            variables.append(body.var)
            body = _innermost(body.body)
        self.variables = tuple(variables)
        self.ext_domain = domain + self.variables
        block = tuple(range(len(domain), len(self.ext_domain)))
        self.inclusions, self.constraints, residual, filters = [], [], [], []
        for atom in body.parts if isinstance(body, And) else (body,):
            if _classical(atom):
                filters.append(atom)
            elif isinstance(atom, Incl) and not set(atom.ys) & set(variables):
                xpos = positions(self.ext_domain, atom.xs)
                cover = None
                if set(block) <= set(xpos):
                    outer = tuple(i for i, p in enumerate(xpos) if p not in block)
                    same = tuple((i, xpos.index(p)) for i, p in enumerate(xpos) if p in block and xpos.index(p) < i)
                    cover = (tuple(xpos[i] for i in outer), outer, tuple(map(xpos.index, block)), same)
                self.inclusions.append((xpos, _tuples(positions(domain, atom.ys)), cover))
            elif type(atom) in _CONSTRAINTS:
                self.constraints.append(partial(_CONSTRAINTS[type(atom)], self.ext_domain, atom))
            else:
                residual.append(atom)
        sources = [j for j, (*_, cover) in enumerate(self.inclusions) if cover] or [None]
        self.tests = {j: _row_test(filters, self.inclusions, j, self.ext_domain) for j in sources}
        self.residual = _build(conjoin(residual), self.ext_domain, nodes) if residual else None
        self.closed = not self.inclusions and (not residual or self.residual.closed)
        self.symmetric = () if not self.closed else positions(self.ext_domain, tuple(
            v for v in variables if _value_symmetric(body, v)
        ))
        grouping = {p for make in self.constraints for p in make().grouping_positions}
        self.signature = tuple(sorted(grouping - set(block)))
        self.whole = bool(self.residual or grouping & set(block))


def _value_symmetric(formula: Formula, var: str) -> bool:
    """Whether ``var`` occurs free in ``formula`` only inside ``dep`` and
    ``_||_`` atoms."""
    match formula:
        case Dep() | Indep():
            return True
        case And(parts) | Or(parts):
            return all(_value_symmetric(part, var) for part in parts)
        case Exists(bound, body) | Forall(bound, body):
            return bound == var or _value_symmetric(body, var)
    return var not in free_vars(formula)


class _Precedence:
    """Value precedence on a block's value-symmetric columns (Law and
    Lee, *CP* 2004): going down the search, a row takes in each such
    column a value already used there, or else the least unused value
    in universe order.  Permuting each such column maps every witness to
    one that keeps precedence in the search order, so the search loses
    no verdict.  The used values of a column are always a prefix of the
    universe, so their count is the column's whole state."""

    __slots__ = ("positions", "rank", "used", "trail")

    def __init__(self, positions: tuple[int, ...], rank: dict):
        self.positions = positions
        self.rank = rank
        self.used = [0] * len(positions)
        self.trail: list = []

    def admit(self, row: Row) -> bool:
        """Whether ``row`` keeps precedence; if it does, its first uses
        count as used until :meth:`undo`."""
        fresh = []
        for k, p in enumerate(self.positions):
            r = self.rank[row[p]]
            if r > self.used[k]:
                return False
            if r == self.used[k]:
                fresh.append(k)
        for k in fresh:
            self.used[k] += 1
        self.trail.append(fresh)
        return True

    def undo(self):
        for k in self.trail.pop():
            self.used[k] -= 1


class _DepConstraint:
    """Incremental functional-dependence check with undo, refcounted so
    that undoing a row keeps the entry of the other rows with its key."""

    __slots__ = ("xpos", "key", "val", "table", "trail")

    def __init__(self, domain: tuple[str, ...], atom: Dep):
        self.xpos = positions(domain, atom.xs)
        self.key, self.val = project(self.xpos), project(positions(domain, atom.ys))
        self.table: dict = {}
        self.trail: list = []

    @property
    def grouping_positions(self):
        return self.xpos

    def interaction_nodes(self, row: Row):
        yield self.key(row)

    def add(self, row: Row) -> bool:
        key = self.key(row)
        val = self.val(row)
        entry = self.table.get(key)
        if entry is None:
            self.table[key] = [val, 1]
        elif entry[0] != val:
            return False
        else:
            entry[1] += 1
        self.trail.append(key)
        return True

    def undo(self):
        key = self.trail.pop()
        entry = self.table[key]
        entry[1] -= 1
        if entry[1] == 0:
            del self.table[key]


class _GenDepConstraint:
    """Incremental generalized-dependence check: once a key occurs on both
    sides, all its values on either side must coincide.

    A row enters side 1 under each of its side-1 ``keys1``, valued by
    ``v1``, and side 2 under its one side-2 key ``k2``, valued by ``v2``.
    ``dep((x1; x2), (y1; y2))`` has one key on each side.  ``nc(xs; y)``
    is the case whose side-1 keys are a row's distinct ``xs`` values,
    valued by its ``y``, and whose side-2 key is ``y``, valued by itself:
    a ``y`` value among a row's ``xs`` values must be that row's ``y``.
    """

    __slots__ = ("grouping_positions", "keys1", "v1", "k2", "v2", "side1", "side2", "trail")

    def __init__(self, grouping_positions: tuple[int, ...], keys1, v1, k2, v2):
        self.grouping_positions = grouping_positions
        self.keys1, self.v1, self.k2, self.v2 = keys1, v1, k2, v2
        self.side1: dict = {}
        self.side2: dict = {}
        self.trail: list = []

    def interaction_nodes(self, row: Row):
        yield from self.keys1(row)
        yield self.k2(row)

    @staticmethod
    def _put(mine: dict, theirs: dict, key, val) -> bool:
        """Count ``val`` under ``key`` on ``mine``, unless ``theirs`` has the
        key with another value.  Every put keeps the invariant that a key
        on both sides has one common value on either side, so checking
        ``theirs`` alone decides it."""
        counts = mine.get(key)
        other = theirs.get(key)
        if other and (val not in other or len(other) > 1):
            return False
        if counts is None:
            counts = mine[key] = {}
        counts[val] = counts.get(val, 0) + 1
        return True

    @staticmethod
    def _unput(mine: dict, key, val):
        counts = mine[key]
        counts[val] -= 1
        if counts[val] == 0:
            del counts[val]
        if not counts:
            del mine[key]

    def add(self, row: Row) -> bool:
        keys, v1, k2, v2 = self.keys1(row), self.v1(row), self.k2(row), self.v2(row)
        put = 0
        for k1 in keys:
            if not self._put(self.side1, self.side2, k1, v1):
                break
            put += 1
        else:
            if self._put(self.side2, self.side1, k2, v2):
                self.trail.append((keys, v1, k2, v2))
                return True
        for k1 in keys[:put]:
            self._unput(self.side1, k1, v1)
        return False

    def undo(self):
        keys, v1, k2, v2 = self.trail.pop()
        self._unput(self.side2, k2, v2)
        for k1 in keys:
            self._unput(self.side1, k1, v1)


def _gendep(domain: tuple[str, ...], atom: GenDep) -> _GenDepConstraint:
    p_x1, p_x2 = positions(domain, atom.x1), positions(domain, atom.x2)
    k1 = project(p_x1)
    return _GenDepConstraint(
        p_x1 + p_x2, lambda row: (k1(row),), project(positions(domain, atom.y1)),
        project(p_x2), project(positions(domain, atom.y2)),
    )


def _nc(domain: tuple[str, ...], atom: NC) -> _GenDepConstraint:
    p_x = positions(domain, atom.xs)
    (p_y,) = positions(domain, (atom.y,))
    y = project((p_y,))
    return _GenDepConstraint(p_x + (p_y,), lambda row: tuple({row[i]: None for i in p_x}), y, y, y)


#: The incremental constraint each dependence-family conjunct of an
#: existential matrix becomes, built from the conjunct and the block's
#: domain.
_CONSTRAINTS = {Dep: _DepConstraint, GenDep: _gendep, NC: _nc}
