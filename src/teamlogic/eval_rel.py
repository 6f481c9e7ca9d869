"""Relational team-semantics evaluator.

Implements the inductive satisfaction clauses exactly, with lax semantics
throughout: disjunction splits into two covering (possibly overlapping)
subteams, the existential quantifier ranges over set-valued Skolem
functions, and the universal quantifier generalises over the team's value
universe.

The clauses for disjunction and existential quantification are genuinely
exponential, so the evaluator leans on three exact reductions:

* classical (literal-only) subformulas are flat and get decided pointwise,
  one row at a time;
* for downward-closed operands, covering splits reduce to partitions and
  set-valued Skolem functions reduce to single-valued ones;
* inside an existential block, conjuncts are compiled into per-row filters
  (classical parts, inclusion atoms with stable right side) and incremental
  consistency structures (dependence-family atoms) driving a backtracking
  search over canonically ordered rows.

Searches that outgrow the :class:`EvalBudget` raise
:class:`~teamlogic.errors.BudgetExceededError`, a third outcome that is
never conflated with ``False``.  The evaluator is pure; independent calls
may run concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product
from typing import Callable, Iterator, Sequence

from .errors import BudgetExceededError, DomainError, InvalidArgumentError
from .formulas import (
    NC,
    NCC,
    And,
    Const,
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
    Term,
    Var,
    conjuncts,
    free_vars,
    is_classical,
    is_downward_closed,
)
from .teams import Row, Team, positions, row_key, value_key


@dataclass(frozen=True)
class EvalBudget:
    """Caps on the evaluator's search effort.

    ``max_rows`` bounds the size of any team built by quantification,
    ``max_universe`` bounds the value universe, and ``memo_limit`` bounds
    the combined number of memo entries and visited search states.
    Exceeding any cap aborts the evaluation with a budget error; the
    evaluator never approximates.
    """

    max_rows: int = 200_000
    max_universe: int = 128
    memo_limit: int = 5_000_000

    def __post_init__(self):
        if self.max_rows <= 0 or self.max_universe <= 0 or self.memo_limit <= 0:
            raise InvalidArgumentError("budget limits must be positive")

    def check_universe(self, size: int):
        if size > self.max_universe:
            raise BudgetExceededError(f"universe of size {size} exceeds budget {self.max_universe}")

    def check_rows(self, count: int):
        if count > self.max_rows:
            raise BudgetExceededError(
                f"quantification would build {count} rows, budget is {self.max_rows}"
            )


DEFAULT_BUDGET = EvalBudget()


def eval_rel(team: Team, formula: Formula, budget: EvalBudget | None = None) -> bool:
    """Decide whether ``team`` satisfies ``formula`` relationally."""
    budget = budget or DEFAULT_BUDGET
    missing = free_vars(formula) - set(team.domain)
    if missing:
        raise DomainError(f"free variables {sorted(missing)} not bound by team domain {team.domain}")
    budget.check_universe(len(team.universe))
    return _Evaluator(budget).eval(team, formula)


def eval_atom_rel(team: Team, atom: Formula) -> bool:
    """Evaluate a single atom (or literal) by its direct definition.

    Only the ``ncc`` atom involves any search (over per-row selections);
    everything else is a scan of the rows.
    """
    missing = free_vars(atom) - set(team.domain)
    if missing:
        raise DomainError(f"free variables {sorted(missing)} not bound by team domain {team.domain}")
    ev = _Evaluator(DEFAULT_BUDGET)
    match atom:
        case Eq() | Neq():
            return ev.pointwise(team, atom)
        case Dep() | GenDep() | Indep() | Incl() | NC() | NCC():
            return ev.atom(team, atom)
    raise InvalidArgumentError(f"{atom!r} is not an atom")


def exact_transversal(blocks: Sequence[Sequence], tick: Callable[[], None] = lambda: None) -> set | None:
    """A value set meeting every block exactly once, or None.

    Depth-first choice with propagation: blocks are taken fewest options
    first (ties in input order) and their options in input order, with
    duplicates dropped.  Choosing a value excludes its block siblings
    everywhere, and a block already holding a chosen value is forced.
    ``tick`` is called once per search node, so a caller can bound the
    search.  The result is the first transversal found in that order.
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

    # one suspended frame per decided block, on an explicit stack so that
    # a search as deep as the team is long stays off the recursion limit
    frames: list[Iterator[bool]] = []
    while len(frames) < len(order):
        frames.append(picks(options[order[len(frames)]]))
        while not next(frames[-1], False):
            frames.pop()
            if not frames:
                return None
    return {v for v, picked in state.items() if picked}


class _Evaluator:
    def __init__(self, budget: EvalBudget):
        self.budget = budget
        self.nodes = 0
        self.memo: dict = {}
        self._compiled: dict = {}

    # -- bookkeeping ----------------------------------------------------

    def tick(self, n: int = 1):
        self.nodes += n
        if self.nodes + len(self.memo) > self.budget.memo_limit:
            raise BudgetExceededError(
                f"search exceeded budget of {self.budget.memo_limit} states"
            )

    # -- top-level dispatch ----------------------------------------------

    def eval(self, team: Team, formula: Formula) -> bool:
        if is_classical(formula):
            return self.pointwise(team, formula)
        match formula:
            case Dep() | GenDep() | Indep() | Incl() | NC() | NCC():
                return self.atom(team, formula)
            case And(lhs, rhs):
                return self.eval(team, lhs) and self.eval(team, rhs)
            case Or():
                return self.or_split(team, formula)
            case Forall(var, body):
                if not team.rows:
                    return True
                self.budget.check_rows(len(team.rows) * len(team.universe))
                return self.eval(team.generalize(var, team.universe), body)
            case Exists():
                return self.exists(team, formula)
        raise InvalidArgumentError(f"unknown formula node {formula!r}")

    def memo_eval(self, team: Team, formula: Formula) -> bool:
        key = (formula, team)
        hit = self.memo.get(key)
        if hit is None:
            hit = self.eval(team, formula)
            self.memo[key] = hit
            self.tick(0)
        return hit

    # -- classical formulas ----------------------------------------------

    def compile_classical(self, formula: Formula, domain: tuple[str, ...]) -> Callable[[Row], bool]:
        """Compile a literal-only formula to a per-row predicate."""
        key = (formula, domain)
        fn = self._compiled.get(key)
        if fn is not None:
            return fn

        def fetch(term: Term):
            if isinstance(term, Var):
                (pos,) = positions(domain, (term.name,))
                return lambda row: row[pos]
            value = term.value
            return lambda row: value

        def build(f: Formula) -> Callable[[Row], bool]:
            match f:
                case Eq(lhs, rhs):
                    a, b = fetch(lhs), fetch(rhs)
                    return lambda row: a(row) == b(row)
                case Neq(lhs, rhs):
                    a, b = fetch(lhs), fetch(rhs)
                    return lambda row: a(row) != b(row)
                case And(lhs, rhs):
                    a, b = build(lhs), build(rhs)
                    return lambda row: a(row) and b(row)
                case Or(lhs, rhs):
                    a, b = build(lhs), build(rhs)
                    return lambda row: a(row) or b(row)
            raise InvalidArgumentError(f"{f!r} is not a classical formula")

        fn = build(formula)
        self._compiled[key] = fn
        return fn

    def pointwise(self, team: Team, formula: Formula) -> bool:
        check = self.compile_classical(formula, team.domain)
        return all(check(row) for row in team.rows)

    # -- atoms -----------------------------------------------------------

    def atom(self, team: Team, atom: Formula) -> bool:
        match atom:
            case Dep(xs, ys):
                return self._dep(team, xs, ys)
            case GenDep(x1, x2, y1, y2):
                return self._gendep(team, x1, x2, y1, y2)
            case Indep(xs, cond, ys):
                return self._indep(team, xs, cond, ys)
            case Incl(xs, ys):
                return team.values_of(xs) <= team.values_of(ys)
            case NC(xs, y):
                return self._nc(team, xs, y)
            case NCC(xs):
                return self._ncc(team, xs)
        raise InvalidArgumentError(f"{atom!r} is not a team atom")

    def _dep(self, team: Team, xs, ys) -> bool:
        xpos = team.positions(xs)
        ypos = team.positions(ys)
        seen: dict = {}
        for row in team.rows:
            key = tuple(row[i] for i in xpos)
            val = tuple(row[i] for i in ypos)
            prev = seen.setdefault(key, val)
            if prev != val:
                return False
        return True

    def _gendep(self, team: Team, x1, x2, y1, y2) -> bool:
        p_x1, p_x2 = team.positions(x1), team.positions(x2)
        p_y1, p_y2 = team.positions(y1), team.positions(y2)
        side1: dict = {}
        side2: dict = {}
        for row in team.rows:
            side1.setdefault(tuple(row[i] for i in p_x1), set()).add(tuple(row[i] for i in p_y1))
            side2.setdefault(tuple(row[i] for i in p_x2), set()).add(tuple(row[i] for i in p_y2))
        for key, vals1 in side1.items():
            vals2 = side2.get(key)
            if vals2 and len(vals1 | vals2) != 1:
                return False
        return True

    def _indep(self, team: Team, xs, cond, ys) -> bool:
        p_x, p_z, p_y = team.positions(xs), team.positions(cond), team.positions(ys)
        groups: dict = {}
        for row in team.rows:
            z = tuple(row[i] for i in p_z)
            x = tuple(row[i] for i in p_x)
            y = tuple(row[i] for i in p_y)
            g = groups.get(z)
            if g is None:
                g = groups[z] = (set(), set(), set())
            g[0].add(x)
            g[1].add(y)
            g[2].add((x, y))
        return all(len(pairs) == len(xv) * len(yv) for xv, yv, pairs in groups.values())

    def _nc(self, team: Team, xs, y) -> bool:
        p_x = team.positions(xs)
        (p_y,) = team.positions((y,))
        yvals = {row[p_y] for row in team.rows}
        for row in team.rows:
            hits = yvals.intersection(row[i] for i in p_x)
            if hits - {row[p_y]}:
                return False
        return True

    def _ncc(self, team: Team, xs) -> bool:
        """Search for a per-row selection that is globally non-contextual.

        Equivalent to choosing a value set that meets every row's selector
        values exactly once; singleton choices suffice because the atom is
        downward closed.
        """
        p_x = team.positions(xs)
        blocks = [sorted({row[i] for i in p_x}, key=value_key) for row in team.rows]
        return exact_transversal(blocks, self.tick) is not None

    # -- disjunction -----------------------------------------------------

    def or_split(self, team: Team, formula: Or) -> bool:
        lhs, rhs = formula.lhs, formula.rhs
        if not team.rows:
            return True
        if is_classical(lhs):
            return self._or_with_flat_side(team, lhs, rhs)
        if is_classical(rhs):
            return self._or_with_flat_side(team, rhs, lhs)
        if self.memo_eval(team, lhs) or self.memo_eval(team, rhs):
            return True
        n = len(team.rows)
        rows = team.rows
        dc_l, dc_r = is_downward_closed(lhs), is_downward_closed(rhs)
        if dc_l or dc_r:
            # For a downward-closed side the cover may be thinned to a
            # partition, so enumerating one side's subset suffices.
            first, second = (lhs, rhs) if dc_r else (rhs, lhs)
            for mask in range(1, (1 << n) - 1):
                self.tick()
                left = self._subteam(team, rows, mask, n)
                if self.memo_eval(left, first):
                    right = self._subteam(team, rows, ~mask, n)
                    if self.memo_eval(right, second):
                        return True
            return False
        for mask in range(1, (1 << n) - 1):
            self.tick()
            left = self._subteam(team, rows, mask, n)
            if not self.memo_eval(left, lhs):
                continue
            complement = [i for i in range(n) if not mask & (1 << i)]
            free = [i for i in range(n) if mask & (1 << i)]
            for k in range(len(free) + 1):
                for extra in combinations(free, k):
                    self.tick()
                    chosen = complement + list(extra)
                    right = Team(team.domain, (rows[i] for i in chosen), team.universe)
                    if self.memo_eval(right, rhs):
                        return True
        return False

    def _or_with_flat_side(self, team: Team, flat: Formula, other: Formula) -> bool:
        check = self.compile_classical(flat, team.domain)
        rest = tuple(row for row in team.rows if not check(row))
        if not rest:
            return True
        rest_team = Team(team.domain, rest, team.universe)
        if is_downward_closed(other):
            return self.eval(rest_team, other)
        satisfied = tuple(row for row in team.rows if check(row))
        for k in range(len(satisfied) + 1):
            for extra in combinations(satisfied, k):
                self.tick()
                candidate = Team(team.domain, rest + extra, team.universe)
                if self.memo_eval(candidate, other):
                    return True
        return False

    @staticmethod
    def _subteam(team: Team, rows: tuple, mask: int, n: int) -> Team:
        picked = tuple(rows[i] for i in range(n) if mask & (1 << i))
        return Team(team.domain, picked, team.universe)

    # -- existential quantification ----------------------------------------

    def exists(self, team: Team, formula: Exists) -> bool:
        block: list[str] = []
        body: Formula = formula
        while isinstance(body, Exists) and body.var not in team.domain and body.var not in block:
            block.append(body.var)
            body = body.body
        if not block:
            # re-quantification of a bound column
            return self._exists_search(team, [formula.var], formula.body, rebound=True)
        return self._exists_search(team, block, body, rebound=False)

    def _exists_search(self, team: Team, variables: Sequence[str], matrix: Formula, rebound: bool) -> bool:
        if not team.rows:
            return True
        values = team.universe
        if not values:
            raise InvalidArgumentError("cannot quantify over an empty universe")
        width = len(variables)
        if rebound:
            ext_domain = team.domain
            slot = team.domain.index(variables[0])
            block_positions = (slot,)

            def extend(row: Row, choice: tuple) -> Row:
                return row[:slot] + (choice[0],) + row[slot + 1 :]

        else:
            ext_domain = team.domain + tuple(variables)
            block_positions = tuple(range(len(team.domain), len(ext_domain)))

            def extend(row: Row, choice: tuple) -> Row:
                return row + choice

        dynamic = set(block_positions)
        filters, incl_filters, constraints, residual = self._split_matrix(
            team, matrix, ext_domain, set(variables)
        )
        residual_dc = all(is_downward_closed(c) for c in residual)
        singleton = is_downward_closed(matrix)

        choice_source = self._choice_source(values, width, block_positions, incl_filters)
        candidates: list[list[Row]] = []
        for row in team.rows:
            cands = []
            for choice in choice_source(row):
                self.tick()
                ext = extend(row, choice)
                if all(f(ext) for f in filters) and all(
                    tuple(ext[i] for i in pos) in allowed for pos, allowed in incl_filters
                ):
                    cands.append(ext)
            if not cands:
                return False
            candidates.append(cands)

        if not constraints and not residual:
            return True

        components = self._components(team, candidates, constraints, residual, dynamic)

        chosen: list[tuple[Row, ...]] = []

        def check_residual_partial() -> bool:
            partial = Team(ext_domain, (r for group in chosen for r in group), team.universe)
            return all(self.memo_eval(partial, c) for c in residual)

        def choices_for(i: int):
            cands = candidates[i]
            if singleton:
                for ext in cands:
                    yield (ext,)
            else:
                for size in range(1, len(cands) + 1):
                    yield from combinations(cands, size)

        def groups(i: int) -> Iterator[bool]:
            """Add each admissible choice group of row ``i`` to the
            constraints and ``chosen`` in turn, yielding while it holds;
            undone on resumption."""
            for group in choices_for(i):
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
                    if not residual or not residual_dc or check_residual_partial():
                        yield True
                    chosen.pop()
                for c in reversed(progress):
                    c.undo()

        def solve(order: list[int]) -> bool:
            # one suspended frame per decided row, on an explicit stack so
            # that a search as deep as the team is long stays off the
            # recursion limit; a solved component leaves its frames
            # suspended, so its choices stay in the constraints and ``chosen``
            frames: list[Iterator[bool]] = []
            while True:
                if len(frames) < len(order):
                    frames.append(groups(order[len(frames)]))
                elif not residual or residual_dc or check_residual_partial():
                    return True
                while frames and not next(frames[-1], False):
                    frames.pop()
                if not frames:
                    return False

        # Solving components separately keeps a failure in one from
        # triggering backtracking through the alternatives of the others.
        # Constraint state carries over: by construction no key or value is
        # shared across components, so solved components never interfere.
        return all(solve(component) for component in components)

    def _components(self, team: Team, candidates, constraints, residual, dynamic) -> list[list[int]]:
        """Partition row indices into independent search components.

        Rows belong together when some constraint can relate them (shared
        dependence key, shared nc value).  Residual conjuncts see the whole
        team, and constraints keyed on dynamic positions (quantified or
        rebound columns, whose values change during the search) have
        unknown interaction, so either forces a single component.
        """
        n = len(team.rows)
        sig_positions = sorted(
            {p for c in constraints for p in c.grouping_positions} - set(dynamic)
        )
        order_all = sorted(
            range(n),
            key=lambda i: (
                row_key(tuple(team.rows[i][p] for p in sig_positions)),
                len(candidates[i]),
                row_key(team.rows[i]),
            ),
        )
        if residual or any(
            set(c.grouping_positions) & dynamic for c in constraints
        ):
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
                for node in c.interaction_nodes(team.rows[i]):
                    key = (ci, node)
                    if key in anchors:
                        union(anchors[key], i)
                    else:
                        anchors[key] = i
        buckets: dict[int, list[int]] = {}
        for i in order_all:
            buckets.setdefault(find(i), []).append(i)
        groups = sorted(buckets.values(), key=lambda g: g[0])
        return groups

    def _choice_source(self, values, width: int, block_positions, incl_filters):
        """Per-row generator of quantified value tuples.

        An inclusion filter whose left side covers every quantified
        position enumerates only tuples the atom can accept, which is
        usually far smaller than the full value product; without one, the
        product is scanned blindly (budget-ticked per combination).
        """
        block_index = {p: k for k, p in enumerate(block_positions)}
        generator = None
        for pos, allowed in incl_filters:
            if set(block_positions) <= set(pos):
                if generator is None or len(allowed) < len(generator[1]):
                    generator = (pos, allowed)
        if generator is None:
            base = list(product(values, repeat=width))
            return lambda row: base
        pos, allowed = generator
        allowed = sorted(allowed, key=row_key)

        def source(row: Row):
            seen = set()
            for entry in allowed:
                choice: list = [None] * width
                ok = True
                for val, p in zip(entry, pos):
                    k = block_index.get(p)
                    if k is None:
                        if row[p] != val:
                            ok = False
                            break
                    elif choice[k] is None:
                        choice[k] = val
                    elif choice[k] != val:
                        ok = False
                        break
                if ok:
                    out = tuple(choice)
                    if out not in seen:
                        seen.add(out)
                        yield out

        return source

    def _split_matrix(self, team: Team, matrix: Formula, ext_domain: tuple[str, ...], new_vars: set):
        filters = []
        incl_filters = []
        constraints = []
        residual = []
        for conj in conjuncts(matrix):
            if is_classical(conj):
                filters.append(self.compile_classical(conj, ext_domain))
            elif isinstance(conj, Incl) and not set(conj.ys) & new_vars:
                # The right side never mentions quantified variables, and
                # every original row keeps at least one extension, so its
                # value set is fixed; the atom becomes a per-row filter.
                incl_filters.append((positions(ext_domain, conj.xs), team.values_of(conj.ys)))
            elif isinstance(conj, Dep):
                constraints.append(_DepConstraint(ext_domain, conj))
            elif isinstance(conj, GenDep):
                constraints.append(_GenDepConstraint(ext_domain, conj))
            elif isinstance(conj, NC):
                constraints.append(_NCConstraint(ext_domain, conj))
            else:
                residual.append(conj)
        return filters, incl_filters, constraints, residual


class _DepConstraint:
    """Incremental functional-dependence check with undo, refcounted so
    duplicate rows (from rebinding merges) stay consistent."""

    __slots__ = ("xpos", "ypos", "table", "trail")

    def __init__(self, domain: tuple[str, ...], atom: Dep):
        self.xpos = positions(domain, atom.xs)
        self.ypos = positions(domain, atom.ys)
        self.table: dict = {}
        self.trail: list = []

    @property
    def grouping_positions(self):
        return self.xpos

    def interaction_nodes(self, row: Row):
        yield tuple(row[i] for i in self.xpos)

    def add(self, row: Row) -> bool:
        key = tuple(row[i] for i in self.xpos)
        val = tuple(row[i] for i in self.ypos)
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
    sides, all its consequent values on either side must coincide."""

    __slots__ = ("p_x1", "p_x2", "p_y1", "p_y2", "side1", "side2", "trail")

    def __init__(self, domain: tuple[str, ...], atom: GenDep):
        self.p_x1 = positions(domain, atom.x1)
        self.p_x2 = positions(domain, atom.x2)
        self.p_y1 = positions(domain, atom.y1)
        self.p_y2 = positions(domain, atom.y2)
        self.side1: dict = {}
        self.side2: dict = {}
        self.trail: list = []

    @property
    def grouping_positions(self):
        return self.p_x1 + self.p_x2

    def interaction_nodes(self, row: Row):
        yield tuple(row[i] for i in self.p_x1)
        yield tuple(row[i] for i in self.p_x2)

    @staticmethod
    def _put(mine: dict, theirs: dict, key, val) -> bool:
        counts = mine.get(key)
        other = theirs.get(key)
        if other:
            # both sides populated: everything must be one common value
            if val not in other or len(other) > 1:
                return False
            if counts and (len(counts) > 1 or val not in counts):
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
        k1 = tuple(row[i] for i in self.p_x1)
        v1 = tuple(row[i] for i in self.p_y1)
        k2 = tuple(row[i] for i in self.p_x2)
        v2 = tuple(row[i] for i in self.p_y2)
        if not self._put(self.side1, self.side2, k1, v1):
            return False
        if not self._put(self.side2, self.side1, k2, v2):
            self._unput(self.side1, k1, v1)
            return False
        self.trail.append((k1, v1, k2, v2))
        return True

    def undo(self):
        k1, v1, k2, v2 = self.trail.pop()
        self._unput(self.side2, k2, v2)
        self._unput(self.side1, k1, v1)


class _NCConstraint:
    """Incremental check of nc(xs, y): a y-value occurring among a row's
    selector values pins that row's y."""

    __slots__ = ("p_x", "p_y", "yvals", "containing", "trail")

    def __init__(self, domain: tuple[str, ...], atom: NC):
        self.p_x = positions(domain, atom.xs)
        (self.p_y,) = positions(domain, (atom.y,))
        self.yvals: dict = {}
        self.containing: dict = {}
        self.trail: list = []

    @property
    def grouping_positions(self):
        return self.p_x + (self.p_y,)

    def interaction_nodes(self, row: Row):
        yield row[self.p_y]
        for i in self.p_x:
            yield row[i]

    def add(self, row: Row) -> bool:
        xset = frozenset(row[i] for i in self.p_x)
        y = row[self.p_y]
        for v in xset:
            if v != y and v in self.yvals:
                return False
        for entry in self.containing.get(y, ()):
            if entry != y:
                return False
        self.yvals[y] = self.yvals.get(y, 0) + 1
        for v in xset:
            self.containing.setdefault(v, []).append(y)
        self.trail.append((xset, y))
        return True

    def undo(self):
        xset, y = self.trail.pop()
        self.yvals[y] -= 1
        if self.yvals[y] == 0:
            del self.yvals[y]
        for v in xset:
            bucket = self.containing[v]
            bucket.pop()
            if not bucket:
                del self.containing[v]
