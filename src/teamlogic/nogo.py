"""The no-go searches: Bell/Hardy non-locality and Kochen-Specker.

Classical explainability of an empirical model by a strongly
deterministic, measurement-independent hidden-variable model is settled
by entailment first: ``StrongDet |= WeakDet & ParIndep`` and
``LambdaIndep & ParIndep |= NoSig`` chain, so a signalling model has no
such explanation, and :func:`exists_strongdet_lambdaindep` answers it by
one ``NoSigE`` check.  For the rest the question is combinatorial: every
hidden value carves out a *global section*, a family of per-component
outcome functions whose graph lies inside the model, and the model is
explainable exactly when the consistent sections jointly cover it.  They
are enumerated with per-context propagation on the driver
:func:`~teamlogic.eval_rel.depth_first`; each section's graph is the
model rows it picks, which the cover test reads and a covered model's
witness takes in canonical row order, through
:func:`~teamlogic.models.tag_rows`.  :func:`exists_local_lambdaindep`
answers the Locality variant, which the localization normal form makes
the same decision.  The same kernel serves that normal form:
:func:`~teamlogic.constructions.localize_rel` takes its new hidden values
from the consistent sections of each old hidden value's rows.

The bundled Hardy empirical model has no such explanation.  The
bundled 18-vector configuration in 4-space drives three formulations of
the Kochen-Specker theorem: no vector set meets every orthogonal basis
exactly once, the 9-row measurement team falsifies the
non-contextual-choice atom, and no extension of that team by one-hot
outcome columns is non-contextual.  All three run the one search
:func:`~teamlogic.eval_rel.exact_transversal` and differ only in how its
input is built, so agreement cross-checks those constructions.  The
independent routes are the parity argument (every vector in exactly two
of an odd number of bases already forbids a transversal) and, in the
tests, brute force over one pick per basis.

Probabilistic no-go verdicts follow from the relational ones: a
probabilistic explanation collapses to a relational one, so nonexistence
transfers; the reports state this derivation rather than re-searching.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from typing import Iterator

from .errors import BudgetExceededError, InvalidArgumentError
from .eval_rel import DEFAULT_BUDGET, EvalBudget, depth_first, eval_atom_rel, exact_transversal, search_tick
from .formulas import NCC
from .jsonio import _fraction, load
from .models import EmpiricalModel, HVModel, tag_rows
from .properties import PropertyName, check_property
from .teams import Team, Value, _sorted_values, value_key


@dataclass(frozen=True)
class GlobalSection:
    """Per-component outcome functions, stored as sorted value tables,
    and their graph: the model row the section picks at each context, in
    canonical context order."""

    tables: tuple[tuple[tuple[Value, Value], ...], ...]
    graph: tuple[tuple, ...]


def consistent_sections(model: EmpiricalModel, budget: EvalBudget | None = None) -> list[GlobalSection]:
    """All global sections whose graph is contained in the model.

    Enumerated by per-context propagation: contexts are processed in
    canonical order, each choosing a compatible model row and extending
    the partial per-component functions, with contradictions pruned early.
    A section's graph is the tuple of the rows chosen.  A section space
    past ``budget.memo_limit`` is refused up front.
    """
    limit = (budget or DEFAULT_BUDGET).memo_limit
    n = model.arity
    components = range(n)
    rows = model.team.rows
    # a row's context is its prefix and the rows are canonical, so one
    # grouping pass meets the contexts, and each one's rows, in order
    groups: dict[tuple, list[tuple]] = {}
    for row in rows:
        groups.setdefault(row[:n], []).append(row)
    contexts = list(groups.items())
    measured = [_sorted_values([a[i] for a in groups]) for i in components]
    space = 1
    for i in components:
        space *= len({row[n + i] for row in rows}) ** len(measured[i])
        if space > limit:
            raise BudgetExceededError(f"section space exceeds {limit}; refusing blind enumeration")

    sections: list[GlobalSection] = []
    partial: list[dict] = [{} for _ in components]
    chosen: list[tuple] = [()] * len(contexts)

    def extensions(k: int) -> Iterator[bool]:
        """Extend ``partial`` by each compatible row of context ``k`` in
        turn, yielding while it holds; undone on resumption."""
        a, picks = contexts[k]
        for row in picks:
            added = []
            for i in components:
                known = partial[i].get(a[i])
                if known is None:
                    partial[i][a[i]] = row[n + i]
                    added.append((i, a[i]))
                elif known != row[n + i]:
                    break
            else:
                chosen[k] = row
                yield True
            for i, key in added:
                del partial[i][key]

    for _ in depth_first(len(contexts), extensions):
        tables = tuple([tuple([(m, f[m]) for m in values]) for f, values in zip(partial, measured)])
        sections.append(GlobalSection(tables, tuple(chosen)))
    return sections


def exists_strongdet_lambdaindep(model: EmpiricalModel, budget: EvalBudget | None = None) -> HVModel | None:
    """Decide whether an empirically equivalent hidden-variable model
    satisfying Strong Determinism and hidden-variable independence exists;
    return one, whose hidden values are the consistent sections tagged
    ``("sec", tables)``, or None.

    A signalling model has none, past ``budget.memo_limit`` too: such a
    model is ParIndep, as StrongDet entails that, so with LambdaIndep it
    is NoSig, and ``NoSigE`` of an empirically equivalent model is the
    model's own.  Otherwise, soundness: each hidden value determines each
    component's outcome from its measurement, and independence makes every
    measurement tuple occur with every hidden value, so each hidden value
    yields a consistent total section and their graphs cover the model.
    Completeness: a covering family of consistent sections *is* such a
    model.  A hidden-variable or probabilistic model is refused.
    """
    if not isinstance(model, EmpiricalModel):
        raise InvalidArgumentError("nogo exists needs an empirical model")
    if model.probabilistic:
        raise InvalidArgumentError(
            "decision runs relationally; pass the support model "
            "(nonexistence transfers to the probabilistic side)"
        )
    if not check_property(model, PropertyName.NO_SIG_E, budget=budget):
        return None
    sections = consistent_sections(model, budget)
    if not _covers(model, sections):
        return None
    return HVModel(tag_rows(model.team, {("sec", s.tables): s.graph for s in sections}), model.arity)


def _covers(model: EmpiricalModel, sections: list[GlobalSection]) -> bool:
    """Whether the graphs of ``sections`` cover the model's rows."""
    return {row for section in sections for row in section.graph} == set(model.team.rows)


def exists_local_lambdaindep(model: EmpiricalModel, budget: EvalBudget | None = None) -> HVModel | None:
    """Decide existence of an equivalent Loc and hidden-variable
    independent model.

    Same decision as the strong-determinism variant: Strong Determinism
    entails Locality one way, and the localization normal form upgrades a
    Loc witness to a strongly deterministic one the other way.  The
    returned witness is the strongly deterministic one.
    """
    return exists_strongdet_lambdaindep(model, budget)


# ---------------------------------------------------------------------------
# Hardy


def hardy_team() -> EmpiricalModel:
    from .datasets import load_bundled

    model = load_bundled("hardy")
    assert isinstance(model, EmpiricalModel)
    return model


def check_hardy_conditions(model: EmpiricalModel) -> list[str]:
    """Syntactic check of the six Hardy conditions; returns the violated
    ones (empty list means the no-go argument applies)."""
    team = model.team
    if model.arity != 2:
        return ["arity must be 2"]
    mset = team.values_of(("m1", "m2"))
    oset = team.values_of(("o1", "o2"))
    m1 = model.measurement_values(1)
    m2 = model.measurement_values(2)
    failures = []
    if len(m1) != 2 or len(m2) != 2 or len(mset) != 4:
        failures.append("(1) measurement grid must be full 2x2")
        return failures
    outcome_values = {v for pair in oset for v in pair}
    if len(outcome_values) != 2:
        failures.append("(2) outcomes must use exactly two values")
        return failures
    a1, a2 = m1
    b1, b2 = m2
    for r, g in permutations(sorted(outcome_values, key=value_key), 2):
        ok = (
            (a1, b1, r, r) in team
            and (a1, b2, r, r) not in team
            and (a2, b1, r, r) not in team
            and (a2, b2, g, g) not in team
        )
        if ok:
            return []
    failures.append("(3)-(6) no labeling of outcomes as R,G satisfies the Hardy pattern")
    return failures


@dataclass
class HardyReport:
    conditions_ok: bool
    witness_exists: bool
    sections_found: int

    @property
    def ok(self) -> bool:
        return self.conditions_ok and not self.witness_exists

    def lines(self) -> list[str]:
        return [
            f"hardy team satisfies conditions (1)-(6): {self.conditions_ok}",
            f"consistent global sections: {self.sections_found}",
            f"StrongDet & lambda-indep model exists: {self.witness_exists} (expected False)",
            "Loc & lambda-indep model exists: "
            f"{self.witness_exists} (same decision, by the localization normal form)",
            "probabilistic no-go follows: a probabilistic explanation would collapse "
            "to a relational one",
        ]


def verify_hardy() -> HardyReport:
    model = hardy_team()
    sections = consistent_sections(model)
    return HardyReport(
        conditions_ok=not check_hardy_conditions(model),
        witness_exists=_covers(model, sections),
        sections_found=len(sections),
    )


# ---------------------------------------------------------------------------
# Kochen-Specker


@dataclass(frozen=True)
class KSConfiguration:
    """Rays in 4-space grouped into orthogonal quadruples.

    Coordinates are exact (integers or rationals); normalization is
    irrelevant to the combinatorics, so rays are stored as given.
    """

    vectors: tuple[tuple, ...]
    bases: tuple[tuple[int, int, int, int], ...]

    def validate(self, require_double_cover: bool = True) -> list[str]:
        """Structural problems, empty when valid.  ``require_double_cover``
        additionally demands every vector in exactly two bases (the parity
        structure of the bundled configuration)."""
        problems = []
        for idx, vec in enumerate(self.vectors):
            if len(vec) != 4:
                problems.append(f"vector {idx} is not 4-dimensional")
            elif all(x == 0 for x in vec):
                problems.append(f"vector {idx} is zero")
        for j, basis in enumerate(self.bases):
            if len(basis) != 4:
                problems.append(f"basis {j} has {len(basis)} vectors, not 4")
                continue
            if len(set(basis)) != 4:
                problems.append(f"basis {j} repeats a vector")
                continue
            if any(i < 0 or i >= len(self.vectors) for i in basis):
                problems.append(f"basis {j} references a missing vector")
                continue
            for p in range(4):
                for q in range(p + 1, 4):
                    u, v = self.vectors[basis[p]], self.vectors[basis[q]]
                    if _dot(u, v) != 0:
                        problems.append(
                            f"basis {j}: vectors {basis[p]} and {basis[q]} are not orthogonal"
                        )
        if require_double_cover:
            counts = _incidences(self.bases)
            for idx in range(len(self.vectors)):
                if counts[idx] != 2:
                    problems.append(f"vector {idx} occurs in {counts[idx]} bases, expected exactly 2")
        return problems


def _dot(u: tuple, v: tuple) -> Fraction:
    return sum((Fraction(a) * Fraction(b) for a, b in zip(u, v)), Fraction(0))


def ks_config_from_dict(payload: dict) -> KSConfiguration:
    try:
        vectors = tuple(tuple(_coord(x) for x in vec) for vec in payload["vectors"])
        bases = tuple(tuple(_index(i) for i in basis) for basis in payload["bases"])
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidArgumentError(f"malformed KS configuration: {exc}") from None
    return KSConfiguration(vectors, bases)


def _index(i) -> int:
    if isinstance(i, bool) or not isinstance(i, int):
        raise InvalidArgumentError(f"KS basis indices must be integers, got {i!r}")
    return i


def _coord(x) -> Value:
    if isinstance(x, bool) or not isinstance(x, (int, str)):
        raise InvalidArgumentError(f"KS coordinates must be exact, got {x!r}")
    return _fraction(x) if isinstance(x, str) else x


def cabello_config() -> KSConfiguration:
    """The bundled 18-vector, 9-basis configuration (exact integer rays,
    each vector in exactly two bases)."""
    return load_ks("builtin:cabello18")


def load_ks(spec) -> KSConfiguration:
    """The valid KS configuration in the file or ``builtin:NAME`` table
    ``spec``."""
    cfg = ks_config_from_dict(load(spec))
    problems = cfg.validate()
    if problems:
        raise InvalidArgumentError("; ".join(problems))
    return cfg


def parity_obstruction(cfg: KSConfiguration) -> bool:
    """True when the double-cover parity argument alone forbids a
    coloring: with every vector in exactly two bases, the incidences of a
    transversal are even, but one per basis needs an odd count."""
    counts = _incidences(cfg.bases)
    return all(c == 2 for c in counts.values()) and len(cfg.bases) % 2 == 1


def _incidences(bases) -> Counter:
    """The number of bases each vector lies in; a basis that repeats a
    vector counts it once."""
    return Counter(i for basis in bases for i in set(basis))


def ks_colorable(cfg: KSConfiguration, budget: EvalBudget | None = None) -> tuple[int, ...] | None:
    """Search for a vector set meeting every basis exactly once.

    Runs :func:`~teamlogic.eval_rel.exact_transversal` on the bases and
    returns the first transversal it finds, in basis order, as sorted
    vector indices, or None; past ``budget.memo_limit`` search nodes it
    raises a budget error.  The kernel it shares with the ``ncc`` atom
    and :func:`noncontextual_extension` is cross-checked independently by
    :func:`parity_obstruction` and, in the tests, by brute force.
    """
    chosen = exact_transversal(cfg.bases, search_tick(budget))
    return None if chosen is None else tuple(sorted(chosen))


def ks_team(cfg: KSConfiguration) -> Team:
    """The measurement team: one row per basis, listing its four rays."""
    for j, basis in enumerate(cfg.bases):
        if any(i < 0 or i >= len(cfg.vectors) for i in basis):
            raise InvalidArgumentError(f"basis {j} references a missing vector")
    rows = [tuple(cfg.vectors[i] for i in basis) for basis in cfg.bases]
    return Team(("m1", "m2", "m3", "m4"), rows)


def noncontextual_extension(cfg: KSConfiguration, budget: EvalBudget | None = None) -> Team | None:
    """Search the measurement team's rows for a global vector valuation
    selecting exactly one ray per row, within ``budget.memo_limit`` search
    nodes; on success, return the witnessing extension of the team by
    one-hot outcome columns."""
    rows = ks_team(cfg).rows
    chosen = exact_transversal(rows, search_tick(budget))
    if chosen is None:
        return None
    extended = [row + tuple(1 if v in chosen else 0 for v in row) for row in rows]
    return Team(("m1", "m2", "m3", "m4", "o1", "o2", "o3", "o4"), extended)


@dataclass
class KSReport:
    validation_problems: list[str]
    parity_forbids: bool
    coloring: tuple[int, ...] | None
    ncc_holds: bool
    extension: Team | None

    @property
    def ok(self) -> bool:
        colorable = self.coloring is not None
        extendable = self.extension is not None
        agree = (colorable == self.ncc_holds == extendable)
        return not self.validation_problems and agree and (
            not self.parity_forbids or not colorable
        )

    def lines(self) -> list[str]:
        colorable = self.coloring is not None
        return [
            f"configuration valid: {not self.validation_problems}"
            + (f" ({'; '.join(self.validation_problems)})" if self.validation_problems else ""),
            f"parity argument forbids a transversal: {self.parity_forbids}",
            f"transversal exists (exhaustive search): {colorable}",
            f"measurement team satisfies ncc(m1..m4): {self.ncc_holds}",
            f"non-contextual one-hot extension exists: {self.extension is not None}",
            f"all three formulations agree: {colorable == self.ncc_holds == (self.extension is not None)}",
        ]


def verify_ks(cfg: KSConfiguration | None = None, require_double_cover: bool = True,
              budget: EvalBudget | None = None) -> KSReport:
    """Run all three Kochen-Specker formulations, each search within
    ``budget``, and cross-check them."""
    cfg = cfg or cabello_config()
    problems = cfg.validate(require_double_cover=require_double_cover)
    team = ks_team(cfg)
    return KSReport(
        validation_problems=problems,
        parity_forbids=parity_obstruction(cfg),
        coloring=ks_colorable(cfg, budget),
        ncc_holds=eval_atom_rel(team, NCC(("m1", "m2", "m3", "m4")), budget),
        extension=noncontextual_extension(cfg, budget),
    )
