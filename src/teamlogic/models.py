"""Empirical and hidden-variable models as validated team wrappers.

An empirical model of arity n is a team over the reserved variables
``m1..mn, o1..on``; a hidden-variable model additionally carries the
hidden column ``l``.  This column order is the model's fixed layout, and
the package reads a model row by it: the measurements are ``row[:n]``,
the outcomes ``row[n:2n]`` and the hidden value ``row[2n]``.  Component
value sets are the active values of each column, per the convention that
every measurement, outcome and hidden value appears in at least one row.
Wrappers are immutable; the wrapped data is either a relational
:class:`~teamlogic.teams.Team` or a :class:`~teamlogic.teams.ProbTeam`,
and both answer ``support()``, ``restrict`` and ``skolem_extend``, so an
operation that is the same in both semantics runs once on the data.

The layer also provides the structural moves between the two worlds:
projecting a hidden-variable model to its induced empirical model,
possibilistic collapse of probabilistic models, exact empirical
equivalence, and the commutativity check tying all of these together,
run on random teams as the fig1 suite (:func:`verify_fig1`).
:func:`tag_rows` adds a hidden column of tags, each given by the rows it
holds, in canonical order; the no-go witness and relational localization
are both assembled by it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from operator import itemgetter

from .errors import DomainError, InvalidArgumentError
from .teams import ProbTeam, Team, _canonical_sort, _plain, _sorted_values, value_key

LAMBDA_VAR = "l"


@lru_cache(maxsize=16)
def empirical_domain(arity: int) -> tuple[str, ...]:
    return tuple(f"m{i}" for i in range(1, arity + 1)) + tuple(
        f"o{i}" for i in range(1, arity + 1)
    )


def hidden_domain(arity: int) -> tuple[str, ...]:
    return empirical_domain(arity) + (LAMBDA_VAR,)


class _ModelBase:
    __slots__ = ("arity", "data", "warnings")

    kind = ""

    def __init__(self, data: Team | ProbTeam, arity: int, warnings: tuple[str, ...] = ()):
        self.arity = arity
        self.data = data
        self.warnings = warnings

    @property
    def probabilistic(self) -> bool:
        return isinstance(self.data, ProbTeam)

    @property
    def team(self) -> Team:
        """The relational team: the data's support."""
        return self.data.support()

    @property
    def prob_team(self) -> ProbTeam:
        if not self.probabilistic:
            raise InvalidArgumentError("model is relational; no distribution attached")
        return self.data

    def measurement_values(self, i: int) -> tuple:
        return _column_values(self.team, f"m{i}")

    def outcome_values(self, i: int) -> tuple:
        return _column_values(self.team, f"o{i}")

    def __eq__(self, other) -> bool:
        return type(self) is type(other) and self.arity == other.arity and self.data == other.data

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.arity, self.data))

    def __repr__(self) -> str:
        flavor = "probabilistic" if self.probabilistic else "relational"
        return f"{type(self).__name__}(arity={self.arity}, {flavor}, rows={len(self.team)})"


class EmpiricalModel(_ModelBase):
    """A nonempty team over ``m1..mn, o1..on`` with active-value components."""

    kind = "empirical"


class HVModel(_ModelBase):
    """A nonempty team over ``m1..mn, o1..on, l``."""

    kind = "hidden"

    def lambda_values(self) -> tuple:
        return _column_values(self.team, LAMBDA_VAR)


def _column_values(team: Team, var: str) -> tuple:
    (pos,) = team.positions((var,))
    return tuple(sorted({row[pos] for row in team.rows}, key=value_key))


def tag_rows(team: Team, graphs: dict) -> Team:
    """``team`` extended by the hidden column: each row, in row order, by
    the tags whose graph (a tuple of rows of ``team``) holds it, in tag
    order, so the rows come out canonical.  Every row must lie on some
    graph.

    A tag is a pair of a head and a section's tables, tuples of values of
    ``team``'s rows.  So when the heads, the rows' values and the universe
    are exact scalars, so is every leaf of every tag, and the tags are
    sorted natively (:mod:`teamlogic.teams`)."""
    # the team's universe is its sorted active values; numbers and strings
    # sort before every tuple, so only its tuples are merged with the tags
    universe = team.universe
    cut = next((i for i, v in enumerate(universe) if isinstance(v, tuple)), len(universe))
    plain = _plain(chain(map(itemgetter(0), graphs), universe, chain.from_iterable(team.rows)))
    merged = _canonical_sort([*graphs, *universe[cut:]], plain)
    tags_of: dict[tuple, list] = {}
    for tag in merged:
        for row in graphs.get(tag, ()):
            tags_of.setdefault(row, []).append(tag)
    assert len(tags_of) == len(team.rows), "every row must carry a tag"
    # a list first: tuple() of a generator over-allocates, which raises peak RSS
    rows = tuple([row + (tag,) for row in team.rows for tag in tags_of[row]])
    return Team._canonical(team.domain + (LAMBDA_VAR,), rows, universe[:cut] + tuple(merged))


def from_team(data: Team | ProbTeam, kind: str) -> EmpiricalModel | HVModel:
    """Wrap a team as a validated model.

    The domain must match the reserved convention exactly for some arity.
    Relational teams whose declared universe exceeds the active values are
    narrowed, with a warning recorded on the model: quantifier ranges of a
    model are its active values, and extensions must be made explicit with
    ``add_values``.
    """
    team = data.support()
    if not team.rows:
        raise InvalidArgumentError("models must be nonempty")
    arity, expected = _infer_arity(team.domain, kind)
    if team.domain != expected:
        raise DomainError(
            f"domain {team.domain} does not match the reserved convention {expected}"
        )
    warnings: tuple[str, ...] = ()
    if not isinstance(data, ProbTeam):
        # a universe is a distinct superset of the active values
        active = set(chain.from_iterable(team.rows))
        if len(active) != len(team.universe):
            extra = sorted(set(team.universe) - active, key=value_key)
            warnings = (
                f"universe narrowed to active values; dropped {extra}",
            )
            data = Team._canonical(team.domain, team.rows, tuple(_sorted_values(active)))
    cls = EmpiricalModel if kind == "empirical" else HVModel
    return cls(data, arity, warnings)


def _infer_arity(domain: tuple[str, ...], kind: str) -> tuple[int, tuple[str, ...]]:
    if kind == "empirical":
        if len(domain) % 2 or not domain:
            raise DomainError(f"empirical domain must have even positive length, got {domain}")
        arity = len(domain) // 2
        return arity, empirical_domain(arity)
    if kind == "hidden":
        if len(domain) % 2 == 0 or len(domain) < 3:
            raise DomainError(f"hidden domain must have odd length >= 3, got {domain}")
        arity = (len(domain) - 1) // 2
        return arity, hidden_domain(arity)
    raise InvalidArgumentError(f"unknown model kind {kind!r}")


def induced_empirical(model: HVModel) -> EmpiricalModel:
    """Project out the hidden column; probabilistically, marginalize over it."""
    return from_team(model.data.restrict(empirical_domain(model.arity)), "empirical")


def possibilistic_collapse(model: EmpiricalModel | HVModel):
    """The relational counterpart: the support read as a relational model."""
    return from_team(model.team, model.kind)


def empirically_equivalent(
    empirical: EmpiricalModel, hidden: HVModel, mode: str = "joint"
) -> bool:
    """Exact empirical equivalence of a hidden-variable model with an
    empirical one.

    ``joint`` compares full joint distributions (relationally: row sets)
    of the induced empirical model, the notion used throughout this
    package.  ``conditional`` compares measurement sets and the outcome
    distributions conditional on each measurement, the slightly weaker
    notion common in the literature; the two agree whenever the
    measurement marginals agree, and every result here is insensitive to
    the choice.
    """
    if empirical.arity != hidden.arity:
        raise InvalidArgumentError(
            f"arity mismatch: empirical {empirical.arity} vs hidden {hidden.arity}"
        )
    if empirical.probabilistic != hidden.probabilistic:
        raise InvalidArgumentError("cannot compare relational with probabilistic models")
    if mode not in ("joint", "conditional"):
        raise InvalidArgumentError(f"unknown equivalence mode {mode!r}")
    induced = induced_empirical(hidden)
    if not empirical.probabilistic:
        # conditioning degenerates relationally: both modes compare rows
        return induced.team.same_rows(empirical.team)
    if mode == "joint":
        return induced.prob_team.same_weights(empirical.prob_team)
    return _same_conditionals(induced.prob_team, empirical.prob_team, empirical.arity)


def _same_conditionals(left: ProbTeam, right: ProbTeam, arity: int) -> bool:
    """Equal rows, hence equal measurement sets, each row with equal
    probability given its context (its prefix ``row[:arity]``), compared
    in cleared form on the int numerators."""
    if not left.team.same_rows(right.team):
        return False
    left_totals = left.masses(empirical_domain(arity)[:arity])
    right_totals = right.masses(empirical_domain(arity)[:arity])
    return all(
        wl * right_totals[row[:arity]] == wr * left_totals[row[:arity]]
        for (row, wl), wr in zip(left.numerators().items(), right.numerators().values())
    )


def verify_fig1_commutes(prob_hv_team: ProbTeam) -> bool:
    """Check the compatibility square of team and model structure.

    For a probabilistic hidden-variable team, collapsing to the relational
    world and projecting to the empirical variables commute exactly, on
    row sets and on weights, along every composite path.
    """
    h_prob = from_team(prob_hv_team, "hidden")
    varE = empirical_domain(h_prob.arity)
    e_prob = induced_empirical(h_prob)

    # one row set along every path: support then restrict, restrict then
    # support, and for models collapse then project, project then collapse
    a = prob_hv_team.support().restrict(varE)
    paths = (e_prob, possibilistic_collapse(e_prob), induced_empirical(possibilistic_collapse(h_prob)))
    if not all(a.same_rows(path.team) for path in paths):
        return False

    # the probabilistic empirical model is the exact marginal, summed here
    # in Fractions over the hidden column, which comes last
    marginal: dict = {}
    for row, w in prob_hv_team.weights().items():
        marginal[row[:-1]] = marginal.get(row[:-1], 0) + w
    return e_prob.prob_team.weights() == marginal


@dataclass
class Fig1Report:
    samples: int
    seed: int
    failures: int

    @property
    def ok(self) -> bool:
        return self.failures == 0

    def lines(self) -> list[str]:
        return [
            f"collapse/projection commutativity on {self.samples} random probabilistic "
            f"hidden-variable teams (seed {self.seed}): "
            f"{self.samples - self.failures} ok, {self.failures} failures"
        ]


def verify_fig1(samples: int = 1000, seed: int = 0) -> Fig1Report:
    """The fig1 suite: :func:`verify_fig1_commutes` on ``samples`` random
    probabilistic hidden-variable teams, drawn in turn from one
    ``random.Random(seed)``, so a seed fixes the report."""
    import random

    # sampling builds its teams through this module
    from .sampling import random_hv_prob_team

    if samples < 1:
        raise InvalidArgumentError(f"--samples must be at least 1, not {samples}")
    rng = random.Random(seed)
    failures = sum(not verify_fig1_commutes(random_hv_prob_team(rng)) for _ in range(samples))
    return Fig1Report(samples, seed, failures)
