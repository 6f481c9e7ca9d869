"""Relational and probabilistic teams.

A team is a finite set of assignments over a shared, ordered variable
domain, with values drawn from a finite symbol universe.  A probabilistic
team additionally carries an exact-rational, full-support probability
distribution over its rows, held as ``int`` numerators over one shared
denominator in lowest terms: sums of masses are sums of ints, and
``Fraction`` values are made only where weights and probabilities leave
the package.  Everything downstream (formula evaluation,
hidden-variable models, constructions, the no-go searches) is built from
the operators defined here: restriction, generalisation, Skolem extension,
value-universe extension and possibilistic collapse.  Every extension
binds its column by one rule, :func:`bind`, a row is projected by one,
:func:`project`, and both kinds of team read a Skolem function one way.

Values are opaque tokens: strings, integers, exact rationals, or nested
tuples of these (tuples are used for vectors in 4-space and for structured
hidden-variable tags).  They carry a content-based total order via
:func:`value_key`, so every iteration and every serialized output is
bit-deterministic regardless of construction order or hash seeds.

The order is computed natively where it can be.  Lemma: on values whose
leaves are all of the exact types ``str``, ``int`` and ``Fraction``,
Python's own ``<`` either agrees with the :func:`value_key` order or
raises ``TypeError``.  Numbers compare as numbers and strings as
strings in both; tuples compare lexicographically in both, up to their
first unequal members, and members of two kinds are unequal, so a pair
of kinds at a deciding position raises.  A sort that does not raise has
therefore made the comparisons of the keyed sort, with the same
results, and returns the same list.  :func:`_canonical_sort` sorts a
team's rows and values, and the no-go witness tags, natively when a
caller knows every leaf is of an exact type, and by key on a
``TypeError``.  Exact types need no validation; a subclass may override
comparison, so any other type, a tuple found by a scan of top-level
types among them, is keyed, and keying validates it.

A team scans, sorts and checks the rows it is given once.  Rows whose order
is already known are stored without doing so again: a sub-team's rows
taken in row order, an extension's rows with a new column appended in
the order of its values, a restriction onto a prefix of the domain, and
rows that a caller assembles in canonical order.

All objects are immutable after construction and all operations are pure
functions; values and teams may be shared freely between threads.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from itertools import chain, repeat
from math import gcd, lcm
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Sequence

from .errors import DomainError, InvalidArgumentError

# A value is a str, int, Fraction, or a (nested) tuple of values.
Value = object
Row = tuple

#: Exact rational number in which weights and probabilities are handed in
#: and out.  No floating point appears anywhere in this package:
#: independence atoms compare products of masses for *equality*.
Rational = Fraction


def value_key(value: Value):
    """Sort key inducing a stable total order on all admissible values.

    Numbers sort before strings before tuples; tuples compare
    lexicographically by their members' keys.  Keying a value validates
    it: booleans and unsupported types raise ``InvalidArgumentError``.
    """
    # the exact types come first: they are almost every value, and an int
    # orders and hashes like its Fraction without being converted to one
    kind = type(value)
    if kind is str:
        return ("s", value)
    if kind is int or kind is Fraction:
        return ("n", value)
    if kind is tuple:
        return ("t", tuple(map(value_key, value)))
    if isinstance(value, bool):
        raise InvalidArgumentError("booleans are not valid team values")
    if isinstance(value, (int, Fraction)):
        return ("n", Fraction(value))
    if isinstance(value, str):
        return ("s", value)
    if isinstance(value, tuple):
        return ("t", tuple(value_key(v) for v in value))
    raise InvalidArgumentError(f"unsupported value type: {type(value).__name__}")


def row_key(row: Row):
    """Sort key of a row: the tuple of its values' keys."""
    return tuple(map(value_key, row))


#: The types whose values are their own canonical sort keys (module docstring).
_EXACT = frozenset({str, int, Fraction})


def _plain(values: Iterable[Value]) -> bool:
    """Whether every value is an exact ``str``, ``int`` or ``Fraction``:
    a tuple is not, whatever it holds."""
    return _EXACT.issuperset(map(type, values))


def _canonical_sort(values: Iterable, plain: bool, key: Callable = value_key) -> list:
    """The distinct ``values`` in canonical order: the one native sort, of
    a team's rows and values and of witness tags.  ``plain`` says that
    every leaf of every value is of an exact type: then they are sorted
    natively, and by ``key`` (:func:`value_key` or :func:`row_key`) only
    if that raises.  Otherwise every occurrence, duplicates included, is
    keyed, which validates it: ``True == 1`` and ``1.0 == 1``, so keying
    only the distinct values would let those through."""
    if plain:
        distinct = set(values)
        try:
            return sorted(distinct)
        except TypeError:
            return sorted(distinct, key=key)
    keyed = {v: key(v) for v in values}
    return sorted(keyed, key=keyed.__getitem__)


def _sorted_values(values: Iterable[Value]) -> list[Value]:
    """The distinct ``values`` in canonical order, each keyed once.

    Not sorted natively: most of the few values an extension's universe
    holds mix ints with strings, which a native sort cannot order, and
    on those a type scan costs more than the keys it would save."""
    keyed = {v: value_key(v) for v in values}
    return sorted(keyed, key=keyed.__getitem__)


def positions(domain: tuple[str, ...], variables: Sequence[str]) -> tuple[int, ...]:
    """Column indices of ``variables`` in ``domain``, raising on unknown names."""
    try:
        return tuple(map(domain.index, variables))
    except ValueError:
        missing = next(v for v in variables if v not in domain)
        raise DomainError(f"variable {missing!r} not in domain {domain}") from None


def project(pos: tuple[int, ...]) -> Callable[[Row], object]:
    """Row -> its values at ``pos``: a tuple, except that one position
    gives the bare value, as ``itemgetter`` does.  So a projection is
    only ever compared with projections of the same width."""
    return itemgetter(*pos) if pos else lambda row: ()


def bind(domain: tuple[str, ...], var: str) -> tuple[tuple[str, ...], Callable[[Row, Value], Row]]:
    """The domain after binding ``var``, and ``put(row, value)``, the row
    with ``var`` set to ``value``: a bound column is rebound in place, and
    a new one is appended."""
    if var not in domain:
        return domain + (var,), lambda row, v: row + (v,)
    pos = domain.index(var)
    return domain, lambda row, v: row[:pos] + (v,) + row[pos + 1 :]


def _per_row(domain: tuple[str, ...], function, what: str) -> Callable[[Row], object]:
    """A Skolem ``function`` as a function of the row: ``function`` is a
    callable on assignments or a mapping keyed by :class:`Assignment`,
    which must cover every row; ``what`` names it in that error."""
    if not isinstance(function, Mapping):
        return lambda row: function(Assignment(domain, row))
    table = dict(function)

    def lookup(row: Row):
        try:
            return table[Assignment(domain, row)]
        except KeyError:
            raise InvalidArgumentError(f"Skolem {what} is undefined on row {row!r}") from None

    return lookup


class Assignment(Mapping):
    """A single row of a team, viewed as a variable-to-value mapping.

    Hashable and immutable, so it can key Skolem-function tables.
    """

    __slots__ = ("_domain", "_row")

    def __init__(self, domain: tuple[str, ...], row: Row):
        if len(domain) != len(row):
            raise InvalidArgumentError("assignment row length does not match domain")
        self._domain = domain
        self._row = row

    @property
    def domain(self) -> tuple[str, ...]:
        return self._domain

    @property
    def row(self) -> Row:
        """The underlying value tuple, aligned with the domain order."""
        return self._row

    def __getitem__(self, var: str) -> Value:
        (pos,) = positions(self._domain, (var,))
        return self._row[pos]

    def __iter__(self) -> Iterator[str]:
        return iter(self._domain)

    def __len__(self) -> int:
        return len(self._domain)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Assignment)
            and self._domain == other._domain
            and self._row == other._row
        )

    def __hash__(self) -> int:
        return hash((self._domain, self._row))

    def __repr__(self) -> str:
        pairs = ", ".join(f"{v}={self._row[i]!r}" for i, v in enumerate(self._domain))
        return f"Assignment({pairs})"


class Team:
    """A duplicate-free set of assignments over an ordered variable domain.

    ``rows`` is kept as a canonically sorted tuple; ``universe`` is the
    (sorted) set of values available to quantifiers, always a superset of
    the values actually occurring in rows.  The empty team is legal here;
    the model layer rejects it.
    """

    __slots__ = ("domain", "rows", "universe", "_rowset", "_hash")

    def __init__(
        self,
        domain: Sequence[str],
        rows: Iterable[Sequence[Value]],
        universe: Iterable[Value] | None = None,
    ):
        dom = tuple(domain)
        if len(set(dom)) != len(dom):
            raise InvalidArgumentError(f"duplicate variables in domain {dom}")
        width = len(dom)
        given = list(map(tuple, rows))
        if set(map(len, given)) - {width}:
            row = next(row for row in given if len(row) != width)
            raise InvalidArgumentError(f"row {row!r} does not match domain width {width}")
        # one scan of every value occurrence: exact scalars need no key
        plain = _plain(chain.from_iterable(given))
        sorted_rows = tuple(_canonical_sort(given, plain, row_key))
        active = set(chain.from_iterable(sorted_rows))
        uni = _canonical_sort(active, plain) if universe is None else _sorted_values(universe)
        if universe is not None and not active.issubset(uni):
            raise InvalidArgumentError(
                "universe must contain every value occurring in rows"
            )
        self._store(dom, sorted_rows, tuple(uni))

    @staticmethod
    def _canonical(domain: tuple[str, ...], rows: tuple, universe: tuple) -> "Team":
        """The team with canonical ``rows`` over the sorted ``universe``
        holding their values, taken as given: nothing is keyed, checked or
        hashed."""
        team = object.__new__(Team)
        team._store(domain, rows, universe)
        return team

    def _sub(self, rows: Sequence[Row]) -> "Team":
        """The team over this team's domain and universe whose rows are
        ``rows``: distinct rows of this team, in :attr:`rows` order."""
        return Team._canonical(self.domain, tuple(rows), self.universe)

    def _store(self, domain: tuple[str, ...], rows: tuple, universe: tuple):
        """Set the fields.  The row set and the hash are made on first use,
        by ``in`` and :func:`hash`: most teams are only read row by row, and
        two threads that race to make either make equal values."""
        self.domain = domain
        self.rows = rows
        self.universe = universe
        self._rowset = self._hash = None

    # -- basic protocol ------------------------------------------------

    def __len__(self) -> int:
        return len(self.rows)

    def __contains__(self, row: Row) -> bool:
        if self._rowset is None:
            self._rowset = frozenset(self.rows)
        return tuple(row) in self._rowset

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Team)
            and self.domain == other.domain
            and self.rows == other.rows
            and self.universe == other.universe
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.domain, self.rows, self.universe))
        return self._hash

    def __repr__(self) -> str:
        return f"Team(domain={self.domain}, rows={len(self.rows)}, universe={len(self.universe)})"

    def assignments(self) -> Iterator[Assignment]:
        for row in self.rows:
            yield Assignment(self.domain, row)

    def positions(self, variables: Sequence[str]) -> tuple[int, ...]:
        """Column indices of ``variables``, raising on unknown names."""
        return positions(self.domain, variables)

    def same_rows(self, other: "Team") -> bool:
        """Row-set equality, ignoring the universes."""
        return self.domain == other.domain and self.rows == other.rows

    def support(self) -> "Team":
        """The relational team behind the data: a team is its own support,
        as a :class:`ProbTeam`'s is its rows."""
        return self

    # -- team operators -------------------------------------------------

    def values_of(self, variables: Sequence[str]) -> frozenset:
        """The set of value tuples taken by a variable tuple across rows."""
        pos = self.positions(variables)
        return frozenset(tuple(row[i] for i in pos) for row in self.rows)

    def restrict(self, variables: Sequence[str]) -> "Team":
        """Project onto a variable list, deduplicating rows.

        The universe is unchanged: restriction never discards values.
        """
        domain = tuple(variables)
        if domain == self.domain[: len(domain)]:  # a prefix keeps the row order
            rows = dict.fromkeys([row[: len(domain)] for row in self.rows])
            return Team._canonical(domain, tuple(rows), self.universe)
        pos = self.positions(domain)
        projected = {tuple(row[i] for i in pos) for row in self.rows}
        return Team(domain, projected, self.universe)

    def generalize(self, var: str, values: Iterable[Value]) -> "Team":
        """Unrestricted generalisation: extend (or rebind) ``var`` to every
        value of ``values`` in every row."""
        vals = _sorted_values(values)
        if not vals:
            raise InvalidArgumentError("cannot generalize over an empty value set")
        return self._extend(var, lambda row: vals)

    def skolem_extend(
        self,
        var: str,
        function: Callable[[Assignment], Iterable[Value]] | Mapping,
    ) -> "Team":
        """Skolem extension: each row is extended by every value of its
        (nonempty) image under ``function``.

        ``function`` may be a callable on assignments or a mapping keyed by
        :class:`Assignment`; it must cover every row.  An image is any
        iterable of values, a mapping's keys among them: a one-entry map
        of weight 1 extends a team as it extends a :class:`ProbTeam`.
        """
        image_of = _per_row(self.domain, function, "function")

        def checked(row: Row) -> list:
            vals = _sorted_values(image_of(row))
            if not vals:
                raise InvalidArgumentError(f"Skolem image for row {row!r} is empty")
            return vals

        return self._extend(var, checked)

    def _extend(self, var: str, image_of: Callable[[Row], list]) -> "Team":
        """Bind ``var`` in each row to each value of its image, a list in
        canonical order."""
        domain, put = bind(self.domain, var)
        images = list(map(image_of, self.rows))
        rows = [put(row, v) for row, image in zip(self.rows, images) for v in image]
        universe = {*self.universe, *(v for image in images for v in image)}
        if var in self.domain:  # a column rebound in place needs sorting
            return Team(domain, rows, universe)
        return Team._canonical(domain, tuple(rows), tuple(_sorted_values(universe)))

    def add_values(self, values: Iterable[Value]) -> "Team":
        """The team X+A: identical rows, universe enlarged by ``values``.

        Enlarging the universe changes no atomic formula; it only widens
        the range of quantifiers.
        """
        universe = _sorted_values((*self.universe, *values))
        return Team._canonical(self.domain, self.rows, tuple(universe))


class ProbTeam:
    """A team plus an exact-rational full-support distribution over it.

    The distribution is stored as one positive ``int`` numerator per row
    over a single shared ``denominator``, in lowest terms: the gcd of the
    denominator and all numerators is 1.  Two equal distributions therefore
    have equal numerators and denominators, whatever route built them.

    The public constructor takes ``int`` or ``Fraction`` weights and checks
    them: they cover exactly the team's rows, are positive (full support is
    structural, so the underlying team *is* the possibilistic collapse) and
    sum to exactly 1.  :meth:`weight` and :meth:`weights` hand out
    ``Fraction`` values in lowest terms.
    """

    __slots__ = ("team", "denominator", "_numerators", "_hash")

    def __init__(self, team: Team, weights: Mapping):
        table: dict[Row, int | Fraction] = {}
        for key, w in weights.items():
            row = key.row if isinstance(key, Assignment) else tuple(key)
            if row in table:
                raise InvalidArgumentError(f"duplicate weight entry for row {row!r}")
            table[row] = _exact(w, f"weight of row {row!r}")
        if table.keys() != set(team.rows):
            raise InvalidArgumentError("weights must cover exactly the team's rows")
        for row, weight in table.items():
            if weight <= 0:
                raise InvalidArgumentError(
                    f"weight of row {row!r} is {weight}; full support requires > 0"
                )
        scale = lcm(*(w.denominator for w in table.values()))
        numerators = {
            row: table[row].numerator * (scale // table[row].denominator) for row in team.rows
        }
        total = sum(numerators.values())
        if total != scale:
            raise InvalidArgumentError(
                f"weights sum to {Fraction(total, scale)}, expected exactly 1"
            )
        self._store(team, numerators, scale)

    @classmethod
    def _reduced(cls, team: Team, numerators: Mapping[Row, int], denominator: int) -> "ProbTeam":
        """The team with already checked weights: positive ``numerators``,
        covering exactly ``team.rows`` and summing to ``denominator``."""
        pt = object.__new__(cls)
        pt._store(team, numerators, denominator)
        return pt

    def _store(self, team: Team, numerators: Mapping[Row, int], denominator: int):
        # one gcd puts the distribution in lowest terms, in canonical row order
        g = gcd(denominator, *numerators.values())
        self.team = team
        self.denominator = denominator // g
        self._numerators = {row: numerators[row] // g for row in team.rows}
        self._hash = None  # made on first use, by hash()

    @property
    def domain(self) -> tuple[str, ...]:
        return self.team.domain

    @property
    def universe(self) -> tuple:
        return self.team.universe

    @property
    def rows(self) -> tuple:
        """The support's rows, in canonical order."""
        return self.team.rows

    def weight(self, row) -> Fraction:
        key = row.row if isinstance(row, Assignment) else tuple(row)
        try:
            return Fraction(self._numerators[key], self.denominator)
        except KeyError:
            raise InvalidArgumentError(f"row {key!r} is not in the team") from None

    def weights(self) -> dict[Row, Fraction]:
        """Weights keyed by row tuple, in canonical row order."""
        d = self.denominator
        return {row: Fraction(n, d) for row, n in self._numerators.items()}

    def numerators(self) -> dict[Row, int]:
        """Weight numerators over :attr:`denominator`, in canonical row order."""
        return dict(self._numerators)

    def same_weights(self, other: "ProbTeam") -> bool:
        """Equality of the distributions, ignoring the universes."""
        return (
            self.domain == other.domain
            and self.denominator == other.denominator
            and self._numerators == other._numerators
        )

    def __eq__(self, other) -> bool:
        return isinstance(other, ProbTeam) and self.team == other.team and self.same_weights(other)

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.team, self.denominator, tuple(self._numerators.values())))
        return self._hash

    def __repr__(self) -> str:
        return f"ProbTeam({self.team!r})"

    @classmethod
    def uniform(cls, team: Team) -> "ProbTeam":
        """The uniform distribution over a nonempty team."""
        n = len(team)
        if n == 0:
            raise InvalidArgumentError("cannot build a distribution over an empty team")
        return cls._reduced(team, dict.fromkeys(team.rows, 1), n)

    # -- probabilistic team operators ------------------------------------

    def support(self) -> Team:
        """Possibilistic collapse.  Full support makes this the underlying team."""
        return self.team

    def masses(self, variables: Sequence[str]) -> dict[Row, int]:
        """Exact marginal on a variable tuple (names may repeat): the total
        weight numerator of each occurring value tuple, over
        :attr:`denominator`, keyed in order of first occurrence along the
        canonical rows.

        Ratios of masses need no denominator: ``Fraction(a, b)``, or a
        cleared form compared on ints.  Conditional probabilities, the
        independence atom and the constructions all read their marginals
        here; the Locality oracle in :mod:`teamlogic.properties` sums the
        int numerators itself, so that it stays an independent check.
        """
        pos = positions(self.domain, variables)
        if not pos:
            return {(): self.denominator}
        # one position projects to the bare value; its keys are boxed at the end
        out: dict = {}
        get = out.get
        nums = self._numerators
        for key, w in zip(map(project(pos), nums), nums.values()):
            out[key] = get(key, 0) + w
        return {(k,): w for k, w in out.items()} if len(pos) == 1 else out

    def restrict(self, variables: Sequence[str]) -> "ProbTeam":
        """Marginalize onto a variable list; weights of merged rows add exactly."""
        merged = self.masses(variables)
        domain = tuple(variables)
        if domain == self.domain[: len(domain)]:  # a prefix keeps the row order
            team = Team._canonical(domain, tuple(merged), self.universe)
        else:
            team = Team(domain, merged.keys(), self.universe)
        return ProbTeam._reduced(team, merged, self.denominator)

    def skolem_extend(self, var: str, function) -> "ProbTeam":
        """Probabilistic Skolem extension.

        ``function`` maps each assignment to an exact-rational distribution:
        a mapping value -> ``int`` or ``Fraction`` weight, or an iterable of
        (value, weight) pairs, with weights summing to 1.  A value given
        twice, also as an equal value of another type, must come with the
        same weight both times, and counts once.  The probability mass of a
        row is split over its extensions in those proportions; zero-weight
        extensions are dropped so full support is preserved.

        The checked boundary for callers outside the package; callers
        inside it with canonical values and int shares call :meth:`_split`.
        """
        dist_of = _per_row(self.domain, function, "family")

        # every distribution is checked before any row is split: each over
        # the lcm of its own denominators, and all over the lcm of those;
        # each pair is keyed and checked before it counts, so a bool value,
        # or a repeat with another weight, is refused, not merged
        dists = []
        scale = 1
        for row in self._numerators:
            dist = []
            family = dist_of(row)
            # a mapping gives each value once; pairs may repeat one
            seen = None if isinstance(family, Mapping) else {}
            for v, p in family.items() if seen is None else family:
                key = value_key(v)
                p = _exact(p, f"probability of value {v!r}")
                if seen is not None:
                    if key in seen:
                        if seen[key] != p:
                            raise InvalidArgumentError(
                                f"value {v!r} is given probabilities {seen[key]} and {p} for row {row!r}"
                            )
                        continue
                    seen[key] = p
                n = p.numerator
                if n < 0:
                    raise InvalidArgumentError(f"negative probability {p} for value {v!r}")
                if n:
                    dist.append((key, v, n, p.denominator))
            dist.sort(key=itemgetter(0))
            row_scale = lcm(*(d for *_, d in dist))
            total = sum(n * (row_scale // d) for _, _, n, d in dist)
            if total != row_scale:
                total = Fraction(total, row_scale)
                raise InvalidArgumentError(
                    f"distribution for row {row!r} sums to {total}, expected 1"
                )
            scale = lcm(scale, row_scale)
            dists.append(dist)
        shares = ([(v, n * (scale // d)) for _, v, n, d in dist] for dist in dists)
        return self._split(var, shares, scale)

    def uniform_extend(self, var: str, values: Iterable[Value]) -> "ProbTeam":
        """Skolem extension splitting every row's mass uniformly over ``values``."""
        vals = _sorted_values(values)
        if not vals:
            raise InvalidArgumentError("cannot extend uniformly over an empty value set")
        return self._split(var, repeat([(v, 1) for v in vals]), len(vals))

    #: The universal quantifier's extension, by the name it has on :class:`Team`.
    generalize = uniform_extend

    def _split(self, var: str, shares: Iterable[list], scale: int) -> "ProbTeam":
        """Extend (or rebind) ``var``: row i's numerator times each share of
        the i-th list of (value, share) pairs, over ``denominator * scale``.
        Trusted, so unchecked: each list holds distinct valid values in
        canonical order, with positive ``int`` shares summing to ``scale``.
        """
        domain, put = bind(self.domain, var)
        out: dict[Row, int] = {}
        for (row, w), split in zip(self._numerators.items(), shares):
            for v, share in split:
                new_row = put(row, v)
                out[new_row] = out.get(new_row, 0) + w * share
        column = domain.index(var)
        universe = {*self.universe, *(row[column] for row in out)}
        if var in self.domain:  # a column rebound in place needs sorting
            team = Team(domain, out.keys(), universe)
        else:
            team = Team._canonical(domain, tuple(out), tuple(_sorted_values(universe)))
        return ProbTeam._reduced(team, out, self.denominator * scale)


def _exact(x, what: str):
    """``x`` itself when it is an exact number: an ``int`` or a
    ``Fraction``, but not a ``bool``."""
    if isinstance(x, (int, Fraction)) and not isinstance(x, bool):
        return x
    raise InvalidArgumentError(f"{what} is {x!r}; expected an int or a Fraction")
