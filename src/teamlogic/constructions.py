"""Constructive existence of empirically equivalent hidden-variable models.

Four constructors, each implementing a constructive proof:

* :func:`construct_single_valued` adds a constant hidden column;
* :func:`construct_strong_det` tags every row with itself as hidden value;
* :func:`construct_weakdet_lambdaindep` builds the least-common-multiple
  partition model realizing weak determinism together with hidden-variable
  independence for rational distributions;
* :func:`localize_rel` / :func:`localize_prob` turn a model satisfying
  Locality and hidden-variable independence into an equivalent one
  satisfying Strong Determinism and hidden-variable independence (the
  "local realism" normal form), in the relational and probabilistic
  semantics respectively.

Hidden values are canonical structured tokens (a fixed symbol, row tags,
integers 0..N-1, or pairs of a hidden value and a section's tables), so
outputs are reproducible byte for byte.  Every output is exactly
empirically equivalent to its input.  The LCM construction and
probabilistic localization lay out their blocks by one kernel,
``_partition``, which asserts the partition bookkeeping at build time.
Both hand each row's hidden values, built in canonical order with int
shares, to the trusted extension ``ProbTeam._split``, which keys nothing.
Relational localization runs on global sections: each old hidden value's
rows are a model for :func:`~teamlogic.nogo.consistent_sections`, and the
new hidden column is assembled by :func:`~teamlogic.models.tag_rows`, as
the no-go witness is.
"""

from __future__ import annotations

from itertools import product
from math import gcd, lcm, prod

from .errors import InvalidArgumentError, PreconditionError
from .eval_rel import EvalBudget
from .models import (
    LAMBDA_VAR,
    EmpiricalModel,
    HVModel,
    empirical_domain,
    from_team,
    induced_empirical,
    tag_rows,
)
from .nogo import consistent_sections
from .properties import PropertyName, check_property
from .teams import ProbTeam, row_key

SINGLE_LAMBDA = "l0"


def construct_single_valued(model: EmpiricalModel) -> HVModel:
    """Extend by a constant hidden column; trivially empirically equivalent
    and single-valued (hence independent of the measurements)."""
    # a one-entry map of weight 1 is a distribution to a ProbTeam, and to
    # a Team an image, whose one value is its key
    return from_team(model.data.skolem_extend(LAMBDA_VAR, lambda s: {SINGLE_LAMBDA: 1}), "hidden")


def construct_strong_det(model: EmpiricalModel) -> HVModel:
    """Tag each row with itself: hidden values are the rows, so a hidden
    value determines everything, giving Strong Determinism.

    The hidden value also determines the measurements, so the output
    deliberately fails hidden-variable independence on any model with more
    than one measurement tuple.
    """
    # one value of weight 1, read as in construct_single_valued
    return from_team(model.data.skolem_extend(LAMBDA_VAR, lambda s: {s.row: 1}), "hidden")


def construct_weakdet_lambdaindep(model: EmpiricalModel) -> HVModel:
    """The LCM partition construction.

    For each measurement tuple, the conditional outcome probabilities
    p(z) = r(z)/s(z) partition a hidden set of size N = lcm of all s(z)
    into blocks of size p(z)*N, one block per outcome tuple; each row's
    mass is split uniformly over its block.  Every hidden value is then
    equally likely given any measurement, yielding hidden-variable
    independence, while a hidden value and a measurement pin the block and
    hence the outcome, yielding Weak Determinism.

    A relational model's masses are those of the uniform distribution on
    its rows, and each row is extended by its block: one extension serves
    both semantics, and a relational model keeps its support.
    """
    if isinstance(model, HVModel):
        raise InvalidArgumentError("the LCM construction needs an empirical model as input")
    n = model.arity
    pt = model.data if model.probabilistic else ProbTeam.uniform(model.data)
    # masses are keyed in canonical row order, and a row's context is its
    # prefix: each context's outcomes come in canonical order
    contexts: dict = {}
    for z, mass in pt.masses(empirical_domain(n)).items():
        contexts.setdefault(z[:n], {})[z[n:]] = mass
    blocks = _partition(contexts)
    # a row's mass is split evenly over its block, a range of ints and so
    # canonical: over the lcm of the block sizes each share is an int
    scale = lcm(*map(len, blocks.values()))
    shares = {key: [(v, scale // len(block)) for v in block] for key, block in blocks.items()}
    extended = pt._split(LAMBDA_VAR, [shares[(row[:n], row[n:])] for row in pt.rows], scale)
    return from_team(extended if model.probabilistic else extended.support(), "hidden")


def _partition(groups: dict) -> dict:
    """The LCM partition: one hidden set range(N) cut into blocks, once
    per group.

    ``groups`` maps each group to its outcomes' int masses, in layout
    order; the result maps each (group, outcome) pair to its block, a
    ``range``.  An outcome's share of N is its share of the group's total
    mass, and N is the lcm of the reduced denominators of those shares, so
    every block size is an integer and each group's blocks partition the
    hidden set.
    """
    totals = {group: sum(masses.values()) for group, masses in groups.items()}
    modulus = lcm(*(
        totals[group] // gcd(mass, totals[group])
        for group, masses in groups.items()
        for mass in masses.values()
    ))
    blocks: dict = {}
    for group, masses in groups.items():
        cursor = 0
        for outcome, mass in masses.items():
            size, rest = divmod(mass * modulus, totals[group])
            assert rest == 0
            blocks[(group, outcome)] = range(cursor, cursor + size)
            cursor += size
        assert cursor == modulus, "blocks must partition the hidden set"
    return blocks


def _require(model: HVModel, budget: EvalBudget | None = None):
    failing = [
        name
        for name, prop in (
            ("Locality", PropertyName.LOC_H),
            ("lambda-independence", PropertyName.LAMBDA_INDEP_H),
        )
        if not check_property(model, prop, budget=budget)
    ]
    if failing:
        raise PreconditionError(
            f"input model violates {' and '.join(failing)}; "
            "localization needs a Loc and lambda-independent witness"
        )


def localize_rel(model: HVModel, budget: EvalBudget | None = None) -> HVModel:
    """Relational localization: from Locality and hidden-variable
    independence to Strong Determinism and hidden-variable independence.

    New hidden values are pairs (c, tables) of an old hidden value c and a
    consistent global section of c's slice, the rows with hidden value c
    read as an empirical model; each row is tagged with the pairs whose
    section picks it.  Under Locality and independence these sections are
    exactly the families of per-component selectors of outcomes witnessed
    under c.  ``budget`` bounds the precondition checks and, by its
    ``memo_limit``, each slice's section space, an upper bound on its
    selector families, as in :func:`~teamlogic.nogo.consistent_sections`.
    """
    if model.probabilistic:
        raise InvalidArgumentError("localize_rel needs a relational model")
    _require(model, budget)
    n = model.arity
    empirical = induced_empirical(model).team
    # the rows of a hidden value, less that value, are canonical rows of
    # the empirical team: the hidden value comes last
    slices: dict = {}
    for row in model.team.rows:
        slices.setdefault(row[2 * n], []).append(row[: 2 * n])
    graphs = {
        (c, s.tables): s.graph
        for c, rows in slices.items()
        for s in consistent_sections(EmpiricalModel(empirical._sub(rows), n), budget)
    }
    # under Loc every row lies on some section; tag_rows asserts it
    return HVModel(tag_rows(empirical, graphs), n)


def localize_prob(model: HVModel) -> HVModel:
    """Probabilistic localization via per-component LCM partitions.

    For each component i, the conditional probabilities
    p_i = P(o_i | m_i, c) partition a set of size N_i = lcm of their
    denominators into blocks of size p_i * N_i.  New hidden values are
    tuples (c, (c_1..c_n)) with c_i in the block of (m_i, o_i, c); a row's
    mass is distributed as P(c | row) split evenly over the block product.
    The hidden marginal then factors as P(c)/prod(N_i), independent of the
    measurements, while (m_i, c, c_i) pins o_i through its block.  The
    shares are ints over one scale, the lcm of their denominators.
    """
    if not model.probabilistic:
        raise InvalidArgumentError("localize_prob needs a probabilistic model")
    _require(model)
    pt = model.prob_team
    n = model.arity
    empirical = induced_empirical(model).prob_team

    # component i cuts its hidden set once per (m_i, l) pair, by the masses
    # of o_i; sorted (m_i, o_i, l) keys meet each pair's outcomes in order
    blocks = []
    for i in range(n):
        joint = pt.masses((pt.domain[i], pt.domain[n + i], LAMBDA_VAR))
        groups: dict = {}
        for a, b, c in sorted(joint, key=row_key):
            groups.setdefault((a, c), {})[b] = joint[(a, b, c)]
        blocks.append(_partition(groups))
    # the model's rows grouped by their prefix (a, b) meet the empirical
    # rows in order, and each one's hidden values c in canonical order
    row_mass: dict = {}
    for row, mass in pt.numerators().items():
        row_mass.setdefault((row[:n], row[n : 2 * n]), {})[row[2 * n]] = mass

    # each empirical row's new hidden values (c, combo), each of mass / d
    families = []
    for (a, b), by_lambda in row_mass.items():
        total = sum(by_lambda.values())  # the row's mass in the empirical model
        family = []
        for c, mass in by_lambda.items():
            ranges = [blocks[i][((a[i], c), b[i])] for i in range(n)]
            d = total * prod(map(len, ranges))
            family.extend(((c, combo), mass, d) for combo in product(*ranges))
        families.append(family)
    scale = lcm(*{d for family in families for *_, d in family})
    # each row's values are canonical, as _split takes them: the c values
    # of an (a, b) prefix come in row order, which is value_key order, and
    # within each c the combos come in product order over increasing ranges
    shares = ([(v, mass * (scale // d)) for v, mass, d in family] for family in families)
    return from_team(empirical._split(LAMBDA_VAR, shares, scale), "hidden")

