"""The four benchmark workloads.

Each workload is built from a seed by :func:`setup`, which imports the
package, loads the eight bundled tables and generates every seeded input;
``run_pass`` then issues the workload's verdicts against the package and
checks them.  Only generated inputs reach the package: teams, models and
formula texts.

The workloads differ in which layer carries the cost, so that an
optimization of one layer has a workload that exercises it and one that
bypasses it:

``sweep``
    The two exhaustive suites behind ``teamlogic verify --suite
    entailments/separations``: tens of thousands of tiny teams, where the
    cost is ``Team`` construction and the dependence/independence atom
    kernels.  Its verdicts are the suites' own per-team checks.
``search``
    Few but large teams: the appendix equivalence sweep and seeded
    disjunction, existential and non-contextuality queries, whose cost is
    the split and existential search and memo hashing.
``nogo``
    The Hardy agreement sweep over every small two-party model: global
    section enumeration and ``Team`` construction, with no formula
    evaluation.
``prob``
    The exact-rational path: the fig1 square, the LCM constructions and
    probabilistic localization.

Per-item sizes follow a fixed schedule and only the contents come from the
seed, so two seeds give different inputs of the same shape and cost.
"""

from __future__ import annotations

import hashlib
import random
import traceback
from array import array
from contextlib import contextmanager
from importlib import import_module
from itertools import combinations, product
from time import thread_time

import teamlogic.cli  # noqa: F401  (the CLI's cold start imports the whole package)
from teamlogic.constructions import construct_weakdet_lambdaindep, localize_prob
from teamlogic.datasets import BUNDLED, load_bundled
from teamlogic.entailment import verify_property_entailments, verify_separations
from teamlogic.eval_rel import eval_rel
from teamlogic.formulas import parse
from teamlogic.models import (
    empirical_domain,
    empirically_equivalent,
    from_team,
    induced_empirical,
    verify_fig1_commutes,
)
from teamlogic.nogo import (
    exists_local_lambdaindep,
    exists_strongdet_lambdaindep,
    verify_hardy,
    verify_ks,
)
from teamlogic.properties import PropertyName, check_property, locality_oracle_prob
from teamlogic.sampling import random_empirical_model, random_hv_prob_team, random_local_witness
from teamlogic.teams import Team
from teamlogic.verify_appendix import verify_appendix

_entailment = import_module("teamlogic.entailment")
_appendix = import_module("teamlogic.verify_appendix")

#: The seed whose verdict digests are pinned below.
DEFAULT_SEED = 0

#: Digest of each workload's seeded verdicts at ``DEFAULT_SEED``, measured
#: on the commit that introduced the benchmark.  A pass whose digest
#: differs gave at least one different verdict.
PINNED_DIGESTS = {
    "sweep": "580d36e28f736f434ae2a2314d940d1fb7c93bd0afaf78e0a96ba4c66cea85c6",
    "search": "62a3a4dd9142e74b5d2b90cebc83a00621900eed04ca7c1d9bde71eae2888750",
    "nogo": "79713acf850d96e07b9fc5ed4eeabfc6106d54b6254f9c5e9fa0ca6fa11ee785",
    "prob": "6465d64f7d96f7571a8f96f682d8a5ff39f3880560de9a9aac00f10c1c4cb0a5",
}

#: Pinned sizes of the exhaustive sweeps.  The separation suite covers
#: every team of 1 to 7 rows over the 16 assignments of four binary
#: variables: the sum of comb(16, k) for k = 1..7 is 26,332.
ENTAILMENT_TEAMS = 41_448
SEPARATION_TEAMS = 26_332
APPENDIX_CASES = (697, 15, 93, 15)
HARDY_MODELS = 39_202
HARDY_EXPLAINABLE = 3_082

#: Fewest verdicts a pass issues, so that p99 has ten samples beyond it.
MIN_VERDICTS = 1_000


class PassLog:
    """Verdicts of one pass: latencies, answers for the digest, failures.

    Latencies are in thread CPU seconds (see ``calibration.py``); ``ends``
    holds the thread CPU time at which each verdict ended.

    ``tick`` runs after each verdict's clock has stopped; the harness uses
    it to interleave speed calibration with the verdicts.  A workload also
    calls it inside the package's long suites, which run no benchmark code
    for seconds.
    """

    def __init__(self, tick):
        self.latencies: list[float] = []
        self.ends = array("d")
        self.answers: list = []
        self.attempted = 0
        self.failures: list[str] = []
        self.tick = tick

    def query(self, label: str, fn, *args, expect=None):
        """Issue one timed verdict; its answer goes into the digest.

        ``expect`` is a predicate on the answer when the right answer is
        known independently; a raised error or a rejected answer is a
        failed verdict.
        """
        start = thread_time()
        try:
            answer = fn(*args)
        except Exception:  # a raising verdict is a failed verdict, not a crash
            self.timed(start)
            self.answers.append("error")
            self.failures.append(f"{label}: {traceback.format_exc(limit=3)}")
        else:
            self.timed(start)
            self.answers.append(answer)
            if expect is not None and not expect(answer):
                self.failures.append(f"{label}: unexpected answer {answer!r}")

    def timed(self, start: float):
        """Record one verdict that began at ``start`` and has just ended,
        then tick."""
        end = thread_time()
        self.latencies.append(end - start)
        self.ends.append(end)
        self.attempted += 1
        self.tick()

    def gate(self, label: str, ok: bool):
        """Record one pinned check of a suite report or a sweep count."""
        self.attempted += 1
        if not ok:
            self.failures.append(f"gate {label} failed")

    def digest(self) -> str:
        return hashlib.sha256(repr(self.answers).encode()).hexdigest()


@contextmanager
def rebound(module, attr: str, wrap):
    """Bind ``module.attr`` to ``wrap(current binding)`` for the block.

    The current binding is taken on entry, so inside a traced pass the
    hook wraps the traced function."""
    original = getattr(module, attr)
    setattr(module, attr, wrap(original))
    try:
        yield
    finally:
        setattr(module, attr, original)


def setup(name: str, seed: int):
    """Everything a run does before its first pass: load the bundled
    tables and generate the workload's seeded inputs."""
    for table in BUNDLED:
        load_bundled(table)
    return WORKLOADS[name](random.Random(seed), seed)


def issue(log: PassLog, queries):
    """Issue ``(label, fn, args, expect)`` queries in order.  Each ``fn``
    is a module-level function of this file that looks the package's
    functions up when it runs, so a traced pass calls the wrapped ones."""
    for label, fn, args, expect in queries:
        log.query(label, fn, *args, expect=expect)


def _rows(rng: random.Random, space: list, count: int) -> tuple:
    return tuple(rng.sample(space, count))


def _holds(answer) -> bool:
    return answer is True


# ---------------------------------------------------------------------------


class Sweep:
    """Both exhaustive verification suites at their defaults.

    Each team the suites enumerate is one verdict: its latency runs from
    the request for the team, which builds it, until the suite asks for
    the next one, so it covers the team's construction and every check of
    it.  The teams yielded while the separation suite runs are counted, so
    its sweep must cover all of them.
    """

    def __init__(self, rng: random.Random, seed: int):
        self.seed = seed

    def run_pass(self, log: PassLog):
        teams = [0]

        def timed_teams(enumerate_teams):
            def timed(*args, **kwargs):
                inner = enumerate_teams(*args, **kwargs)
                while True:
                    start = thread_time()
                    team = next(inner, None)
                    if team is None:
                        return
                    teams[0] += 1
                    yield team
                    log.timed(start)

            return timed

        with rebound(_entailment, "enumerate_teams", timed_teams):
            entail = verify_property_entailments(seed=self.seed)
            before = teams[0]
            separations = verify_separations()
        log.answers += [entail.lines(), separations.lines()]
        log.gate("entailment suite ok", entail.ok)
        log.gate(f"entailment sweep covers {ENTAILMENT_TEAMS} teams",
                 entail.teams_checked == ENTAILMENT_TEAMS)
        log.gate("separation suite ok", separations.ok)
        log.gate(f"separation sweep covers {SEPARATION_TEAMS} teams",
                 teams[0] - before == SEPARATION_TEAMS)


# ---------------------------------------------------------------------------


#: Disjunction whose split search grows exponentially with the team size.
SPLIT_QUERY = "(dep(m1,o1) & dep(m2,o2)) | (o1 _||_{m1} m2)"
#: Existential over a hidden column, generalising the team per value.
EXISTS_QUERY = "E l . dep(m1 l, o1) & dep(m2 l, o2)"


class Search:
    """Seeded search-heavy queries in a seeded order, then the appendix
    equivalence sweep.

    The counts place the median inside the 24-row existential group and
    p99 inside the slower of the two cost modes of the 8-row disjunction
    group (teams where the split search runs to exhaustion), away from the
    steps between groups and modes, where a percentile would jump with
    the seed.
    """

    #: (formula, rows per team, teams); universe 3 over m1 m2 o1 o2.
    FORMULA_QUERIES = (
        (SPLIT_QUERY, 6, 100),
        (SPLIT_QUERY, 8, 80),
        (SPLIT_QUERY, 10, 4),
        (EXISTS_QUERY, 6, 600),
        (EXISTS_QUERY, 12, 200),
        (EXISTS_QUERY, 24, 800),
    )
    #: (contexts, outcomes per context, models) for NonContextE at
    #: component size 3.
    NONCONTEXT_QUERIES = ((3, 2, 150), (3, 3, 150))

    def __init__(self, rng: random.Random, seed: int):
        variables = ("m1", "m2", "o1", "o2")
        space = list(product(range(3), repeat=len(variables)))
        self.queries = [
            (f"{text} on {size} rows", _eval_text,
             (Team(variables, _rows(rng, space, size), universe=range(3)), text), None)
            for text, size, count in self.FORMULA_QUERIES
            for _ in range(count)
        ]
        measurements = list(product([f"a{k}" for k in range(3)], repeat=2))
        outcomes = list(product([f"x{k}" for k in range(3)], repeat=2))
        domain = empirical_domain(2)
        for contexts, per_context, count in self.NONCONTEXT_QUERIES:
            for _ in range(count):
                rows = [m + o for m in rng.sample(measurements, contexts)
                        for o in rng.sample(outcomes, per_context)]
                model = from_team(Team(domain, rows), "empirical")
                self.queries.append(("NonContextE", _noncontext, (model,), None))
        rng.shuffle(self.queries)

    def run_pass(self, log: PassLog):
        issue(log, self.queries)

        def ticking(eval_atom_rel):
            def atom(*args, **kwargs):
                log.tick()
                return eval_atom_rel(*args, **kwargs)

            return atom

        with rebound(_appendix, "eval_atom_rel", ticking):
            report = verify_appendix()
        log.gate("appendix cases agree", report.ok)
        log.gate(f"appendix teams {APPENDIX_CASES}",
                 tuple(teams for _, teams, _ in report.cases) == APPENDIX_CASES)


def _eval_text(team: Team, text: str) -> bool:
    return eval_rel(team, parse(text))


def _noncontext(model) -> bool:
    return check_property(model, PropertyName.NON_CONTEXT_E)


# ---------------------------------------------------------------------------


class Nogo:
    """The criterion-7 Hardy agreement sweep in a seeded order, plus the
    Hardy and Kochen-Specker reports."""

    def __init__(self, rng: random.Random, seed: int):
        space = [
            (a, b, x, y)
            for a in ("a1", "a2") for b in ("b1", "b2")
            for x in ("R", "G") for y in ("R", "G")
        ]
        self.queries = [
            ("hardy sweep model", _explainable, (rows,), _decided)
            for size in range(1, 9) for rows in combinations(space, size)
        ]
        rng.shuffle(self.queries)

    def run_pass(self, log: PassLog):
        issue(log, self.queries)
        log.gate(f"{HARDY_MODELS} models", len(self.queries) == HARDY_MODELS)
        log.gate(f"{HARDY_EXPLAINABLE} explainable",
                 sum(answer is True for answer in log.answers) == HARDY_EXPLAINABLE)
        log.gate("hardy report ok", verify_hardy().ok)
        log.gate("kochen-specker report ok", verify_ks().ok)


def _explainable(rows: tuple) -> bool | None:
    """Whether the model has a StrongDet and lambda-independent
    explanation; None when the two decision routes disagree."""
    model = from_team(Team(empirical_domain(2), rows), "empirical")
    strong = exists_strongdet_lambdaindep(model) is not None
    local = exists_local_lambdaindep(model) is not None
    return strong if strong == local else None


def _decided(answer) -> bool:
    return answer is not None


# ---------------------------------------------------------------------------


class Prob:
    """Exact-rational constructions and checks on seeded probabilistic
    models, in a seeded order; every verdict is known to be True.

    The counts place p99 inside the localization group, about a third
    of the way down from its slowest verdict.  Localization costs vary
    widely from witness to witness, so the group is large enough that p99
    moves little with the seed.
    """

    FIG1 = 1_000
    CONSTRUCTIONS = 7_500
    LOCALIZATIONS = 250

    def __init__(self, rng: random.Random, seed: int):
        self.queries = [
            ("fig1 square commutes", _fig1, (random_hv_prob_team(rng),), _holds)
            for _ in range(self.FIG1)
        ]
        self.queries += [
            ("weakdet lambda-indep construction", _construct,
             (random_empirical_model(rng, arity=1 + i % 3, component_size=1 + (i // 3) % 3,
                                     probabilistic=True),), _holds)
            for i in range(self.CONSTRUCTIONS)
        ]
        self.queries += [
            ("probabilistic localization", _localize,
             (random_local_witness(rng, probabilistic=True, conditional_denominator=2),), _holds)
            for _ in range(self.LOCALIZATIONS)
        ]
        rng.shuffle(self.queries)

    def run_pass(self, log: PassLog):
        issue(log, self.queries)


def _fig1(team) -> bool:
    return verify_fig1_commutes(team)


def _construct(model) -> bool:
    hv = construct_weakdet_lambdaindep(model)
    return (
        check_property(hv, PropertyName.WEAK_DET_H)
        and check_property(hv, PropertyName.LAMBDA_INDEP_H)
        and empirically_equivalent(model, hv)
    )


def _localize(witness) -> bool:
    local = localize_prob(witness)
    return (
        locality_oracle_prob(witness)
        and check_property(local, PropertyName.STRONG_DET_H)
        and check_property(local, PropertyName.LAMBDA_INDEP_H)
        and locality_oracle_prob(local)
        and empirically_equivalent(induced_empirical(witness), local)
    )


WORKLOADS = {"sweep": Sweep, "search": Search, "nogo": Nogo, "prob": Prob}
