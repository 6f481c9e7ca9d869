"""Traced runs: spans around calls into each ``teamlogic`` layer.

The tracer wraps the public entry points of each module from outside, by
rebinding them in every loaded module that holds them (a name imported
with ``from .x import f`` is a separate binding), plus ``Team.__init__``
and the relational evaluator's atom dispatch.  Each call records a span
(name, start, end, parent) in flat arrays; after the pass the spans are
reduced to per-layer metrics and written to a file.

A span's self time is its duration minus the time its child spans cover.
Span files hold one JSON header line (span names and array type codes)
followed by the raw ``name``, ``parent``, ``start`` and ``end`` arrays.
"""

from __future__ import annotations

import functools
import json
import sys
from array import array
from collections import defaultdict
from importlib import import_module
from time import perf_counter

from teamlogic.teams import Team

# The package rebinds some submodule names to functions (``eval_rel``,
# ``eval_prob``), so the modules are fetched by their full names.
constructions, entailment, eval_prob, eval_rel, formulas, models, nogo, properties, verify_appendix = (
    import_module(f"teamlogic.{name}")
    for name in (
        "constructions", "entailment", "eval_prob", "eval_rel", "formulas",
        "models", "nogo", "properties", "verify_appendix",
    )
)

#: Every per-layer metric: (name, unit, better, what it should move).
#: The last field is the map from layer metric to end-to-end metric and
#: workload that later changes cite.
LAYER_METRICS = (
    ("teams.calls", "count", "lower", "pass_s on sweep (per-team overhead)"),
    ("teams.rows_in", "count", "lower", "pass_s on search (sorting large teams)"),
    ("teams.self_s", "s", "lower", "pass_s on sweep and search; verdict_p50_ms on nogo"),
    ("teams.rows_per_s", "1/s", "higher", "pass_s on sweep and search; verdict_p50_ms on nogo"),
    ("formulas.parse_calls", "count", "lower", "peak_rss_mb on sweep and search"),
    ("formulas.parse_s", "s", "lower", "peak_rss_mb on sweep and search"),
    ("formulas.cache_entries", "count", "lower", "peak_rss_mb on sweep and search"),
    ("eval_rel.calls", "count", "lower", "pass_s on sweep and search; flat on nogo and prob"),
    ("eval_rel.self_s", "s", "lower", "pass_s on sweep and search; verdict_p99_ms on search"),
    ("eval_rel.calls_per_s", "1/s", "higher", "pass_s on sweep and search; flat on nogo and prob"),
    ("eval_rel.atom_calls", "count", "lower", "pass_s on sweep and search; flat on nogo and prob"),
    ("eval_rel.atom_self_s", "s", "lower", "pass_s on sweep and search; verdict_p99_ms on search"),
    ("eval_prob.calls", "count", "lower", "pass_s and verdict_p99_ms on prob"),
    ("eval_prob.self_s", "s", "lower", "pass_s and verdict_p99_ms on prob"),
    ("models.from_team_calls", "count", "lower", "verdict_p50_ms on nogo and prob"),
    ("models.from_team_s", "s", "lower", "verdict_p50_ms on nogo and prob"),
    ("models.equiv_calls", "count", "lower", "verdict_p50_ms on prob"),
    ("models.equiv_s", "s", "lower", "verdict_p50_ms on prob"),
    ("models.fig1_s", "s", "lower", "verdict_p50_ms on prob"),
    ("properties.check_calls", "count", "lower", "pass_s on prob and search"),
    ("properties.check_self_s", "s", "lower", "pass_s on prob and search"),
    ("properties.oracle_s", "s", "lower", "pass_s on prob"),
    ("constructions.calls", "count", "lower", "pass_s on prob"),
    ("constructions.self_s", "s", "lower", "pass_s on prob"),
    ("constructions.rows_out", "count", "lower", "pass_s on prob"),
    ("nogo.sections_calls", "count", "lower", "pass_s, verdict_p50_ms, verdict_p99_ms on nogo"),
    ("nogo.sections_found", "count", "lower", "pass_s, verdict_p50_ms, verdict_p99_ms on nogo"),
    ("nogo.sections_s", "s", "lower", "pass_s, verdict_p50_ms, verdict_p99_ms on nogo"),
    ("nogo.exists_calls", "count", "lower", "pass_s, verdict_p50_ms, verdict_p99_ms on nogo"),
    ("nogo.exists_self_s", "s", "lower", "pass_s, verdict_p50_ms, verdict_p99_ms on nogo"),
    ("nogo.ks_s", "s", "lower", "pass_s on nogo"),
    ("entailment.teams_enumerated", "count", "lower", "pass_s on sweep"),
    ("entailment.enumerate_s", "s", "lower", "pass_s on sweep"),
    ("entailment.entail_suite_s", "s", "lower", "pass_s on sweep"),
    ("entailment.separation_suite_s", "s", "lower", "pass_s on sweep"),
    ("verify_appendix.teams", "count", "lower", "pass_s on search"),
    ("verify_appendix.s", "s", "lower", "pass_s on search"),
    ("trace_overhead_frac", "frac", "lower", "none: traced pass_s over untraced pass_s, minus 1"),
)

_DONE = object()


class Tracer:
    """Spans in flat arrays, a stack of open spans, and named counters."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.counters: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name: str, count=None):
        """``fn`` with a span per call; ``count(args, result)`` adds to the
        counter of the same name."""
        nid = self._name_id(name)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack, counters, clock = self._stack, self.counters, perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if count is not None:
                counters[name] += count(args, result)
            return result

        return traced

    def exclude(self, seconds: float):
        """Cut ``seconds`` just spent outside the package from every open
        span."""
        for index in self._stack:
            self.start[index] += seconds

    def wrap_generator(self, fn, name: str):
        """A generator function with a span around each ``next``; the
        counter of the same name counts the items yielded."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            step = tracer.wrap(lambda: next(inner, _DONE), name)
            while True:
                item = step()
                if item is _DONE:
                    return
                tracer.counters[name] += 1
                yield item

        return traced

    def totals(self) -> dict[str, tuple[int, float, float]]:
        """Per span name: calls, inclusive seconds, self seconds."""
        count = len(self.name)
        child = [0.0] * count
        for i in range(count):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out = {name: [0, 0.0, 0.0] for name in self.names}
        for i in range(count):
            duration = self.end[i] - self.start[i]
            entry = out[self.names[self.name[i]]]
            entry[0] += 1
            entry[1] += duration
            entry[2] += duration - child[i]
        return {name: tuple(v) for name, v in out.items()}

    def write(self, path):
        header = {
            "names": self.names,
            "count": len(self.name),
            "arrays": [["name", "H"], ["parent", "l"], ["start", "d"], ["end", "d"]],
            "itemsizes": [a.itemsize for a in (self.name, self.parent, self.start, self.end)],
            "byteorder": sys.byteorder,
        }
        with open(path, "wb") as out:
            out.write(json.dumps(header).encode() + b"\n")
            for values in (self.name, self.parent, self.start, self.end):
                values.tofile(out)


def _rows(args, result) -> int:
    return len(args[0].rows)


def _found(args, result) -> int:
    return len(result)


def _model_rows(args, result) -> int:
    return len(result.team.rows)


#: (module, attribute, span name, counter) for every wrapped entry point.
ENTRY_POINTS = (
    (formulas, "parse", "formulas.parse", None),
    (eval_rel, "eval_rel", "eval_rel.eval_rel", None),
    (eval_rel, "eval_atom_rel", "eval_rel.eval_atom_rel", None),
    (eval_prob, "eval_prob", "eval_prob.eval_prob", None),
    (models, "from_team", "models.from_team", None),
    (models, "empirically_equivalent", "models.empirically_equivalent", None),
    (models, "verify_fig1_commutes", "models.verify_fig1_commutes", None),
    (properties, "check_property", "properties.check_property", None),
    (properties, "locality_oracle_rel", "properties.locality_oracle", None),
    (properties, "locality_oracle_prob", "properties.locality_oracle", None),
    (constructions, "construct_single_valued", "constructions.construct", _model_rows),
    (constructions, "construct_strong_det", "constructions.construct", _model_rows),
    (constructions, "construct_weakdet_lambdaindep", "constructions.construct", _model_rows),
    (constructions, "localize_rel", "constructions.construct", _model_rows),
    (constructions, "localize_prob", "constructions.construct", _model_rows),
    (nogo, "consistent_sections", "nogo.consistent_sections", _found),
    (nogo, "exists_strongdet_lambdaindep", "nogo.exists", None),
    (nogo, "exists_local_lambdaindep", "nogo.exists", None),
    (nogo, "verify_ks", "nogo.verify_ks", None),
    (entailment, "verify_property_entailments", "entailment.verify_property_entailments", None),
    (entailment, "verify_separations", "entailment.verify_separations", None),
    (verify_appendix, "verify_appendix", "verify_appendix.verify_appendix",
     lambda args, report: sum(teams for _, teams, _ in report.cases)),
)
#: (class, method, span name, counter) for the wrapped methods.
METHODS = (
    (Team, "__init__", "teams.Team", _rows),
    (eval_rel._Evaluator, "atom", "eval_rel.atom", None),
)


class instrumented:
    """Context manager: every entry point wrapped for ``tracer`` in all
    loaded ``teamlogic`` modules and in ``extra_modules``; restored on exit."""

    def __init__(self, tracer: Tracer, extra_modules=()):
        self.tracer = tracer
        self.extra_modules = extra_modules
        self._restore: list[tuple[object, str, object]] = []

    def __enter__(self):
        holders = [
            module for name, module in sys.modules.items()
            if name == "teamlogic" or name.startswith("teamlogic.")
        ] + list(self.extra_modules)
        wrapped = [
            (getattr(module, attr), self.tracer.wrap(getattr(module, attr), name, count))
            for module, attr, name, count in ENTRY_POINTS
        ]
        enumerate_teams = entailment.enumerate_teams
        wrapped.append(
            (enumerate_teams, self.tracer.wrap_generator(enumerate_teams, "entailment.enumerate_teams"))
        )
        for original, replacement in wrapped:
            for module in holders:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, attr, replacement)
        for cls, attr, name, count in METHODS:
            self._patch(cls, attr, self.tracer.wrap(getattr(cls, attr), name, count))
        return self.tracer

    def _patch(self, owner, attr: str, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def __exit__(self, *exc):
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()
        return False


def layer_metrics(tracer: Tracer, factor: float, overhead_frac: float) -> dict[str, float]:
    """Reduce the spans of one traced pass to the per-layer metrics.

    Span times are scaled by ``factor``, the traced pass's reference
    seconds per CPU second.  ``overhead_frac`` is the traced pass time over
    the untraced one, minus 1.
    """
    totals = {
        name: (count, inclusive_s * factor, self_s * factor)
        for name, (count, inclusive_s, self_s) in tracer.totals().items()
    }
    counters = tracer.counters

    def calls(*names):
        return sum(totals.get(n, (0, 0.0, 0.0))[0] for n in names)

    def inclusive(*names):
        return sum(totals.get(n, (0, 0.0, 0.0))[1] for n in names)

    def own(*names):
        return sum(totals.get(n, (0, 0.0, 0.0))[2] for n in names)

    def rate(count, seconds):
        return count / seconds if seconds > 0 else 0.0

    evaluator = ("eval_rel.eval_rel", "eval_rel.eval_atom_rel")
    caches = [f for f in vars(formulas).values() if hasattr(f, "cache_info")]
    return {
        "teams.calls": calls("teams.Team"),
        "teams.rows_in": counters["teams.Team"],
        "teams.self_s": own("teams.Team"),
        "teams.rows_per_s": rate(counters["teams.Team"], inclusive("teams.Team")),
        "formulas.parse_calls": calls("formulas.parse"),
        "formulas.parse_s": inclusive("formulas.parse"),
        "formulas.cache_entries": sum(f.cache_info().currsize for f in caches),
        "eval_rel.calls": calls(*evaluator),
        "eval_rel.self_s": own(*evaluator),
        "eval_rel.calls_per_s": rate(calls(*evaluator), inclusive(*evaluator)),
        "eval_rel.atom_calls": calls("eval_rel.atom"),
        "eval_rel.atom_self_s": own("eval_rel.atom"),
        "eval_prob.calls": calls("eval_prob.eval_prob"),
        "eval_prob.self_s": own("eval_prob.eval_prob"),
        "models.from_team_calls": calls("models.from_team"),
        "models.from_team_s": inclusive("models.from_team"),
        "models.equiv_calls": calls("models.empirically_equivalent"),
        "models.equiv_s": inclusive("models.empirically_equivalent"),
        "models.fig1_s": inclusive("models.verify_fig1_commutes"),
        "properties.check_calls": calls("properties.check_property"),
        "properties.check_self_s": own("properties.check_property"),
        "properties.oracle_s": inclusive("properties.locality_oracle"),
        "constructions.calls": calls("constructions.construct"),
        "constructions.self_s": own("constructions.construct"),
        "constructions.rows_out": counters["constructions.construct"],
        "nogo.sections_calls": calls("nogo.consistent_sections"),
        "nogo.sections_found": counters["nogo.consistent_sections"],
        "nogo.sections_s": inclusive("nogo.consistent_sections"),
        "nogo.exists_calls": calls("nogo.exists"),
        "nogo.exists_self_s": own("nogo.exists"),
        "nogo.ks_s": inclusive("nogo.verify_ks"),
        "entailment.teams_enumerated": counters["entailment.enumerate_teams"],
        "entailment.enumerate_s": inclusive("entailment.enumerate_teams"),
        "entailment.entail_suite_s": inclusive("entailment.verify_property_entailments"),
        "entailment.separation_suite_s": inclusive("entailment.verify_separations"),
        "verify_appendix.teams": counters["verify_appendix.verify_appendix"],
        "verify_appendix.s": inclusive("verify_appendix.verify_appendix"),
        "trace_overhead_frac": overhead_frac,
    }
