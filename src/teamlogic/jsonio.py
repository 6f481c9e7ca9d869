"""JSON serialization for teams, models and KS configurations.

Team JSON::

    {"domain": ["m1", ...],
     "universe": ["a1", ...],            # optional; defaults to active values
     "rows": [["a1", "b1", "+", "+"], ...],
     "weights": ["1/5", ...]}            # optional; present iff probabilistic

Weights are strings ``"p/q"`` in lowest terms (or ``"1"``), parallel to
``rows``.  Model JSON is team JSON plus ``{"kind": "empirical"|"hidden",
"arity": n}``.  Values encode as JSON scalars (strings, integers) or
nested lists for tuple values; rationals inside values encode as "p/q"
strings prefixed with ``"frac:"`` to keep them apart from symbols.
Every reader takes a file path or ``builtin:NAME`` for a bundled table
(:mod:`teamlogic.datasets`), both read by :func:`load`.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

from .datasets import bundled_text
from .errors import InvalidArgumentError
from .models import EmpiricalModel, HVModel, from_team
from .teams import ProbTeam, Team, Value


def value_to_json(value: Value):
    if isinstance(value, bool):
        raise InvalidArgumentError("booleans are not valid team values")
    if isinstance(value, int):
        return value
    if isinstance(value, Fraction):
        return f"frac:{value}"
    if isinstance(value, str):
        return value
    if isinstance(value, tuple):
        return [value_to_json(v) for v in value]
    raise InvalidArgumentError(f"cannot serialize value {value!r}")


def value_from_json(obj) -> Value:
    if isinstance(obj, bool):
        raise InvalidArgumentError("booleans are not valid team values")
    if isinstance(obj, int):
        return obj
    if isinstance(obj, str):
        if obj.startswith("frac:"):
            return _fraction(obj[5:])
        return obj
    if isinstance(obj, list):
        return tuple(value_from_json(v) for v in obj)
    raise InvalidArgumentError(f"cannot decode value {obj!r}")


def _fraction(text) -> Fraction:
    # a JSON float or boolean is no exact rational, though Fraction takes it
    if isinstance(text, (bool, float)):
        raise InvalidArgumentError(f"not an exact rational: {text!r}")
    try:
        return Fraction(text)
    except (TypeError, ValueError, ZeroDivisionError):
        raise InvalidArgumentError(f"not an exact rational: {text!r}") from None


def _list_field(payload: dict, name: str, item_type: type | None = None) -> list:
    """The list in field ``name``, each item an ``item_type`` when given."""
    obj = payload[name]
    if not isinstance(obj, list) or item_type and not all(isinstance(x, item_type) for x in obj):
        shape = f"a list of {item_type.__name__}" if item_type else "a list"
        raise InvalidArgumentError(f"team JSON field {name!r} must be {shape}")
    return obj


def team_to_dict(data: Team | ProbTeam) -> dict:
    team = data.support()
    payload = {
        "domain": list(team.domain),
        "universe": [value_to_json(v) for v in team.universe],
        "rows": [[value_to_json(v) for v in row] for row in team.rows],
    }
    if isinstance(data, ProbTeam):
        payload["weights"] = [str(w) for w in data.weights().values()]
    return payload


def team_from_dict(payload: dict) -> Team | ProbTeam:
    try:
        domain = _list_field(payload, "domain", str)
        raw_rows = _list_field(payload, "rows", list)
    except KeyError as exc:
        raise InvalidArgumentError(f"team JSON is missing field {exc.args[0]!r}") from None
    try:
        # value_from_json recurses once per nesting level of a value
        rows = [tuple(value_from_json(v) for v in row) for row in raw_rows]
        universe = None
        if "universe" in payload:
            universe = [value_from_json(v) for v in _list_field(payload, "universe")]
    except RecursionError:
        raise InvalidArgumentError("team JSON holds a value nested too deeply to decode") from None
    team = Team(domain, rows, universe)
    if "weights" not in payload:
        return team
    weights = _list_field(payload, "weights")
    if len(weights) != len(rows):
        raise InvalidArgumentError("weights must be parallel to rows")
    # a repeated row would merge its weights before ProbTeam could see it
    table: dict = {}
    for row, w in zip(rows, weights):
        if row in table:
            raise InvalidArgumentError(f"duplicate weight entry for row {row!r}")
        table[row] = _fraction(w)
    return ProbTeam(team, table)


def model_to_dict(model: EmpiricalModel | HVModel) -> dict:
    payload = team_to_dict(model.data)
    payload["kind"] = model.kind
    payload["arity"] = model.arity
    return payload


def model_from_dict(payload: dict) -> EmpiricalModel | HVModel:
    kind = payload.get("kind")
    if kind not in ("empirical", "hidden"):
        raise InvalidArgumentError(f"model JSON needs kind empirical|hidden, got {kind!r}")
    data = team_from_dict(payload)
    model = from_team(data, kind)
    if "arity" in payload and payload["arity"] != model.arity:
        raise InvalidArgumentError(
            f"declared arity {payload['arity']} does not match domain arity {model.arity}"
        )
    return model


def dump_json(payload: dict) -> str:
    """Deterministic JSON text: sorted keys, stable separators, newline."""
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def load(spec: str | Path) -> dict:
    """The JSON object of the bundled table ``builtin:NAME`` or of the
    file ``spec``; every team, model and KS reader reads through here."""
    try:
        if isinstance(spec, str) and spec.startswith("builtin:"):
            text = bundled_text(spec[len("builtin:") :])
        else:
            text = Path(spec).read_text()
    except OSError as exc:
        raise InvalidArgumentError(f"cannot read {spec}: {exc}") from None
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidArgumentError(f"malformed JSON in {spec}: {exc}") from None
    except RecursionError:
        # the decoder recurses once per nesting level
        raise InvalidArgumentError(f"JSON in {spec} is nested too deeply to decode") from None
    if not isinstance(payload, dict):
        raise InvalidArgumentError(f"expected a JSON object in {spec}")
    return payload


def write_path(path: str | Path, text: str) -> None:
    """Write ``text`` to the file ``path``, or to stdout for ``-``."""
    if path == "-":
        print(text, end="")
        return
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise InvalidArgumentError(f"cannot write {path}: {exc}") from None


def load_team(spec: str | Path) -> Team | ProbTeam:
    return team_from_dict(load(spec))


def load_model(spec: str | Path) -> EmpiricalModel | HVModel:
    return model_from_dict(load(spec))
