"""Bundled example tables.

Every table used by the theory's examples and counterexamples ships as
JSON package data:

``ex22``
    Two-component correlation model: Alice's first measurement agrees
    with Bob's single one, her second disagrees.
``sig``
    The two-row signalling model (weak determinism without strong
    determinism; no-signalling violated).
``siglambda``
    The same model with a constant hidden column (single-valued).
``loc6``
    Six-row hidden-variable model with outcome independence and
    hidden-variable independence but signalling between components.
``pt1``
    Probabilistic team separating probabilistic from relational
    entailment for conditional independence atoms.
``rt2``
    Relational team separating the converse direction.
``hardy``
    The canonical four-row empirical model realizing the Hardy paradox
    conditions.
``cabello18``
    The 18-vector, 9-basis Kochen-Specker configuration in 4-space.

Every file argument of :func:`teamlogic.jsonio.load`'s callers, the
command line's included, also takes ``builtin:NAME`` for one of these.
"""

from __future__ import annotations

from importlib import resources

from .errors import InvalidArgumentError

BUNDLED = ("ex22", "sig", "siglambda", "loc6", "pt1", "rt2", "hardy", "cabello18")


def bundled_text(name: str) -> str:
    if name not in BUNDLED:
        raise InvalidArgumentError(
            f"unknown bundled table {name!r}; available: {', '.join(BUNDLED)}"
        )
    return resources.files("teamlogic.data").joinpath(f"{name}.json").read_text()


def load_bundled(name: str):
    """Load a bundled table as a Team/ProbTeam, model, or KS configuration,
    by the shape of its JSON."""
    from .jsonio import load, model_from_dict, team_from_dict

    payload = load(f"builtin:{name}")
    if "vectors" in payload:
        from .nogo import ks_config_from_dict

        return ks_config_from_dict(payload)
    if "kind" in payload:
        return model_from_dict(payload)
    return team_from_dict(payload)
