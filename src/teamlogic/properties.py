"""The named property families of empirical and hidden-variable models.

Each property is a uniform family of formulas indexed by arity, almost
all plain conjunctions of atoms:

==================  ===========================================================
WeakDetE            dep(m, o)
StrongDetE          AND_i dep(mi, oi)
NoSigE              AND_i  oi _||_{mi} m(-i)
WeakDetH            dep(m l, o)
StrongDetH          AND_i dep(mi l, oi)
SingValH            dep(, l)
LambdaIndepH        m _||_ l
OutIndepH           AND_i  oi _||_{m l} o(-i)
ParIndepH           AND_i  oi _||_{mi l} m(-i)
LocH                OutIndepH & ParIndepH
NonContextE         E v1..vn (AND_{i<=j} dep((mi; mj), (vi; vj)) & m v <= m o)
==================  ===========================================================

For arity 1 the excluded tuples are empty and the independence atoms are
vacuously true (NoSigE(1) is a tautology).

Besides the formula route, Locality has two independent semantic oracles:
the componentwise-witness condition for relational models, and the exact
conditional factorization for probabilistic ones.  Tests drive both
routes against each other.
"""

from __future__ import annotations

from enum import Enum
from functools import lru_cache
from itertools import product
from math import prod

from .errors import InvalidArgumentError
from .eval_rel import EvalBudget, Plan, compile
from .formulas import And, Dep, Exists, Formula, GenDep, Incl, Indep, conjoin
from .models import LAMBDA_VAR, EmpiricalModel, HVModel
from .teams import value_key


class PropertyName(Enum):
    WEAK_DET_E = "WeakDetE"
    STRONG_DET_E = "StrongDetE"
    NO_SIG_E = "NoSigE"
    WEAK_DET_H = "WeakDetH"
    STRONG_DET_H = "StrongDetH"
    SING_VAL_H = "SingValH"
    LAMBDA_INDEP_H = "LambdaIndepH"
    OUT_INDEP_H = "OutIndepH"
    PAR_INDEP_H = "ParIndepH"
    LOC_H = "LocH"
    NON_CONTEXT_E = "NonContextE"


EMPIRICAL_PROPERTIES = (
    PropertyName.WEAK_DET_E,
    PropertyName.STRONG_DET_E,
    PropertyName.NO_SIG_E,
    PropertyName.NON_CONTEXT_E,
)

#: CLI names; the model kind picks the empirical or hidden reading.
CLI_NAMES = {
    "weak-det": (PropertyName.WEAK_DET_E, PropertyName.WEAK_DET_H),
    "strong-det": (PropertyName.STRONG_DET_E, PropertyName.STRONG_DET_H),
    "no-sig": (PropertyName.NO_SIG_E, PropertyName.NO_SIG_E),
    "sing-val": (None, PropertyName.SING_VAL_H),
    "lambda-indep": (None, PropertyName.LAMBDA_INDEP_H),
    "out-indep": (None, PropertyName.OUT_INDEP_H),
    "par-indep": (None, PropertyName.PAR_INDEP_H),
    "locality": (None, PropertyName.LOC_H),
    "non-context": (PropertyName.NON_CONTEXT_E, PropertyName.NON_CONTEXT_E),
}


def property_from_cli_name(name: str, kind: str) -> PropertyName:
    if name not in CLI_NAMES:
        raise InvalidArgumentError(
            f"unknown property {name!r}; available: {', '.join(sorted(CLI_NAMES))}"
        )
    empirical, hidden = CLI_NAMES[name]
    prop = empirical if kind == "empirical" else hidden
    if prop is None:
        raise InvalidArgumentError(f"property {name!r} applies to hidden-variable models only")
    return prop


def property_formula(prop: PropertyName, arity: int) -> Formula:
    """The defining formula of a property at a given arity."""
    if arity < 1:
        raise InvalidArgumentError("arity must be at least 1")
    n = arity
    m = tuple(f"m{i}" for i in range(1, n + 1))
    o = tuple(f"o{i}" for i in range(1, n + 1))
    lam = LAMBDA_VAR

    def minus(tup, i):
        return tup[: i - 1] + tup[i:]

    match prop:
        case PropertyName.WEAK_DET_E:
            return Dep(m, o)
        case PropertyName.STRONG_DET_E:
            return conjoin([Dep((m[i - 1],), (o[i - 1],)) for i in range(1, n + 1)])
        case PropertyName.NO_SIG_E:
            return conjoin(
                [Indep((o[i - 1],), (m[i - 1],), minus(m, i)) for i in range(1, n + 1)]
            )
        case PropertyName.WEAK_DET_H:
            return Dep(m + (lam,), o)
        case PropertyName.STRONG_DET_H:
            return conjoin([Dep((m[i - 1], lam), (o[i - 1],)) for i in range(1, n + 1)])
        case PropertyName.SING_VAL_H:
            return Dep((), (lam,))
        case PropertyName.LAMBDA_INDEP_H:
            return Indep(m, (), (lam,))
        case PropertyName.OUT_INDEP_H:
            return conjoin(
                [Indep((o[i - 1],), m + (lam,), minus(o, i)) for i in range(1, n + 1)]
            )
        case PropertyName.PAR_INDEP_H:
            return conjoin(
                [Indep((o[i - 1],), (m[i - 1], lam), minus(m, i)) for i in range(1, n + 1)]
            )
        case PropertyName.LOC_H:
            return And(
                property_formula(PropertyName.OUT_INDEP_H, n),
                property_formula(PropertyName.PAR_INDEP_H, n),
            )
        case PropertyName.NON_CONTEXT_E:
            v = tuple(f"v{i}" for i in range(1, n + 1))
            deps = [
                GenDep((m[i - 1],), (m[j - 1],), (v[i - 1],), (v[j - 1],))
                for i in range(1, n + 1)
                for j in range(i, n + 1)
            ]
            body = conjoin(deps + [Incl(m + v, m + o)])
            for var in reversed(v):
                body = Exists(var, body)
            return body
    raise InvalidArgumentError(f"unknown property {prop!r}")


def check_property(
    model: EmpiricalModel | HVModel,
    prop: PropertyName,
    budget: EvalBudget | None = None,
) -> bool:
    """Evaluate a property formula on a model.

    Hidden-variable properties require a hidden-variable model; empirical
    properties evaluate on either (on hidden-variable models they speak
    about the induced empirical model, by locality of the semantics).
    ``NonContextE`` has no ``_||_``, so a probabilistic model satisfies
    it exactly when its support does (:mod:`teamlogic.eval_prob`).
    """
    if prop not in EMPIRICAL_PROPERTIES and not isinstance(model, HVModel):
        raise InvalidArgumentError(f"{prop.value} needs a hidden-variable model")
    return _property_plan(prop, model.arity, model.data.domain).run(model.data, budget)(0)


@lru_cache(maxsize=128)
def _property_plan(prop: PropertyName, arity: int, domain: tuple[str, ...]) -> Plan:
    """The compiled formula of a property; a model's kind and arity fix
    its domain, so there are at most two plans per property and arity,
    22 per arity: the cache keeps those of the last five or more arities."""
    return compile([property_formula(prop, arity)], domain)


# ---------------------------------------------------------------------------
# independent semantic oracles for Locality


def locality_oracle_rel(model: HVModel) -> bool:
    """Componentwise-witness condition for relational Locality.

    For every measurement tuple co-occurring with a hidden value, every
    outcome tuple whose components are individually witnessed with that
    measurement component and hidden value must occur as one combined row.
    """
    if model.probabilistic:
        raise InvalidArgumentError("relational oracle needs a relational model")
    team = model.team
    n = model.arity
    witnessed: dict = {}
    for row in team.rows:
        c = row[2 * n]
        for i in range(n):
            witnessed.setdefault((i, row[i], c), set()).add(row[n + i])
    for row in team.rows:
        a, c = row[:n], row[2 * n]
        options = [sorted(witnessed.get((i, a[i], c), ()), key=value_key) for i in range(n)]
        for b in product(*options):
            if a + b + (c,) not in team:
                return False
    return True


def locality_oracle_prob(model: HVModel) -> bool:
    """Exact factorization condition for probabilistic Locality.

    For every co-occurring measurement tuple and hidden value, and every
    combination of globally occurring outcome values, the conditional
    probability of the outcome tuple equals the product of the per-
    component conditionals.
    """
    if not model.probabilistic:
        raise InvalidArgumentError("probabilistic oracle needs a probabilistic model")
    n = model.arity
    joint: dict = {}
    context_mass: dict = {}
    comp_mass: dict = {}
    comp_joint: dict = {}
    outcome_values = [set() for _ in range(n)]
    # int numerators over the team's one denominator, summed here rather
    # than through ``masses``; the denominator cancels in each comparison
    for row, w in model.prob_team.numerators().items():
        a, b, c = row[:n], row[n : 2 * n], row[2 * n]
        joint[(a, b, c)] = joint.get((a, b, c), 0) + w
        context_mass[(a, c)] = context_mass.get((a, c), 0) + w
        for i in range(n):
            comp_mass[(i, a[i], c)] = comp_mass.get((i, a[i], c), 0) + w
            comp_joint[(i, a[i], b[i], c)] = comp_joint.get((i, a[i], b[i], c), 0) + w
            outcome_values[i].add(b[i])

    # joint / mass == prod(comp_joint / comp_mass), in cleared form
    for (a, c), mass in context_mass.items():
        masses = prod(comp_mass[(i, a[i], c)] for i in range(n))
        for b in product(*outcome_values):
            joints = prod(comp_joint.get((i, a[i], b[i], c), 0) for i in range(n))
            if joint.get((a, b, c), 0) * masses != mass * joints:
                return False
    return True
