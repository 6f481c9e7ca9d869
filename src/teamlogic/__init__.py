"""Exact finite model checking for dependence and independence logic.

Teams (sets of assignments) and probabilistic teams carry the semantics;
formulas combine dependence, independence, inclusion and
non-contextuality atoms under conjunction, disjunction and quantifiers.
On top sit empirical and hidden-variable models, the named properties
(determinism, no-signalling, locality, hidden-variable independence),
constructive existence of equivalent hidden-variable models, bounded
entailment search, and the Bell/Hardy and Kochen-Specker no-go searches.
All probability arithmetic is exact rational.
"""

from .errors import (
    BudgetExceededError,
    DomainError,
    InvalidArgumentError,
    ParseError,
    PreconditionError,
    TeamLogicError,
    UnsupportedFragmentError,
    ZeroProbabilityError,
)
from .eval_prob import CondProbQuery, check_skolem_witness, cond_prob, eval_prob, marginal
from .eval_rel import DEFAULT_BUDGET, EvalBudget, eval_atom_rel, eval_rel
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
    Var,
    free_vars,
    gendep_defining_formula,
    nc_defining_formula,
    ncc_defining_formula,
    parse,
    print_formula,
)
from .models import (
    EmpiricalModel,
    HVModel,
    empirical_domain,
    empirically_equivalent,
    from_team,
    hidden_domain,
    induced_empirical,
    possibilistic_collapse,
    verify_fig1_commutes,
)
from .properties import (
    PropertyName,
    check_property,
    locality_oracle_prob,
    locality_oracle_rel,
    property_formula,
)
from .teams import Assignment, ProbTeam, Rational, Team, Value, value_key

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
