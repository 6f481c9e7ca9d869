"""Exception hierarchy shared by all teamlogic modules.

Every failure mode has a distinct class so that callers (and the CLI)
can tell "evaluated to false" apart from "could not evaluate".
"""


class TeamLogicError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(TeamLogicError):
    """A variable is missing from a team's domain, or domains disagree."""


class InvalidArgumentError(TeamLogicError):
    """An operation received structurally invalid input (empty value set,
    non-normalized distribution, malformed team, ...)."""


class BudgetExceededError(TeamLogicError):
    """An exhaustive search outgrew its budget.  Deliberately distinct
    from a ``False`` verdict: the question was not decided."""


class UnsupportedFragmentError(TeamLogicError):
    """The formula lies outside the fragment the evaluator decides (a
    ``_||_`` atom under a probabilistic disjunction or existential)."""


class ZeroProbabilityError(TeamLogicError):
    """A conditional probability was requested on a null event."""


class PreconditionError(TeamLogicError):
    """A construction's validated precondition failed; the message names
    the failing conjunct."""


class ParseError(TeamLogicError):
    """Formula text does not conform to the grammar."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column
