"""Exception taxonomy for the stocs package.

Validation errors are raised while checking instance data, solve-time errors
while running searches or evaluations, and format errors while parsing files.
"""


class StocsError(Exception):
    """Base class for every error raised by this package."""


# ---------------------------------------------------------------------------
# instance validation
# ---------------------------------------------------------------------------

class InstanceValidationError(StocsError):
    """An instance violates a structural invariant."""


class DuplicateNameError(InstanceValidationError):
    pass


class EmptyDomainError(InstanceValidationError):
    pass


class UnsortedDomainError(InstanceValidationError):
    """Domain values must be strictly increasing."""


class BadProbabilitySumError(InstanceValidationError):
    def __init__(self, message: str, actual_sum: float):
        super().__init__(message)
        self.actual_sum = actual_sum


class NegativeProbabilityError(InstanceValidationError):
    pass


class NonFiniteProbabilityError(InstanceValidationError):
    """A probability is NaN or infinite."""


class ProbabilityLengthMismatchError(InstanceValidationError):
    pass


class ProbabilitiesOnDecisionError(InstanceValidationError):
    pass


class MissingDistributionError(InstanceValidationError):
    """A stochastic variable has neither probabilities nor a conditional table."""


class UnknownScopeVariableError(InstanceValidationError):
    def __init__(self, message: str, variable: str):
        super().__init__(message)
        self.variable = variable


class DuplicateScopeVariableError(InstanceValidationError):
    pass


class ArityMismatchError(InstanceValidationError):
    pass


class ThetaOutOfRangeError(InstanceValidationError):
    pass


class NonBooleanConstraintError(InstanceValidationError):
    """A constraint expression does not evaluate to a boolean."""


class BadExpressionTypeError(InstanceValidationError):
    """An operator was applied to operands of the wrong kind."""


class CptParentOrderError(InstanceValidationError):
    """Conditional-table parents must precede the child in instance order."""


class CptCoverageError(InstanceValidationError):
    """Conditional-table rows must cover each parent combination exactly once."""


class ExpressionTooDeepError(InstanceValidationError):
    """An expression nests too deeply to parse, check or compile."""


# ---------------------------------------------------------------------------
# evaluation / semantics
# ---------------------------------------------------------------------------

class OutOfDomainValueError(StocsError):
    pass


class MissingAssignmentError(StocsError):
    pass


class PartialAssignmentError(StocsError):
    pass


class MissingParentValueError(StocsError):
    pass


class MalformedPolicyError(StocsError):
    """Policy tree does not match the instance's variable order or domains."""


class OracleCapExceededError(StocsError):
    """policy_count is the count of the policies below some variable: the
    first such count above the cap, so a lower bound on the instance's."""

    def __init__(self, policy_count: int, cap: int):
        try:
            message = f"instance has more than {cap} policies, the oracle cap"
        except ValueError:  # an int of more digits than Python converts to text
            message = "instance has more policies than the oracle cap"
        super().__init__(message)
        self.policy_count = policy_count
        self.cap = cap


# ---------------------------------------------------------------------------
# solving / approximation / optimization
# ---------------------------------------------------------------------------

class InstanceTooDeepError(StocsError):
    """A search or tree walk would recurse past the interpreter's recursion limit."""


class BadEpsilonError(StocsError):
    pass


class BadKError(StocsError):
    pass


class BadSampleCountError(StocsError):
    pass


class NoHeuristicPolicyError(StocsError):
    """The deterministic core of the heuristic is unsatisfiable."""


class UnsupportedConditionalParentsError(StocsError):
    """Raised where an operation cannot handle decision-variable CPT parents."""


class NoObjectiveError(StocsError):
    pass


class NoFeasiblePolicyError(StocsError):
    """No policy meets the satisfaction threshold during constrained optimization."""


class FrontierCapExceededError(StocsError):
    """A frontier of constrained optimization holds more points than the cap."""

    def __init__(self, size: int, cap: int):
        super().__init__(f"a frontier holds {size} points, above the cap of {cap}")
        self.size = size
        self.cap = cap


# ---------------------------------------------------------------------------
# parsing / file formats / CLI
# ---------------------------------------------------------------------------

class ExpressionSyntaxError(StocsError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class ChainedComparisonError(ExpressionSyntaxError):
    pass


class FormatError(StocsError):
    """Malformed instance or policy document."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)
        self.line = line
        self.column = column


class MismatchBetweenAlgorithmsError(StocsError):
    """Backtracking and forward checking disagreed: a correctness alarm."""
