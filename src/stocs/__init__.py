"""Solve stochastic constraint satisfaction problems.

A stochastic CSP extends an ordinary finite-domain CSP with stochastic
variables that take values by chance rather than by choice. A solution is
a policy: a tree that fixes every decision as a function of the outcomes
observed before it. An instance is satisfiable when some policy satisfies
the constraints with probability at least the threshold theta.

The package provides exact solvers (backtracking and forward checking, in
decide and maximize modes), a brute-force enumeration oracle, bounding and
sampling approximations, conditional probabilities and expected-value
optimization, a JSON file format, and the `stocs` command-line tool.
"""

__version__ = "0.1.0"

from .approx import (
    WILSON_Z,
    HeuristicPolicy,
    Interval,
    SampleEstimate,
    monte_carlo_policy_eval,
    most_probable_scenario_policy,
    restricted_tree_bounds,
)
from .errors import (
    FormatError,
    InstanceValidationError,
    MalformedPolicyError,
    MismatchBetweenAlgorithmsError,
    OracleCapExceededError,
    StocsError,
)
from .expr import (
    Expr,
    compile_expression,
    format_expression,
    infer_type,
    parse_expression,
    variables_in,
)
from .extensions import (
    OptimizeResult,
    optimize_chance_constrained,
    optimize_expected,
    policy_expected_value,
)
from .formats import (
    FormatWarning,
    dump_instance,
    load_instance,
    parse_instance,
    parse_policy,
    serialize_policy,
)
from .model import (
    ORACLE_CAP,
    PROB_TOL,
    ConditionalTable,
    Constraint,
    Instance,
    Objective,
    VariableSpec,
    ViolationValueWarning,
    expr_constraint,
    table_constraint,
    validate_instance,
)
from .semantics import (
    ChanceNode,
    DecisionNode,
    Leaf,
    PolicyNode,
    SatisfactionResult,
    SearchStats,
    check_assignment,
    enumerate_policies,
    first_policy,
    induced_assignment,
    is_satisfiable_oracle,
    oracle_max_satisfaction,
    policy_satisfaction,
    scenario_probability,
    scenarios,
)
from .solver import (
    DecideResult,
    PruneRules,
    bt_decide,
    bt_max,
    fc_decide,
    fc_max,
)

__all__ = [
    "__version__",
    # model
    "Instance", "VariableSpec", "Constraint", "Objective", "ConditionalTable",
    "validate_instance", "table_constraint", "expr_constraint", "PROB_TOL",
    "ViolationValueWarning",
    # semantics
    "Leaf", "DecisionNode", "ChanceNode", "PolicyNode", "SearchStats",
    "SatisfactionResult", "policy_satisfaction", "scenario_probability",
    "check_assignment", "enumerate_policies", "oracle_max_satisfaction",
    "is_satisfiable_oracle", "first_policy", "induced_assignment", "scenarios",
    "ORACLE_CAP",
    # solver
    "PruneRules", "DecideResult", "bt_max", "fc_max", "bt_decide", "fc_decide",
    # approx
    "Interval", "SampleEstimate", "HeuristicPolicy", "restricted_tree_bounds",
    "most_probable_scenario_policy", "monte_carlo_policy_eval", "WILSON_Z",
    # extensions
    "OptimizeResult", "policy_expected_value", "optimize_expected", "optimize_chance_constrained",
    # expressions
    "Expr", "parse_expression", "format_expression", "compile_expression",
    "infer_type", "variables_in",
    # formats
    "parse_instance", "load_instance", "dump_instance", "serialize_policy",
    "parse_policy", "FormatWarning",
    # errors
    "StocsError", "InstanceValidationError", "FormatError",
    "MalformedPolicyError", "OracleCapExceededError",
    "MismatchBetweenAlgorithmsError",
]
