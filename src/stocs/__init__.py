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

# public name -> the module that defines it. Each resolves on first access
# (PEP 562), so `import stocs` loads no module, and a command loads only what
# it uses: `solve` never imports approx or extensions.
_EXPORTS = {name: module for module, names in (
    ("approx", "WILSON_Z HeuristicPolicy Interval SampleEstimate monte_carlo_policy_eval"
               " most_probable_scenario_policy restricted_tree_bounds"),
    ("errors", "FormatError InstanceValidationError MalformedPolicyError"
               " MismatchBetweenAlgorithmsError OracleCapExceededError StocsError"),
    ("expr", "Expr compile_expression format_expression infer_type parse_expression"
             " variables_in"),
    ("extensions", "OptimizeResult optimize_chance_constrained optimize_expected"
                   " policy_expected_value"),
    ("formats", "FormatWarning dump_instance load_instance parse_instance parse_policy"
                " serialize_policy"),
    ("model", "ORACLE_CAP PROB_TOL ConditionalTable Constraint Instance Objective"
              " VariableSpec ViolationValueWarning expr_constraint table_constraint"
              " validate_instance"),
    ("semantics", "ChanceNode DecisionNode Leaf PolicyNode SatisfactionResult SearchStats"
                  " check_assignment enumerate_policies first_policy induced_assignment"
                  " is_satisfiable_oracle oracle_max_satisfaction policy_satisfaction"
                  " scenario_probability scenarios"),
    ("solver", "DecideResult PruneRules bt_decide bt_max fc_decide fc_max"),
) for name in names.split()}


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    __import__(f"{__name__}.{module}")  # binds the submodule here as `module`
    value = getattr(globals()[module], name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})


__all__ = ["__version__", *_EXPORTS]
