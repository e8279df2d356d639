import dataclasses
import itertools
import random

import pytest

from gen import random_instance, random_linear_instance
from stocs import (
    ConditionalTable,
    Constraint,
    Instance,
    Objective,
    VariableSpec,
    ViolationValueWarning,
    bt_decide,
    bt_max,
    dump_instance,
    expr_constraint,
    optimize_expected,
    parse_expression,
    parse_instance,
    table_constraint,
    validate_instance,
)
from stocs.errors import (
    ArityMismatchError,
    BadExpressionTypeError,
    BadProbabilitySumError,
    CptCoverageError,
    CptParentOrderError,
    DuplicateNameError,
    DuplicateScopeVariableError,
    EmptyDomainError,
    ExpressionTooDeepError,
    InstanceValidationError,
    MissingDistributionError,
    NegativeProbabilityError,
    NonBooleanConstraintError,
    NonFiniteProbabilityError,
    OutOfDomainValueError,
    ProbabilitiesOnDecisionError,
    ProbabilityLengthMismatchError,
    ThetaOutOfRangeError,
    UnknownScopeVariableError,
    UnsortedDomainError,
)
from stocs import expr
from stocs.expr import Binary, IntLiteral, VariableRef
from conftest import make_instance


X = VariableSpec("x", "decision", (0, 1))
HALF = (0.5, 0.5)


def build(variables, constraints=(), theta=0.5, objective=None):
    return validate_instance(Instance(
        variables=tuple(variables), constraints=tuple(constraints),
        theta=theta, objective=objective))


class TestValidation:
    def test_minimal_instance_is_valid(self, instance_a):
        assert len(instance_a.variables) == 2
        assert len(instance_a.constraints) == 1
        assert instance_a.theta == 0.5

    def test_bad_probability_sum_reports_it(self):
        with pytest.raises(BadProbabilitySumError) as info:
            build([VariableSpec("s", "stochastic", (0, 1),
                                probabilities=(0.5, 0.4))])
        assert info.value.actual_sum == pytest.approx(0.9)

    def test_unknown_scope_variable_is_named(self):
        with pytest.raises(UnknownScopeVariableError) as info:
            build([VariableSpec("x", "decision", (0, 1))],
                  [table_constraint(("x", "z"), [(0, 0)])])
        assert info.value.variable == "z"

    def test_expression_type_error_names_its_constraint(self):
        with pytest.raises(BadExpressionTypeError) as info:
            build([X], [expr_constraint("x = 1"), expr_constraint("not x")])
        assert str(info.value) == "constraint 1: not needs a boolean operand, got 'x'"

    def test_duplicate_variable_names(self):
        with pytest.raises(DuplicateNameError):
            build([VariableSpec("x", "decision", (0, 1)),
                   VariableSpec("x", "decision", (0, 1))])

    def test_empty_domain(self):
        with pytest.raises(EmptyDomainError):
            build([VariableSpec("x", "decision", ())])

    @pytest.mark.parametrize("domain", [(1, 0), (0, 0)])
    def test_domain_strictly_increasing(self, domain):
        with pytest.raises(UnsortedDomainError):
            build([VariableSpec("x", "decision", domain)])

    def test_negative_probability(self):
        with pytest.raises(NegativeProbabilityError):
            build([VariableSpec("s", "stochastic", (0, 1),
                                probabilities=(1.2, -0.2))])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_probability(self, bad):
        with pytest.raises(NonFiniteProbabilityError):
            build([VariableSpec("s", "stochastic", (0, 1), probabilities=(bad, 1.0))])

    def test_probability_length_mismatch(self):
        with pytest.raises(ProbabilityLengthMismatchError):
            build([VariableSpec("s", "stochastic", (0, 1, 2),
                                probabilities=(0.5, 0.5))])

    def test_probabilities_on_decision(self):
        with pytest.raises(ProbabilitiesOnDecisionError):
            build([VariableSpec("x", "decision", (0, 1),
                                probabilities=(0.5, 0.5))])

    def test_stochastic_needs_a_distribution(self):
        with pytest.raises(MissingDistributionError):
            build([VariableSpec("s", "stochastic", (0, 1))])

    @pytest.mark.parametrize("theta", [-0.1, 1.5])
    def test_theta_range(self, theta):
        with pytest.raises(ThetaOutOfRangeError):
            build([VariableSpec("x", "decision", (0, 1))], theta=theta)

    def test_huge_integer_theta_is_out_of_range(self):
        with pytest.raises(ThetaOutOfRangeError):
            build([VariableSpec("x", "decision", (0, 1))], theta=10**400)

    def test_huge_integer_probability_is_non_finite(self):
        with pytest.raises(NonFiniteProbabilityError):
            build([VariableSpec("s", "stochastic", (0, 1), probabilities=(10**400, 1))])

    def test_huge_integer_cpt_row_is_non_finite(self):
        cpt = ConditionalTable("s", ("x",), {(0,): (10**400, 1), (1,): (0.5, 0.5)})
        with pytest.raises(NonFiniteProbabilityError):
            build([VariableSpec("x", "decision", (0, 1)),
                   VariableSpec("s", "stochastic", (0, 1), cpt=cpt)])

    def test_table_arity_mismatch(self):
        with pytest.raises(ArityMismatchError):
            build([VariableSpec("x", "decision", (0, 1)),
                   VariableSpec("y", "decision", (0, 1))],
                  [table_constraint(("x", "y"), [(0,)])])

    def test_table_value_outside_domain(self):
        with pytest.raises(OutOfDomainValueError):
            build([VariableSpec("x", "decision", (0, 1))],
                  [table_constraint(("x",), [(7,)])])

    @pytest.mark.parametrize("value", [True, 1.0])
    def test_table_value_must_be_an_integer(self, value):
        # both equal 1, so a domain test alone takes them; dump_instance
        # would then write a file that parse_instance refuses
        with pytest.raises(InstanceValidationError, match="non-integer table value"):
            build([X], [Constraint(("x",), frozenset({(value,)}))])

    def test_api_records_normalize_to_what_a_file_gives(self):
        # lists for tuples, int probabilities, unsorted or list table rows, an
        # expression scope out of order and plain sets all become the records
        # parse_instance builds; those validate to themselves
        y = VariableSpec("y", "decision", (0, 1))
        rows = {(1,): [0.5, 0.5], (0,): (0.25, 0.75)}
        raw = Instance(
            variables=(X, y,
                       VariableSpec("s", "stochastic", (0, 1), probabilities=[0.5, 0.5]),
                       VariableSpec("u", "stochastic", (0, 1), probabilities=(1, 0)),
                       VariableSpec("t", "stochastic", (0, 1), cpt=ConditionalTable("t", ("x",), rows))),
            constraints=(Constraint(("y", "x"), None, parse_expression("x = y")),
                         Constraint(("x",), {(0,)}),
                         Constraint(["x", "y"], frozenset({(0, 1)})),
                         Constraint(("x", "y"), [[0, 1], [1, 0]])),
            theta=0.5)
        normalized = Instance(
            variables=(X, y,
                       VariableSpec("s", "stochastic", (0, 1), probabilities=(0.5, 0.5)),
                       VariableSpec("u", "stochastic", (0, 1), probabilities=(1.0, 0.0)),
                       VariableSpec("t", "stochastic", (0, 1), cpt=ConditionalTable(
                           "t", ("x",), {(0,): (0.25, 0.75), (1,): (0.5, 0.5)}))),
            constraints=(Constraint(("x", "y"), None, parse_expression("x = y")),
                         Constraint(("x",), frozenset({(0,)})),
                         Constraint(("x", "y"), frozenset({(0, 1)})),
                         Constraint(("x", "y"), frozenset({(0, 1), (1, 0)}))),
            theta=0.5)
        got = validate_instance(raw)
        assert got == normalized
        assert list(got.variables[4].cpt.rows) == [(0,), (1,)]
        assert validate_instance(got) is got
        assert parse_instance(dump_instance(got)) == got

    def test_duplicate_scope_variable(self):
        with pytest.raises(DuplicateScopeVariableError):
            build([VariableSpec("x", "decision", (0, 1))],
                  [table_constraint(("x", "x"), [(0, 0)])])

    def test_constraint_expression_must_be_boolean(self):
        with pytest.raises(NonBooleanConstraintError):
            build([VariableSpec("x", "decision", (0, 1))],
                  [expr_constraint("x + 1")])

    def test_unknown_variable_in_expression(self):
        with pytest.raises(UnknownScopeVariableError):
            build([VariableSpec("x", "decision", (0, 1))],
                  [expr_constraint("x = z")])

    def test_expression_too_deep_to_check(self):
        # long left-associative sums are checked in a loop, so a 1,500-term
        # constraint and objective validate and solve
        x = VariableSpec("x", "decision", (0, 1))
        long_sum = " + ".join(["x"] * 1500)
        inst = build([x], [expr_constraint(long_sum + " >= 1500")],
                     objective=Objective(parse_expression(long_sum)))
        got = bt_max(inst)
        assert (got.probability, got.policy.chosen_value) == (1.0, 1)
        assert optimize_expected(inst).expected_value == 1500.0
        # the check still recurses into right operands: x + (x + (...))
        node = VariableRef("x")
        for _ in range(1500):
            node = Binary("+", VariableRef("x"), node)
        with pytest.raises(ExpressionTooDeepError):
            build([x], [expr_constraint(Binary(">=", node, IntLiteral(0)))])

    @pytest.mark.parametrize("variables, constraints, objective, error, message", [
        ([VariableSpec("1x", "decision", (0, 1))], [], None,
         InstanceValidationError, "^variable name '1x' is not an identifier$"),
        ([VariableSpec("x", "chance", (0, 1))], [], None,
         InstanceValidationError, "^variable x: unknown kind 'chance'$"),
        ([VariableSpec("x", "decision", (0, 1.5))], [], None,
         InstanceValidationError, "^variable x: non-integer domain value 1.5$"),
        ([X, VariableSpec("s", "stochastic", (0, 1),
                          cpt=ConditionalTable("t", ("x",), {(0,): HALF, (1,): HALF}))], [], None,
         InstanceValidationError, "^conditional table child 't' attached to variable 's'$"),
        ([X, VariableSpec("s", "stochastic", (0, 1), cpt=ConditionalTable("s", ("z",), {}))],
         [], None, UnknownScopeVariableError, "unknown parent 'z'$"),
        ([X, VariableSpec("s", "stochastic", (0, 1), cpt=ConditionalTable("s", ("x", "x"), {}))],
         [], None, DuplicateScopeVariableError, "duplicate parent 'x'$"),
        ([X], [Constraint(("x",), frozenset({(0,)}), parse_expression("x = 0"))], None,
         InstanceValidationError, "^constraint 0: need exactly one of a table or an expression$"),
        ([X], [Constraint(("x",))], None,
         InstanceValidationError, "^constraint 0: need exactly one of a table or an expression$"),
        ([X], [table_constraint((), [()])], None,
         InstanceValidationError, "^constraint 0: table constraint with empty scope$"),
        ([X], [], Objective(parse_expression("z")),
         UnknownScopeVariableError, "^objective: unknown variable 'z'$"),
        # Python prints at most 4,300 digits of an int; dump_instance would
        # write every domain value, and messages print the other two
        ([VariableSpec("x", "decision", (0, 10**5000))], [], None,
         InstanceValidationError, "^variable x: an integer too long to print$"),
        ([X], [table_constraint(("x",), [(10**5000,)])], None,
         InstanceValidationError, "^constraint 0: an integer too long to print$"),
        ([X, VariableSpec("s", "stochastic", (0, 1), cpt=ConditionalTable(
            "s", ("x",), {(0,): HALF, (1,): HALF, (10**5000,): HALF}))], [], None,
         InstanceValidationError, "^conditional table for s: an integer too long to print$"),
        # records built through the API may hold what no file parses to: a
        # list where a name belongs, or an unprintable integer inside one
        ([VariableSpec(["x"], "decision", (0, 1))], [], None,
         InstanceValidationError, r"^variable name \['x'\] is not an identifier$"),
        ([VariableSpec("x", [10**5000], (0, 1))], [], None,
         InstanceValidationError, "^variable x: an integer too long to print$"),
        ([VariableSpec("x", "decision", (0, [10**5000]))], [], None,
         InstanceValidationError, "^variable x: an integer too long to print$"),
        ([X], [Constraint((["x"],), frozenset({(0,)}))], None,
         UnknownScopeVariableError, r"^constraint 0: unknown variable \['x'\]$"),
        ([X, VariableSpec("s", "stochastic", (0, 1), cpt=ConditionalTable(
            "s", (["x"],), {(0,): HALF, (1,): HALF}))], [], None,
         UnknownScopeVariableError, r"^conditional table for s: unknown parent \['x'\]$"),
        ([X, VariableSpec("s", "stochastic", (0, 1), cpt=ConditionalTable(
            [10**5000], ("x",), {(0,): HALF, (1,): HALF}))], [], None,
         InstanceValidationError, "^conditional table child: an integer too long to print$"),
        # an expression holding what is no node: text where a parsed
        # expression belongs, or a bare int inside one
        ([X], [Constraint(("x",), None, "x = 1")], None,
         InstanceValidationError, "^constraint 0: not an expression node: 'x = 1'$"),
        ([X], [], Objective(Binary("+", VariableRef("x"), 3)),
         InstanceValidationError, "^objective: not an expression node: 3$"),
        # records or fields of the wrong type, which only the API can build;
        # "junk" stands for a whole record that is no Instance
        ("junk", [], None,
         InstanceValidationError, "^variables: 'str' object has no attribute 'variables'$"),
        (None, [], None, InstanceValidationError, "^variables: 'NoneType' object is not iterable$"),
        ([X], None, None, InstanceValidationError, "^constraints: 'NoneType' object is not iterable$"),
        ([5], [], None, InstanceValidationError, "^variable 0: 'int' object has no attribute 'name'$"),
        ([X], [X], None,
         InstanceValidationError, "^constraint 0: 'VariableSpec' object has no attribute 'allowed'$"),
        ([VariableSpec("x", "decision", 5)], [], None,
         InstanceValidationError, "^variable x: 'int' object is not iterable$"),
        ([VariableSpec("x", "decision", None)], [], None,
         InstanceValidationError, "^variable x: 'NoneType' object is not iterable$"),
        ([VariableSpec("s", "stochastic", (0, 1), 5)], [], None,
         InstanceValidationError, "^variable s: object of type 'int' has no len\\(\\)$"),
        ([X], [Constraint(None, frozenset({(0,)}))], None,
         InstanceValidationError, "^constraint 0: 'NoneType' object is not iterable$"),
        ([X], [Constraint(("x",), [0, 1])], None,
         InstanceValidationError, "^constraint 0: 'int' object is not iterable$"),
        ([X, VariableSpec("s", "stochastic", (0, 1), cpt={"child": "s"})], [], None,
         InstanceValidationError, "^conditional table for s: 'dict' object has no attribute 'child'$"),
        ([X, VariableSpec("s", "stochastic", (0, 1), cpt=ConditionalTable("s", ("x",), [HALF, HALF]))],
         [], None,
         InstanceValidationError, "^conditional table for s: 'list' object has no attribute 'items'$"),
        ([X, VariableSpec("s", "stochastic", (0, 1),
                          cpt=ConditionalTable("s", ("x",), {0: HALF, 1: HALF}))], [], None,
         InstanceValidationError, "^conditional table for s: 'int' object is not iterable$"),
        ([X, VariableSpec("s", "stochastic", (0, 1),
                          cpt=ConditionalTable("s", ("x",), {(0,): 5, (1,): HALF}))], [], None,
         InstanceValidationError, "^conditional table for s: object of type 'int' has no len\\(\\)$"),
        ([X, VariableSpec("s", "stochastic", (0, 1),
                          cpt=ConditionalTable("s", None, {(0,): HALF, (1,): HALF}))], [], None,
         InstanceValidationError, "^conditional table for s: 'NoneType' object is not iterable$"),
        ([X], [], parse_expression("x"),
         InstanceValidationError, "^objective: 'VariableRef' object has no attribute 'expression'$"),
    ], ids=["name", "kind", "domain", "cpt-child", "cpt-unknown-parent", "cpt-duplicate-parent",
            "table-and-expression", "neither", "empty-table-scope", "objective-unknown-variable",
            "big-domain-value", "big-table-value", "big-cpt-row", "list-name", "big-kind",
            "big-non-integer-domain-value", "list-scope-name", "list-cpt-parent", "big-cpt-child",
            "expression-text", "objective-non-node", "no-instance", "no-variables",
            "no-constraints", "variable-no-record", "constraint-no-record", "int-domain",
            "no-domain", "int-probabilities", "no-table-scope", "untupled-allowed", "dict-cpt",
            "list-cpt-rows", "int-cpt-row-key", "int-cpt-row-probabilities", "no-cpt-parents",
            "objective-no-record"])
    def test_typed_errors(self, variables, constraints, objective, error, message):
        raw = "junk" if variables == "junk" else Instance(variables, constraints, 0.5, objective)
        with pytest.raises(error, match=message):
            validate_instance(raw)

    def test_idempotent(self, instance_a):
        assert validate_instance(instance_a) == instance_a

    def test_instances_are_immutable(self, instance_a):
        with pytest.raises(dataclasses.FrozenInstanceError):
            instance_a.theta = 0.9


class TestConditionalTables:
    def test_parent_must_precede_child(self):
        cpt = ConditionalTable("s", ("x",), {(0,): (1.0, 0.0), (1,): (0.0, 1.0)})
        with pytest.raises(CptParentOrderError):
            build([VariableSpec("s", "stochastic", (0, 1), cpt=cpt),
                   VariableSpec("x", "decision", (0, 1))])

    def test_rows_cover_the_parent_product(self):
        cpt = ConditionalTable("s", ("x",), {(0,): (1.0, 0.0)})
        with pytest.raises(CptCoverageError):
            build([VariableSpec("x", "decision", (0, 1)),
                   VariableSpec("s", "stochastic", (0, 1), cpt=cpt)])

    def test_no_rows_beyond_the_parent_product(self):
        cpt = ConditionalTable("s", ("x",), {(0,): (1.0, 0.0), (1,): (0.0, 1.0),
                                             (2,): (0.5, 0.5)})
        with pytest.raises(CptCoverageError):
            build([VariableSpec("x", "decision", (0, 1)),
                   VariableSpec("s", "stochastic", (0, 1), cpt=cpt)])

    def test_every_row_sums_to_one(self):
        cpt = ConditionalTable("s", ("x",), {(0,): (1.0, 0.0), (1,): (0.3, 0.3)})
        with pytest.raises(BadProbabilitySumError):
            build([VariableSpec("x", "decision", (0, 1)),
                   VariableSpec("s", "stochastic", (0, 1), cpt=cpt)])

    def test_non_finite_row_rejected(self):
        cpt = ConditionalTable("s", ("x",), {(0,): (1.0, 0.0),
                                             (1,): (float("nan"), 1.0)})
        with pytest.raises(NonFiniteProbabilityError):
            build([VariableSpec("x", "decision", (0, 1)),
                   VariableSpec("s", "stochastic", (0, 1), cpt=cpt)])

    def test_cpt_on_decision_rejected(self):
        cpt = ConditionalTable("x", (), {(): (0.5, 0.5)})
        with pytest.raises(ProbabilitiesOnDecisionError):
            build([VariableSpec("x", "decision", (0, 1), cpt=cpt)])

    def test_probabilities_and_cpt_exclusive(self):
        cpt = ConditionalTable("s", (), {(): (0.5, 0.5)})
        with pytest.raises(InstanceValidationError):
            build([VariableSpec("s", "stochastic", (0, 1),
                                probabilities=(0.5, 0.5), cpt=cpt)])

    def test_distribution_lookup_uses_parent_values(self):
        cpt = ConditionalTable("s", ("x",), {(0,): (0.9, 0.1), (1,): (0.2, 0.8)})
        inst = build([VariableSpec("x", "decision", (0, 1)),
                      VariableSpec("s", "stochastic", (0, 1), cpt=cpt)])
        assert inst.distribution(1, [0, None]) == (0.9, 0.1)
        assert inst.distribution(1, [1, None]) == (0.2, 0.8)


class TestCheckAt:
    def test_one_test_per_depth_matches_its_constraints(self):
        rng = random.Random(67)
        shared = 0
        for make in (random_instance, random_linear_instance) * 25:
            inst = make(rng)
            ending = [[c for c in inst.compiled if c.last_idx == d] for d in range(inst.n)]
            assert [test is None for test in inst.check_at] == [not cs for cs in ending]
            shared += sum(len(cs) >= 2 for cs in ending)
            for env in itertools.product(*(v.domain for v in inst.variables)):
                env = list(env)
                for test, cs in zip(inst.check_at, ending):
                    if test is not None:
                        assert test(env) == all(c.fn(env) for c in cs)
        assert shared >= 10  # depths where several constraints end

    def test_stops_at_the_first_failure_in_compiled_order(self, monkeypatch):
        calls = []
        compile_expression = expr.compile_expression

        def logged(node, index_of):
            fn = compile_expression(node, index_of)
            text = expr.format_expression(node)
            return lambda env: calls.append(text) or fn(env)

        monkeypatch.setattr(expr, "compile_expression", logged)
        inst = build([VariableSpec("x", "decision", (0, 1)), VariableSpec("y", "decision", (0, 1))],
                     [expr_constraint(t) for t in ("y = 1", "x = 0", "x = y", "x + y >= 1")])
        assert inst.check_at[0] is inst.compiled[1].fn
        assert inst.check_at[1]([1, 1]) is True
        assert calls == ["y = 1", "x = y", "x + y >= 1"]
        calls.clear()
        assert inst.check_at[1]([0, 0]) is False
        assert calls == ["y = 1"]
        calls.clear()
        assert inst.check_at[1]([0, 1]) is False
        assert calls == ["y = 1", "x = y"]

    def test_a_warm_memo_stays_behind_the_module_name(self, monkeypatch):
        def load():
            return build([VariableSpec("x", "decision", (0, 1, 2)),
                          VariableSpec("s", "stochastic", (0, 1), probabilities=HALF)],
                         [expr_constraint(t) for t in ("x >= s", "x != 1", "x + s <= 2")],
                         objective=Objective(parse_expression("10 * x"), 0.0))

        optimize_expected(load())  # compiles every constraint and the objective
        seen, calls = [], []
        compile_expression = expr.compile_expression

        def logged(node, index_of):
            fn, text = compile_expression(node, index_of), expr.format_expression(node)
            seen.append(text)
            return lambda env: calls.append(text) or fn(env)

        monkeypatch.setattr(expr, "compile_expression", logged)
        inst = load()
        assert inst.check_at[0]([2, 0]) is True and inst.check_at[1]([2, 0]) is True
        assert seen == ["x >= s", "x != 1", "x + s <= 2"]
        assert calls == ["x != 1", "x >= s", "x + s <= 2"]
        seen.clear()
        calls.clear()
        assert optimize_expected(inst).expected_value == 10.0  # x = 2 fails x + s <= 2 at s = 1
        assert seen == ["10 * x"] and "10 * x" in calls

    def test_thousands_of_constraints_at_one_depth(self):
        # the test nests about log2(3000) calls, not 3000
        inst = build([VariableSpec("x", "decision", (0, 1))],
                     [expr_constraint(f"x != {k + 2}") for k in range(3000)])
        assert inst.check_at[0]([0]) is True
        assert bt_max(inst).probability == 1.0


class TestValuesAreCheckedNotConverted:
    """The API rejects what the file reader rejects, with a typed error."""

    @staticmethod
    def with_cpt(rows):
        return build([VariableSpec("x", "decision", (0, 1)),
                      VariableSpec("s", "stochastic", (0, 1),
                                   cpt=ConditionalTable("s", ("x",), rows))])

    def test_text_cpt_key(self):
        with pytest.raises(InstanceValidationError, match="non-integer parent value 'a'"):
            self.with_cpt({("a",): HALF, (1,): HALF})

    def test_float_cpt_key(self):
        with pytest.raises(InstanceValidationError, match="non-integer parent value 0.7"):
            self.with_cpt({(0.7,): HALF, (1,): HALF})

    def test_bool_probabilities(self):
        with pytest.raises(InstanceValidationError, match="True is not a number"):
            build([VariableSpec("s", "stochastic", (0, 1), probabilities=(True, False))])

    def test_text_probabilities(self):
        with pytest.raises(InstanceValidationError, match="'0.5' is not a number"):
            build([VariableSpec("s", "stochastic", (0, 1), probabilities=("0.5", "0.5"))])

    def test_unprintable_probability(self):
        with pytest.raises(InstanceValidationError, match=": an integer too long to print$"):
            build([VariableSpec("s", "stochastic", (0, 1), probabilities=([10**5000], 0.5))])

    def test_text_theta(self):
        with pytest.raises(InstanceValidationError, match="theta: '0.5' is not a number"):
            build([X], theta="0.5")

    def test_bool_theta(self):
        with pytest.raises(InstanceValidationError, match="theta: True is not a number"):
            build([X], theta=True)

    @pytest.mark.parametrize("theta, message", [
        ("0.5", "is not a number"), (True, "is not a number"),
        ([10**5000], "^theta: an integer too long to print$")])
    def test_theta_override(self, theta, message):
        instance = build([X])
        with pytest.raises(InstanceValidationError, match=message):
            bt_decide(instance, theta_override=theta)

    @pytest.mark.parametrize("violation, message", [
        ("-1", "violation_value: .* is not a number"),
        (False, "violation_value: .* is not a number"),
        ([10**5000], "^objective: violation_value: an integer too long to print$")])
    def test_violation_value(self, violation, message):
        with pytest.raises(InstanceValidationError, match=message):
            build([X], objective=Objective(parse_expression("x"), violation))

    @pytest.mark.parametrize("value", [1.5, True, "1"], ids=["float", "bool", "text"])
    def test_literal(self, value):
        node = Binary(">=", VariableRef("x"), IntLiteral(value))
        with pytest.raises(InstanceValidationError, match=f"non-integer literal {value!r}"):
            build([VariableSpec("x", "decision", (0, 1, 2))], [Constraint(("x",), None, node)])


    def test_table_constraint_keeps_its_values(self):
        # refused as Constraint(("x",), frozenset({(1.7,)})) is, not read as x = 1
        x = VariableSpec("x", "decision", (0, 1, 2))
        constraint = table_constraint(["x"], [[1.7], [True]])
        assert sorted(map(repr, constraint.allowed)) == ["(1.7,)", "(True,)"]
        with pytest.raises(OutOfDomainValueError, match="value 1.7 not in domain of x"):
            build([x], [constraint])
        with pytest.raises(InstanceValidationError, match="non-integer table value True"):
            build([x], [table_constraint(["x"], [[True]])])


class TestObjectiveWarning:
    def test_warns_when_violation_can_beat_the_objective(self):
        objective = Objective(parse_expression("x + s"), violation_value=100.0)
        with pytest.warns(ViolationValueWarning):
            make_instance(
                [("x", "d", (0, 1)), ("s", "s", (0, 1), (0.5, 0.5))],
                [expr_constraint("x = s")], objective=objective)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_violation_value(self, bad):
        objective = Objective(parse_expression("x + s"), violation_value=bad)
        with pytest.raises(InstanceValidationError, match="non-finite violation_value"):
            make_instance(
                [("x", "d", (0, 1)), ("s", "s", (0, 1), (0.5, 0.5))],
                [expr_constraint("x = s")], objective=objective)

    def test_huge_integer_violation_value(self):
        objective = Objective(parse_expression("x"), 10**400)
        with pytest.raises(InstanceValidationError, match="non-finite violation_value"):
            make_instance([("x", "d", (0, 1))], objective=objective)

    def test_silent_when_violation_is_low_enough(self, recwarn):
        objective = Objective(parse_expression("x + s"), violation_value=-1.0)
        make_instance(
            [("x", "d", (0, 1)), ("s", "s", (0, 1), (0.5, 0.5))],
            [expr_constraint("x = s")], objective=objective)
        assert not [w for w in recwarn if isinstance(w.message, ViolationValueWarning)]
