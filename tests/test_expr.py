import operator

import pytest
from hypothesis import given
from hypothesis import strategies as st

from stocs.errors import (
    BadExpressionTypeError,
    ChainedComparisonError,
    ExpressionSyntaxError,
    ExpressionTooDeepError,
    StocsError,
)
from stocs.expr import (
    Add,
    And,
    Eq,
    Ge,
    Gt,
    IntLiteral,
    Le,
    Lt,
    Mul,
    Ne,
    Neg,
    Not,
    Or,
    Sub,
    VariableRef,
    compile_expression,
    format_expression,
    infer_type,
    parse_expression,
    variables_in,
)


def x(name):
    return VariableRef(name)


class TestParsing:
    def test_arithmetic_comparison(self):
        got = parse_expression("x + 2*y <= 7")
        assert got == Le(Add(x("x"), Mul(IntLiteral(2), x("y"))), IntLiteral(7))

    def test_boolean_connectives(self):
        got = parse_expression("not (x = y) and z = 1")
        assert got == And(Not(Eq(x("x"), x("y"))), Eq(x("z"), IntLiteral(1)))

    def test_or_binds_looser_than_and(self):
        got = parse_expression("a = 1 or b = 1 and c = 1")
        assert isinstance(got, Or)
        assert isinstance(got.right, And)

    def test_additive_left_associative(self):
        got = parse_expression("a - b - c")
        assert got == Sub(Sub(x("a"), x("b")), x("c"))

    def test_multiplicative_binds_tighter(self):
        got = parse_expression("a - b * c")
        assert got == Sub(x("a"), Mul(x("b"), x("c")))

    def test_unary_minus_binds_tightest(self):
        got = parse_expression("-a * b")
        assert got == Mul(Neg(x("a")), x("b"))

    def test_all_comparison_operators(self):
        for text, node in [("a = b", Eq), ("a != b", Ne), ("a < b", Lt),
                           ("a <= b", Le), ("a > b", Gt), ("a >= b", Ge)]:
            assert parse_expression(text) == node(x("a"), x("b"))

    def test_chained_comparison_rejected(self):
        with pytest.raises(ChainedComparisonError) as info:
            parse_expression("a < b < c")
        assert info.value.position == 6

    @pytest.mark.parametrize("text", ["", "x +", "(x", "x ? y", "1 2", "and x"])
    def test_syntax_errors_carry_a_position(self, text):
        with pytest.raises(ExpressionSyntaxError) as info:
            parse_expression(text)
        assert isinstance(info.value.position, int)

    def test_keywords_are_lowercase_only(self):
        # NOT is just an identifier, so this is two adjacent atoms
        with pytest.raises(ExpressionSyntaxError):
            parse_expression("NOT x = 1 AND y = 2")


class TestTypes:
    def test_comparison_is_boolean(self):
        assert infer_type(parse_expression("x = s")) == "bool"

    def test_arithmetic_is_integer(self):
        assert infer_type(parse_expression("x + 1")) == "int"

    def test_boolean_counts_as_integer_in_arithmetic(self):
        assert infer_type(parse_expression("(x = y) + 1")) == "int"
        assert infer_type(parse_expression("10 * (x = s)")) == "int"

    def test_connectives_need_boolean_operands(self):
        with pytest.raises(BadExpressionTypeError):
            infer_type(parse_expression("x and y"))
        with pytest.raises(BadExpressionTypeError):
            infer_type(parse_expression("not x"))


class TestEvaluation:
    def test_compiled_closure_evaluates(self):
        fn = compile_expression(parse_expression("x + 2 * y <= 7"),
                                {"x": 0, "y": 1})
        assert fn([1, 3]) is True
        assert fn([2, 3]) is False

    def test_boolean_acts_as_zero_or_one(self):
        fn = compile_expression(parse_expression("10 * (x = y)"),
                                {"x": 0, "y": 1})
        assert fn([2, 2]) == 10
        assert fn([2, 3]) == 0

    def test_variables_in_first_occurrence_order(self):
        got = variables_in(parse_expression("y + x * y - z"))
        assert got == ["y", "x", "z"]

    def test_long_sum_compiles(self):
        # 300 left-associative terms need no parentheses at all
        text = " + ".join(f"v{i % 7}" for i in range(300)) + " >= 900"
        node = parse_expression(text)
        fn = compile_expression(node, {f"v{i}": i for i in range(7)})
        env = [0, 1, 2, 3, 4, 5, 6]
        assert fn(env) == (sum(env[i % 7] for i in range(300)) >= 900)
        assert fn([3] * 7) is True
        assert fn([2] * 7) is False

    def test_too_deep_for_the_compiler_is_a_typed_error(self):
        # a - (a - (a - ...)): 249 nested parentheses, above CPython's 200
        node = x("a")
        for _ in range(250):
            node = Sub(x("a"), node)
        with pytest.raises(ExpressionTooDeepError) as info:
            compile_expression(Ge(node, IntLiteral(0)), {"a": 0})
        assert isinstance(info.value, StocsError)

    def test_too_deep_for_the_parser_is_a_typed_error(self):
        with pytest.raises(ExpressionTooDeepError):
            parse_expression("(" * 400 + "x" + ")" * 400 + " = 1")


# A tree-walking reference for the generated code: booleans count as 0/1 in
# arithmetic and comparisons, and the connectives take booleans.
_ARITHMETIC = {Add: operator.add, Sub: operator.sub, Mul: operator.mul,
               Eq: operator.eq, Ne: operator.ne, Lt: operator.lt,
               Le: operator.le, Gt: operator.gt, Ge: operator.ge}


def _reference(node, env):
    if isinstance(node, IntLiteral):
        return node.value
    if isinstance(node, VariableRef):
        return env[node.name]
    if isinstance(node, Neg):
        return -int(_reference(node.operand, env))
    if isinstance(node, Not):
        return not _reference(node.operand, env)
    left = _reference(node.left, env)
    if isinstance(node, And):
        return left and _reference(node.right, env)
    if isinstance(node, Or):
        return left or _reference(node.right, env)
    return _ARITHMETIC[type(node)](int(left), int(_reference(node.right, env)))


VARIABLES = ("a", "b", "c")
_int_atoms = st.one_of(
    st.integers(min_value=-20, max_value=20).map(IntLiteral),  # negatives via the API
    st.sampled_from(VARIABLES).map(VariableRef),
)


def _typed(children):
    # children draws (kind, node) pairs; arithmetic and comparisons take
    # either kind, the connectives take booleans (an integer x becomes x != 0)
    nodes = children.map(lambda kn: kn[1])
    bools = children.map(lambda kn: kn[1] if kn[0] == "bool" else Ne(kn[1], IntLiteral(0)))
    pair = st.tuples(nodes, nodes)
    arithmetic = st.one_of(*(pair.map(lambda t, k=k: k(*t)) for k in (Add, Sub, Mul)),
                           nodes.map(Neg))
    comparison = st.one_of(*(pair.map(lambda t, k=k: k(*t))
                             for k in (Eq, Ne, Lt, Le, Gt, Ge)))
    connective = st.one_of(bools.map(Not),
                           st.tuples(bools, bools).map(lambda t: And(*t)),
                           st.tuples(bools, bools).map(lambda t: Or(*t)))
    return st.one_of(arithmetic.map(lambda n: ("int", n)),
                     st.one_of(comparison, connective).map(lambda n: ("bool", n)))


typed_expressions = st.recursive(
    st.one_of(_int_atoms.map(lambda n: ("int", n)),
              st.tuples(_int_atoms, _int_atoms).map(lambda t: ("bool", Eq(*t)))),
    _typed, max_leaves=30)


class TestGeneratedCode:
    @given(typed_expressions, st.lists(st.integers(-6, 6), min_size=3, max_size=3))
    def test_matches_the_reference_evaluator(self, kind_node, values):
        kind, node = kind_node
        assert infer_type(node) == kind
        fn = compile_expression(node, {name: i for i, name in enumerate(VARIABLES)})
        got = fn(values)
        expected = _reference(node, dict(zip(VARIABLES, values)))
        assert got == expected
        assert isinstance(got, bool) == (kind == "bool")


names = st.from_regex(r"[a-z][a-z0-9_]{0,3}", fullmatch=True).filter(
    lambda s: s not in ("and", "or", "not"))
atoms = st.one_of(
    st.integers(min_value=0, max_value=99).map(IntLiteral),
    names.map(VariableRef),
)


def _compound(children):
    binary = st.tuples(children, children)
    return st.one_of(
        binary.map(lambda t: Add(*t)),
        binary.map(lambda t: Sub(*t)),
        binary.map(lambda t: Mul(*t)),
        children.map(Neg),
        binary.map(lambda t: Eq(*t)),
        binary.map(lambda t: Ne(*t)),
        binary.map(lambda t: Lt(*t)),
        binary.map(lambda t: Le(*t)),
        binary.map(lambda t: Gt(*t)),
        binary.map(lambda t: Ge(*t)),
        binary.map(lambda t: And(*t)),
        binary.map(lambda t: Or(*t)),
        children.map(Not),
    )


expressions = st.recursive(atoms, _compound, max_leaves=25)


class TestFormatting:
    @given(expressions)
    def test_format_parse_round_trip(self, node):
        assert parse_expression(format_expression(node)) == node

    def test_redundant_parentheses_dropped(self):
        assert format_expression(parse_expression("((x)) + (2 * y)")) == "x + 2 * y"

    def test_needed_parentheses_kept(self):
        assert format_expression(parse_expression("a - (b - c)")) == "a - (b - c)"
        assert format_expression(parse_expression("(a + b) * c")) == "(a + b) * c"
