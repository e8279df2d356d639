import operator
import re
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from stocs.errors import (
    BadExpressionTypeError,
    ChainedComparisonError,
    ExpressionSyntaxError,
    ExpressionTooDeepError,
    InstanceValidationError,
    StocsError,
)
from stocs import expr, parse_instance
from stocs.expr import (
    _BINARY_LEVEL,
    _LEVEL_NEG,
    _LEVEL_NOT,
    Binary,
    IntLiteral,
    Unary,
    VariableRef,
    compile_expression,
    format_expression,
    infer_type,
    interval_range,
    parse_expression,
    variables_in,
)


def x(name):
    return VariableRef(name)


class TestParsing:
    def test_arithmetic_comparison(self):
        got = parse_expression("x + 2*y <= 7")
        assert got == Binary("<=", Binary("+", x("x"), Binary("*", IntLiteral(2), x("y"))),
                             IntLiteral(7))

    def test_boolean_connectives(self):
        got = parse_expression("not (x = y) and z = 1")
        assert got == Binary("and", Unary("not", Binary("=", x("x"), x("y"))),
                             Binary("=", x("z"), IntLiteral(1)))

    def test_or_binds_looser_than_and(self):
        got = parse_expression("a = 1 or b = 1 and c = 1")
        assert got.op == "or"
        assert got.right.op == "and"

    def test_additive_left_associative(self):
        got = parse_expression("a - b - c")
        assert got == Binary("-", Binary("-", x("a"), x("b")), x("c"))

    def test_multiplicative_binds_tighter(self):
        got = parse_expression("a - b * c")
        assert got == Binary("-", x("a"), Binary("*", x("b"), x("c")))

    def test_unary_minus_binds_tightest(self):
        got = parse_expression("-a * b")
        assert got == Binary("*", Unary("-", x("a")), x("b"))

    def test_all_comparison_operators(self):
        for op in ("=", "!=", "<", "<=", ">", ">="):
            assert parse_expression(f"a {op} b") == Binary(op, x("a"), x("b"))

    def test_chained_comparison_rejected(self):
        with pytest.raises(ChainedComparisonError) as info:
            parse_expression("a < b < c")
        assert info.value.position == 6

    @pytest.mark.parametrize("text", ["", "x +", "(x", "x ? y", "1 2", "and x",
                                      # past Python's 4,300 digits of an int read from text
                                      pytest.param("x < 1" + "0" * 5000, id="5001-digit-int")])
    def test_syntax_errors_carry_a_position(self, text):
        with pytest.raises(ExpressionSyntaxError) as info:
            parse_expression(text)
        assert isinstance(info.value.position, int)

    def test_keywords_are_lowercase_only(self):
        # NOT is just an identifier, so this is two adjacent atoms
        with pytest.raises(ExpressionSyntaxError):
            parse_expression("NOT x = 1 AND y = 2")

    @pytest.mark.parametrize("text, position", [
        ("x = \u0661", 4),  # ARABIC-INDIC DIGIT ONE, which int() reads as 1
        ("x = 1\uff12", 5),  # FULLWIDTH DIGIT TWO after an ASCII digit
        ("x\u00a0= 1", 1),  # NO-BREAK SPACE, which str.isspace() calls a blank
        ("x = 1 \u2028", 6),  # LINE SEPARATOR at the end
    ], ids=["arabic-indic-digit", "fullwidth-digit", "no-break-space", "line-separator"])
    def test_digits_and_blanks_are_ascii(self, text, position):
        with pytest.raises(ExpressionSyntaxError, match="unexpected character") as info:
            parse_expression(text)
        assert info.value.position == position

    @pytest.mark.parametrize("text", ["x = 1 ", "x = 1\t\n", "  x = 1\r\n "])
    def test_blanks_around_an_expression(self, text):
        assert parse_expression(text) == Binary("=", x("x"), IntLiteral(1))

    def test_names_are_collected_in_first_occurrence_order(self):
        names = {}
        node = parse_expression("b + a * (c - b) >= a", names)
        assert list(names) == variables_in(node) == ["b", "a", "c"]

    def test_one_walk_gives_type_and_names(self):
        names = {}
        node = parse_expression("not (q = 1) or -p * r > q")
        assert infer_type(node, names) == "bool"
        assert list(names) == variables_in(node) == ["q", "p", "r"]


README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_precedence_table_matches_the_operator_table():
    section = README.read_text(encoding="utf-8").split("## Expression language")[1]
    section = section.split("\n## ")[0]
    binary, prefix = {}, {}
    for level, operators, associativity in re.findall(
            r"^\| (\d+) \| (.+?) \| (.+?) \|$", section, flags=re.M):
        if associativity == "prefix":
            target = prefix
        else:
            target = binary
            cmp = int(level) == _BINARY_LEVEL["="]
            assert associativity == ("non-associative" if cmp else "left"), level
        for op in re.findall(r"`([^`]+)`", operators):
            target[op] = int(level)
    assert binary == _BINARY_LEVEL
    assert prefix == {"not": _LEVEL_NOT, "-": _LEVEL_NEG}


@pytest.mark.parametrize("node", [Binary("^", x("a"), x("b")), Unary("!", x("a")),
                                  Binary("+", x("a"), "b")],
                         ids=["binary", "unary", "operand"])
def test_unknown_node_is_a_type_error(node):
    for reader in (format_expression, infer_type,
                   lambda n: interval_range(n, {"a": (0, 1)}),
                   lambda n: compile_expression(n, {"a": 0})):
        with pytest.raises(TypeError, match="not an expression node"):
            reader(node)


@pytest.mark.parametrize("reader", [format_expression, lambda n: compile_expression(n, {})],
                         ids=["format", "compile"])
def test_literal_too_long_to_print_is_a_validation_error(reader):
    with pytest.raises(InstanceValidationError, match="integer literal too long to print"):
        reader(Binary("<", IntLiteral(1), IntLiteral(10 ** 5000)))


@pytest.mark.parametrize("value", [1.5, True, "1"], ids=["float", "bool", "text"])
@pytest.mark.parametrize("reader", [infer_type, format_expression,
                                    lambda n: compile_expression(n, {"x": 0})],
                         ids=["type", "format", "compile"])
def test_non_integer_literal_is_a_validation_error(reader, value):
    # its text would be pasted into the generated code
    with pytest.raises(InstanceValidationError, match=re.escape(f"non-integer literal {value!r}")):
        reader(Binary(">=", x("x"), IntLiteral(value)))


def test_int_subclass_literal_prints_its_digits():
    class Named(int):
        def __str__(self):
            return "env"
        __repr__ = __str__

    node = Binary(">=", x("x"), IntLiteral(Named(1)))
    assert format_expression(node) == "x >= 1"
    assert compile_expression(node, {"x": 0})([1]) is True


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
            node = Binary("-", x("a"), node)
        with pytest.raises(ExpressionTooDeepError) as info:
            compile_expression(Binary(">=", node, IntLiteral(0)), {"a": 0})
        assert isinstance(info.value, StocsError)

    def test_too_deep_for_the_parser_is_a_typed_error(self):
        with pytest.raises(ExpressionTooDeepError):
            parse_expression("(" * 400 + "x" + ")" * 400 + " = 1")


class TestCompileMemo:
    def test_equal_sources_compile_once(self, monkeypatch):
        text = ('{"theta": 0.5, "variables": [{"name": "x", "kind": "decision", "domain": [0, 1]}], '
                '"constraints": [{"type": "expr", "text": "x >= 1"}, {"type": "expr", "text": "x <= 1"}]}')
        sources = []
        monkeypatch.setattr(expr, "compile", lambda source, *rest: sources.append(source)
                            or compile(source, *rest), raising=False)
        expr._compile_source.cache_clear()
        first, second = parse_instance(text), parse_instance(text)
        assert first is not second
        assert all(a.fn is b.fn for a, b in zip(first.compiled, second.compiled, strict=True))
        assert sources == ["lambda env: env[0] >= 1", "lambda env: env[0] <= 1"]

    def test_a_failure_is_raised_again(self):
        node = x("a")
        for _ in range(250):
            node = Binary("-", x("a"), node)
        for _ in range(2):
            with pytest.raises(ExpressionTooDeepError):
                compile_expression(Binary(">=", node, IntLiteral(0)), {"a": 0})

    def test_holds_at_most_its_bound(self):
        bound = expr._compile_source.cache_info().maxsize
        for k in range(bound + 5):
            compile_expression(Binary("=", x("a"), IntLiteral(k)), {"a": 0})
        assert expr._compile_source.cache_info().currsize == bound


# A tree-walking reference for the generated code: booleans count as 0/1 in
# arithmetic and comparisons, and the connectives take booleans.
_ARITHMETIC = {"+": operator.add, "-": operator.sub, "*": operator.mul,
               "=": operator.eq, "!=": operator.ne, "<": operator.lt,
               "<=": operator.le, ">": operator.gt, ">=": operator.ge}

# the operator table's levels sort its operators into the three kinds
_CMP_LEVEL = _BINARY_LEVEL["="]
INT_OPS = [op for op, level in _BINARY_LEVEL.items() if level > _CMP_LEVEL]
COMPARISON_OPS = [op for op, level in _BINARY_LEVEL.items() if level == _CMP_LEVEL]
CONNECTIVE_OPS = [op for op, level in _BINARY_LEVEL.items() if level < _CMP_LEVEL]


def _reference(node, env):
    if isinstance(node, IntLiteral):
        return node.value
    if isinstance(node, VariableRef):
        return env[node.name]
    if isinstance(node, Unary):
        operand = _reference(node.operand, env)
        return -int(operand) if node.op == "-" else not operand
    left = _reference(node.left, env)
    if node.op == "and":
        return left and _reference(node.right, env)
    if node.op == "or":
        return left or _reference(node.right, env)
    return _ARITHMETIC[node.op](int(left), int(_reference(node.right, env)))


VARIABLES = ("a", "b", "c")
_int_atoms = st.one_of(
    st.integers(min_value=-20, max_value=20).map(IntLiteral),  # negatives via the API
    st.sampled_from(VARIABLES).map(VariableRef),
)


def _binary(ops, operands):
    return st.tuples(st.sampled_from(ops), operands, operands).map(lambda t: Binary(*t))


def _typed(children):
    # children draws (kind, node) pairs; arithmetic and comparisons take
    # either kind, the connectives take booleans (an integer x becomes x != 0)
    nodes = children.map(lambda kn: kn[1])
    bools = children.map(lambda kn: kn[1] if kn[0] == "bool"
                         else Binary("!=", kn[1], IntLiteral(0)))
    arithmetic = st.one_of(_binary(INT_OPS, nodes), nodes.map(lambda n: Unary("-", n)))
    connective = st.one_of(_binary(CONNECTIVE_OPS, bools), bools.map(lambda n: Unary("not", n)))
    return st.one_of(arithmetic.map(lambda n: ("int", n)),
                     st.one_of(_binary(COMPARISON_OPS, nodes), connective)
                     .map(lambda n: ("bool", n)))


typed_expressions = st.recursive(
    st.one_of(_int_atoms.map(lambda n: ("int", n)),
              st.tuples(_int_atoms, _int_atoms).map(lambda t: ("bool", Binary("=", *t)))),
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
    return st.one_of(
        _binary(list(_BINARY_LEVEL), children),
        st.tuples(st.sampled_from(("-", "not")), children).map(lambda t: Unary(*t)),
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
