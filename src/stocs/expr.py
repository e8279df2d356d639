"""Constraint expression language: AST, parser, type checker, evaluator.

Four node types: ``IntLiteral``, ``VariableRef``, ``Unary(op, operand)``
with op ``-`` or ``not``, and ``Binary(op, left, right)`` whose op is the
surface token. One table, ``_BINARY_LEVEL``, gives each binary operator its
precedence level; the parser, the printer, the type checker and the
interval bound all read it. Lowest to highest precedence:

    or < and < not < comparison (non-associative) < additive (left)
       < multiplicative (left) < unary minus < atoms

Comparison operators are spelled ``= != < <= > >=``; keywords are lowercase.
Chained comparisons like ``a < b < c`` are rejected. Atoms are integer
literals, identifiers, and parenthesized expressions. The parser climbs
precedence levels, about three stack frames per redundant parenthesis.

Booleans count as the integers 0/1 inside arithmetic and comparisons, which
lets objectives use indicator terms like ``10 * (x = s)``. The operands of
``and``/``or``/``not`` must be boolean.
"""

from __future__ import annotations

import functools
import itertools
import re
from bisect import bisect_left
from collections.abc import Callable
from operator import itemgetter, mul

from ._record import record
from .errors import (
    BadExpressionTypeError,
    ChainedComparisonError,
    ExpressionSyntaxError,
    ExpressionTooDeepError,
    InstanceValidationError,
)

__all__ = [
    "Expr", "IntLiteral", "VariableRef", "Unary", "Binary",
    "parse_expression", "infer_type", "variables_in", "compile_expression",
    "format_expression", "interval_range", "key_getters",
]


@record
class Expr:
    pass


@record
class IntLiteral(Expr):
    value: int


@record
class VariableRef(Expr):
    name: str


@record
class Unary(Expr):
    op: str  # "-" or "not"
    operand: Expr


@record
class Binary(Expr):
    op: str  # a key of _BINARY_LEVEL
    left: Expr
    right: Expr


# Precedence level of each binary operator, as in the README's table.
_BINARY_LEVEL = {
    "or": 1, "and": 2,
    "=": 4, "!=": 4, "<": 4, "<=": 4, ">": 4, ">=": 4,
    "+": 5, "-": 5, "*": 6,
}
_LEVEL_NOT = 3
_LEVEL_CMP = _BINARY_LEVEL["="]
_LEVEL_NEG = 7
_LEVEL_ATOM = 8
_CONNECTIVES = tuple(op for op, level in _BINARY_LEVEL.items() if level < _LEVEL_NOT)
_ARITHMETIC = tuple(op for op, level in _BINARY_LEVEL.items() if level > _LEVEL_CMP)

# Literals are ASCII digits and blanks are ASCII blanks. Each match is one
# token after blanks; the empty match at the end of the text is the end
# token. _BAD_RE finds the first character that starts no token.
_TOKEN_RE = re.compile(
    r"[ \t\n\r\f\v]*([0-9]+|[A-Za-z_][A-Za-z0-9_]*|<=|>=|!=|[=<>+\-*()]|\Z)")
_BAD_RE = re.compile(r"[^ \t\n\r\f\v0-9A-Za-z_<>=+\-*()!]|!(?!=)")
_KEYWORDS = ("and", "or", "not")


class _Parser:
    """Recursive descent over the token texts. A token's position is found
    again only for an error message."""

    def __init__(self, text: str):
        if (bad := _BAD_RE.search(text)) is not None:
            raise ExpressionSyntaxError(f"unexpected character {bad[0]!r}", bad.start())
        self.text, self.tokens, self.i = text, _TOKEN_RE.findall(text), 0

    def error(self, message: str, kind: type = ExpressionSyntaxError) -> Exception:
        token = next(itertools.islice(_TOKEN_RE.finditer(self.text), self.i, None))
        return kind(message, token.start(1))

    def parse_binary(self, minimum: int) -> Expr:
        """Operators of level >= ``minimum``, left-associative; a second
        comparison in a row is a ChainedComparisonError."""
        node = self.parse_unary(minimum)
        tokens = self.tokens
        # only operator tokens and the keywords and/or spell a key of the table
        while (level := _BINARY_LEVEL.get(op := tokens[self.i], 0)) >= minimum:
            self.i += 1
            node = Binary(op, node, self.parse_binary(level + 1))
            if level == _LEVEL_CMP and _BINARY_LEVEL.get(tokens[self.i]) == _LEVEL_CMP:
                raise self.error("chained comparison", ChainedComparisonError)
        return node

    def parse_unary(self, minimum: int) -> Expr:
        token = self.tokens[self.i]
        if token.isidentifier() and token not in _KEYWORDS:
            self.i += 1
            return VariableRef(token)
        # below its own level `not` is no operand: `x + not y` is an error
        if token == "not" and minimum <= _LEVEL_NOT:
            self.i += 1
            return Unary("not", self.parse_binary(_LEVEL_NOT))
        if token == "-":
            self.i += 1
            return Unary("-", self.parse_unary(_LEVEL_NEG))
        return self.parse_atom()

    def parse_atom(self) -> Expr:
        token = self.tokens[self.i]
        if token in _KEYWORDS:
            raise self.error(f"unexpected keyword {token!r}")
        if token.isdigit():
            try:
                node = IntLiteral(int(token))
            except ValueError:  # more digits than sys.get_int_max_str_digits()
                raise self.error("integer literal too long") from None
            self.i += 1
            return node
        if token == "(":
            self.i += 1
            node = self.parse_binary(1)
            if self.tokens[self.i] != ")":
                raise self.error("expected ')'")
            self.i += 1
            return node
        raise self.error(f"expected expression, found {token or 'end of input'}")


def parse_expression(text: str) -> Expr:
    """Parse ``text`` into an expression tree.

    Raises ExpressionSyntaxError (with a character offset) on malformed
    input, including chained comparisons, and ExpressionTooDeepError when
    parentheses nest past the interpreter's recursion limit.
    """
    parser = _Parser(text)
    try:
        node = parser.parse_binary(1)
        if parser.tokens[parser.i]:
            raise parser.error(f"unexpected trailing input {parser.tokens[parser.i]!r}")
        return node
    except RecursionError:
        raise ExpressionTooDeepError("expression nests too deeply to parse") from None


def _level(node: Expr) -> int:
    """Precedence level of a node; TypeError for anything else."""
    if isinstance(node, (IntLiteral, VariableRef)):
        return _LEVEL_ATOM
    if isinstance(node, Binary) and node.op in _BINARY_LEVEL:
        return _BINARY_LEVEL[node.op]
    if isinstance(node, Unary) and node.op in ("-", "not"):
        return _LEVEL_NEG if node.op == "-" else _LEVEL_NOT
    raise TypeError(f"not an expression node: {node!r}")


def _check_literal(value) -> None:  # a literal's digits go into generated code
    if not isinstance(value, int) or isinstance(value, bool):
        raise InstanceValidationError(f"non-integer literal {value!r}")


def _spine(node: Expr, ops: tuple[str, ...]) -> tuple[list[Binary], Expr]:
    """The nodes of a left-associative chain of ``ops``, top down, and its
    leftmost operand: a loop over long chains instead of one recursion per
    operator."""
    spine = []
    while isinstance(node, Binary) and node.op in ops:
        spine.append(node)
        node = node.left
    return spine, node


def infer_type(node: Expr, names: dict | None = None) -> str:
    """Return "int" or "bool" for a well-typed expression, and add the names
    of its variables to ``names``, if given, in first-occurrence order.

    Arithmetic and comparisons accept both kinds (booleans act as 0/1);
    ``and``/``or``/``not`` insist on boolean operands.
    """
    if names is None:
        names = {}
    level = _level(node)
    if level == _LEVEL_ATOM:
        if isinstance(node, VariableRef):
            names[node.name] = None
        else:
            _check_literal(node.value)
        return "int"
    if isinstance(node, Unary):
        operand = infer_type(node.operand, names)
        if node.op == "-":
            return "int"
        if operand != "bool":
            raise BadExpressionTypeError(
                f"not needs a boolean operand, got {format_expression(node.operand)!r}"
            )
        return "bool"
    if level == _LEVEL_CMP:
        infer_type(node.left, names)
        infer_type(node.right, names)
        return "bool"
    ops = _ARITHMETIC if node.op in _ARITHMETIC else _CONNECTIVES
    spine, leftmost = _spine(node, ops)
    # operands in left-to-right order, each with the node that joins it
    for parent, side in [(spine[-1], leftmost)] + [(p, p.right) for p in reversed(spine)]:
        if infer_type(side, names) != "bool" and ops == _CONNECTIVES:
            raise BadExpressionTypeError(
                f"{parent.op} needs boolean operands, got {format_expression(side)!r}"
            )
    return "int" if ops == _ARITHMETIC else "bool"


def variables_in(node: Expr) -> list[str]:
    """Variable names in first-occurrence order, without duplicates: a
    pre-order walk with an explicit stack, so long operator chains fit."""
    seen: dict[str, None] = {}
    stack = [node]
    while stack:
        node = stack.pop()
        if isinstance(node, VariableRef):
            seen.setdefault(node.name)
        stack += [c for f in ("operand", "right", "left") if (c := getattr(node, f, None)) is not None]
    return list(seen)


def _render(node: Expr, name_text: Callable[[str], str], python: bool) -> str:
    """Print with minimal parentheses by the precedence levels above; with
    ``python``, ``=`` is spelled ``==``.

    Left-associative chains are walked iteratively, so a long sum needs
    neither recursion nor parentheses.
    """
    def wrap(child: Expr, minimum: int) -> str:
        text = render(child)
        return f"({text})" if _level(child) < minimum else text

    def render(node: Expr) -> str:
        if isinstance(node, IntLiteral):
            _check_literal(node.value)
            try:
                return int.__repr__(node.value)  # the digits, also of an int subclass
            except ValueError:  # more digits than sys.get_int_max_str_digits()
                raise InstanceValidationError("integer literal too long to print") from None
        if isinstance(node, VariableRef):
            return name_text(node.name)
        level = _level(node)
        if isinstance(node, Unary):
            return ("-" if node.op == "-" else "not ") + wrap(node.operand, level)
        if level == _LEVEL_CMP:
            op = "==" if python and node.op == "=" else node.op
            return f"{wrap(node.left, level + 1)} {op} {wrap(node.right, level + 1)}"
        # left-associative: equal level allowed on the left only
        tail = []
        while isinstance(node, Binary) and _BINARY_LEVEL.get(node.op) == level:
            tail.append(f" {node.op} {wrap(node.right, level + 1)}")
            node = node.left
        return wrap(node, level) + "".join(reversed(tail))

    return render(node)


def format_expression(node: Expr) -> str:
    """Print with minimal parentheses; parse_expression inverts it."""
    return _render(node, lambda name: name, python=False)


def compile_expression(node: Expr, index_of: dict[str, int]) -> Callable:
    """Compile to one generated ``lambda env: ...`` over an environment list.

    The environment is a list indexed by variable position; only positions
    named in the expression are read. Python's precedence levels order the
    operators as the expression language does, so the generated source uses
    format_expression's minimal parentheses. Comparison results are Python
    bools, which arithmetic treats as 0/1; ``and``/``or`` see only boolean
    operands in a well-typed expression, so they return bools too. Equal
    sources share one pure function, compiled once while the memo holds it.

    Raises ExpressionTooDeepError when the source nests too deeply for
    Python's compiler.
    """
    try:
        return _compile_source("lambda env: " + _render(
            node, lambda name: f"env[{index_of[name]}]", python=True))
    except (SyntaxError, RecursionError, MemoryError) as e:
        raise ExpressionTooDeepError(f"expression nests too deeply to compile: {e}") from None


@functools.lru_cache(maxsize=1024)  # a failure raises, so it is never stored
def _compile_source(source: str) -> Callable:
    return eval(compile(source, "<constraint>", "eval"), {"__builtins__": {}})


def _linear(index_of: dict[str, int], *signed: tuple[int, Expr]) -> tuple[dict[int, int], list]:
    """The sum of ``sign * node`` over the pairs ``signed`` as the
    coefficient of each variable position and the list of its other terms:
    ``+``, ``-``, unary minus and products with a literal side distribute,
    literals drop out, and any other node is one term."""
    coefs: dict[int, int] = {}
    terms = []
    stack = list(signed)
    while stack:
        c, node = stack.pop()
        if isinstance(node, Binary) and node.op in ("+", "-"):
            stack += [(c, node.left), (-c if node.op == "-" else c, node.right)]
        elif isinstance(node, Unary) and node.op == "-":
            stack.append((-c, node.operand))
        elif isinstance(node, Binary) and node.op == "*" and isinstance(node.left, IntLiteral):
            stack.append((c * node.left.value, node.right))
        elif isinstance(node, Binary) and node.op == "*" and isinstance(node.right, IntLiteral):
            stack.append((c * node.right.value, node.left))
        elif isinstance(node, VariableRef):
            i = index_of[node.name]
            coefs[i] = coefs.get(i, 0) + c
        elif not isinstance(node, IntLiteral):
            terms.append(node)
    return coefs, terms


def key_getters(n: int, index_of: dict[str, int], scopes: list, expressions: list) -> tuple:
    """Per-depth subtree keys of a walk over n variables (Instance.key_at).

    The key at depth d fixes all that the subtree below d reads of env[:d].
    At its depths each (positions, depths) of ``scopes`` adds the raw values
    of its assigned positions, and each (node, depths) of ``expressions``:
    for a linear node (``+``, ``-``, unary minus, products with a literal;
    a comparison as left - right) the integer sum of its assigned variable
    terms and the keys of its other terms; for any other, its operands'.
    A getter is None where the key is the whole prefix (it never repeats).
    """
    raw: list[set[int]] = [set() for _ in range(n)]
    sums: list[set[tuple[tuple[int, ...], tuple[int, ...]]]] = [set() for _ in range(n)]

    def add(node: Expr, depths: range) -> None:
        signed = [(1, node.left), (-1, node.right)] if _level(node) == _LEVEL_CMP else [(1, node)]
        coefs, terms = _linear(index_of, *signed)
        if terms == [node]:  # not linear: key each operand
            spine, leftmost = _spine(node, (node.op,))
            for operand in [getattr(node, "operand", leftmost)] + [p.right for p in spine]:
                add(operand, depths)
            return
        for term in terms:
            add(term, depths)
        order = sorted(i for i, c in coefs.items() if c)
        for d in depths:
            k = bisect_left(order, d)  # the assigned variables
            if k == 1:
                raw[d].add(order[0])
            elif k:
                sums[d].add((tuple(order[:k]), tuple([coefs[i] for i in order[:k]])))

    for node, depths in expressions:
        add(node, depths)
    for positions, depths in scopes:
        for i in positions:
            for d in range(max(i + 1, depths.start), depths.stop):
                raw[d].add(i)
    table: list = []
    for d in range(n):
        parts = [itemgetter(*sorted(raw[d]))] if raw[d] else []
        parts += [_sum_getter(*form) for form in sorted(sums[d]) if not raw[d].issuperset(form[0])]
        table.append(None if len(raw[d]) == d else parts[0] if len(parts) == 1
                     else lambda env, parts=parts: tuple([part(env) for part in parts]))
    return tuple(table)


def _sum_getter(positions: tuple[int, ...], coefs: tuple[int, ...]) -> Callable:
    get = itemgetter(*positions)
    return lambda env: sum(map(mul, coefs, get(env)))


def interval_range(node: Expr, domain_of: dict[str, tuple[int, ...]]) -> tuple[int, int]:
    """Cheap interval bound on the values an expression can take.

    Used to warn when an objective's violation value beats every achievable
    objective value. Sound but not tight (interval arithmetic).
    """
    level = _level(node)
    if isinstance(node, IntLiteral):
        return node.value, node.value
    if isinstance(node, VariableRef):
        dom = domain_of[node.name]
        return dom[0], dom[-1]
    if level <= _LEVEL_CMP:  # comparisons, not, and, or
        return 0, 1
    if isinstance(node, Unary):
        lo, hi = interval_range(node.operand, domain_of)
        return -hi, -lo
    spine, leftmost = _spine(node, _ARITHMETIC)
    a, b = interval_range(leftmost, domain_of)
    for parent in reversed(spine):
        c, d = interval_range(parent.right, domain_of)
        if parent.op == "+":
            a, b = a + c, b + d
        elif parent.op == "-":
            a, b = a - d, b - c
        else:
            corners = (a * c, a * d, b * c, b * d)
            a, b = min(corners), max(corners)
    return a, b
