"""Constraint expression language: AST, parser, type checker, evaluator.

Grammar, lowest to highest precedence:

    or < and < not < comparison (non-associative) < additive (left)
       < multiplicative (left) < unary minus < atoms

Comparison operators are spelled ``= != < <= > >=``; keywords are lowercase.
Chained comparisons like ``a < b < c`` are rejected. Atoms are integer
literals, identifiers, and parenthesized expressions.

Booleans count as the integers 0/1 inside arithmetic and comparisons, which
lets objectives use indicator terms like ``10 * (x = s)``. The operands of
``and``/``or``/``not`` must be boolean.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Iterator

from .errors import (
    BadExpressionTypeError,
    ChainedComparisonError,
    ExpressionSyntaxError,
    ExpressionTooDeepError,
)

__all__ = [
    "Expr", "IntLiteral", "VariableRef", "Add", "Sub", "Mul", "Neg",
    "Eq", "Ne", "Lt", "Le", "Gt", "Ge", "And", "Or", "Not",
    "parse_expression", "infer_type", "variables_in", "compile_expression",
    "format_expression", "interval_range",
]


@dataclass(frozen=True)
class Expr:
    pass


@dataclass(frozen=True)
class IntLiteral(Expr):
    value: int


@dataclass(frozen=True)
class VariableRef(Expr):
    name: str


@dataclass(frozen=True)
class Add(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Sub(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Mul(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Neg(Expr):
    operand: Expr


@dataclass(frozen=True)
class Eq(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Ne(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Lt(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Le(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Gt(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Ge(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class And(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Or(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Not(Expr):
    operand: Expr


_COMPARISONS = {"=": Eq, "!=": Ne, "<": Lt, "<=": Le, ">": Gt, ">=": Ge}

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<int>\d+)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op><=|>=|!=|[=<>+\-*()]))"
)


@dataclass(frozen=True)
class _Token:
    kind: str  # "int" | "name" | "op" | "end"
    text: str
    pos: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.lastgroup is None:
            at = pos + len(text[pos:]) - len(text[pos:].lstrip())
            raise ExpressionSyntaxError(f"unexpected character {text[at]!r}", at)
        kind = m.lastgroup
        tokens.append(_Token(kind, m.group(kind), m.start(kind)))
        pos = m.end()
    tokens.append(_Token("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str) -> None:
        tok = self.peek()
        if tok.kind != "op" or tok.text != op:
            raise ExpressionSyntaxError(f"expected {op!r}", tok.pos)
        self.advance()

    def at_op(self, *ops: str) -> bool:
        tok = self.peek()
        return tok.kind == "op" and tok.text in ops

    def at_keyword(self, word: str) -> bool:
        tok = self.peek()
        return tok.kind == "name" and tok.text == word

    def parse(self) -> Expr:
        node = self.parse_or()
        tok = self.peek()
        if tok.kind != "end":
            raise ExpressionSyntaxError(f"unexpected trailing input {tok.text!r}", tok.pos)
        return node

    def parse_or(self) -> Expr:
        node = self.parse_and()
        while self.at_keyword("or"):
            self.advance()
            node = Or(node, self.parse_and())
        return node

    def parse_and(self) -> Expr:
        node = self.parse_not()
        while self.at_keyword("and"):
            self.advance()
            node = And(node, self.parse_not())
        return node

    def parse_not(self) -> Expr:
        if self.at_keyword("not"):
            self.advance()
            return Not(self.parse_not())
        return self.parse_comparison()

    def parse_comparison(self) -> Expr:
        node = self.parse_additive()
        if self.at_op(*_COMPARISONS):
            op = self.advance()
            node = _COMPARISONS[op.text](node, self.parse_additive())
            # non-associative: a second comparison operator is an error
            if self.at_op(*_COMPARISONS):
                tok = self.peek()
                raise ChainedComparisonError("chained comparison", tok.pos)
        return node

    def parse_additive(self) -> Expr:
        node = self.parse_multiplicative()
        while self.at_op("+", "-"):
            op = self.advance()
            right = self.parse_multiplicative()
            node = Add(node, right) if op.text == "+" else Sub(node, right)
        return node

    def parse_multiplicative(self) -> Expr:
        node = self.parse_unary()
        while self.at_op("*"):
            self.advance()
            node = Mul(node, self.parse_unary())
        return node

    def parse_unary(self) -> Expr:
        if self.at_op("-"):
            self.advance()
            return Neg(self.parse_unary())
        return self.parse_atom()

    def parse_atom(self) -> Expr:
        tok = self.peek()
        if tok.kind == "int":
            self.advance()
            return IntLiteral(int(tok.text))
        if tok.kind == "name":
            if tok.text in ("and", "or", "not"):
                raise ExpressionSyntaxError(f"unexpected keyword {tok.text!r}", tok.pos)
            self.advance()
            return VariableRef(tok.text)
        if tok.kind == "op" and tok.text == "(":
            self.advance()
            node = self.parse_or()
            self.expect_op(")")
            return node
        shown = tok.text if tok.kind != "end" else "end of input"
        raise ExpressionSyntaxError(f"expected expression, found {shown}", tok.pos)


def parse_expression(text: str) -> Expr:
    """Parse ``text`` into an expression tree.

    Raises ExpressionSyntaxError (with a character offset) on malformed
    input, including chained comparisons, and ExpressionTooDeepError when
    parentheses nest past the interpreter's recursion limit.
    """
    try:
        return _Parser(text).parse()
    except RecursionError:
        raise ExpressionTooDeepError("expression nests too deeply to parse") from None


def _spine(node: Expr, kinds: tuple[type, ...]) -> tuple[list[Expr], Expr]:
    """The nodes of a left-associative chain, top down, and its leftmost
    operand: a loop over long chains instead of one recursion per operator."""
    spine = []
    while isinstance(node, kinds):
        spine.append(node)
        node = node.left
    return spine, node


def infer_type(node: Expr) -> str:
    """Return "int" or "bool" for a well-typed expression.

    Arithmetic and comparisons accept both kinds (booleans act as 0/1);
    ``and``/``or``/``not`` insist on boolean operands.
    """
    if isinstance(node, (IntLiteral, VariableRef)):
        return "int"
    if isinstance(node, (Add, Sub, Mul)):
        spine, leftmost = _spine(node, (Add, Sub, Mul))
        infer_type(leftmost)
        for parent in reversed(spine):
            infer_type(parent.right)
        return "int"
    if isinstance(node, Neg):
        infer_type(node.operand)
        return "int"
    if isinstance(node, (Eq, Ne, Lt, Le, Gt, Ge)):
        infer_type(node.left)
        infer_type(node.right)
        return "bool"
    if isinstance(node, (And, Or)):
        spine, leftmost = _spine(node, (And, Or))
        # operands in left-to-right order, each with the node that joins it
        for parent, side in [(spine[-1], leftmost)] + [(p, p.right) for p in reversed(spine)]:
            if infer_type(side) != "bool":
                raise BadExpressionTypeError(
                    f"{type(parent).__name__.lower()} needs boolean operands, "
                    f"got {format_expression(side)!r}"
                )
        return "bool"
    if isinstance(node, Not):
        if infer_type(node.operand) != "bool":
            raise BadExpressionTypeError(
                f"not needs a boolean operand, got {format_expression(node.operand)!r}"
            )
        return "bool"
    raise TypeError(f"not an expression node: {node!r}")


def _walk(node: Expr) -> Iterator[Expr]:
    """Pre-order walk with an explicit stack, so long operator chains fit."""
    stack = [node]
    while stack:
        node = stack.pop()
        yield node
        for field in ("operand", "right", "left"):
            child = getattr(node, field, None)
            if child is not None:
                stack.append(child)


def variables_in(node: Expr) -> list[str]:
    """Variable names in first-occurrence order, without duplicates."""
    seen: dict[str, None] = {}
    for sub in _walk(node):
        if isinstance(sub, VariableRef):
            seen.setdefault(sub.name)
    return list(seen)


_LEVEL_OR = 1
_LEVEL_AND = 2
_LEVEL_NOT = 3
_LEVEL_CMP = 4
_LEVEL_ADD = 5
_LEVEL_MUL = 6
_LEVEL_NEG = 7
_LEVEL_ATOM = 8

_CMP_TEXT = {Eq: "=", Ne: "!=", Lt: "<", Le: "<=", Gt: ">", Ge: ">="}
_PY_CMP_TEXT = {**_CMP_TEXT, Eq: "=="}
_CHAIN_TEXT = {Add: "+", Sub: "-", Mul: "*", And: "and", Or: "or"}


def _level(node: Expr) -> int:
    if isinstance(node, (IntLiteral, VariableRef)):
        return _LEVEL_ATOM
    if isinstance(node, Neg):
        return _LEVEL_NEG
    if isinstance(node, Mul):
        return _LEVEL_MUL
    if isinstance(node, (Add, Sub)):
        return _LEVEL_ADD
    if isinstance(node, (Eq, Ne, Lt, Le, Gt, Ge)):
        return _LEVEL_CMP
    if isinstance(node, Not):
        return _LEVEL_NOT
    if isinstance(node, And):
        return _LEVEL_AND
    return _LEVEL_OR


def _render(node: Expr, name_text: Callable[[str], str],
            cmp_text: dict[type, str]) -> str:
    """Print with minimal parentheses by the precedence levels above.

    Left-associative chains are walked iteratively, so a long sum needs
    neither recursion nor parentheses.
    """
    def wrap(child: Expr, minimum: int) -> str:
        text = render(child)
        return f"({text})" if _level(child) < minimum else text

    def render(node: Expr) -> str:
        if isinstance(node, IntLiteral):
            return str(node.value)
        if isinstance(node, VariableRef):
            return name_text(node.name)
        if isinstance(node, Neg):
            return "-" + wrap(node.operand, _LEVEL_NEG)
        if isinstance(node, Not):
            return "not " + wrap(node.operand, _LEVEL_NOT)
        level = _level(node)
        if type(node) in cmp_text:
            op = cmp_text[type(node)]
            return f"{wrap(node.left, level + 1)} {op} {wrap(node.right, level + 1)}"
        if type(node) not in _CHAIN_TEXT:
            raise TypeError(f"not an expression node: {node!r}")
        # left-associative: equal level allowed on the left only
        tail = []
        while type(node) in _CHAIN_TEXT and _level(node) == level:
            tail.append(f" {_CHAIN_TEXT[type(node)]} {wrap(node.right, level + 1)}")
            node = node.left
        return wrap(node, level) + "".join(reversed(tail))

    return render(node)


def format_expression(node: Expr) -> str:
    """Print with minimal parentheses; parse_expression inverts it."""
    return _render(node, lambda name: name, _CMP_TEXT)


def compile_expression(node: Expr, index_of: dict[str, int]) -> Callable:
    """Compile to one generated ``lambda env: ...`` over an environment list.

    The environment is a list indexed by variable position; only positions
    named in the expression are read. Python's precedence levels order the
    operators as the expression language does, so the generated source uses
    format_expression's minimal parentheses. Comparison results are Python
    bools, which arithmetic treats as 0/1; ``and``/``or`` see only boolean
    operands in a well-typed expression, so they return bools too.

    Raises ExpressionTooDeepError when the source nests too deeply for
    Python's compiler.
    """
    try:
        source = "lambda env: " + _render(node, lambda name: f"env[{index_of[name]}]",
                                          _PY_CMP_TEXT)
        return eval(compile(source, "<constraint>", "eval"), {"__builtins__": {}})
    except (SyntaxError, RecursionError, MemoryError) as e:
        raise ExpressionTooDeepError(f"expression nests too deeply to compile: {e}") from None


def interval_range(node: Expr, domain_of: dict[str, tuple[int, ...]]) -> tuple[int, int]:
    """Cheap interval bound on the values an expression can take.

    Used to warn when an objective's violation value beats every achievable
    objective value. Sound but not tight (interval arithmetic).
    """
    if isinstance(node, IntLiteral):
        return node.value, node.value
    if isinstance(node, VariableRef):
        dom = domain_of[node.name]
        return dom[0], dom[-1]
    if isinstance(node, Neg):
        lo, hi = interval_range(node.operand, domain_of)
        return -hi, -lo
    if isinstance(node, (Eq, Ne, Lt, Le, Gt, Ge, Not, And, Or)):
        return 0, 1
    if not isinstance(node, (Add, Sub, Mul)):
        raise TypeError(f"not an expression node: {node!r}")
    spine, leftmost = _spine(node, (Add, Sub, Mul))
    a, b = interval_range(leftmost, domain_of)
    for parent in reversed(spine):
        c, d = interval_range(parent.right, domain_of)
        if isinstance(parent, Add):
            a, b = a + c, b + d
        elif isinstance(parent, Sub):
            a, b = a - d, b - c
        else:
            corners = (a * c, a * d, b * c, b * d)
            a, b = min(corners), max(corners)
    return a, b
