"""Instance model: variables, constraints, threshold and objective.

An instance is a sequence of variables (the order is the observation and
decision order), a constraint set, and a satisfaction threshold theta.
Decision variables are set by the solver; stochastic variables are drawn
from a given distribution, either unconditional or a conditional table
over earlier variables.

Instances are immutable once validated and safe to share between
concurrent searches.
"""

from __future__ import annotations

import collections
import itertools
import math
import operator
import warnings
from collections.abc import Callable, Mapping, Sequence, Set
from functools import cached_property, reduce

from . import expr as _expr
from ._record import record
from .errors import (
    ArityMismatchError,
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
    StocsError,
    ThetaOutOfRangeError,
    UnknownScopeVariableError,
    UnsortedDomainError,
)

__all__ = [
    "ConditionalTable", "VariableSpec", "Constraint", "Objective", "Instance",
    "CompiledConstraint", "validate_instance", "table_constraint",
    "expr_constraint", "ViolationValueWarning", "PROB_TOL",
]

# tolerance on distribution sums and on all probability comparisons
PROB_TOL = 1e-9
# the most policies the oracle enumerates, and where policy counts stop
ORACLE_CAP = 10 ** 6


class ViolationValueWarning(UserWarning):
    """The objective's violation value beats every achievable objective value."""


@record
class ConditionalTable:
    """Distribution of a stochastic variable given earlier variables.

    rows maps each full parent-value tuple (in parents order) to a
    distribution over the child's domain in domain order.
    """
    child: str
    parents: tuple[str, ...]
    rows: Mapping[tuple[int, ...], tuple[float, ...]]


@record
class VariableSpec:
    name: str
    kind: str  # "decision" | "stochastic"
    domain: tuple[int, ...]
    probabilities: tuple[float, ...] | None = None
    cpt: ConditionalTable | None = None


@record
class Constraint:
    """Either an extensional table over scope or an expression tree.

    Exactly one of allowed/expression is set. For expression constraints
    the scope is derived from the expression's variables.
    """
    scope: tuple[str, ...]
    allowed: frozenset[tuple[int, ...]] | None = None
    expression: _expr.Expr | None = None


@record
class Objective:
    """Expression to maximize in expectation; a boolean one scores 0/1.

    Leaves that violate some constraint score violation_value (finite)
    instead of the expression's value.
    """
    expression: _expr.Expr
    violation_value: float = 0.0


def table_constraint(scope: Sequence[str], tuples: Sequence[Sequence[int]]) -> Constraint:
    try:
        return Constraint(scope, frozenset(map(tuple, tuples)))  # validation reads the scope
    except TypeError as fault:  # tuples is no iterable of sequences of hashable values
        raise InstanceValidationError(f"table constraint: {fault}") from None


def expr_constraint(text_or_ast) -> Constraint:
    ast = text_or_ast if isinstance(text_or_ast, _expr.Expr) else _expr.parse_expression(text_or_ast)
    return Constraint(scope=tuple(_expr.variables_in(ast)), expression=ast)


@record
class CompiledConstraint:
    source: Constraint
    scope_idx: tuple[int, ...]  # ascending variable indices
    last_idx: int               # -1 for constant constraints
    second_last_idx: int        # -1 when fewer than two scope variables
    fn: Callable


@record
class Instance:
    variables: tuple[VariableSpec, ...]
    constraints: tuple[Constraint, ...]
    theta: float
    objective: Objective | None = None
    name: str = ""

    @cached_property
    def index_of(self) -> dict[str, int]:
        return {v.name: i for i, v in enumerate(self.variables)}

    @property
    def n(self) -> int:
        return len(self.variables)

    @cached_property
    def stochastic_indices(self) -> tuple[int, ...]:
        return tuple(i for i, v in enumerate(self.variables) if v.kind == "stochastic")

    @cached_property
    def has_cpts(self) -> bool:
        return any(v.cpt is not None for v in self.variables)

    @cached_property
    def policy_count(self) -> int:
        """Number of distinct policy trees: exact up to ORACLE_CAP, and past
        it the first count above the cap (_count_policies), a lower bound."""
        return _count_policies(self.variables, ORACLE_CAP)

    def distribution(self, index: int, env: Sequence) -> tuple[float, ...]:
        """Branch probabilities of variable ``index`` given earlier values.

        env is an environment list with positions before ``index`` filled.
        Unconditional variables ignore env.
        """
        var = self.variables[index]
        if var.cpt is None:
            assert var.probabilities is not None
            return var.probabilities
        key = tuple(env[self.index_of[p]] for p in var.cpt.parents)
        return var.cpt.rows[key]

    @cached_property
    def compiled(self) -> tuple[CompiledConstraint, ...]:
        out = []
        for c in self.constraints:
            idx = tuple(sorted(self.index_of[name] for name in c.scope))
            last = idx[-1] if idx else -1
            second = idx[-2] if len(idx) >= 2 else -1
            if c.expression is not None:
                fn = _expr.compile_expression(c.expression, self.index_of)
            else:
                positions = tuple(self.index_of[name] for name in c.scope)
                allowed = c.allowed

                def fn(env, positions=positions, allowed=allowed):
                    return tuple(env[p] for p in positions) in allowed

            out.append(CompiledConstraint(c, idx, last, second, fn))
        return tuple(out)

    @cached_property
    def check_at(self) -> tuple[Callable | None, ...]:
        """One test per depth of the constraints whose last scope variable is
        there: None where none is, that constraint's fn where one is, and
        where several are, one function that calls theirs in compiled order
        and stops at the first failure. Every walker checks a depth with
        ``test is None or test(env)``."""
        groups: list[list[Callable]] = [[] for _ in range(self.n)]
        for c in self.compiled:
            if c.last_idx >= 0:
                groups[c.last_idx].append(c.fn)
        return tuple(_conjunction(fns) for fns in groups)

    @cached_property
    def key_at(self) -> tuple:
        """Per-depth subtree keys of the walks that check the constraints."""
        return self._key_table(())

    def _key_table(self, terms: tuple) -> tuple:
        """expr.key_getters over each table, CPT and expression at the depths
        it spans, and over each expression of ``terms`` (an objective's
        non-linear terms) at every depth: each leaf scores them."""
        scopes, expressions = [], []
        for c in self.compiled:
            depths = range(c.scope_idx[0] + 1 if c.scope_idx else 0, c.last_idx + 1)
            if c.source.expression is None:
                scopes.append((c.scope_idx, depths))
            else:
                expressions.append((c.source.expression, depths))
        scopes += [([self.index_of[p] for p in v.cpt.parents], range(j + 1))
                   for j, v in enumerate(self.variables) if v.cpt is not None]
        expressions += [(term, range(self.n)) for term in terms]
        return _expr.key_getters(self.n, self.index_of, scopes, expressions)

    @cached_property
    def fc_fire_at(self) -> tuple[tuple[CompiledConstraint, ...], ...]:
        """Constraints that reach one unassigned variable at each depth."""
        groups: list[list[CompiledConstraint]] = [[] for _ in range(self.n)]
        for c in self.compiled:
            if c.second_last_idx >= 0:
                groups[c.second_last_idx].append(c)
        return tuple(tuple(g) for g in groups)

    @cached_property
    def unary_compiled(self) -> tuple[CompiledConstraint, ...]:
        return tuple(c for c in self.compiled if len(c.scope_idx) == 1)

    @cached_property
    def constant_compiled(self) -> tuple[CompiledConstraint, ...]:
        return tuple(c for c in self.compiled if not c.scope_idx)

    @cached_property
    def constant_false(self) -> bool:
        """Whether some constraint over no variables is false, so that every
        leaf violates it. Every walker reads this flag, not the constraints."""
        return not all(c.fn([]) for c in self.constant_compiled)


def _count_policies(variables: Sequence[VariableSpec], cap: int) -> int:
    """Number of distinct policy trees over ``variables``, counted leaf to
    root: a decision variable multiplies the count by its domain size, a
    stochastic one raises it to that power (one subpolicy per observed
    value). The count never falls, so the first count above ``cap`` ends
    the loop and is returned: a lower bound on the whole count."""
    count = 1
    for v in reversed(variables):
        count = count * len(v.domain) if v.kind == "decision" else count ** len(v.domain)
        if count > cap:
            break
    return count


def _conjunction(fns: list[Callable]) -> Callable | None:
    """``fns[0](env) and fns[1](env) and ...`` (None for no fns), as a balanced
    tree of ``and`` closures: a call nests about log2(len(fns)) frames."""
    if len(fns) <= 1:
        return fns[0] if fns else None
    first, rest = _conjunction(fns[:len(fns) // 2]), _conjunction(fns[len(fns) // 2:])
    return lambda env: first(env) and rest(env)


def _as_float(v) -> float:
    """float(v), with an integer beyond the float range mapped to inf."""
    try:
        return float(v)
    except OverflowError:
        return math.inf


def _repr(value, error: type[StocsError], what: str) -> str:
    """repr(value) for a message; ``error`` instead of a bare ValueError
    where value holds an integer of more digits than Python converts to
    text (sys.get_int_max_str_digits())."""
    try:
        return repr(value)
    except ValueError:
        raise error(f"{what}: an integer too long to print") from None


def _check_number(v, what: str, error: type[StocsError] = InstanceValidationError) -> float:
    """_as_float(v) of an int or float that is not a bool; any other value is refused."""
    if not isinstance(v, (int, float)) or isinstance(v, bool):
        raise error(f"{what}: {_repr(v, error, what)} is not a number")
    return _as_float(v)


def _check_theta(theta) -> float:
    """theta as a float in [0, 1]; NaN and out-of-range values are rejected."""
    theta = _check_number(theta, "theta")
    if not 0.0 <= theta <= 1.0:
        raise ThetaOutOfRangeError(f"theta {theta!r} outside [0, 1]")
    return theta


_PRINTABLE = 10 ** 639  # a smaller integer prints under any int digit limit


def _only(types: set, values) -> bool:
    """Whether the type of every value is one of ``types`` (a bool is not an
    int). Each check runs this one pass of C loops over a whole field, and
    walks the field value by value only if it fails, to word the first fault."""
    return {*map(type, values)} <= types


def _total(values) -> float:
    """The values summed left to right from 0.0, the same bits on every
    Python: the builtin sum() of floats is compensated since 3.12."""
    return reduce(operator.add, values, 0.0)


def _sequence(value, what: str, field: str):
    """value, refusing a str, mapping or set: tuple() reads its characters, keys or members."""
    if type(value) is not tuple and isinstance(value, (str, Mapping, Set)):
        raise InstanceValidationError(f"{what}: {field} must be a sequence, got {type(value).__name__}")
    return value


def _bad_name(name) -> InstanceValidationError:
    what = _repr(name, InstanceValidationError, "variable name")
    return InstanceValidationError(f"variable name {what} is not an identifier")


def _check_distribution(probs, domain: tuple[int, ...], what: str) -> tuple[float, ...]:
    """probs as a tuple of floats: the same tuple when it is one already."""
    if len(_sequence(probs, what, "probabilities")) != len(domain):
        raise ProbabilityLengthMismatchError(
            f"{what}: {len(probs)} probabilities for {len(domain)} domain values"
        )
    if not (type(probs) is tuple and _only({float}, probs) and all(map(math.isfinite, probs))
            and min(probs) >= 0.0):
        values = []
        for p in probs:
            p = _check_number(p, what)
            if not math.isfinite(p):
                raise NonFiniteProbabilityError(f"{what}: non-finite probability {p}")
            if p < 0.0:
                raise NegativeProbabilityError(f"{what}: negative probability {p}")
            values.append(p)
        probs = tuple(values)
    total = _total(probs)
    if abs(total - 1.0) > PROB_TOL:
        raise BadProbabilitySumError(f"{what}: probabilities sum to {total!r}", total)
    return probs


def _validate_variable(raw: VariableSpec) -> VariableSpec:
    name = raw.name
    if not isinstance(name, str) or not (name.isascii() and name.isidentifier()):
        raise _bad_name(name)
    if raw.kind not in ("decision", "stochastic"):
        kind = _repr(raw.kind, InstanceValidationError, f"variable {name}")
        raise InstanceValidationError(f"variable {name}: unknown kind {kind}")
    domain = tuple(_sequence(raw.domain, f"variable {name}", "domain"))
    if not domain:
        raise EmptyDomainError(f"variable {name}: empty domain")
    if not (_only({int}, domain) and -_PRINTABLE < domain[0] and domain[-1] < _PRINTABLE
            and all(map(operator.lt, domain, domain[1:]))):
        for v in domain:
            if not isinstance(v, int) or isinstance(v, bool):
                v = _repr(v, InstanceValidationError, f"variable {name}")
                raise InstanceValidationError(f"variable {name}: non-integer domain value {v}")
            _repr(v, InstanceValidationError, f"variable {name}")  # dump_instance writes it
        if any(a >= b for a, b in zip(domain, domain[1:])):
            raise UnsortedDomainError(f"variable {name}: domain must be strictly increasing")
    same = type(raw) is VariableSpec and domain is raw.domain  # then keep raw, not a copy

    if raw.kind == "decision":
        if raw.probabilities is not None:
            raise ProbabilitiesOnDecisionError(f"variable {name}: probabilities on a decision variable")
        if raw.cpt is not None:
            raise ProbabilitiesOnDecisionError(f"variable {name}: conditional table on a decision variable")
        return raw if same else VariableSpec(name, "decision", domain)

    if raw.probabilities is not None and raw.cpt is not None:
        raise InstanceValidationError(
            f"variable {name}: both probabilities and a conditional table"
        )
    if raw.probabilities is not None:
        probs = _check_distribution(raw.probabilities, domain, f"variable {name}")
        return raw if same and probs is raw.probabilities else VariableSpec(name, "stochastic", domain, probs)
    if raw.cpt is None:
        raise MissingDistributionError(f"variable {name}: stochastic variable needs a distribution")
    return raw if same else VariableSpec(name, "stochastic", domain, cpt=raw.cpt)  # cpt checked later


def _validate_cpt(var: VariableSpec, variables: tuple[VariableSpec, ...],
                  index_of: dict[str, int]) -> ConditionalTable:
    """The normalized table, rows in parent-value order: ``var.cpt`` when it is one."""
    cpt = var.cpt
    assert cpt is not None
    child_idx = index_of[var.name]
    if cpt.child != var.name:
        child = _repr(cpt.child, InstanceValidationError, "conditional table child")
        raise InstanceValidationError(
            f"conditional table child {child} attached to variable {var.name!r}"
        )
    label = f"conditional table for {var.name}"
    parents = tuple(_sequence(cpt.parents, label, "parents"))
    seen = set()
    for p in parents:
        if not isinstance(p, str) or p not in index_of:
            what = f"conditional table for {var.name}"
            raise UnknownScopeVariableError(
                f"{what}: unknown parent {_repr(p, InstanceValidationError, what)}", p)
        if p in seen:
            raise DuplicateScopeVariableError(f"conditional table for {var.name}: duplicate parent {p!r}")
        seen.add(p)
        if index_of[p] >= child_idx:
            raise CptParentOrderError(
                f"conditional table for {var.name}: parent {p} does not precede it"
            )
    rows = {tuple(_sequence(given, label, "given")): probs for given, probs in cpt.rows.items()}
    for v in itertools.chain.from_iterable(rows):
        if not isinstance(v, int) or isinstance(v, bool):
            raise InstanceValidationError(
                f"conditional table for {var.name}: non-integer parent value {v!r}")
    parent_domains = [variables[index_of[p]].domain for p in parents]
    expected = set(itertools.product(*parent_domains))
    got = set(rows)
    if got != expected:
        missing = expected - got
        extra = got - expected
        parts = []
        if missing:
            parts.append(f"{len(missing)} parent combinations missing (e.g. {sorted(missing)[0]})")
        if extra:
            example = _repr(sorted(extra)[0], InstanceValidationError,
                            f"conditional table for {var.name}")
            parts.append(f"{len(extra)} rows for unknown combinations (e.g. {example})")
        raise CptCoverageError(f"conditional table for {var.name}: " + "; ".join(parts))
    checked = {
        given: _check_distribution(probs, var.domain, f"conditional table for {var.name} row {given}")
        for given, probs in sorted(rows.items())
    }
    if type(cpt) is ConditionalTable and parents is cpt.parents and type(cpt.rows) is dict \
            and _same(tuple(checked), tuple(cpt.rows)) \
            and _same(tuple(checked.values()), tuple(cpt.rows.values())):
        return cpt
    return ConditionalTable(var.name, parents, checked)


def _check_expression(node: _expr.Expr, index_of: dict[str, int],
                      label: str) -> tuple[tuple[str, ...], str]:
    """variables_in and infer_type of an expression, from the node's memo
    (Expr._typed); an unknown name is reported before any fault the type
    check meets."""
    try:
        if not isinstance(node, _expr.Expr):
            raise _expr._not_a_node(node)
        names, kind = node._typed
    except RecursionError:
        kind = ExpressionTooDeepError(f"{label}: expression nests too deeply to check")
    except StocsError as fault:  # raised below, after the names
        kind = type(fault)(f"{label}: {fault}")
    except TypeError as fault:  # a name or operator that does not hash
        kind = InstanceValidationError(f"{label}: {fault}")
    for name in names if isinstance(kind, str) else _expr.variables_in(node):
        if name not in index_of:
            raise UnknownScopeVariableError(f"{label}: unknown variable {name!r}", name)
    if not isinstance(kind, str):
        raise kind
    return names, kind


def _validate_constraint(raw: Constraint, variables: tuple[VariableSpec, ...],
                         index_of: dict[str, int], label: str) -> Constraint:
    if (raw.allowed is None) == (raw.expression is None):
        raise InstanceValidationError(f"{label}: need exactly one of a table or an expression")

    if raw.expression is not None:
        scope, kind = _check_expression(raw.expression, index_of, label)
        if kind != "bool":
            raise NonBooleanConstraintError(
                f"{label}: expression {_expr.format_expression(raw.expression)!r} is not boolean"
            )
        return raw if type(raw) is Constraint and _same(scope, raw.scope) \
            else Constraint(scope, None, raw.expression)

    scope = tuple(_sequence(raw.scope, label, "scope"))
    if not scope:
        raise InstanceValidationError(f"{label}: table constraint with empty scope")
    seen = set()
    for name in scope:
        if not isinstance(name, str) or name not in index_of:
            raise UnknownScopeVariableError(
                f"{label}: unknown variable {_repr(name, InstanceValidationError, label)}", name)
        if name in seen:
            raise DuplicateScopeVariableError(f"{label}: duplicate scope variable {name!r}")
        seen.add(name)
    sets = [frozenset(variables[index_of[name]].domain) for name in scope]
    tuples = raw.allowed
    for t in tuples:
        t = tuple(_sequence(t, label, "tuple"))
        if len(t) != len(scope):
            raise ArityMismatchError(f"{label}: tuple {_repr(t, InstanceValidationError, label)} "
                                     f"has arity {len(t)}, scope has {len(scope)}")
        for value, name, values in zip(t, scope, sets):
            if value not in values:
                raise OutOfDomainValueError(
                    f"{label}: value {_repr(value, InstanceValidationError, label)} "
                    f"not in domain of {name}")
    if not _only({int}, itertools.chain.from_iterable(tuples)):
        # 1 == 1.0 == True, so a float or bool passes the domain test above
        for value in itertools.chain.from_iterable(tuples):
            if not isinstance(value, int) or isinstance(value, bool):
                raise InstanceValidationError(f"{label}: non-integer table value {value!r}")
    if not (type(tuples) is frozenset and _only({tuple}, tuples)):
        tuples = frozenset(map(tuple, tuples))
    return raw if type(raw) is Constraint and scope is raw.scope and tuples is raw.allowed \
        else Constraint(scope, tuples)


def validate_instance(raw: Instance) -> Instance:
    """Check every model invariant and return a normalized instance.

    Idempotent: validating a normalized instance returns that instance. A
    record or field of the wrong type raises InstanceValidationError.
    """
    return _validate(raw, 3)


def _validate(raw: Instance, stacklevel: int) -> Instance:
    """validate_instance; a ViolationValueWarning names the line ``stacklevel`` frames up."""
    label = "variables"  # the record read, whose label a field of the wrong type takes
    try:
        variables_in_order = tuple(raw.variables)
        names = []
        for i, v in enumerate(variables_in_order):
            label = f"variable {i}"
            names.append(v.name)
        if not _only({str}, names):  # before the names are hashed
            raise _bad_name(next(n for n in names if not isinstance(n, str)))
        index_of = {n: i for i, n in enumerate(names)}
        if len(index_of) < len(names):
            dup = [n for n, count in collections.Counter(names).items() if count > 1]
            raise DuplicateNameError(f"duplicate variable name {sorted(dup)[0]!r}")

        variables = []
        for v in variables_in_order:
            label = f"variable {v.name}"
            variables.append(_validate_variable(v))
        for j, v in enumerate(variables):
            label = f"conditional table for {v.name}"
            if v.cpt is not None and v.cpt is not (cpt := _validate_cpt(v, variables, index_of)):
                variables[j] = VariableSpec(v.name, v.kind, v.domain, cpt=cpt)
        variables = tuple(variables)

        theta = _check_theta(raw.theta)

        label = "constraints"
        constraints = tuple(_validate_constraint(c, variables, index_of, label := f"constraint {i}")
                            for i, c in enumerate(raw.constraints))

        label = "objective"
        objective = raw.objective
        if objective is not None:
            _check_expression(objective.expression, index_of, "objective")
            violation = _check_number(objective.violation_value, "objective: violation_value")
            if not math.isfinite(violation):
                raise InstanceValidationError(f"objective: non-finite violation_value {violation}")
            domain_of = {v.name: v.domain for v in variables}
            low, _ = _expr.interval_range(objective.expression, domain_of)
            if violation > low:
                warnings.warn(f"violation_value {violation} exceeds the objective's lower bound {low}; "
                              "violating leaves may be preferred to satisfying ones",
                              ViolationValueWarning, stacklevel)
            if type(objective) is not Objective or violation is not objective.violation_value:
                objective = Objective(objective.expression, violation)
    except (TypeError, AttributeError) as fault:
        raise InstanceValidationError(f"{label}: {fault}") from None

    if not isinstance(name := raw.name, str):
        raise InstanceValidationError(f"name: {_repr(name, InstanceValidationError, 'name')} is not a str")
    if type(raw) is Instance and _same(variables, raw.variables) and theta is raw.theta \
            and _same(constraints, raw.constraints) and objective is raw.objective and name is raw.name:
        return raw  # every record is normalized already
    return Instance(variables, constraints, theta, objective, name)


def _same(new: tuple, old) -> bool:
    """Whether ``old`` is a tuple of the very objects in ``new``."""
    return type(old) is tuple and len(old) == len(new) and all(map(operator.is_, new, old))
