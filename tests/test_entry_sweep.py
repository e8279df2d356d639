"""Every public callable answers a wrong argument with a StocsError.

Each name of ``stocs.__all__`` that is callable is called with arguments
drawn from a small pool: None, ints, strings, lists, dicts, a valid
instance, a valid policy and a parsed expression. The call must return a
result or raise a ``StocsError``. The one other exception allowed is the
``OSError`` of ``load_instance`` on a string that names no file, which the
CLI reports with exit code 2 as it does a ``StocsError``.
"""

import inspect
import warnings

import pytest
from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st

import stocs
from stocs import StocsError, first_policy, parse_expression, parse_instance

INSTANCE = parse_instance(
    '{"theta": 0.5, "variables": ['
    '{"name": "x", "kind": "decision", "domain": [0, 1]},'
    '{"name": "s", "kind": "stochastic", "domain": [0, 1], "probabilities": [0.5, 0.5]}],'
    ' "constraints": [{"type": "expr", "text": "x >= s"}], "objective": {"text": "x + s"}}')
POLICY = first_policy(INSTANCE)

POOL = st.sampled_from([
    None, 0, 1, -1, 2, "", "x", "x >= s", "{", [], [0], ["x"], [[0, 1]],
    {}, {"x": 0}, {"x": "s"}, INSTANCE, POLICY, parse_expression("x + s >= 1"),
])

CALLABLES = sorted(name for name in stocs.__all__ if callable(getattr(stocs, name)))


def _arguments(fn, draw) -> list:
    """Positional arguments for ``fn``: each required parameter gets a pool
    value, each optional one a pool value or nothing, and ``*args`` up to two."""
    try:
        parameters = inspect.signature(fn).parameters.values()
    except ValueError:  # a builtin exception's signature is not introspectable
        return draw(st.lists(POOL, max_size=2))
    args = []
    for p in parameters:
        if p.kind == p.VAR_POSITIONAL:
            args += draw(st.lists(POOL, max_size=2))
        elif p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD):
            if p.default is not p.empty and not draw(st.booleans()):
                break
            args.append(draw(POOL))
    return args


@pytest.mark.parametrize("name", CALLABLES)
@seed(20090)
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_a_call_returns_or_raises_a_stocs_error(name, data):
    fn = getattr(stocs, name)
    args = _arguments(fn, data.draw)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # a warning is not the call's answer
        try:
            fn(*args)
        except StocsError:
            pass
        except OSError:
            assert name == "load_instance" and isinstance(args[0], str), args
