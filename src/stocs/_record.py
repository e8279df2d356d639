"""Record classes: the package's value types, without `dataclasses`.

``@record`` reads a class's annotations as its fields, after those of a
record base class, and gives it what ``@dataclass(frozen=True)`` gives:
a positional and keyword ``__init__`` with the class-level defaults, the
same ``__repr__``, ``==`` between records of the same class only, and
``hash`` of the field tuple; assigning or deleting a field raises
``dataclasses.FrozenInstanceError``. ``@record(frozen=False)`` gives a
mutable, unhashable record instead. ``__match_args__`` holds the field
names in order.

Importing `dataclasses` costs its `inspect` import and each decoration
several `exec`s; here one `exec` per class builds the methods that run
per instance, and `dataclasses` is imported only to raise its error.
"""

from __future__ import annotations

__all__ = ["record"]


def _repr(self) -> str:
    fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
    return f"{self.__class__.__qualname__}({fields})"


def _frozen(verb: str, name: str):
    from dataclasses import FrozenInstanceError  # only on this error path
    return FrozenInstanceError(f"cannot {verb} field {name!r}")


def _setattr(self, name, value):
    raise _frozen("assign to", name)


def _delattr(self, name):
    raise _frozen("delete", name)


def record(cls=None, *, frozen: bool = True):
    if cls is None:
        return lambda cls: record(cls, frozen=frozen)
    fields = getattr(cls, "__match_args__", ()) + tuple(cls.__annotations__)
    params, defaults = [], []
    for name in fields:
        if hasattr(cls, name):  # a default after a field without one fails to compile
            params.append(f"{name}=_d[{len(defaults)}]")
            defaults.append(getattr(cls, name))
        else:
            params.append(name)
    assign = "_set(self, {0!r}, {0})" if frozen else "self.{0} = {0}"
    mine = "".join(f"self.{name}," for name in fields)
    theirs = "".join(f"other.{name}," for name in fields)
    source = "\n".join([
        f"def __init__(self, {', '.join(params)}):",
        *([" " + assign.format(name) for name in fields] or [" pass"]),
        "def __eq__(self, other):",
        " if other.__class__ is self.__class__:",
        f"  return ({mine}) == ({theirs})",
        " return NotImplemented",
        "def __hash__(self):",
        f" return hash(({mine}))",
    ])
    methods: dict = {}
    exec(source, {"__name__": cls.__module__, "_set": object.__setattr__, "_d": defaults},
         methods)
    for name, method in methods.items():
        method.__qualname__ = f"{cls.__qualname__}.{name}"
    if frozen:
        methods.update(__setattr__=_setattr, __delattr__=_delattr)
    else:
        methods["__hash__"] = None
    methods.update(__repr__=_repr, __match_args__=fields)
    for name, value in methods.items():
        setattr(cls, name, value)
    return cls
