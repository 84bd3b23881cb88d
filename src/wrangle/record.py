"""Frozen records: the package's value classes, built without generating code.

``@record`` turns a class's annotated names, in order, into fields. It gives
the class what a frozen ``dataclasses.dataclass`` would, from closures over
the field lists: an ``__init__`` taking the fields by position or keyword,
with the defaults the class body assigns, that then calls
``__post_init__`` if the class has one; ``__eq__`` between instances of the
same class only, on the compared fields as a tuple; ``__hash__`` of that
tuple; ``__repr__`` as ``Name(f=v, ...)`` over the shown fields; and an
``__setattr__`` and ``__delattr__`` that raise :class:`FrozenRecordError`.
A class attribute set to :func:`field` gives a field a default, or leaves it
out of equality, hashing or the repr. Instances keep their fields in
``__dict__``, so a trusted constructor can fill it directly.

Generating these methods as source and ``exec``-ing them, as ``dataclasses``
does, and importing ``inspect`` for it, would cost every process its import
time; a test checks each record against a ``dataclasses`` twin.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Any, Callable

#: The default of a field that has none: it is required.
MISSING: Any = object()


class FrozenRecordError(AttributeError):
    """Raised on assigning to or deleting an attribute of a record."""


class Field:
    """One field of a record: its name, default, and whether ``==`` and ``repr`` use it."""

    __slots__ = ("name", "default", "compare", "repr")

    def __init__(self, name: str, default: Any = MISSING, compare: bool = True, repr: bool = True):
        self.name = name
        self.default = default
        self.compare = compare
        self.repr = repr


def field(*, default: Any = MISSING, compare: bool = True, repr: bool = True) -> Any:
    """A field's options, assigned to its name in a ``@record`` class body."""
    return Field("", default, compare, repr)


def fields(cls: type) -> tuple[Field, ...]:
    """The fields of a ``@record`` class, in declaration order."""
    return cls.__record_fields__  # type: ignore[attr-defined]


def _frozen_setattr(self: object, name: str, value: object) -> None:
    raise FrozenRecordError(f"cannot assign to field {name!r}")


def _frozen_delattr(self: object, name: str) -> None:
    raise FrozenRecordError(f"cannot delete field {name!r}")


def _values(names: tuple[str, ...]) -> Callable[[object], tuple]:
    """A function from a record to the tuple of its ``names`` fields."""
    if len(names) == 1:
        get = attrgetter(names[0])
        return lambda obj: (get(obj),)
    return attrgetter(*names)


def _bind(cls: type, names: tuple[str, ...], defaults: dict, args: tuple, kwargs: dict) -> list:
    """The field values of a call ``cls(*args, **kwargs)``, in field order."""
    where = f"{cls.__qualname__}.__init__()"
    if len(args) > len(names):
        raise TypeError(
            f"{where} takes {len(names) + 1} positional arguments but {len(args) + 1} were given"
        )
    given = dict(zip(names, args))
    for key, value in kwargs.items():
        if key not in names:
            raise TypeError(f"{where} got an unexpected keyword argument '{key}'")
        if key in given:
            raise TypeError(f"{where} got multiple values for argument '{key}'")
        given[key] = value
    missing = [name for name in names if name not in given and name not in defaults]
    if missing:
        raise TypeError(f"{where} missing required arguments: {', '.join(map(repr, missing))}")
    return [given[name] if name in given else defaults[name] for name in names]


def record(cls: type) -> type:
    """Make ``cls`` a frozen record over its annotated names (see the module doc)."""
    specs = []
    for name in cls.__dict__.get("__annotations__", {}):
        spec = cls.__dict__.get(name, MISSING)
        if not isinstance(spec, Field):
            spec = Field(name, spec)
        specs.append(Field(name, spec.default, spec.compare, spec.repr))
        if spec.default is not MISSING:
            setattr(cls, name, spec.default)
        elif name in cls.__dict__:
            delattr(cls, name)

    names = tuple(f.name for f in specs)
    defaults = {f.name: f.default for f in specs if f.default is not MISSING}
    post_init = hasattr(cls, "__post_init__")
    key = _values(tuple(f.name for f in specs if f.compare))
    shown = tuple(f.name for f in specs if f.repr)

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        if kwargs or len(args) != len(names):
            args = _bind(cls, names, defaults, args, kwargs)
        self.__dict__.update(zip(names, args))
        if post_init:
            self.__post_init__()

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(key(self))

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in shown)
        return f"{self.__class__.__qualname__}({body})"

    for method in (__init__, __eq__, __hash__, __repr__):
        method.__qualname__ = f"{cls.__qualname__}.{method.__name__}"
        setattr(cls, method.__name__, method)
    cls.__setattr__ = _frozen_setattr
    cls.__delattr__ = _frozen_delattr
    cls.__record_fields__ = tuple(specs)
    return cls
