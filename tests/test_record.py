"""Every package record against a ``dataclasses`` twin.

``wrangle.record`` builds each record's methods from closures. A frozen
``dataclasses.dataclass`` made from the same fields, defaults, compare and
repr flags and ``__post_init__`` is the reference: both must construct,
refuse bad calls, compare, hash, print and stay frozen alike.
"""

from __future__ import annotations

import dataclasses
import importlib
import pkgutil

import pytest
from hypothesis import assume, given, settings, strategies as st

import wrangle
from wrangle.errors import RangeError, SchemaMismatch, TypeMismatch
from wrangle.expr import AGG_FUNCS, AggSpec, And, ColRef, Or
from wrangle.gen import GenConfig
from wrangle.record import MISSING, field, fields, record
from wrangle.spacetime import SpaceTimeParams
from wrangle.table import Column, CType, Table
from wrangle.weather import WxLocation

_MODULES = [
    importlib.import_module(f"wrangle.{info.name}")
    for info in pkgutil.iter_modules(wrangle.__path__)
    if not info.name.startswith("_")
]
RECORDS = [
    obj
    for module in _MODULES
    for obj in vars(module).values()
    if isinstance(obj, type) and obj.__module__ == module.__name__
    and "__record_fields__" in vars(obj)
]


def _twin(cls: type) -> type:
    """A frozen dataclass with the fields, flags and ``__post_init__`` of ``cls``."""
    spec = [
        (f.name, object, dataclasses.field(
            default=dataclasses.MISSING if f.default is MISSING else f.default,
            compare=f.compare, repr=f.repr,
        ))
        for f in fields(cls)
    ]
    namespace = {"__post_init__": cls.__post_init__} if hasattr(cls, "__post_init__") else {}
    return dataclasses.make_dataclass(cls.__qualname__, spec, frozen=True, namespace=namespace)


def _sibling(make: type) -> type:
    """A class named ``Sibling`` with the fields, flags and ``__post_init__`` of ``make``."""
    namespace = {"__annotations__": {f.name: object for f in fields(make)}}
    namespace.update(
        {f.name: field(default=f.default, compare=f.compare, repr=f.repr) for f in fields(make)}
    )
    if hasattr(make, "__post_init__"):
        namespace["__post_init__"] = make.__post_init__
    return record(type("Sibling", (), namespace))


TWINS = {cls: _twin(cls) for cls in RECORDS}
SIBLINGS = {cls: _sibling(cls) for cls in RECORDS}
SIBLING_TWINS = {cls: _twin(SIBLINGS[cls]) for cls in RECORDS}

_ANY = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=4),
    st.tuples(st.integers()), st.lists(st.integers(), max_size=2),  # a list is unhashable
)

# Field values that pass each __post_init__; a draw may take them in place of _ANY's.
_VALID = {
    Column: st.fixed_dictionaries({
        "name": st.text(max_size=3),
        "ctype": st.just(CType.INT),
        "cells": st.lists(st.none() | st.integers(), max_size=3).map(tuple),
    }),
    Table: st.lists(st.text(max_size=2), unique=True, max_size=3).map(
        lambda names: {"columns": tuple(Column(n, CType.INT, (1,)) for n in names)}
    ),
    AggSpec: st.sampled_from(AGG_FUNCS).flatmap(lambda func: st.fixed_dictionaries({
        "new_name": st.text(max_size=3),
        "func": st.just(func),
        "target": st.none() if func == "count" else st.text(max_size=3),
    })),
    WxLocation: st.fixed_dictionaries({
        "lat": st.floats(-90.0, 90.0), "lon": st.floats(-180.0, 180.0),
    }),
    SpaceTimeParams: st.fixed_dictionaries({
        "space_buffer_m": st.floats(1e-3, 1e6),
        "time_buffer_s": st.integers(1, 10**6),
        "traffic_timestamp": st.text(max_size=3),
    }),
}


def _values(cls: type) -> st.SearchStrategy[list]:
    """Values for every field of ``cls``, in field order."""
    names = [f.name for f in fields(cls)]
    drawn = st.fixed_dictionaries({name: _ANY for name in names})
    if cls in _VALID:
        drawn = drawn | st.tuples(drawn, _VALID[cls]).map(lambda d: {**d[0], **d[1]})
    return drawn.map(lambda d: [d[name] for name in names])


def _outcome(call) -> object:
    """The repr of what ``call()`` returns, or the class and text of what it raises."""
    try:
        return repr(call())
    except Exception as exc:  # the outcome is what is compared
        return type(exc), str(exc)


def _made(cls: type, values: list) -> tuple[object, object]:
    """``cls`` and its twin on ``values``, or a failed assumption if either refuses them."""
    try:
        return cls(*values), TWINS[cls](*values)
    except Exception:
        assume(False)
        raise


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__qualname__)
class TestAgainstDataclassTwin:
    @settings(deadline=None)
    @given(data=st.data())
    def test_construction_agrees(self, cls, data):
        values = data.draw(_values(cls))
        names = [f.name for f in fields(cls)]
        required = sum(f.default is MISSING for f in fields(cls))
        assert _outcome(lambda: cls(*values)) == _outcome(lambda: TWINS[cls](*values))
        keywords = dict(zip(names, values))
        assert _outcome(lambda: cls(**keywords)) == _outcome(lambda: TWINS[cls](**keywords))
        given_ = values[:required]
        assert _outcome(lambda: cls(*given_)) == _outcome(lambda: TWINS[cls](*given_))

    def test_bad_calls_raise_the_same_error(self, cls):
        values = [None] * len(fields(cls))
        first = fields(cls)[0].name
        calls = {
            "missing": lambda make: make(),
            "unknown": lambda make: make(*values, zz_unknown=1),
            "repeated": lambda make: make(*values, **{first: None}),
            "too many": lambda make: make(*values, None),
        }
        if all(f.default is not MISSING for f in fields(cls)):
            del calls["missing"]
        for call in calls.values():
            with pytest.raises(TypeError):
                call(cls)
            with pytest.raises(TypeError):
                call(TWINS[cls])

    @settings(deadline=None)
    @given(data=st.data())
    def test_equality_hash_and_repr_agree(self, cls, data):
        a = data.draw(_values(cls))
        b = data.draw(st.just(list(a)) | _values(cls))
        ra, ta = _made(cls, a)
        rb, tb = _made(cls, b)
        assert (ra == rb) == (ta == tb)
        assert (ra != rb) == (ta != tb)
        assert _outcome(lambda: hash(ra)) == _outcome(lambda: hash(ta))
        assert repr(ra) == repr(ta)
        # Another class with the same fields and values is never equal.
        assert ra != SIBLINGS[cls](*a) and not ra == SIBLINGS[cls](*a)
        assert ta != SIBLING_TWINS[cls](*a) and not ta == SIBLING_TWINS[cls](*a)

    @settings(deadline=None)
    @given(data=st.data())
    def test_instances_are_frozen(self, cls, data):
        ra, ta = _made(cls, data.draw(_values(cls)))
        for name in [f.name for f in fields(cls)] + ["zz_new"]:
            for change in (lambda obj: setattr(obj, name, 1), lambda obj: delattr(obj, name)):
                seen = []
                for obj in (ra, ta):
                    with pytest.raises(AttributeError) as err:
                        change(obj)
                    seen.append(str(err.value))
                assert seen[0] == seen[1]


def test_every_package_record_is_found():
    assert len(RECORDS) >= 25
    assert And in RECORDS and Table in RECORDS


def test_and_is_not_or_on_the_same_operands():
    a, b = ColRef("a"), ColRef("b")
    assert And(a, b) != Or(a, b)
    assert not And(a, b) == Or(a, b)
    assert And(a, b) == And(ColRef("a"), ColRef("b"))


@pytest.mark.parametrize(
    "make, error",
    [
        (lambda: Column("a", CType.INT, ("x",)), TypeMismatch),
        (lambda: Table((Column("a", CType.INT, ()), Column("a", CType.INT, ()))), SchemaMismatch),
        (lambda: AggSpec("n", "median", "x"), ValueError),
        (lambda: WxLocation("id", 91.0, 0.0, "n", "c", None, ()), RangeError),
        (lambda: SpaceTimeParams(time_buffer_s=0), RangeError),
        (lambda: GenConfig(sites=1), RangeError),
    ],
    ids=["Column", "Table", "AggSpec", "WxLocation", "SpaceTimeParams", "GenConfig"],
)
def test_post_init_still_refuses_a_bad_value(make, error):
    with pytest.raises(error):
        make()
