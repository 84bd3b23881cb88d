"""Operator params: what each op accepts, what it binds, and how it refuses.

The table below pins, for every registered op, one accepted params dict
with its bound value and each rejection message word for word. Every
rejection is an :class:`InvalidNode`, whatever the params hold.
"""

from __future__ import annotations

import inspect
import math

import pytest
from hypothesis import given, settings, strategies as st

from wrangle.errors import InvalidNode, ParseError, RangeError
from wrangle.expr import parse_agg, parse_mutate, parse_predicate
from wrangle.ops import REGISTRY, get_op
from wrangle.spacetime import DEFAULT_WET_CODES, SpaceTimeParams


def _parse_error(parse, text: str) -> str:
    with pytest.raises(ParseError) as err:
        parse(text)
    return str(err.value)


def _str(name: str) -> str:
    return f"param '{name}' must be a non-empty string"


def _str_list(name: str) -> str:
    return f"param '{name}' must be a list of strings"


_KEYS = "param 'keys' must be a non-empty list of [left, right] pairs"
_WET = "param 'wet_codes' must be a non-empty list of integers"

# op -> accepted: [(params, bound)], missing: [(params, message)],
#       shape: [(params, message)], specific: [(params, message)]
CASES: dict[str, dict[str, list]] = {
    "table.infer_types": {"accepted": [({}, {})]},
    "relops.union": {"accepted": [({}, {})]},
    "weather.flatten": {"accepted": [({}, {})]},
    "relops.select_columns": {
        "accepted": [
            ({"names": ["a", "b"], "mode": "drop"}, {"names": ["a", "b"], "mode": "drop"}),
            ({"names": []}, {"names": [], "mode": "keep"}),
        ],
        "missing": [({"mode": "keep"}, "missing param 'names'")],
        "shape": [
            ({"names": "a"}, _str_list("names")),
            ({"names": ["a", 1]}, _str_list("names")),
            ({"names": ["a"], "mode": 3}, _str("mode")),
            ({"names": ["a"], "mode": ""}, _str("mode")),
        ],
        "specific": [({"names": ["a"], "mode": "both"}, "param 'mode' must be 'keep' or 'drop'")],
    },
    "relops.filter": {
        "accepted": [({"predicate": "k >= 1"}, {"predicate": parse_predicate("k >= 1")})],
        "missing": [({}, "missing param 'predicate'")],
        "shape": [({"predicate": ""}, _str("predicate")), ({"predicate": None}, _str("predicate"))],
        "specific": [({"predicate": "k >="}, _parse_error(parse_predicate, "k >="))],
    },
    "relops.mutate": {
        "accepted": [({"name": "z", "expr": "a * 2"}, {"name": "z", "expr": parse_mutate("a * 2")})],
        "missing": [({"expr": "1"}, "missing param 'name'"), ({"name": "z"}, "missing param 'expr'")],
        "shape": [({"name": 1, "expr": "1"}, _str("name")), ({"name": "z", "expr": [1]}, _str("expr"))],
        "specific": [({"name": "z", "expr": "a *"}, _parse_error(parse_mutate, "a *"))],
    },
    "relops.join": {
        "accepted": [
            ({"keys": [["a", "b"], ["c", "c"]]}, {"keys": [("a", "b"), ("c", "c")]}),
        ],
        "missing": [({}, "missing param 'keys'")],
        "shape": [({"keys": "a"}, _KEYS), ({"keys": None}, _KEYS)],
        "specific": [
            ({"keys": []}, _KEYS),
            ({"keys": [["a"]]}, _KEYS),
            ({"keys": [["a", "b", "c"]]}, _KEYS),
            ({"keys": [["a", 1]]}, _KEYS),
        ],
    },
    "relops.group_summarise": {
        "accepted": [
            (
                {"by": ["g"], "aggs": ["m = mean(v)", "n = count()"]},
                {"by": ["g"], "aggs": [parse_agg("m = mean(v)"), parse_agg("n = count()")]},
            ),
            ({"aggs": ["n = count()"]}, {"by": [], "aggs": [parse_agg("n = count()")]}),
        ],
        "missing": [({"by": ["g"]}, "missing param 'aggs'")],
        "shape": [
            ({"aggs": "n = count()"}, _str_list("aggs")),
            ({"aggs": ["n = count()"], "by": "g"}, _str_list("by")),
        ],
        "specific": [
            ({"aggs": []}, "param 'aggs' must name at least one aggregation"),
            ({"aggs": ["bogus(x)"]}, _parse_error(parse_agg, "bogus(x)")),
        ],
    },
    "spacetime.time_space_join": {
        "accepted": [
            ({}, {"params": SpaceTimeParams()}),
            (
                {"space_buffer_m": 100, "time_buffer_s": 900, "traffic_timestamp": "ts",
                 "weather_lat": "la", "weather_time": "t"},
                {"params": SpaceTimeParams(space_buffer_m=100.0, time_buffer_s=900,
                                           traffic_timestamp="ts", weather_lat="la",
                                           weather_time="t")},
            ),
            ({"space_buffer_m": float("inf")}, {"params": SpaceTimeParams(space_buffer_m=math.inf)}),
        ],
        "shape": [
            ({"space_buffer_m": "1"}, "param 'space_buffer_m' must be a number"),
            ({"time_buffer_s": True}, "param 'time_buffer_s' must be a number"),
            ({"time_buffer_s": None}, "param 'time_buffer_s' must be a number"),
            ({"weather_lat": ""}, _str("weather_lat")),
            ({"traffic_date": None}, _str("traffic_date")),
        ],
        "specific": [
            ({"time_buffer_s": 0}, "buffers must be positive"),
            ({"space_buffer_m": -1}, "buffers must be positive"),
            ({"space_buffer_m": 10**400}, "int too large to convert to float"),
        ],
    },
    "spacetime.add_weather_condition": {
        "accepted": [
            ({}, {"wet_codes": DEFAULT_WET_CODES, "col": "wx_W"}),
            ({"wet_codes": [1, 2, 2], "col": "W"}, {"wet_codes": frozenset({1, 2}), "col": "W"}),
        ],
        "shape": [({"col": ""}, _str("col"))],
        "specific": [
            ({"wet_codes": []}, _WET),
            ({"wet_codes": 9}, _WET),
            ({"wet_codes": [True]}, _WET),
            ({"wet_codes": [9.0]}, _WET),
        ],
    },
    "traffic.clean_site_id": {
        "accepted": [({"col": "Site ID"}, {"col": "Site ID"})],
        "missing": [({}, "missing param 'col'")],
        "shape": [({"col": ["Site ID"]}, _str("col"))],
    },
    "traffic.separate_datetime": {
        "accepted": [({"col": "Date"}, {"col": "Date"})],
        "missing": [({}, "missing param 'col'")],
        "shape": [({"col": 1}, _str("col"))],
    },
    "traffic.filter_weekdays": {
        "accepted": [
            ({"col": "Date", "days": ["Friday", "Monday", "Friday"]},
             {"col": "Date", "days": {"Friday", "Monday"}}),
        ],
        "missing": [({"days": ["Friday"]}, "missing param 'col'"), ({"col": "Date"}, "missing param 'days'")],
        "shape": [({"col": "Date", "days": "Friday"}, _str_list("days"))],
        "specific": [
            ({"col": "Date", "days": []}, "param 'days' must be non-empty weekday names; bad: []"),
            ({"col": "Date", "days": ["Friday", "Funday"]},
             "param 'days' must be non-empty weekday names; bad: ['Funday']"),
        ],
    },
    # Three accepted and three shape cases keep the other ops' positional ids.
    "relops.require": {
        "accepted": [
            ({"predicate": "k >= 1"}, {"predicate": parse_predicate("k >= 1")}),
            ({"predicate": "s > 0 and n >= 0"}, {"predicate": parse_predicate("s > 0 and n >= 0")}),
            ({"predicate": "c in ('a', 'b')"}, {"predicate": parse_predicate("c in ('a', 'b')")}),
        ],
        "missing": [({}, "missing param 'predicate'")],
        "shape": [
            ({"predicate": ""}, _str("predicate")),
            ({"predicate": None}, _str("predicate")),
            ({"predicate": 5}, _str("predicate")),
        ],
        "specific": [({"predicate": "k >"}, _parse_error(parse_predicate, "k >"))],
    },
    "chart.bar": {
        "accepted": [
            ({"category_col": "c", "value_col": "v"},
             {"category_col": "c", "value_col": "v", "title": ""}),
            ({"category_col": "c", "value_col": "v", "title": "t"},
             {"category_col": "c", "value_col": "v", "title": "t"}),
        ],
        "missing": [
            ({"value_col": "v"}, "missing param 'category_col'"),
            ({"category_col": "c"}, "missing param 'value_col'"),
        ],
        "shape": [({"category_col": "c", "value_col": "v", "title": 5}, _str("title"))],
    },
}


def _rows(part: str) -> list:
    return [(op, *case) for op, cases in CASES.items() for case in cases.get(part, [])]


def test_every_registered_op_has_cases():
    assert set(CASES) == set(REGISTRY)


@pytest.mark.parametrize("op, params, bound", _rows("accepted"))
def test_accepted_params_and_bound_value(op, params, bound):
    assert get_op(op).bind(params) == bound


@pytest.mark.parametrize("op, params, bound", _rows("accepted"))
def test_the_function_takes_the_ports_and_the_bound_params(op, params, bound):
    # run calls fn(*ports, **bound): an argument renamed away from its
    # declared param, or a port or param the function lacks, fails here.
    op_def = get_op(op)
    inspect.signature(op_def.fn).bind(*[object() for _ in op_def.ports], **bound)


@pytest.mark.parametrize("op", sorted(CASES))
def test_unknown_param_is_named(op):
    params, _ = CASES[op]["accepted"][0]
    with pytest.raises(InvalidNode) as err:
        get_op(op).bind({**params, "zz": 1, "aa": None})
    assert str(err.value) == "unknown params: ['aa', 'zz']"


@pytest.mark.parametrize(
    "op, params, message", _rows("missing") + _rows("shape") + _rows("specific")
)
def test_rejection_message(op, params, message):
    with pytest.raises(InvalidNode) as err:
        get_op(op).bind(params)
    assert str(err.value) == message


def test_a_repeated_name_is_refused_only_where_it_is_kept():
    # A kept name twice would build a table with a duplicate column.
    select = get_op("relops.select_columns")
    with pytest.raises(InvalidNode) as err:
        select.bind({"names": ["a", "b", "a"]})
    assert str(err.value) == "param 'names' repeats 'a'"
    assert select.bind({"names": ["a", "a"], "mode": "drop"}) == {
        "names": ["a", "a"], "mode": "drop"}


@pytest.mark.parametrize(
    "params, message",
    [
        ({"by": ["a", "a"], "aggs": ["n = count()"]}, "param 'by' repeats 'a'"),
        ({"by": ["a"], "aggs": ["a = count()"]}, "param 'aggs' repeats 'a'"),
        ({"aggs": ["n = count()", "n = sum(b)"]}, "param 'aggs' repeats 'n'"),
        ({"by": ["a", "b"], "aggs": ["m = min(a)", "b = max(a)"]}, "param 'aggs' repeats 'b'"),
    ],
)
def test_a_repeated_group_summarise_output_name_is_refused(params, message):
    # The group keys and the aggregates are the output's columns, in that order.
    with pytest.raises(InvalidNode) as err:
        get_op("relops.group_summarise").bind(params)
    assert str(err.value) == message


def test_unknown_params_are_reported_before_bad_ones():
    with pytest.raises(InvalidNode) as err:
        get_op("relops.filter").bind({"predicate": "k >=", "x": 1})
    assert str(err.value) == "unknown params: ['x']"


# ---------------------------------------------------------------------------
# Whatever JSON the params hold, bind returns or raises InvalidNode
# ---------------------------------------------------------------------------

_PARAM_NAMES = sorted({p.name for op in REGISTRY.values() for p in op.params})

_json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.just(10**400)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=8)
    | st.sampled_from(
        ["k >= 1", "n = count()", "a * 2", "Friday", "keep", "drop", "Date", "Hours"]
    ),
    lambda children: st.lists(children, max_size=4) | st.dictionaries(st.text(max_size=3), children, max_size=3),
    max_leaves=10,
)

_params = st.dictionaries(
    st.sampled_from(_PARAM_NAMES) | st.text(max_size=4), _json_values, max_size=5
)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(REGISTRY)), _params)
def test_bind_returns_or_raises_invalid_node(op, params):
    try:
        get_op(op).bind(params)
    except InvalidNode:
        pass


# ---------------------------------------------------------------------------
# Buffers that are not positive whole seconds, and defaults given explicitly
# ---------------------------------------------------------------------------

_JOIN = "spacetime.time_space_join"


def test_nan_space_buffer_is_refused():
    with pytest.raises(RangeError, match="buffers must be positive"):
        SpaceTimeParams(space_buffer_m=math.nan)
    with pytest.raises(InvalidNode, match="buffers must be positive"):
        get_op(_JOIN).bind({"space_buffer_m": math.nan})


@pytest.mark.parametrize("seconds", [1.9, 0.5, 1800.5, math.inf, -math.inf, math.nan])
def test_fractional_time_buffer_is_refused(seconds):
    with pytest.raises(InvalidNode) as err:
        get_op(_JOIN).bind({"time_buffer_s": seconds})
    assert str(err.value) == "param 'time_buffer_s' must be a whole number of seconds"


def test_integral_float_time_buffer_binds_as_int():
    seconds = get_op(_JOIN).bind({"time_buffer_s": 900.0})["params"].time_buffer_s
    assert seconds == 900 and type(seconds) is int


def _outcome(op: str, params: dict):
    try:
        return get_op(op).bind(params)
    except InvalidNode as exc:
        return str(exc)


@pytest.mark.parametrize(
    "op, param",
    [(op.name, p) for op in REGISTRY.values() for p in op.params if not p.required],
    ids=lambda x: getattr(x, "name", x),
)
def test_giving_the_default_binds_like_leaving_it_out(op, param):
    base = {k: v for k, v in CASES[op]["accepted"][0][0].items() if k != param.name}
    assert _outcome(op, {**base, param.name: param.default}) == _outcome(op, base)


def test_defaults_that_fail_their_shape_are_accepted():
    chart = {"category_col": "c", "value_col": "v"}
    assert get_op("chart.bar").bind({**chart, "title": ""}) == {**chart, "title": ""}
    assert get_op(_JOIN).bind({"traffic_timestamp": None}) == {"params": SpaceTimeParams()}


def test_bound_lists_are_not_shared_between_binds():
    op = get_op("relops.group_summarise")
    op.bind({"aggs": ["n = count()"]})["by"].append("g")
    assert op.bind({"aggs": ["n = count()"]})["by"] == []
