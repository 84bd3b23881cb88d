"""The operator registry: every service invocable from workflows or the CLI.

An :class:`OpDef` couples a qualified name (``module.op``) with its input
ports, its parameter validator, and its implementation. Validators run, via
:meth:`OpDef.bind`, at workflow-validation time so that bad params (including
grammar strings that fail to parse) are rejected before anything executes.

Port and result kinds are ``table``, ``weatherdoc`` or ``svg``; the
workflow validator uses them to check port wiring statically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Mapping

from . import relops, traffic
from .chart import ChartSpec, render_bar_chart
from .errors import InvalidNode, UnknownOp, WrangleError
from .expr import parse_agg, parse_mutate, parse_predicate
from .spacetime import (
    DEFAULT_WET_CODES,
    SpaceTimeParams,
    WetCodeSet,
    add_weather_condition,
    time_space_join,
)
from .table import Column, CType, Table, infer_column_types
from .weather import WeatherDoc, flatten_weather

TABLE = "table"
WEATHERDOC = "weatherdoc"
SVG = "svg"


@dataclass(frozen=True)
class OpDef:
    name: str
    ports: tuple[tuple[str, str], ...]  # (port name, kind)
    result: str
    validate: Callable[[dict], dict]
    run: Callable[[Mapping[str, Any], dict], object]

    @property
    def port_names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.ports)

    def port_kind(self, port: str) -> str:
        for name, kind in self.ports:
            if name == port:
                return kind
        raise KeyError(port)

    def bind(self, params: dict) -> dict:
        """Validate raw params; every rejection is an :class:`InvalidNode`."""
        try:
            return self.validate(params)
        except (WrangleError, ValueError, OverflowError) as exc:
            raise InvalidNode(str(exc)) from None


REGISTRY: dict[str, OpDef] = {}


def get_op(name: str) -> OpDef:
    try:
        return REGISTRY[name]
    except KeyError:
        raise UnknownOp(
            f"unknown operator '{name}' (see: {', '.join(sorted(REGISTRY))})"
        ) from None


def list_ops() -> list[OpDef]:
    return [REGISTRY[name] for name in sorted(REGISTRY)]


def _register(
    name: str,
    ports: tuple[tuple[str, str], ...],
    result: str,
    validate: Callable[[dict], dict],
    run: Callable[[Mapping[str, Any], dict], object],
) -> None:
    assert name not in REGISTRY
    REGISTRY[name] = OpDef(name, ports, result, validate, run)


# ---------------------------------------------------------------------------
# Param checking helpers
# ---------------------------------------------------------------------------

def _reject_unknown(params: dict, allowed: set[str]) -> None:
    extra = set(params) - allowed
    if extra:
        raise InvalidNode(f"unknown params: {sorted(extra)}")


def _want_str(params: dict, key: str, default: str | None = None) -> str:
    if key not in params:
        if default is None:
            raise InvalidNode(f"missing param '{key}'")
        return default
    v = params[key]
    if not isinstance(v, str) or not v:
        raise InvalidNode(f"param '{key}' must be a non-empty string")
    return v


def _want_str_list(params: dict, key: str, default: list[str] | None = None) -> list[str]:
    if key not in params:
        if default is None:
            raise InvalidNode(f"missing param '{key}'")
        return default
    v = params[key]
    if not isinstance(v, list) or not all(isinstance(x, str) for x in v):
        raise InvalidNode(f"param '{key}' must be a list of strings")
    return list(v)


def _want_number(params: dict, key: str, default: float) -> float:
    v = params.get(key, default)
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise InvalidNode(f"param '{key}' must be a number")
    return float(v)


def _no_params(params: dict) -> dict:
    _reject_unknown(params, set())
    return {}


# ---------------------------------------------------------------------------
# table / relops
# ---------------------------------------------------------------------------

_register(
    "table.infer_types",
    (("in", TABLE),),
    TABLE,
    _no_params,
    lambda inputs, p: infer_column_types(inputs["in"]),
)

_register(
    "relops.union",
    (("a", TABLE), ("b", TABLE)),
    TABLE,
    _no_params,
    lambda inputs, p: relops.union(inputs["a"], inputs["b"]),
)


def _v_select(params: dict) -> dict:
    _reject_unknown(params, {"names", "mode"})
    mode = _want_str(params, "mode", "keep")
    if mode not in ("keep", "drop"):
        raise InvalidNode("param 'mode' must be 'keep' or 'drop'")
    return {"names": _want_str_list(params, "names"), "mode": mode}


_register(
    "relops.select_columns",
    (("in", TABLE),),
    TABLE,
    _v_select,
    lambda inputs, p: relops.select_columns(inputs["in"], p["names"], p["mode"]),
)


def _v_filter(params: dict) -> dict:
    _reject_unknown(params, {"predicate"})
    text = _want_str(params, "predicate")
    return {"predicate": parse_predicate(text)}


_register(
    "relops.filter",
    (("in", TABLE),),
    TABLE,
    _v_filter,
    lambda inputs, p: relops.filter_rows(inputs["in"], p["predicate"]),
)


def _v_mutate(params: dict) -> dict:
    _reject_unknown(params, {"name", "expr"})
    return {
        "name": _want_str(params, "name"),
        "expr": parse_mutate(_want_str(params, "expr")),
    }


_register(
    "relops.mutate",
    (("in", TABLE),),
    TABLE,
    _v_mutate,
    lambda inputs, p: relops.mutate_column(inputs["in"], p["name"], p["expr"]),
)


def _v_join(params: dict) -> dict:
    _reject_unknown(params, {"keys"})
    raw = params.get("keys")
    if (
        not isinstance(raw, list)
        or not raw
        or not all(
            isinstance(pair, list)
            and len(pair) == 2
            and all(isinstance(x, str) for x in pair)
            for pair in raw
        )
    ):
        raise InvalidNode("param 'keys' must be a non-empty list of [left, right] pairs")
    return {"keys": [tuple(pair) for pair in raw]}


_register(
    "relops.join",
    (("left", TABLE), ("right", TABLE)),
    TABLE,
    _v_join,
    lambda inputs, p: relops.join(inputs["left"], inputs["right"], p["keys"]),
)


def _v_group(params: dict) -> dict:
    _reject_unknown(params, {"by", "aggs"})
    aggs = _want_str_list(params, "aggs")
    if not aggs:
        raise InvalidNode("param 'aggs' must name at least one aggregation")
    return {
        "by": _want_str_list(params, "by", []),
        "aggs": [parse_agg(a) for a in aggs],
    }


_register(
    "relops.group_summarise",
    (("in", TABLE),),
    TABLE,
    _v_group,
    lambda inputs, p: relops.group_summarise(inputs["in"], p["by"], p["aggs"]),
)


# ---------------------------------------------------------------------------
# weather / spacetime
# ---------------------------------------------------------------------------

_register(
    "weather.flatten",
    (("in", WEATHERDOC),),
    TABLE,
    _no_params,
    lambda inputs, p: flatten_weather(inputs["in"]),
)

_ST_KEYS = {
    "space_buffer_m",
    "time_buffer_s",
    "traffic_lat",
    "traffic_lon",
    "traffic_timestamp",
    "traffic_date",
    "traffic_time",
    "weather_lat",
    "weather_lon",
    "weather_date",
    "weather_time",
}


def _v_spacetime(params: dict) -> dict:
    _reject_unknown(params, _ST_KEYS)
    kwargs: dict[str, object] = {
        "space_buffer_m": _want_number(params, "space_buffer_m", SpaceTimeParams.space_buffer_m),
        "time_buffer_s": int(_want_number(params, "time_buffer_s", SpaceTimeParams.time_buffer_s)),
    }
    for key in _ST_KEYS - {"space_buffer_m", "time_buffer_s"}:
        if key in params:
            kwargs[key] = _want_str(params, key)
    return {"params": SpaceTimeParams(**kwargs)}  # type: ignore[arg-type]


_register(
    "spacetime.time_space_join",
    (("traffic", TABLE), ("weather", TABLE)),
    TABLE,
    _v_spacetime,
    lambda inputs, p: time_space_join(inputs["traffic"], inputs["weather"], p["params"]),
)


def _v_weather_cond(params: dict) -> dict:
    _reject_unknown(params, {"wet_codes", "col"})
    raw = params.get("wet_codes", sorted(DEFAULT_WET_CODES))
    if (
        not isinstance(raw, list)
        or not raw
        or not all(isinstance(x, int) and not isinstance(x, bool) for x in raw)
    ):
        raise InvalidNode("param 'wet_codes' must be a non-empty list of integers")
    return {"wet": WetCodeSet(frozenset(raw)), "col": _want_str(params, "col", "wx_W")}


_register(
    "spacetime.add_weather_condition",
    (("in", TABLE),),
    TABLE,
    _v_weather_cond,
    lambda inputs, p: add_weather_condition(inputs["in"], p["wet"], p["col"]),
)


# ---------------------------------------------------------------------------
# traffic
# ---------------------------------------------------------------------------

def _v_col(params: dict) -> dict:
    _reject_unknown(params, {"col"})
    return {"col": _want_str(params, "col")}


_register(
    "traffic.clean_site_id",
    (("in", TABLE),),
    TABLE,
    _v_col,
    lambda inputs, p: traffic.clean_site_id(inputs["in"], p["col"]),
)

_register(
    "traffic.separate_datetime",
    (("in", TABLE),),
    TABLE,
    _v_col,
    lambda inputs, p: traffic.separate_datetime(inputs["in"], p["col"]),
)


def _v_weekdays(params: dict) -> dict:
    _reject_unknown(params, {"col", "days"})
    days = _want_str_list(params, "days")
    bad = set(days) - set(traffic.WEEKDAY_NAMES)
    if not days or bad:
        raise InvalidNode(
            f"param 'days' must be non-empty weekday names; bad: {sorted(bad)}"
        )
    return {"col": _want_str(params, "col"), "days": set(days)}


_register(
    "traffic.filter_weekdays",
    (("in", TABLE),),
    TABLE,
    _v_weekdays,
    lambda inputs, p: traffic.filter_weekdays(inputs["in"], p["col"], p["days"]),
)


def _v_journey(params: dict) -> dict:
    _reject_unknown(params, {"site_col", "length_col", "speed_col"})
    return {
        "site_col": _want_str(params, "site_col", "Site.ID"),
        "length_col": _want_str(params, "length_col", "LinkLength"),
        "speed_col": _want_str(params, "speed_col", "mean_speed"),
    }


def _run_journey(inputs: Mapping[str, Any], p: dict) -> Table:
    measures = traffic.extract_speed_and_length(
        inputs["in"], p["site_col"], p["length_col"], p["speed_col"]
    )
    seconds = traffic.journey_time_s(measures)
    return Table((Column("journey_time_s", CType.REAL, (seconds,)),))


_register("traffic.journey_time", (("in", TABLE),), TABLE, _v_journey, _run_journey)


def _v_speed_col(params: dict) -> dict:
    _reject_unknown(params, {"speed_col"})
    return {"speed_col": _want_str(params, "speed_col")}


_register(
    "traffic.average_speed_by_condition",
    (("in", TABLE),),
    TABLE,
    _v_speed_col,
    lambda inputs, p: traffic.average_speed_by_condition(inputs["in"], p["speed_col"]),
)


# ---------------------------------------------------------------------------
# chart
# ---------------------------------------------------------------------------

def _v_chart(params: dict) -> dict:
    _reject_unknown(params, {"category_col", "value_col", "title"})
    return {
        "spec": ChartSpec(
            category_col=_want_str(params, "category_col"),
            value_col=_want_str(params, "value_col"),
            title=_want_str(params, "title", ""),
        )
    }


_register(
    "chart.bar",
    (("in", TABLE),),
    SVG,
    _v_chart,
    lambda inputs, p: render_bar_chart(inputs["in"], p["spec"]),
)


def kind_of_result(value: object) -> str:
    """Runtime kind of an operator result or workflow input value."""
    if isinstance(value, Table):
        return TABLE
    if isinstance(value, WeatherDoc):
        return WEATHERDOC
    if isinstance(value, bytes):
        return SVG
    raise TypeError(f"unsupported value type {type(value).__name__}")
