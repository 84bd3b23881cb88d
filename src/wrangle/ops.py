"""The operator registry: every service invocable from workflows or the CLI.

An :class:`OpDef` couples a qualified name (``module.op``) with its input
ports, its declared params, and its function ``fn`` from that module. Each
:class:`Param` gives a name, a JSON shape, a default (or none: the param is
required) and an optional conversion to the bound form. :meth:`OpDef.bind`,
the one place params are checked, runs at workflow-validation time, so bad
params (including grammar strings that fail to parse) are rejected before
anything executes. :meth:`OpDef.run` calls ``fn`` with the port values in
declared order and the bound params by name, so each argument after the
ports is named after its param.

Port and result kinds are ``table``, ``weatherdoc`` or ``svg``; the
workflow validator uses them to check port wiring statically.
"""

from __future__ import annotations

from typing import Any, Callable, Mapping

from . import relops, traffic
from .chart import render_bar_chart
from .errors import InvalidNode, UnknownOp, WrangleError
from .expr import AggSpec, parse_agg, parse_mutate, parse_predicate
from .record import fields, record
from .spacetime import (
    DEFAULT_WET_CODES,
    SpaceTimeParams,
    add_weather_condition,
    time_space_join,
)
from .table import Table, infer_column_types
from .weather import WeatherDoc, flatten_weather

TABLE = "table"
WEATHERDOC = "weatherdoc"
SVG = "svg"

# JSON shapes of param values: (what the rejection says, test).
STR = ("a non-empty string", lambda v: isinstance(v, str) and v != "")
STR_LIST = ("a list of strings", lambda v: isinstance(v, list) and all(isinstance(x, str) for x in v))
NUMBER = ("a number", lambda v: isinstance(v, (int, float)) and not isinstance(v, bool))
ANY = ("any JSON value", lambda v: True)  # the param's convert checks it

_REQUIRED = object()


@record
class Param:
    """One declared operator param.

    A param without a ``default`` is required. A given value must have the
    JSON ``shape``, unless it equals the default: giving the default binds
    exactly like leaving the param out. ``convert`` then maps the value,
    the default included, to its bound form, and may reject it by raising.
    """

    name: str
    shape: tuple[str, Callable[[Any], bool]]
    default: Any = _REQUIRED
    convert: Callable[[Any], Any] | None = None

    @property
    def required(self) -> bool:
        return self.default is _REQUIRED


@record
class OpDef:
    name: str
    ports: tuple[tuple[str, str], ...]  # (port name, kind)
    result: str
    params: tuple[Param, ...]
    fn: Callable[..., object]
    make: Callable[[dict], dict] = dict  # converted params -> bound params

    def bind(self, params: dict) -> dict:
        """Check raw params against the declared ones and bind them.

        Unknown keys are reported first; then each declared param, in
        order, is checked for presence, shape and conversion. Every
        rejection is an :class:`InvalidNode`.
        """
        extra = set(params) - {p.name for p in self.params}
        if extra:
            raise InvalidNode(f"unknown params: {sorted(extra)}")
        bound = {}
        try:
            for p in self.params:
                value = params.get(p.name, p.default)
                if value is _REQUIRED:
                    raise InvalidNode(f"missing param '{p.name}'")
                what, ok = p.shape
                if value != p.default and not ok(value):
                    raise InvalidNode(f"param '{p.name}' must be {what}")
                bound[p.name] = value if p.convert is None else p.convert(value)
            return self.make(bound)
        except (WrangleError, ValueError, OverflowError) as exc:
            raise InvalidNode(str(exc)) from None

    def run(self, inputs: Mapping[str, Any], bound: dict) -> object:
        """``fn`` on the port values, in declared order, and the bound params."""
        return self.fn(*[inputs[name] for name, _ in self.ports], **bound)


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


def _register(*args: Any) -> None:
    op = OpDef(*args)
    assert op.name not in REGISTRY
    REGISTRY[op.name] = op


# ---------------------------------------------------------------------------
# Conversions that check more than a shape
# ---------------------------------------------------------------------------

def _keep_or_drop(mode: str) -> str:
    if mode not in ("keep", "drop"):
        raise InvalidNode("param 'mode' must be 'keep' or 'drop'")
    return mode


def _refuse_repeats(named: list[tuple[str, str]]) -> None:
    # Each (param, name) names an output column; a repeated name would duplicate it.
    seen: set[str] = set()
    for param, name in named:
        if name in seen:
            raise InvalidNode(f"param '{param}' repeats {name!r}")
        seen.add(name)


def _select(p: dict) -> dict:
    if p["mode"] == "keep":
        _refuse_repeats([("names", name) for name in p["names"]])
    return p


def _group(p: dict) -> dict:
    outputs = [("by", name) for name in p["by"]] + [("aggs", a.new_name) for a in p["aggs"]]
    _refuse_repeats(outputs)
    return p


def _key_pairs(raw: Any) -> list[tuple[str, str]]:
    # Null, like any value that is not a list of pairs, is refused.
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
    return [tuple(pair) for pair in raw]


def _aggs(texts: list[str]) -> list[AggSpec]:
    if not texts:
        raise InvalidNode("param 'aggs' must name at least one aggregation")
    return [parse_agg(a) for a in texts]


def _wet_codes(raw: Any) -> frozenset[int]:
    if (
        not isinstance(raw, list)
        or not raw
        or not all(isinstance(x, int) and not isinstance(x, bool) for x in raw)
    ):
        raise InvalidNode("param 'wet_codes' must be a non-empty list of integers")
    return frozenset(raw)


def _whole_seconds(value: float) -> int:
    seconds = float(value)
    if not seconds.is_integer():
        raise InvalidNode("param 'time_buffer_s' must be a whole number of seconds")
    return int(seconds)


def _weekdays(days: list[str]) -> set[str]:
    bad = set(days) - set(traffic.WEEKDAY_NAMES)
    if not days or bad:
        raise InvalidNode(
            f"param 'days' must be non-empty weekday names; bad: {sorted(bad)}"
        )
    return set(days)


# ---------------------------------------------------------------------------
# table / relops
# ---------------------------------------------------------------------------

_register(
    "table.infer_types",
    (("in", TABLE),),
    TABLE,
    (),
    infer_column_types,
)

_register(
    "relops.union",
    (("a", TABLE), ("b", TABLE)),
    TABLE,
    (),
    relops.union,
)

_register(
    "relops.select_columns",
    (("in", TABLE),),
    TABLE,
    (Param("mode", STR, "keep", _keep_or_drop), Param("names", STR_LIST)),
    relops.select_columns,
    _select,
)

_register(
    "relops.filter",
    (("in", TABLE),),
    TABLE,
    (Param("predicate", STR, convert=parse_predicate),),
    relops.filter_rows,
)

_register(
    "relops.require",
    (("in", TABLE),),
    TABLE,
    (Param("predicate", STR, convert=parse_predicate),),
    relops.require,
)

_register(
    "relops.mutate",
    (("in", TABLE),),
    TABLE,
    (Param("name", STR), Param("expr", STR, convert=parse_mutate)),
    relops.mutate_column,
)

_register(
    "relops.join",
    (("left", TABLE), ("right", TABLE)),
    TABLE,
    (Param("keys", ANY, convert=_key_pairs),),
    relops.join,
)

_register(
    "relops.group_summarise",
    (("in", TABLE),),
    TABLE,
    (Param("aggs", STR_LIST, convert=_aggs), Param("by", STR_LIST, [], list)),
    relops.group_summarise,
    _group,
)


# ---------------------------------------------------------------------------
# weather / spacetime
# ---------------------------------------------------------------------------

_register(
    "weather.flatten",
    (("in", WEATHERDOC),),
    TABLE,
    (),
    flatten_weather,
)

_BUFFERS = {"space_buffer_m": float, "time_buffer_s": _whole_seconds}

_register(
    "spacetime.time_space_join",
    (("traffic", TABLE), ("weather", TABLE)),
    TABLE,
    tuple(
        Param(f.name, NUMBER if f.name in _BUFFERS else STR, f.default, _BUFFERS.get(f.name))
        for f in fields(SpaceTimeParams)
    ),
    time_space_join,
    lambda p: {"params": SpaceTimeParams(**p)},  # the join takes them as one
)

_register(
    "spacetime.add_weather_condition",
    (("in", TABLE),),
    TABLE,
    (Param("wet_codes", ANY, sorted(DEFAULT_WET_CODES), _wet_codes), Param("col", STR, "wx_W")),
    add_weather_condition,
)


# ---------------------------------------------------------------------------
# traffic
# ---------------------------------------------------------------------------

_register(
    "traffic.clean_site_id",
    (("in", TABLE),),
    TABLE,
    (Param("col", STR),),
    traffic.clean_site_id,
)

_register(
    "traffic.separate_datetime",
    (("in", TABLE),),
    TABLE,
    (Param("col", STR),),
    traffic.separate_datetime,
)

_register(
    "traffic.filter_weekdays",
    (("in", TABLE),),
    TABLE,
    (Param("days", STR_LIST, convert=_weekdays), Param("col", STR)),
    traffic.filter_weekdays,
)


# ---------------------------------------------------------------------------
# chart
# ---------------------------------------------------------------------------

_register(
    "chart.bar",
    (("in", TABLE),),
    SVG,
    (Param("category_col", STR), Param("value_col", STR), Param("title", STR, "")),
    render_bar_chart,
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
