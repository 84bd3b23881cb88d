"""Met-Office-shaped observation documents and their tabular flattening.

The input is the nested SiteRep layout: a data block (``DV``) holding
``Location`` entries, each with ``Period`` entries (one per day), each with
``Rep`` entries (individual observations). Rep fields are single letters
(``T`` temperature, ``S`` wind speed, ``W`` significant-weather code, ...),
values usually arrive as strings, optional fields may be absent, and a
singleton Location/Period/Rep is sometimes a bare object instead of a
one-element list. All of that is normalised here.

The ``$`` field of a Rep is minutes after midnight of its Period's day; the
flattened table renders it as a time-of-day column.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field
from datetime import date, datetime, time

from .errors import MalformedJson, MissingField, RangeError
from .table import Cell, Column, CType, Table


#: A rep's flat columns, in order: (column name, ``Rep`` key, kind). A rep
#: parses to a tuple of cells in this order, its ``$`` as a time.
REP_LAYOUT: tuple[tuple[str, str, CType], ...] = (
    ("ObsTime", "$", CType.TIME),
    ("D", "D", CType.TEXT),
    ("G", "G", CType.REAL),
    ("H", "H", CType.REAL),
    ("P", "P", CType.REAL),
    ("S", "S", CType.REAL),
    ("T", "T", CType.REAL),
    ("V", "V", CType.REAL),
    ("W", "W", CType.INT),
    ("Pt", "Pt", CType.TEXT),
    ("Dp", "Dp", CType.REAL),
)

#: Flattened column layout: one row per (location, period, rep).
FLAT_COLUMNS: tuple[tuple[str, CType], ...] = (
    ("SiteID", CType.TEXT),
    ("SiteName", CType.TEXT),
    ("Lat", CType.REAL),
    ("Lon", CType.REAL),
    ("Elevation", CType.REAL),
    ("Country", CType.TEXT),
    ("ObsDate", CType.DATE),
) + tuple((name, ctype) for name, _, ctype in REP_LAYOUT)


@dataclass(frozen=True)
class WxPeriod:
    date: date
    reps: tuple[tuple[Cell, ...], ...]  # cells in REP_LAYOUT order


@dataclass(frozen=True)
class WxLocation:
    id: str
    lat: float
    lon: float
    name: str
    country: str
    elevation_m: float | None
    periods: tuple[WxPeriod, ...]

    def __post_init__(self) -> None:
        if not -90.0 <= self.lat <= 90.0:
            raise RangeError(f"latitude {self.lat} out of range")
        if not -180.0 <= self.lon <= 180.0:
            raise RangeError(f"longitude {self.lon} out of range")


@dataclass(frozen=True)
class WeatherDoc:
    locations: tuple[WxLocation, ...]
    unknown_rep_fields: int = field(default=0, compare=False)


def _as_list(value: object) -> list:
    # A singleton is sometimes serialized as a bare object.
    if isinstance(value, list):
        return value
    return [value]


def _opt_float(obj: dict, key: str) -> float | None:
    """A finite JSON number or number text; a bool, NaN or an infinity is refused."""
    v = obj.get(key)
    if v is None:
        return None
    try:
        f = float(v)
    except (TypeError, ValueError, OverflowError):
        f = math.nan  # refused below, with the same message
    if isinstance(v, bool) or not math.isfinite(f):
        raise MalformedJson(f"field '{key}' is not numeric: {v!r}")
    return f


def _opt_int(obj: dict, key: str) -> int | None:
    """A JSON integer or integer text; a bool or a fractional number is refused."""
    v = obj.get(key)
    if v is None:
        return None
    if isinstance(v, bool) or isinstance(v, float) and not v.is_integer():
        raise MalformedJson(f"field '{key}' is not an integer: {v!r}")
    try:
        return int(v)
    except (TypeError, ValueError):
        raise MalformedJson(f"field '{key}' is not an integer: {v!r}") from None


def _minutes(obj: dict, key: str) -> int:
    """The rep's required minutes after midnight, range-checked by the caller."""
    v = _opt_int(obj, key)
    if v is None:
        raise MissingField(f"no '{key}' in Rep")
    return v


def _opt_str(obj: dict, key: str) -> str | None:
    """A JSON scalar as text; an array or an object is refused."""
    v = obj.get(key)
    if isinstance(v, (list, dict)):
        raise MalformedJson(f"field '{key}' is not text: {v!r}")
    return None if v is None else str(v)


def _req(obj: dict, key: str, where: str) -> object:
    if key not in obj:
        raise MissingField(f"no '{key}' in {where}")
    return obj[key]


# A rep field's converter, by its kind; the TIME field is the required ``$``.
_CONVERTERS = {CType.TIME: _minutes, CType.TEXT: _opt_str, CType.REAL: _opt_float,
               CType.INT: _opt_int}
_REP_CONVERTERS = tuple((key, _CONVERTERS[ctype]) for _, key, ctype in REP_LAYOUT)
_REP_KEYS = frozenset(key for _, key, _ in REP_LAYOUT)


def _parse_rep(obj: object) -> tuple[Cell, ...]:
    """The rep's cells in REP_LAYOUT order; faults are found in that order,
    and a ``$`` out of range after all of them."""
    if not isinstance(obj, dict):
        raise MalformedJson(f"Rep entry is not an object: {obj!r}")
    minutes, *fields = [convert(obj, key) for key, convert in _REP_CONVERTERS]
    if not 0 <= minutes < 1440:
        raise RangeError(f"minutes after midnight {minutes} not in [0, 1440)")
    return (time(*divmod(minutes, 60)), *fields)


def _parse_period(obj: object, rep_objs: list) -> WxPeriod:
    """The period; its Rep objects are added to ``rep_objs``."""
    if not isinstance(obj, dict):
        raise MalformedJson(f"Period entry is not an object: {obj!r}")
    raw = str(_req(obj, "value", "Period"))
    try:
        day = date.fromisoformat(raw.removesuffix("Z"))
    except ValueError:
        raise MalformedJson(f"bad Period date {raw!r}") from None
    entries = _as_list(_req(obj, "Rep", "Period"))
    reps = tuple(map(_parse_rep, entries))
    rep_objs += entries
    return WxPeriod(day, reps)


def _parse_location(obj: object, rep_objs: list) -> WxLocation:
    if not isinstance(obj, dict):
        raise MalformedJson(f"Location entry is not an object: {obj!r}")
    loc_id = obj.get("i", obj.get("id"))
    if loc_id is None:
        raise MissingField("no 'i' in Location")
    lat = _opt_float(obj, "lat")
    lon = _opt_float(obj, "lon")
    if lat is None or lon is None:
        raise MissingField("Location lacks lat/lon")
    periods = tuple(_parse_period(entry, rep_objs) for entry in _as_list(obj.get("Period", [])))
    return WxLocation(
        id=str(loc_id),
        lat=lat,
        lon=lon,
        name=str(obj.get("name", "")),
        country=str(obj.get("country", "")),
        elevation_m=_opt_float(obj, "elevation"),
        periods=periods,
    )


def parse_weather_json(data: bytes) -> WeatherDoc:
    """Parse observation JSON; accepts a root with or without the SiteRep wrapper."""
    try:
        root = json.loads(data.decode("utf-8-sig"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise MalformedJson(f"invalid JSON: {exc}") from None
    if not isinstance(root, dict):
        raise MalformedJson("document root is not an object")
    if "SiteRep" in root:
        root = root["SiteRep"]
        if not isinstance(root, dict):
            raise MalformedJson("'SiteRep' is not an object")
    dv = _req(root, "DV", "document")
    if not isinstance(dv, dict):
        raise MalformedJson("'DV' is not an object")

    raw_date = str(_req(dv, "dataDate", "DV"))
    try:
        _parse_data_date(raw_date)
    except ValueError:
        raise MalformedJson(f"bad dataDate {raw_date!r}") from None

    rep_objs: list[dict] = []
    locations = tuple(
        _parse_location(entry, rep_objs) for entry in _as_list(_req(dv, "Location", "DV"))
    )
    return WeatherDoc(locations, sum(len(obj.keys() - _REP_KEYS) for obj in rep_objs))


def _parse_data_date(raw: str) -> datetime:
    """``raw`` as ``datetime.strptime(raw, "%Y-%m-%dT%H:%M:%SZ")`` reads it.

    The canonical ASCII form is built field by field, which spares the
    process ``strptime``'s import of ``_strptime``. Every other text (lower
    case ``t`` or ``z``, one-digit fields, non-ASCII digits) goes through
    ``strptime``, so the same texts are accepted and refused. A field out of
    range raises ``ValueError`` either way.
    """
    m = re.fullmatch(r"(\d{4})-(\d\d)-(\d\d)T(\d\d):(\d\d):(\d\d)Z", raw, re.ASCII)
    if m is None:
        return datetime.strptime(raw, "%Y-%m-%dT%H:%M:%SZ")
    return datetime(*map(int, m.groups()))


def flatten_weather(doc: WeatherDoc) -> Table:
    """One row per rep, in document order, with the fixed 18-column layout.

    A rep tuple of the wrong length raises ValueError, and a cell of the
    wrong kind TypeMismatch, as a hand-built WxPeriod may hold either.
    """
    rows = [
        (loc.id, loc.name, loc.lat, loc.lon, loc.elevation_m, loc.country, period.date, *rep)
        for loc in doc.locations
        for period in loc.periods
        for rep in period.reps
    ]
    columns = zip(*rows, strict=True) if rows else [()] * len(FLAT_COLUMNS)
    return Table(
        tuple(
            Column(name, ctype, cells)
            for (name, ctype), cells in zip(FLAT_COLUMNS, columns, strict=True)
        )
    )
