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
from dataclasses import dataclass, field
from datetime import date, datetime, time

from .errors import MalformedJson, MissingField, RangeError
from .table import Column, CType, Table


@dataclass(frozen=True)
class WxRep:
    wind_dir: str | None = None          # D
    gust: float | None = None            # G
    humidity: float | None = None        # H
    pressure: float | None = None        # P
    wind_speed: float | None = None      # S
    temperature: float | None = None     # T
    visibility: float | None = None      # V
    weather_code: int | None = None      # W
    pressure_tendency: str | None = None # Pt
    dew_point: float | None = None       # Dp
    minutes_after_midnight: int = 0      # $

    def __post_init__(self) -> None:
        if not 0 <= self.minutes_after_midnight < 1440:
            raise RangeError(
                f"minutes after midnight {self.minutes_after_midnight} not in [0, 1440)"
            )

    @property
    def time_of_day(self) -> time:
        return time(self.minutes_after_midnight // 60, self.minutes_after_midnight % 60)


@dataclass(frozen=True)
class WxPeriod:
    ptype: str
    date: date
    reps: tuple[WxRep, ...]


@dataclass(frozen=True)
class WxLocation:
    id: str
    lat: float
    lon: float
    name: str
    country: str
    continent: str
    elevation_m: float | None
    periods: tuple[WxPeriod, ...]

    def __post_init__(self) -> None:
        if not -90.0 <= self.lat <= 90.0:
            raise RangeError(f"latitude {self.lat} out of range")
        if not -180.0 <= self.lon <= 180.0:
            raise RangeError(f"longitude {self.lon} out of range")


@dataclass(frozen=True)
class WeatherDoc:
    data_date: datetime
    doc_type: str
    locations: tuple[WxLocation, ...]
    unknown_rep_fields: int = field(default=0, compare=False)


_REP_KEYS = {"D", "G", "H", "P", "S", "T", "V", "W", "Pt", "Dp", "$"}


def _as_list(value: object) -> list:
    # A singleton is sometimes serialized as a bare object.
    if isinstance(value, list):
        return value
    return [value]


def _opt_float(obj: dict, key: str) -> float | None:
    v = obj.get(key)
    if v is None:
        return None
    if isinstance(v, bool):
        raise MalformedJson(f"field '{key}' is not numeric: {v!r}")
    try:
        return float(v)
    except (TypeError, ValueError, OverflowError):
        raise MalformedJson(f"field '{key}' is not numeric: {v!r}") from None


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


def _opt_str(obj: dict, key: str) -> str | None:
    v = obj.get(key)
    return None if v is None else str(v)


def _req(obj: dict, key: str, where: str) -> object:
    if key not in obj:
        raise MissingField(f"no '{key}' in {where}")
    return obj[key]


def _parse_rep(obj: object) -> tuple[WxRep, int]:
    if not isinstance(obj, dict):
        raise MalformedJson(f"Rep entry is not an object: {obj!r}")
    minutes = _opt_int(obj, "$")
    if minutes is None:
        raise MissingField("no '$' in Rep")
    rep = WxRep(
        wind_dir=_opt_str(obj, "D"),
        gust=_opt_float(obj, "G"),
        humidity=_opt_float(obj, "H"),
        pressure=_opt_float(obj, "P"),
        wind_speed=_opt_float(obj, "S"),
        temperature=_opt_float(obj, "T"),
        visibility=_opt_float(obj, "V"),
        weather_code=_opt_int(obj, "W"),
        pressure_tendency=_opt_str(obj, "Pt"),
        dew_point=_opt_float(obj, "Dp"),
        minutes_after_midnight=minutes,
    )
    unknown = sum(1 for k in obj if k not in _REP_KEYS)
    return rep, unknown


def _parse_period(obj: object) -> tuple[WxPeriod, int]:
    if not isinstance(obj, dict):
        raise MalformedJson(f"Period entry is not an object: {obj!r}")
    raw = str(_req(obj, "value", "Period"))
    try:
        day = date.fromisoformat(raw.removesuffix("Z"))
    except ValueError:
        raise MalformedJson(f"bad Period date {raw!r}") from None
    reps = []
    unknown = 0
    for entry in _as_list(_req(obj, "Rep", "Period")):
        rep, n = _parse_rep(entry)
        reps.append(rep)
        unknown += n
    return WxPeriod(str(obj.get("type", "Day")), day, tuple(reps)), unknown


def _parse_location(obj: object) -> tuple[WxLocation, int]:
    if not isinstance(obj, dict):
        raise MalformedJson(f"Location entry is not an object: {obj!r}")
    loc_id = obj.get("i", obj.get("id"))
    if loc_id is None:
        raise MissingField("no 'i' in Location")
    lat = _opt_float(obj, "lat")
    lon = _opt_float(obj, "lon")
    if lat is None or lon is None:
        raise MissingField("Location lacks lat/lon")
    periods = []
    unknown = 0
    for entry in _as_list(obj.get("Period", [])):
        period, n = _parse_period(entry)
        periods.append(period)
        unknown += n
    return (
        WxLocation(
            id=str(loc_id),
            lat=lat,
            lon=lon,
            name=str(obj.get("name", "")),
            country=str(obj.get("country", "")),
            continent=str(obj.get("continent", "")),
            elevation_m=_opt_float(obj, "elevation"),
            periods=tuple(periods),
        ),
        unknown,
    )


def parse_weather_json(data: bytes) -> WeatherDoc:
    """Parse observation JSON; accepts a root with or without the SiteRep wrapper."""
    try:
        root = json.loads(data.decode("utf-8"))
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
        data_date = datetime.strptime(raw_date, "%Y-%m-%dT%H:%M:%SZ")
    except ValueError:
        raise MalformedJson(f"bad dataDate {raw_date!r}") from None

    locations = []
    unknown = 0
    for entry in _as_list(_req(dv, "Location", "DV")):
        loc, n = _parse_location(entry)
        locations.append(loc)
        unknown += n
    return WeatherDoc(
        data_date=data_date,
        doc_type=str(dv.get("type", "Obs")),
        locations=tuple(locations),
        unknown_rep_fields=unknown,
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
    ("ObsTime", CType.TIME),
    ("D", CType.TEXT),
    ("G", CType.REAL),
    ("H", CType.REAL),
    ("P", CType.REAL),
    ("S", CType.REAL),
    ("T", CType.REAL),
    ("V", CType.REAL),
    ("W", CType.INT),
    ("Pt", CType.TEXT),
    ("Dp", CType.REAL),
)


def flatten_weather(doc: WeatherDoc) -> Table:
    """One row per rep, in document order, with the fixed 18-column layout."""
    rows = []
    for loc in doc.locations:
        for period in loc.periods:
            for rep in period.reps:
                rows.append(
                    (
                        loc.id,
                        loc.name,
                        loc.lat,
                        loc.lon,
                        loc.elevation_m,
                        loc.country,
                        period.date,
                        rep.time_of_day,
                        rep.wind_dir,
                        rep.gust,
                        rep.humidity,
                        rep.pressure,
                        rep.wind_speed,
                        rep.temperature,
                        rep.visibility,
                        rep.weather_code,
                        rep.pressure_tendency,
                        rep.dew_point,
                    )
                )
    return Table(
        tuple(
            Column(name, ctype, tuple(row[i] for row in rows))
            for i, (name, ctype) in enumerate(FLAT_COLUMNS)
        )
    )
