"""Seeded generator for inductive-loop traffic files, site metadata, and
observation JSON, shaped like the real exports the operators target.

Everything is a pure function of :class:`GenConfig`: the same config yields
byte-identical files. Traffic site ids are emitted apostrophe-prefixed and
zero-padded (``'000000001083``) to exercise id cleaning; some fields are
left empty and rows end with a trailing comma to exercise the CSV dialect;
speeds are drawn from a lower-mean distribution on wet-labelled days so the
wet/dry comparison has signal.

Each calendar day is labelled wet or dry from a per-date draw; if the range
contains at least two Fridays and they all landed on one label, the last
Friday is flipped so a Friday-only analysis always sees both conditions.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from datetime import date, datetime, time, timedelta
from pathlib import Path

from .errors import RangeError
from .table import Column, CType, Table, format_time, write_csv
from .traffic import weekday_name

TRAFFIC_HEADER = (
    "Site ID", "Date", "Lane", "Lane Name", "Direction", "Direction Name",
    "Reverse", "Class Scheme", "Class", "Class Name", "Length", "Headway",
    "Gap", "Speed", "Weight", "Flags", "FlagText", "NumAxles",
)

# lane -> (lane name, direction code, direction name)
_LANES = {
    1: ("NB_NS", 1, "North"),
    2: ("NB_MID", 1, "North"),
    5: ("SB_MID", 2, "South"),
    6: ("SB_NS", 2, "South"),
}

_CLASSES = ((2, "Car"), (2, "Car"), (2, "Car"), (4, "Rigid"), (5, "Artic"))

# Hour-of-day weights with morning and evening peaks.
_HOUR_WEIGHTS = (
    1, 1, 1, 1, 1, 2, 3, 5, 6, 4, 3, 3, 3, 3, 4, 5, 6, 6, 5, 3, 2, 2, 1, 1,
)

_COMPASS = ("N", "NNE", "NE", "ENE", "E", "SE", "SSW", "SW", "WSW", "W", "NW")

WET_CODE_CHOICES = (9, 10, 11, 12, 13, 14, 15)
DRY_CODE_CHOICES = (0, 1, 2, 3, 7, 8)

# A stretch of urban road; sites step ~220 m apart along it.
_BASE_LAT = 53.4609
_BASE_LON = -2.2862

DRY_SPEED_MEAN_MPH = 33.0
WET_SPEED_MEAN_MPH = 24.0
SPEED_SD_MPH = 3.0


# A dataclass, not a wrangle.record record: perfbench/run.py reads it with
# dataclasses.asdict. The CLI imports this module only for ``wrangle gen``.
@dataclass(frozen=True)
class GenConfig:
    seed: int = 42
    sites: int = 2
    rows_per_site: int = 1000
    date_start: date = date(2018, 2, 1)
    date_end: date = date(2018, 2, 28)
    weather_locations: int = 2

    def __post_init__(self) -> None:
        if self.sites < 2:
            raise RangeError("need at least 2 sites")
        if self.rows_per_site < 1:
            raise RangeError("rows_per_site must be positive")
        if self.date_end < self.date_start:
            raise RangeError("date_end before date_start")
        if self.weather_locations < 1:
            raise RangeError("need at least 1 weather location")

    @property
    def days(self) -> list[date]:
        n = (self.date_end - self.date_start).days + 1
        return [self.date_start + timedelta(days=i) for i in range(n)]


def site_number(index: int) -> int:
    """Site ids count up from 1083, matching the real export's range."""
    return 1083 + index


def site_coords(index: int) -> tuple[float, float]:
    return (_BASE_LAT + 0.002 * index, _BASE_LON - 0.001 * index)


def wet_days(config: GenConfig) -> dict[date, bool]:
    """Per-date wet labels; both labels are guaranteed among the Fridays
    whenever the range holds two or more of them."""
    rng = random.Random(f"{config.seed}:wet")
    labels = {d: rng.random() < 0.45 for d in config.days}
    fridays = [d for d in config.days if weekday_name(d) == "Friday"]
    if len(fridays) >= 2 and len({labels[d] for d in fridays}) == 1:
        labels[fridays[-1]] = not labels[fridays[-1]]
    return labels


def _speed_mph(rng: random.Random, wet: bool) -> float:
    mean = WET_SPEED_MEAN_MPH if wet else DRY_SPEED_MEAN_MPH
    return min(60.0, max(5.0, rng.gauss(mean, SPEED_SD_MPH)))


def _traffic_lines(config: GenConfig, site_index: int, labels: dict[date, bool]) -> str:
    rng = random.Random(f"{config.seed}:traffic:{site_index}")
    site_id = f"'{site_number(site_index):012d}"
    days = config.days
    rows = []
    for _ in range(config.rows_per_site):
        day = rng.choice(days)
        hour = rng.choices(range(24), weights=_HOUR_WEIGHTS)[0]
        stamp = datetime.combine(
            day, time(hour, rng.randrange(60), rng.randrange(60), rng.randrange(100) * 10000)
        )
        lane = rng.choice(tuple(_LANES))
        lane_name, direction, direction_name = _LANES[lane]
        cls, cls_name = rng.choice(_CLASSES)
        length = rng.uniform(3.4, 7.2)
        speed = _speed_mph(rng, labels[day])
        if rng.random() < 0.35:
            headway = f"{rng.uniform(1.5, 15.0):.4f}"
            gap = f"{rng.uniform(1.0, 14.0):.4f}"
        else:
            headway = ""
            gap = ""
        axles = str(rng.choice((2, 2, 2, 3))) if rng.random() < 0.5 else ""
        rows.append(
            (
                stamp,
                f"{site_id},{stamp.date().isoformat()} {format_time(stamp.time())},"
                f'{lane},"{lane_name}",{direction},"{direction_name}",0,1078,'
                f'{cls},"{cls_name}",{length:.3f},{headway},{gap},{speed:.3f},'
                f'0,0,"",{axles},'
            )
        )
    rows.sort(key=lambda pair: pair[0])
    header = ",".join(f'"{name}"' for name in TRAFFIC_HEADER)
    return "\n".join([header] + [line for _, line in rows]) + "\n"


def sites_table(config: GenConfig) -> Table:
    rng = random.Random(f"{config.seed}:sites")
    ids, names, lats, lons, lengths = [], [], [], [], []
    for k in range(config.sites):
        lat, lon = site_coords(k)
        ids.append(site_number(k))
        names.append(f"Chester Rd / Site {site_number(k)}")
        lats.append(round(lat, 6))
        lons.append(round(lon, 6))
        lengths.append(round(rng.uniform(380.0, 900.0), 1))
    return Table(
        (
            Column("Site.ID", CType.INT, tuple(ids)),
            Column("SiteName", CType.TEXT, tuple(names)),
            Column("Lat", CType.REAL, tuple(lats)),
            Column("Lon", CType.REAL, tuple(lons)),
            Column("LinkLength", CType.REAL, tuple(lengths)),
        )
    )


def weather_doc(config: GenConfig, labels: dict[date, bool]) -> dict:
    """Observation document in the nested SiteRep shape, values as strings."""
    rng = random.Random(f"{config.seed}:weather")
    locations = []
    for j in range(config.weather_locations):
        lat, lon = site_coords(j) if j < config.sites else site_coords(config.sites - 1)
        if j >= config.sites:
            lat += 0.005 * (j - config.sites + 1)
        periods = []
        for day in config.days:
            reps = []
            for hour in range(24):
                wet = labels[day]
                code = rng.choice(WET_CODE_CHOICES if wet else DRY_CODE_CHOICES)
                reps.append(
                    {
                        "D": rng.choice(_COMPASS),
                        "G": str(rng.randrange(5, 45)),
                        "H": f"{rng.uniform(55.0, 98.0):.1f}",
                        "P": str(rng.randrange(980, 1035)),
                        "S": str(rng.randrange(2, 30)),
                        "T": f"{rng.uniform(-2.0, 14.0):.1f}",
                        "V": str(rng.randrange(2000, 40000)),
                        "W": str(code),
                        "Pt": rng.choice(("R", "F", "S")),
                        "Dp": f"{rng.uniform(-4.0, 10.0):.1f}",
                        "$": str(hour * 60),
                    }
                )
            periods.append({"type": "Day", "value": f"{day.isoformat()}Z", "Rep": reps})
        locations.append(
            {
                "i": str(3000 + j),
                "lat": f"{lat:.6f}",
                "lon": f"{lon:.6f}",
                "name": f"OBS SITE {3000 + j}",
                "country": "ENGLAND",
                "continent": "EUROPE",
                "elevation": "38.0",
                "Period": periods,
            }
        )
    data_date = f"{config.date_end.isoformat()}T23:00:00Z"
    return {
        "SiteRep": {
            "Wx": {
                "Param": [
                    {"name": "T", "units": "C", "$": "Temperature"},
                    {"name": "S", "units": "mph", "$": "Wind Speed"},
                    {"name": "W", "units": "", "$": "Weather Type"},
                ]
            },
            "DV": {
                "dataDate": data_date,
                "type": "Obs",
                "Location": locations,
            },
        }
    }


def generate(config: GenConfig, out_dir: Path) -> list[Path]:
    """Write site_<k>.csv per site, sites.csv, and weather.json; returns paths."""
    out_dir.mkdir(parents=True, exist_ok=True)
    labels = wet_days(config)
    written = []
    for k in range(config.sites):
        path = out_dir / f"site_{k + 1}.csv"
        path.write_bytes(_traffic_lines(config, k, labels).encode("utf-8"))
        written.append(path)
    sites_path = out_dir / "sites.csv"
    sites_path.write_bytes(write_csv(sites_table(config)))
    written.append(sites_path)
    weather_path = out_dir / "weather.json"
    doc = weather_doc(config, labels)
    weather_path.write_bytes((json.dumps(doc, indent=2) + "\n").encode("utf-8"))
    written.append(weather_path)
    return written
