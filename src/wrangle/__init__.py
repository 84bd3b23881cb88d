"""Component-based traffic data wrangling.

A small engine in two layers: reusable operators (tables, relational ops,
weather flattening, space-time joining, traffic-export cleaning, charting)
and a declarative workflow runner that wires them into DAGs and keeps each
node's result under a session key.
"""

from .errors import WrangleError, DataError, WorkflowError
from .table import (
    Cell,
    Column,
    CType,
    Table,
    infer_column_types,
    parse_csv,
    table_from_rows,
    write_csv,
)
from .expr import AggSpec, parse_agg, parse_mutate, parse_predicate
from .relops import (
    filter_rows,
    group_summarise,
    join,
    mutate_column,
    require,
    select_columns,
    union,
)
from .weather import WeatherDoc, flatten_weather, parse_weather_json
from .spacetime import (
    SpaceTimeParams,
    add_weather_condition,
    haversine_m,
    time_space_join,
)
from .traffic import clean_site_id, filter_weekdays, separate_datetime
from .chart import render_bar_chart
from .gen import GenConfig, generate
from .workflow import (
    RunReport,
    WorkflowSpec,
    execute,
    parse_workflow,
    random_keys,
    sequential_keys,
    topo_schedule,
)

__version__ = "0.1.0"
