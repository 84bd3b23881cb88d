"""Bar chart SVG output: text content, geometry, determinism."""

from __future__ import annotations

import random
import xml.etree.ElementTree as ET

import pytest

from conftest import table_from_rows
from wrangle.chart import render_bar_chart
from wrangle.errors import EmptyTable, NegativeValue, TypeMismatch, UnknownColumn
from wrangle.table import CType

SVG_NS = "{http://www.w3.org/2000/svg}"


def cond_table(rows):
    return table_from_rows(
        ["weatherCond", "avg_speed"], [CType.TEXT, CType.REAL], rows
    )


def spec(**kw):
    return {"category_col": "weatherCond", "value_col": "avg_speed", **kw}


def bars_of(svg: bytes):
    root = ET.fromstring(svg.decode("utf-8"))
    return [r for r in root.iter(f"{SVG_NS}rect") if r.get("class") == "bar"]


def texts_of(svg: bytes):
    root = ET.fromstring(svg.decode("utf-8"))
    return [t.text for t in root.iter(f"{SVG_NS}text")]


class TestRender:
    def test_labels_values_and_relative_heights(self):
        svg = render_bar_chart(cond_table([["wet", 25.0], ["dry", 40.0]]), **spec())
        texts = texts_of(svg)
        for expected in ("wet", "25.00", "dry", "40.00"):
            assert expected in texts
        wet_bar, dry_bar = bars_of(svg)
        h_wet = float(wet_bar.get("height"))
        h_dry = float(dry_bar.get("height"))
        assert h_dry > h_wet
        assert h_wet / h_dry == pytest.approx(25.0 / 40.0, abs=0.01)

    def test_max_bar_at_ninety_percent(self):
        svg = render_bar_chart(cond_table([["only", 12.0]]), **spec())
        (bar,) = bars_of(svg)
        plot_h = 480 - 40 - 40
        assert float(bar.get("height")) == pytest.approx(0.9 * plot_h, abs=0.01)

    def test_height_ratio_tracks_value_ratio(self):
        rng = random.Random("chart:ratio")
        for _ in range(20):
            v1 = rng.uniform(0.5, 100.0)
            v2 = rng.uniform(0.5, 100.0)
            svg = render_bar_chart(cond_table([["a", v1], ["b", v2]]), **spec())
            b1, b2 = (float(b.get("height")) for b in bars_of(svg))
            expected = 0.9 * 400 * v1 / max(v1, v2)
            assert b1 == pytest.approx(expected, abs=0.5)
            assert b2 == pytest.approx(0.9 * 400 * v2 / max(v1, v2), abs=0.5)

    def test_deterministic_bytes(self):
        t = cond_table([["wet", 24.586], ["dry", 33.28]])
        assert render_bar_chart(t, **spec(title="x")) == render_bar_chart(t, **spec(title="x"))

    def test_title_escaped(self):
        svg = render_bar_chart(cond_table([["a", 1.0]]), **spec(title="a < b & c"))
        assert b"a &lt; b &amp; c" in svg

    def test_all_zero_values(self):
        svg = render_bar_chart(cond_table([["a", 0.0], ["b", 0.0]]), **spec())
        assert all(float(b.get("height")) == 0.0 for b in bars_of(svg))


class TestErrors:
    def test_empty_table(self):
        with pytest.raises(EmptyTable):
            render_bar_chart(cond_table([]), **spec())

    def test_negative_value(self):
        with pytest.raises(NegativeValue):
            render_bar_chart(cond_table([["a", -1.0]]), **spec())

    def test_null_value(self):
        with pytest.raises(TypeMismatch):
            render_bar_chart(cond_table([["a", None]]), **spec())

    def test_unknown_column(self):
        with pytest.raises(UnknownColumn):
            render_bar_chart(
                cond_table([["a", 1.0]]),
                category_col="nope",
                value_col="avg_speed",
            )

    def test_text_value_column(self):
        t = table_from_rows(["c", "v"], [CType.TEXT, CType.TEXT], [["a", "x"]])
        with pytest.raises(TypeMismatch):
            render_bar_chart(t, category_col="c", value_col="v")
