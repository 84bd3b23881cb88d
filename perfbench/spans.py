"""In-memory span recorder and the arithmetic the benchmark derives from spans.

A span has a name, a start and an end (``time.monotonic()`` seconds, a
clock shared by every process on the host), the id of the span that caused
it and the id of the run it belongs to. Spans stay in memory until the run
ends and :meth:`Recorder.dump` writes them out.

A span's self time is its duration minus the part of its interval that its
children cover; children that overlap each other are counted once.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Iterator


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    run_id: str
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans of one process; nesting follows the ``with`` blocks.

    Spans take the ``run_id`` current when they open; assign a new one to
    start another run in the same process.
    """

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    @contextmanager
    def span(self, name: str, **attrs) -> Iterator[Span]:
        parent = self._stack[-1].id if self._stack else None
        s = Span(len(self.spans), name, time.monotonic(), 0.0, parent, self.run_id, dict(attrs))
        self.spans.append(s)
        self._stack.append(s)
        try:
            yield s
        finally:
            s.end = time.monotonic()
            self._stack.pop()

    def dump(self, path: Path, **marks: float) -> None:
        """Write the spans, plus named instants the reader needs, as JSON."""
        path.write_text(json.dumps({"marks": marks, "spans": [asdict(s) for s in self.spans]}))


def load_spans(path: Path) -> tuple[list[Span], dict[str, float]]:
    doc = json.loads(path.read_text())
    return [Span(**raw) for raw in doc["spans"]], doc["marks"]


def covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cur_start = cur_end = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_end is None or a > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = a, b
        else:
            cur_end = max(cur_end, b)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part covered by its children."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {s.id: s.duration - covered(children[s.id], s.start, s.end) for s in spans}


def self_time_by_name(spans: list[Span]) -> dict[str, float]:
    """Summed self time of every span name."""
    own = self_times(spans)
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        out[s.name] += own[s.id]
    return dict(out)


def coverage(spans: list[Span], start: float, end: float) -> float:
    """Share of ``[start, end]`` covered by top-level spans."""
    top = [(s.start, s.end) for s in spans if s.parent is None]
    return covered(top, start, end) / (end - start)
