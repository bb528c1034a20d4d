"""In-memory span recorder for the benchmark's traced runs.

A span is one timed call into a layer: a name such as
``adjust.run_seasons``, its start and end on ``time.perf_counter``, the
span that was open when it started, a run id shared by every span of one
run, and optional counters (games parsed, rows trained on, ...).  Spans are
kept in a list and written to a JSON file once, when the run ends, so the
recorder does no I/O while the work it measures is running.
"""

from __future__ import annotations

import json
import time
import uuid
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    counts: dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class NullTracer:
    """Stands in for a :class:`Tracer` where nothing is recorded."""

    _none = nullcontext()

    def span(self, name: str, **counts: float):
        return self._none


class Tracer:
    """Records nested spans for one run; ``span`` is a context manager."""

    def __init__(self):
        self.run_id = uuid.uuid4().hex
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, **counts: float):
        s = Span(id=len(self.spans), name=name,
                 parent=self._open[-1] if self._open else None,
                 start=time.perf_counter(), counts=dict(counts))
        self.spans.append(s)
        self._open.append(s.id)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._open.pop()

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def total(self, name: str) -> float:
        """Summed duration of every span called ``name``."""
        return sum((s.duration for s in self.named(name)), 0.0)

    def count(self, name: str, key: str) -> float:
        """Summed counter ``key`` over every span called ``name``."""
        return sum(s.counts.get(key, 0) for s in self.named(name))

    def self_time(self, prefix: str) -> float:
        """Summed self time of spans whose name starts with ``prefix``.

        A span's self time is its duration minus the part of it covered by
        its child spans.  Children of one span never overlap (the run is
        single-threaded), so that part is the sum of their durations.
        """
        child_time: dict[int, float] = {}
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] = child_time.get(s.parent, 0.0) + s.duration
        return sum(s.duration - child_time.get(s.id, 0.0)
                   for s in self.spans if s.name.startswith(prefix))

    def write(self, path: Path, meta: dict) -> None:
        """One JSON document; every span in it belongs to ``run_id``.

        Times are seconds from the first span's start.  Spans go one per
        line, so a query trace of ~10^5 spans stays greppable.
        """
        t0 = self.spans[0].start if self.spans else 0.0
        lines = [json.dumps({"id": s.id, "name": s.name, "parent": s.parent,
                             "start_s": round(s.start - t0, 9),
                             "end_s": round(s.end - t0, 9),
                             **({"counts": s.counts} if s.counts else {})})
                 for s in self.spans]
        head = json.dumps({"run_id": self.run_id, **meta})[:-1]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(head + ', "spans": [\n' + ",\n".join(lines) + "\n]}\n",
                        encoding="utf-8")
