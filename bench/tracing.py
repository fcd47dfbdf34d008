"""Spans recorded by the benchmark around its calls into each layer.

A span has a name ``<layer>.<call>``, start and end (perf_counter
seconds), the index of its parent span and the repeat it belongs to.
Spans stay in memory until :meth:`Tracer.write` dumps them at the end
of a run.  :data:`NO_TRACE` has the same interface and records nothing;
the untraced run uses it so that both runs execute one code path.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict
from dataclasses import asdict, dataclass
from pathlib import Path


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    repeat: int

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.repeat = 0
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        record = Span(name, time.perf_counter(), 0.0, parent, self.repeat)
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its children cover."""
        out = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                out[s.parent] -= s.duration
        return out

    def durations(self, name: str) -> list[float]:
        return [s.duration for s in self.spans if s.name == name]

    def layer_self_times(self, phases: tuple[str, ...]) -> dict[int, dict[str, float]]:
        """Per repeat, the self time of each layer inside the given phase spans.

        A phase span's own self time is the benchmark's glue code and is
        booked to the layer ``bench``; its whole duration is stored under
        the phase's name.
        """
        selfs = self.self_times()
        phase_ids = {i for i, s in enumerate(self.spans) if s.name in phases}
        out: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for i, s in enumerate(self.spans):
            if i in phase_ids:
                out[s.repeat]["bench"] += selfs[i]
                out[s.repeat][s.name] += s.duration
            elif s.parent in phase_ids:
                out[s.repeat][s.layer] += selfs[i]
        return out

    def write(self, path: Path, origin: float) -> None:
        """Dump all spans as JSON, times relative to ``origin``."""
        rows = []
        for i, s in enumerate(self.spans):
            row = asdict(s)
            row.update(id=i, start=s.start - origin, end=s.end - origin)
            rows.append(row)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(rows) + "\n", encoding="utf-8")


class _NoTrace:
    def span(self, name: str):
        return contextlib.nullcontext()


NO_TRACE = _NoTrace()
