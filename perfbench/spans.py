"""In-memory spans, counts and failures for one step of a workload.

A span is (id, parent, name, start, end).  Names are ``<layer>.<call>``: the
layer is the framerec module whose public function the benchmark called
(``synth``, ``data``, ``model``, ``training``, ``evaluation``), ``phase`` for
the benchmark's own grouping of calls into user-visible phases, and
``probe`` for work done only to measure something (it is not part of the
program's work, so it counts toward no layer, and the tracing overhead
leaves it out).  The root ``step`` span and phase spans are always
recorded, since the end-to-end metrics come from them; layer and probe
spans only when layer tracing is on.
"""

from __future__ import annotations

import statistics
import time
from contextlib import contextmanager


class Recorder:
    """Spans, counts, per-call samples and failed operations of one step."""

    def __init__(self, layers: bool, prefix: str = ""):
        self.layers = layers
        self.prefix = prefix
        self.spans = []
        self.counts = {}
        self.samples = {}
        self.errors = []
        self.attempted = 0
        self._stack = []

    @contextmanager
    def _span(self, name: str):
        span = {
            "id": f"{self.prefix}{len(self.spans)}",
            "parent": self._stack[-1]["id"] if self._stack else None,
            "name": name,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(span)
        self._stack.append(span)
        try:
            yield
        finally:
            span["end"] = time.perf_counter()
            self._stack.pop()

    def step(self):
        """The root span of one step; recorded in every mode."""
        return self._span("step")

    def phase(self, name: str):
        """A user-visible phase of the step; recorded in every mode."""
        return self._span(f"phase.{name}")

    @contextmanager
    def probe(self, name: str):
        """A measurement-only call; recorded only when tracing layers."""
        if self.layers:
            with self._span(f"probe.{name}"):
                yield
        else:
            yield

    def call(self, name: str, fn, *args, **kwargs):
        """Run one operation of the program: counted, and spanned if tracing.

        A MemoryError is recorded as a failed operation and re-raised.
        """
        self.attempted += 1
        try:
            if not self.layers:
                return fn(*args, **kwargs)
            with self._span(name):
                return fn(*args, **kwargs)
        except MemoryError as exc:
            self.errors.append(
                {"op": name, "type": type(exc).__name__, "message": str(exc)}
            )
            raise

    def count(self, name: str, n=1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    @property
    def failed(self) -> int:
        return len(self.errors)

    def durations(self, name: str) -> list:
        """Seconds of every finished span with this exact name."""
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def phase_seconds(self, name: str) -> float:
        return sum(self.durations(f"phase.{name}"))


def self_seconds(spans) -> dict:
    """Self time per layer: span durations minus the part their children cover."""
    child_total = {}
    for s in spans:
        if s["parent"] is not None:
            child_total[s["parent"]] = child_total.get(s["parent"], 0.0) + (
                s["end"] - s["start"]
            )
    out = {}
    for s in spans:
        layer = s["name"].split(".", 1)[0]
        own = s["end"] - s["start"] - child_total.get(s["id"], 0.0)
        out[layer] = out.get(layer, 0.0) + own
    return out


def probe_seconds(spans) -> float:
    """Seconds spent in probe spans, counting nested probes once."""
    by_id = {s["id"]: s for s in spans}
    return sum(
        s["end"] - s["start"] for s in spans
        if s["name"].startswith("probe.")
        and not by_id.get(s["parent"], {"name": ""})["name"].startswith("probe.")
    )


def median(values):
    return statistics.median(values) if values else None


def p90(values):
    """90th percentile (inclusive method); the single value for one sample."""
    if not values:
        return None
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]
