"""Tracing: lightweight spans, ring buffers, Chrome trace export.

A span is one timed region ``(name, begin_ns, end_ns, attrs)``.
Two kinds exist and only one is stored here:

* setup and runtime regions — ``compile``, ``partition``, ``frame`` —
  are recorded into the bounded :class:`TraceBuffer` ring as they
  finish;
* a whole ``tick`` (``batch_pass`` on the batched engine) and its four
  kernel phases (``deliver`` / ``integrate`` / ``update`` / ``route``)
  are *not* stored as spans: each finished tick is one row in a
  :class:`~repro.obs.flight.FlightRecorder`, and the buffer's read side
  synthesizes those spans from that ring's rows.

The merged view exports Chrome ``trace_event`` JSON loadable by
``chrome://tracing`` and Perfetto; timestamps are
``CLOCK_MONOTONIC``-based.

All wall-clock reads for tracing live in this module (:func:`now_ns`),
keeping the engines' tick paths clean under the SL104 determinism lint:
timing is observed *about* the kernel, never fed back into it.
"""

from __future__ import annotations

import json
import time
from collections import deque

import numpy as np

#: Canonical per-tick kernel phases, in execution order.  Every engine
#: reports exactly these names (satisfying the cross-engine parity the
#: profiling tests assert).
PHASES = ("deliver", "integrate", "update", "route")


#: Monotonic wall-clock timestamp in nanoseconds.  The one sanctioned
#: clock read for instrumentation; engines call this instead of
#: :mod:`time` so the determinism source lint keeps their tick paths
#: clock-free.  Bound to the builtin itself: a tick reads it five times,
#: and a Python frame around each read costs more than the read.
now_ns = time.perf_counter_ns


class Span:
    """One recorded region: name, [begin, end) in ns, attrs."""

    __slots__ = ("name", "begin_ns", "end_ns", "attrs")

    def __init__(self, name: str, begin_ns: int, end_ns: int,
                 attrs: dict | None = None) -> None:
        self.name = name
        self.begin_ns = begin_ns
        self.end_ns = end_ns
        self.attrs = attrs

    @property
    def duration_s(self) -> float:
        """Span duration in seconds."""
        return (self.end_ns - self.begin_ns) * 1e-9

    @property
    def tick(self) -> int | None:
        """The tick attribute, if this is a per-tick span."""
        return self.attrs.get("tick") if self.attrs else None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Span({self.name!r}, "
                f"dur={self.duration_s * 1e3:.3f} ms, attrs={self.attrs})")


def row_spans(rows: np.ndarray) -> list[Span]:
    """The whole-tick and phase spans of flight *rows*.

    Phases are laid out contiguously from each row's ``begin_ns`` —
    exact for the sparse engines, whose phases are consecutive clock
    marks, and the per-phase split for the rank-partitioned simulator,
    whose phases interleave per core.  A row whose writer timed no
    phases (a runtime recording on an engine's behalf) yields the
    whole-tick span only.
    """
    begin = rows["begin_ns"]
    ends = begin[:, None] + np.cumsum(
        [rows[f"{phase}_ns"] for phase in PHASES], axis=0
    ).T
    spans: list[Span] = []
    for tick, lanes, a, wall, phase_ends in zip(
        rows["tick"].tolist(), rows["lanes"].tolist(), begin.tolist(),
        rows["wall_ns"].tolist(), ends.tolist(),
    ):
        attrs = {"tick": tick}
        if phase_ends[-1] > a:
            cursor = a
            for name, end in zip(PHASES, phase_ends):
                spans.append(Span(name, cursor, end, attrs=attrs))
                cursor = end
        if lanes:
            spans.append(Span("batch_pass", a, a + wall,
                              attrs={"pass": tick, "lanes": lanes}))
        else:
            spans.append(Span("tick", a, a + wall, attrs=attrs))
    return spans


class TraceBuffer:
    """Bounded ring of spans, read merged with the per-tick flight rows.

    *flight* is the :class:`~repro.obs.flight.FlightRecorder` holding
    the ticks (any object with ``rows()``); :meth:`add` never sees a
    tick.  Overflow drops the oldest stored span.
    """

    def __init__(self, capacity: int = 65536, flight=None) -> None:
        self._ring: deque[Span] = deque(maxlen=capacity)
        self.flight = flight
        self.dropped = 0
        self._capacity = capacity

    @property
    def capacity(self) -> int:
        """Maximum number of stored (non-tick) spans."""
        return self._capacity

    def __len__(self) -> int:
        return len(self._ring)

    def add(self, name: str, begin_ns: int, end_ns: int,
            attrs: dict | None = None) -> None:
        """Record one completed span."""
        if len(self._ring) == self._capacity:
            self.dropped += 1
        self._ring.append(Span(name, begin_ns, end_ns, attrs))

    def spans(self) -> list[Span]:
        """Every stored and every row-derived span, in merged tick order.

        Sort key is ``(tick, begin_ns)`` with tick-less spans (compile,
        frame, ...) ordered purely by timestamp before tick 0.
        """
        def key(span: Span):
            tick = span.tick
            return (tick if tick is not None else -1, span.begin_ns)

        spans = list(self._ring)
        if self.flight is not None:
            spans += row_spans(self.flight.rows())
        return sorted(spans, key=key)

    # -- Chrome trace_event export -----------------------------------------
    def chrome_trace_events(self, pid: int = 0) -> list[dict]:
        """The buffer as Chrome ``trace_event`` complete events.

        Timestamps are microseconds relative to the earliest span, so
        traces load at t=0 in ``chrome://tracing`` / Perfetto.  Every
        event sits on timeline row 0 (the format requires a ``tid``).
        """
        spans = self.spans()
        if not spans:
            return []
        base = min(span.begin_ns for span in spans)
        events: list[dict] = []
        for span in spans:
            event = {
                "name": span.name,
                "ph": "X",
                "ts": (span.begin_ns - base) / 1e3,
                "dur": (span.end_ns - span.begin_ns) / 1e3,
                "pid": pid,
                "tid": 0,
            }
            if span.attrs:
                event["args"] = dict(span.attrs)
            events.append(event)
        return events

    def export_chrome(self, path: str) -> int:
        """Write the Chrome-trace JSON document to *path*; return #events."""
        events = self.chrome_trace_events()
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, f)
        return len(events)
