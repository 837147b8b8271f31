"""Tracing: lightweight spans, ring buffers, Chrome trace export.

A span is one timed region ``(name, begin_ns, end_ns, tid, attrs)``.
Two kinds exist and only one is stored here:

* setup and runtime regions — ``compile``, ``partition``, ``spawn``,
  ``frame``, ``checkpoint`` — are recorded into the bounded
  :class:`TraceBuffer` ring as they finish;
* a whole ``tick`` (``batch_pass`` on the batched engine) and its four
  kernel phases (``deliver`` / ``integrate`` / ``update`` / ``route``)
  are *not* stored as spans: each finished tick is one row in a
  :class:`~repro.obs.flight.FlightRecorder`, and the buffer's read side
  synthesizes those spans from the rows of every rank it was given.

The merged view exports Chrome ``trace_event`` JSON loadable by
``chrome://tracing`` and Perfetto, with one timeline row (tid) per
rank; timestamps are ``CLOCK_MONOTONIC``-based and so comparable
across processes on one host.

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
    """One recorded region: name, [begin, end) in ns, rank row, attrs."""

    __slots__ = ("name", "begin_ns", "end_ns", "tid", "attrs")

    def __init__(self, name: str, begin_ns: int, end_ns: int, tid: int = 0,
                 attrs: dict | None = None) -> None:
        self.name = name
        self.begin_ns = begin_ns
        self.end_ns = end_ns
        self.tid = tid
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
        return (f"Span({self.name!r}, tid={self.tid}, "
                f"dur={self.duration_s * 1e3:.3f} ms, attrs={self.attrs})")


def row_spans(rows: np.ndarray, tid: int) -> list[Span]:
    """The whole-tick and phase spans of one rank's flight *rows*.

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
                spans.append(Span(name, cursor, end, tid, attrs))
                cursor = end
        if lanes:
            spans.append(Span("batch_pass", a, a + wall, tid,
                              {"pass": tick, "lanes": lanes}))
        else:
            spans.append(Span("tick", a, a + wall, tid, attrs))
    return spans


class TraceBuffer:
    """Bounded ring of spans, read merged with the per-tick flight rows.

    *rings* maps a rank row (tid) to the
    :class:`~repro.obs.flight.FlightRecorder` holding that rank's ticks
    (any object with ``rows()``); :meth:`add` never sees a tick.
    Overflow drops the oldest stored span.
    """

    def __init__(self, capacity: int = 65536, rings: dict | None = None) -> None:
        self._ring: deque[Span] = deque(maxlen=capacity)
        self.rings = {} if rings is None else rings
        self.dropped = 0
        self._capacity = capacity

    @property
    def capacity(self) -> int:
        """Maximum number of stored (non-tick) spans."""
        return self._capacity

    def __len__(self) -> int:
        return len(self._ring)

    def add(self, name: str, begin_ns: int, end_ns: int, tid: int = 0,
            attrs: dict | None = None) -> None:
        """Record one completed span."""
        if len(self._ring) == self._capacity:
            self.dropped += 1
        self._ring.append(Span(name, begin_ns, end_ns, tid, attrs))

    def spans(self) -> list[Span]:
        """Every stored and every row-derived span, in merged tick order.

        Sort key is ``(tick, begin_ns)`` with tick-less spans (compile,
        spawn, ...) ordered purely by timestamp before tick 0 — so a
        multi-rank trace interleaves all ranks' phase spans tick by
        tick, the order the acceptance trace is checked in.
        """
        def key(span: Span):
            tick = span.tick
            return (tick if tick is not None else -1, span.begin_ns, span.tid)

        spans = list(self._ring)
        for tid, ring in list(self.rings.items()):
            spans += row_spans(ring.rows(), tid)
        return sorted(spans, key=key)

    def tids(self) -> list[int]:
        """Sorted set of rank rows with at least one span."""
        tids = {span.tid for span in list(self._ring)}
        tids.update(tid for tid, ring in list(self.rings.items()) if len(ring))
        return sorted(tids)

    # -- Chrome trace_event export -----------------------------------------
    def chrome_trace_events(self, pid: int = 0) -> list[dict]:
        """The buffer as Chrome ``trace_event`` complete events.

        Timestamps are microseconds relative to the earliest span, so
        traces load at t=0 in ``chrome://tracing`` / Perfetto.  One
        metadata event names each rank's timeline row.
        """
        spans = self.spans()
        if not spans:
            return []
        base = min(span.begin_ns for span in spans)
        events: list[dict] = [
            {
                "name": "thread_name", "ph": "M", "pid": pid, "tid": tid,
                "args": {"name": f"rank{tid}"},
            }
            for tid in sorted({span.tid for span in spans})
        ]
        for span in spans:
            event = {
                "name": span.name,
                "ph": "X",
                "ts": (span.begin_ns - base) / 1e3,
                "dur": (span.end_ns - span.begin_ns) / 1e3,
                "pid": pid,
                "tid": span.tid,
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
