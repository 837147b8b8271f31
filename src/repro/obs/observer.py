"""The Observer: one telemetry session shared by every engine.

An :class:`Observer` bundles a trace ring buffer and a metrics
registry; engines accept one via ``obs=`` and, when it is active,
record per-tick phase spans, publish their event counters, and time
setup stages (compile / partition / spawn).  When no observer is
attached — the default — the instrumentation cost is a single
``is not None`` check per guarded site, and the module-level
:func:`set_enabled` flag can silence every attached observer at once
(the disabled-overhead benchmark holds this path to <= 5%).
"""

from __future__ import annotations

from repro.obs.flight import BUDGET_NS, FlightRecorder
from repro.obs.metrics import (
    EVENT_METRICS,
    MetricsRegistry,
    publish_counters,
)
from repro.obs.trace import PHASES, TraceBuffer, now_ns

#: Module-level master switch: when False, every Observer reports
#: inactive and spans become no-ops, regardless of per-observer state.
_ENABLED = True


def set_enabled(enabled: bool) -> None:
    """Flip the module-level instrumentation switch."""
    global _ENABLED
    _ENABLED = bool(enabled)


def is_enabled() -> bool:
    """Whether the module-level instrumentation switch is on."""
    return _ENABLED


class _NullSpan:
    """No-op span: what disabled instrumentation hands out."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False


NULL_SPAN = _NullSpan()


class _SpanHandle:
    """Context manager recording one span into an observer's trace."""

    __slots__ = ("_obs", "_name", "_tid", "_attrs", "_begin")

    def __init__(self, obs: "Observer", name: str, tid: int, attrs: dict | None):
        self._obs = obs
        self._name = name
        self._tid = tid
        self._attrs = attrs

    def __enter__(self) -> "_SpanHandle":
        self._begin = now_ns()
        return self

    def __exit__(self, *exc) -> bool:
        self._obs.trace.add(self._name, self._begin, now_ns(),
                            tid=self._tid, attrs=self._attrs)
        return False


class Observer:
    """One observability session: trace buffer + metrics registry."""

    def __init__(self, *, enabled: bool = True, trace_capacity: int = 65536,
                 flight_capacity: int = 4096) -> None:
        self.enabled = enabled
        self.trace = TraceBuffer(capacity=trace_capacity)
        self.metrics = MetricsRegistry()
        self.flight = FlightRecorder(flight_capacity) if flight_capacity else None
        self._phase_counter = self.metrics.counter("repro_phase_seconds_total")
        self._tick_hist = self.metrics.histogram("repro_tick_seconds")
        self._budget_gauge = self.metrics.gauge("repro_tick_budget_ratio")
        self._rtf_gauge = self.metrics.gauge("repro_rtf")
        self._occupancy_gauge = self.metrics.gauge("repro_batch_occupancy")

    @property
    def active(self) -> bool:
        """True when both this observer and the module switch are on."""
        return self.enabled and _ENABLED

    # -- spans -------------------------------------------------------------
    def span(self, name: str, tid: int = 0, **attrs):
        """Context manager timing one region (no-op when inactive)."""
        if not self.active:
            return NULL_SPAN
        return _SpanHandle(self, name, tid, attrs or None)

    def phase(self, name: str, tick: int, begin_ns: int, end_ns: int,
              tid: int = 0) -> None:
        """Record one completed per-tick phase span + its seconds metric."""
        self.trace.add(name, begin_ns, end_ns, tid=tid, attrs={"tick": tick})
        self._phase_counter.inc((end_ns - begin_ns) * 1e-9, phase=name)

    def tick_phases(self, tick: int, begin_ns: int, durations, tid: int = 0) -> None:
        """Record one tick's phases from accumulated durations.

        *durations* is an iterable of ``(phase_name, duration_ns)`` in
        execution order.  Used by engines whose phases interleave per
        core (the rank-partitioned reference simulator): spans are
        synthesized contiguously from *begin_ns* so the trace shows the
        per-phase time split, and a ``tick`` span plus the
        ``repro_tick_seconds`` histogram cover the whole tick.
        """
        cursor = begin_ns
        for name, duration_ns in durations:
            self.phase(name, tick, cursor, cursor + duration_ns, tid=tid)
            cursor += duration_ns
        end = now_ns()
        self.trace.add("tick", begin_ns, end, tid=tid, attrs={"tick": tick})
        self._tick_hist.observe((end - begin_ns) * 1e-9)

    def sparse_tick(
        self,
        tick: int,
        marks,
        counters,
        spikes: int,
        queue_depth: int,
        active: int | None,
        n_neurons: int,
        span: str = "tick",
        attrs: dict | None = None,
    ) -> None:
        """Publish one finished tick of a sparse engine: the post-tick block.

        *marks* are the engine's ``now_ns`` readings in order: tick
        begin, the end of each phase it timed, tick end — five for the
        single-process engines (``deliver``/``integrate``/``update``/
        ``route``), two for the parallel coordinator, whose phase split
        arrives from the workers' span strips instead.  Records the
        phase spans, one whole-tick *span* (*attrs* default to the tick
        number), the tick-seconds histogram, the event *counters*, the
        pending-input *queue_depth*, the gate gauges when *active* (the
        neurons computed this tick, None when ungated) is given, and
        the flight row.
        """
        begin, end = marks[0], marks[-1]
        phase_ns = {}
        if len(marks) == 1 + len(PHASES):
            for name, a, b in zip(PHASES, marks, marks[1:]):
                self.phase(name, tick, a, b)
                phase_ns[name + "_ns"] = b - a
        self.trace.add(span, begin, end, attrs=attrs or {"tick": tick})
        self._tick_hist.observe((end - begin) * 1e-9)
        self.publish_counters(counters)
        self.set_gauge("repro_queue_depth", queue_depth)
        fraction = 1.0
        if active is not None:
            fraction = active / n_neurons if n_neurons else 0.0
            self.set_gauge("repro_active_neurons", active)
            self.set_gauge("repro_active_fraction", fraction)
            self.metrics.counter("repro_active_neuron_updates_total").set(
                counters.active_neuron_updates
            )
        self.flight_tick(
            tick, begin, end, spikes, counters.messages, fraction, **phase_ns
        )

    # -- flight recorder ---------------------------------------------------
    def flight_tick(
        self,
        tick: int,
        begin_ns: int,
        end_ns: int,
        spikes: int,
        messages_total: int,
        active_fraction: float = 1.0,
        occupancy: float | None = None,
        deliver_ns: int = 0,
        integrate_ns: int = 0,
        update_ns: int = 0,
        route_ns: int = 0,
    ) -> None:
        """Record one tick into the flight ring + live SLO gauges.

        The single per-engine hook: called once at the end of each
        engine tick with integer-nanosecond timestamps from ``now_ns``
        (keeping float arithmetic out of the integer kernels).  Sets
        ``repro_tick_budget_ratio`` (this tick's wall time over the
        1 ms budget) and ``repro_rtf`` (real-time factor over the
        retained flight window).  *occupancy* defaults to the current
        ``repro_batch_occupancy`` gauge, so serving lanes show up
        without the engine threading it through.
        """
        flight = self.flight
        if flight is None:
            return
        if occupancy is None:
            occupancy = self._occupancy_gauge.value_unlabeled()
        wall_ns = end_ns - begin_ns
        rtf = flight.record(
            tick, wall_ns, spikes, messages_total,
            active_fraction, occupancy,
            deliver_ns, integrate_ns, update_ns, route_ns,
        )
        self._budget_gauge.set_unlabeled(wall_ns / BUDGET_NS)
        self._rtf_gauge.set_unlabeled(rtf)

    # -- metrics -----------------------------------------------------------
    def publish_counters(self, counters) -> None:
        """Publish an engine's event counters into the registry."""
        publish_counters(self.metrics, counters)

    def set_gauge(self, name: str, value) -> None:
        """Set a gauge by catalogue name."""
        self.metrics.gauge(name).set(value)

    def event_snapshot(self) -> dict:
        """The deterministic event-metric subset of the snapshot.

        Identical across the reference, fast, and parallel engines for
        the same seeded network at matched message granularity — the
        cross-engine equivalence the obs test suite asserts bit-exactly.
        """
        snap = self.metrics.snapshot()
        return {name: snap.get(name, 0) for name in EVENT_METRICS}

    def phase_seconds(self) -> dict:
        """Accumulated wall-clock seconds per canonical tick phase."""
        return {name: float(self._phase_counter.value(phase=name)) for name in PHASES}

    # -- export ------------------------------------------------------------
    def export_chrome_trace(self, path: str) -> int:
        """Write the Chrome-trace JSON to *path*; return event count."""
        return self.trace.export_chrome(path)

    def write_metrics_json(self, path: str) -> None:
        """Write the metrics snapshot as JSON to *path*."""
        with open(path, "w", encoding="utf-8") as f:
            f.write(self.metrics.to_json())
            f.write("\n")


@property
def engine_phase_seconds(engine) -> dict:
    """Accumulated seconds per tick phase (all zero when untimed).

    The one ``phase_seconds`` property every engine that takes ``obs=``
    carries (``phase_seconds = engine_phase_seconds`` in the class
    body): the four canonical phases — ``deliver``/``integrate``/
    ``update``/``route`` — from the engine's observer; on the parallel
    engine they are summed over every worker rank and populated once
    the worker trace strips have been merged (at ``close()``).
    """
    if engine.obs is None:
        return dict.fromkeys(PHASES, 0.0)
    return engine.obs.phase_seconds()


def active_observer(obs: Observer | None) -> Observer | None:
    """*obs* if it is attached and active, else None.

    The one-line guard engines evaluate per tick: keeps the disabled
    path to a null check + attribute read.
    """
    return obs if (obs is not None and obs.active) else None
