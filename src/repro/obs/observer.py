"""The Observer: one telemetry session shared by every engine.

An :class:`Observer` bundles the per-tick flight ring, a trace buffer
for setup spans and a metrics registry; engines accept one via
``obs=``.  An enabled observer costs one :meth:`Observer.tick` call per
finished tick — one ring row and one histogram observation; spans,
phase seconds, gauges and the event counters are read from the rows
and from the engine's live ``EventCounters`` when someone scrapes.
When no observer is attached — the default — the instrumentation cost
is a single ``is not None`` check per guarded site, and
``Observer(enabled=False)`` is the one switch that silences an attached
one (the disabled-overhead benchmark holds this path to <= 5%).
"""

from __future__ import annotations

from repro.obs.flight import BUDGET_NS, FlightRecorder
from repro.obs.metrics import CATALOGUE, EVENT_METRICS, MetricsRegistry
from repro.obs.trace import PHASES, TraceBuffer, now_ns


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

    __slots__ = ("_obs", "_name", "_attrs", "_begin")

    def __init__(self, obs: "Observer", name: str, attrs: dict | None):
        self._obs = obs
        self._name = name
        self._attrs = attrs

    def __enter__(self) -> "_SpanHandle":
        self._begin = now_ns()
        return self

    def __exit__(self, *exc) -> bool:
        self._obs.trace.add(self._name, self._begin, now_ns(), attrs=self._attrs)
        return False


class Observer:
    """One observability session: flight ring + trace buffer + registry."""

    def __init__(self, *, enabled: bool = True) -> None:
        self.enabled = enabled
        self.flight = FlightRecorder()
        self.trace = TraceBuffer(flight=self.flight)
        self.metrics = MetricsRegistry()
        self.metrics.add_collector(self._collect)
        #: Served share of the batch lanes, kept current by the model
        #: server on admission / finalize and stored with each row.
        self.occupancy = 0.0
        self._counters = None
        self._tick_seconds = self.metrics.histogram("repro_tick_seconds").state()

    # -- spans -------------------------------------------------------------
    def span(self, name: str, **attrs):
        """Context manager timing one region (no-op when disabled)."""
        if not self.enabled:
            return NULL_SPAN
        return _SpanHandle(self, name, attrs or None)

    # -- the per-tick record -----------------------------------------------
    def tick(self, tick: int, begin_ns: int, end_ns: int, spikes: int,
             messages: int, phases=(0, 0, 0, 0), queue_depth: int = 0,
             lanes: int = 0) -> None:
        """Record one finished tick: everything an enabled tick does.

        One :meth:`FlightRecorder.record` row (arguments as there, plus
        the current :attr:`occupancy`) and one ``repro_tick_seconds``
        observation.  Timestamps are integer ``now_ns`` readings, which
        keeps float arithmetic out of the integer kernels.
        """
        wall_ns = self.flight.record(
            tick, begin_ns, end_ns, spikes, messages, phases,
            queue_depth, lanes, self.occupancy,
        )
        self._tick_seconds.observe(wall_ns * 1e-9)

    # -- reads (pulled at scrape time) -------------------------------------
    def bind_counters(self, source) -> None:
        """Publish the event metrics from *source*, a zero-argument
        callable returning the engine's live ``EventCounters``."""
        self._counters = source

    def _collect(self) -> None:
        """The registry collector: views of the counters and the rows."""
        metrics = self.metrics
        if self._counters is not None:
            counters = self._counters()
            for name, attr in EVENT_METRICS.items():
                family = (metrics.counter(name) if CATALOGUE[name][0] == "counter"
                          else metrics.gauge(name))
                family.set(getattr(counters, attr))
        last = self.flight.rows(last=1)
        if last.size:
            row = last[0]
            metrics.gauge("repro_queue_depth").set(int(row["queue_depth"]))
            metrics.gauge("repro_tick_budget_ratio").set(
                int(row["wall_ns"]) / BUDGET_NS
            )
            metrics.gauge("repro_rtf").set(self.flight.real_time_factor())
        for name, seconds in self.phase_seconds().items():
            if seconds:
                metrics.counter("repro_phase_seconds_total").set(seconds, phase=name)

    def event_snapshot(self) -> dict:
        """The deterministic event-metric subset of the snapshot.

        Identical across the reference, fast, and Compass engines for
        the same seeded network at matched message granularity — the
        cross-engine equivalence the obs test suite asserts bit-exactly.
        """
        snap = self.metrics.snapshot()
        return {name: snap.get(name, 0) for name in EVENT_METRICS}

    def phase_seconds(self) -> dict:
        """Accumulated wall-clock seconds per canonical tick phase.

        The ring's cumulative sums, so evicted ticks still count.
        """
        totals = self.flight.totals_ns()
        return {name: totals[f"{name}_ns"] * 1e-9 for name in PHASES}

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
    ``update``/``route`` — from the engine's observer.
    """
    if engine.obs is None:
        return dict.fromkeys(PHASES, 0.0)
    return engine.obs.phase_seconds()


def active_observer(obs: Observer | None) -> Observer | None:
    """*obs* if it is attached and enabled, else None.

    The one-line guard engines evaluate per tick: keeps the disabled
    path to a null check + attribute read.
    """
    return obs if (obs is not None and obs.enabled) else None
