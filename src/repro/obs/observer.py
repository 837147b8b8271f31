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

from repro.obs.flight import BUDGET_NS, DEFAULT_CAPACITY, FlightRecorder
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
    """One observability session: flight ring + trace buffer + registry."""

    def __init__(self, *, enabled: bool = True, trace_capacity: int = 65536,
                 flight_capacity: int = DEFAULT_CAPACITY) -> None:
        self.enabled = enabled
        self.flight = FlightRecorder(flight_capacity)
        #: Flight ring per trace row: tid 0 is :attr:`flight` (on the
        #: parallel engine, rank 0's own rows), tid r the rows adopted
        #: from parallel child rank r.
        self.rings: dict[int, FlightRecorder] = {0: self.flight}
        self.trace = TraceBuffer(capacity=trace_capacity, rings=self.rings)
        self.metrics = MetricsRegistry()
        self.metrics.add_collector(self._collect)
        #: Served share of the batch lanes, kept current by the model
        #: server on admission / finalize and stored with each row.
        self.occupancy = 0.0
        self._counters = None
        self._tick_seconds = self.metrics.histogram("repro_tick_seconds").state()

    # -- spans -------------------------------------------------------------
    def span(self, name: str, tid: int = 0, **attrs):
        """Context manager timing one region (no-op when disabled)."""
        if not self.enabled:
            return NULL_SPAN
        return _SpanHandle(self, name, tid, attrs or None)

    # -- the per-tick record -----------------------------------------------
    def tick(self, tick: int, begin_ns: int, end_ns: int, spikes: int,
             messages_total: int, phases=(0, 0, 0, 0), queue_depth: int = 0,
             active: int = -1, n_neurons: int = 0, lanes: int = 0) -> None:
        """Record one finished tick: everything an enabled tick does.

        One :meth:`FlightRecorder.record` row (arguments as there, plus
        the current :attr:`occupancy`) and one ``repro_tick_seconds``
        observation.  Timestamps are integer ``now_ns`` readings, which
        keeps float arithmetic out of the integer kernels.
        """
        wall_ns = self.flight.record(
            tick, begin_ns, end_ns, spikes, messages_total, phases,
            queue_depth, active, n_neurons, lanes, self.occupancy,
        )
        self._tick_seconds.observe(wall_ns * 1e-9)

    def adopt(self, tid: int, ring: FlightRecorder) -> None:
        """Take over *ring*'s rows and sums as trace row *tid*.

        Called by the parallel engine at ``close()`` for each child
        rank's shared-memory ring; afterwards every read answers from
        this observer's own heap copy.
        """
        own = self.rings.get(tid)
        if own is None:
            own = self.rings[tid] = FlightRecorder(self.flight.capacity)
        own.extend(ring)

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
            metrics.counter("repro_active_neuron_updates_total").set(
                counters.active_neuron_updates
            )
        last = self.flight.rows(last=1)
        if last.size:
            row = last[0]
            metrics.gauge("repro_queue_depth").set(int(row["queue_depth"]))
            metrics.gauge("repro_tick_budget_ratio").set(
                int(row["wall_ns"]) / BUDGET_NS
            )
            metrics.gauge("repro_rtf").set(self.flight.real_time_factor())
            if row["active"] >= 0:
                metrics.gauge("repro_active_fraction").set(
                    float(row["active_fraction"])
                )
        for name, seconds in self.phase_seconds().items():
            if seconds:
                metrics.counter("repro_phase_seconds_total").set(seconds, phase=name)

    def event_snapshot(self) -> dict:
        """The deterministic event-metric subset of the snapshot.

        Identical across the reference, fast, and parallel engines for
        the same seeded network at matched message granularity — the
        cross-engine equivalence the obs test suite asserts bit-exactly.
        """
        snap = self.metrics.snapshot()
        return {name: snap.get(name, 0) for name in EVENT_METRICS}

    def phase_seconds(self) -> dict:
        """Accumulated wall-clock seconds per canonical tick phase.

        The rings' cumulative sums, so evicted ticks still count;
        summed over every rank on the parallel engine.
        """
        totals = [ring.totals_ns() for ring in list(self.rings.values())]
        return {
            name: sum(t[f"{name}_ns"] for t in totals) * 1e-9 for name in PHASES
        }

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
    engine they are summed over every rank: rank 0's as they happen, a
    child rank's once its rows have been adopted (at ``close()``).
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
