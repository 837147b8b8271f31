"""repro.obs — unified tracing, metrics, and structured logging.

The telemetry layer shared by every kernel expression that takes
``obs=`` (Compass, sparse FastCompass and its batch lanes, TrueNorth)
and by the streaming and serving runtimes:

* **flight recorder** — the one per-tick record: a ring row per
  finished tick (wall time vs the 1 ms budget, the four phase
  durations, spikes, messages, occupancy) from which tick spans, phase
  seconds and gauges are read, plus crash-dump bundles under
  ``REPRO_CRASH_DIR`` (:mod:`repro.obs.flight`);
* **tracing** — :func:`Observer.span` for setup regions, merged on
  read with the spans synthesized from the flight rows and exportable
  as Chrome ``trace_event`` JSON (:mod:`repro.obs.trace`);
* **metrics** — one registry of counters/gauges/histograms under a
  uniform ``repro_*`` name catalogue with JSON and Prometheus export,
  its engine-owned values pulled by collectors at scrape time
  (:mod:`repro.obs.metrics`);
* **logging** — ``repro.*`` structured loggers, level set by
  ``REPRO_LOG_LEVEL`` (:mod:`repro.obs.log`);
* **telemetry server** — a stdlib HTTP thread exposing ``/metrics``,
  ``/health``, ``/ready``, ``/flight``, ``/trace`` over a live
  observer (:mod:`repro.obs.server`).

Instrumentation is opt-in per engine via ``obs=Observer()`` and
near-zero-cost when absent or disabled (``Observer(enabled=False)``); see
docs/observability.md for the span API, the metric name catalogue, and
the trace-viewer walkthrough.
"""

from repro.obs.flight import (
    BUDGET_NS,
    CRASH_DIR_ENV,
    FLIGHT_FIELDS,
    FlightRecorder,
    crash_dump_dir,
    write_crash_dump,
)
from repro.obs.log import StructuredLogger, configure, get_logger
from repro.obs.metrics import (
    CATALOGUE,
    EVENT_METRICS,
    MetricFamily,
    MetricsRegistry,
)
from repro.obs.observer import (
    NULL_SPAN,
    Observer,
    active_observer,
)
from repro.obs.server import (
    ENDPOINTS,
    TelemetryServer,
    evaluate_health,
)
from repro.obs.trace import PHASES, Span, TraceBuffer, now_ns

__all__ = [
    "BUDGET_NS",
    "CATALOGUE",
    "CRASH_DIR_ENV",
    "ENDPOINTS",
    "EVENT_METRICS",
    "FLIGHT_FIELDS",
    "FlightRecorder",
    "MetricFamily",
    "MetricsRegistry",
    "NULL_SPAN",
    "Observer",
    "PHASES",
    "Span",
    "StructuredLogger",
    "TelemetryServer",
    "TraceBuffer",
    "active_observer",
    "configure",
    "crash_dump_dir",
    "evaluate_health",
    "get_logger",
    "now_ns",
    "write_crash_dump",
]
