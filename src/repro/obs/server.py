"""Telemetry HTTP plane: /metrics, /health, /ready, /flight, /trace.

A stdlib :class:`http.server.ThreadingHTTPServer` on a daemon thread,
serving one :class:`~repro.obs.observer.Observer`'s registry, flight
ring, and span trace while an engine runs — every value pulled from the
rows and the engine's counters by the request that asks for it.  No
third-party dependencies — the exporters already speak the Prometheus
text format and JSON, the server only routes:

========== =============================================================
endpoint   payload
========== =============================================================
/metrics   Prometheus text exposition (``text/plain; version=0.0.4``)
/health    JSON health document (:func:`evaluate_health`); HTTP 503
           when any liveness probe reports dead
/ready     ``{"ready": true}`` once at least one tick has been
           recorded; 503 before that (load-balancer warm-up gate)
/flight    the flight ring as JSON (``?last=N`` for the tail)
/trace     setup spans plus the tick and phase spans read from the
           flight rows, as a Chrome ``trace_event`` JSON document
========== =============================================================

Wired into :class:`~repro.runtime.serving.ModelServer` and
:class:`~repro.runtime.streaming.StreamingRuntime` via
``telemetry_port=`` (0 picks an ephemeral port, exposed as ``.port``).
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse

from repro.obs.flight import BUDGET_NS
from repro.obs.log import get_logger

log = get_logger("repro.obs.server")

#: Endpoints counted in ``repro_telemetry_requests_total``.
ENDPOINTS = ("/metrics", "/health", "/ready", "/flight", "/trace")

PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: Ticks of the flight ring /health judges (and summarizes).
HEALTH_WINDOW = 256
#: /health reads ``degraded`` when more than this share of the window
#: ran over 2x the tick budget: the window's median tick is that slow.
SLOW_SHARE = 0.5


def evaluate_health(obs, liveness: dict | None = None) -> dict:
    """Build the /health document from an observer's live telemetry.

    Status is ``ok`` while every liveness probe passes and the engine
    keeps up, ``degraded`` when it is running behind — more than
    :data:`SLOW_SHARE` of the flight window (the last
    :data:`HEALTH_WINDOW` ticks at most) took over 2x the 1 ms budget,
    e.g. batch passes advancing many lanes — and ``failed`` when a
    worker probe reports dead.  A statement about the window, not the
    last tick: one slow tick on a shared host is not a slow engine.
    Everything is read from the flight ring (and the observer's live
    occupancy), not from gauges; before the first recorded tick the
    real-time factor and budget ratio are ``null``, never a false alarm.
    """
    workers = {}
    alive = True
    for name, probe in (liveness or {}).items():
        try:
            ok = bool(probe())
        except Exception:  # a dead probe is a dead worker
            ok = False
        workers[name] = ok
        alive = alive and ok

    ticks = len(obs.flight) if obs is not None else 0
    rtf = budget_ratio = None
    queue_depth = slow_share = 0.0
    if ticks:
        window = obs.flight.rows(last=HEALTH_WINDOW)
        rtf = obs.flight.real_time_factor()
        budget_ratio = int(window["wall_ns"][-1]) / BUDGET_NS
        queue_depth = float(window["queue_depth"][-1])
        slow_share = float((window["wall_ns"] > 2 * BUDGET_NS).mean())

    if not alive:
        status = "failed"
    elif slow_share > SLOW_SHARE:
        status = "degraded"
    else:
        status = "ok"

    doc = {
        "status": status,
        "ticks": ticks,
        "real_time_factor": rtf,
        "budget_ratio": budget_ratio,
        "slow_tick_share": slow_share,
        "queue_depth": queue_depth,
        "occupancy": float(obs.occupancy) if obs is not None else 0.0,
        "workers": workers,
    }
    if ticks:
        doc["flight"] = obs.flight.summary(last=HEALTH_WINDOW)
    return doc


class _Handler(BaseHTTPRequestHandler):
    """Routes one observer; instantiated per request by http.server."""

    # set by TelemetryServer via type(); silences the default stderr log
    server_version = "repro-telemetry"

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        log.debug("obs.http", request=format % args)

    def _send(self, status: int, body: bytes, content_type: str) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_json(self, status: int, doc) -> None:
        self._send(status, json.dumps(doc, indent=2).encode("utf-8"),
                   "application/json")

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        parsed = urlparse(self.path)
        route = parsed.path.rstrip("/") or "/"
        telemetry = self.server.telemetry  # type: ignore[attr-defined]
        obs = telemetry.obs
        if route in ENDPOINTS and obs is not None:
            obs.metrics.counter("repro_telemetry_requests_total").inc(
                endpoint=route)
        if route == "/metrics":
            body = obs.metrics.to_prometheus() if obs is not None else ""
            self._send(200, body.encode("utf-8"), PROMETHEUS_CONTENT_TYPE)
        elif route == "/health":
            doc = evaluate_health(obs, telemetry.liveness)
            self._send_json(503 if doc["status"] == "failed" else 200, doc)
        elif route == "/ready":
            ready = obs is not None and len(obs.flight) > 0
            self._send_json(200 if ready else 503, {"ready": ready})
        elif route == "/flight":
            if obs is None:
                self._send_json(404, {"error": "no flight recorder attached"})
                return
            query = parse_qs(parsed.query)
            last = None
            if "last" in query:
                try:
                    last = max(1, int(query["last"][0]))
                except ValueError:
                    self._send_json(400, {"error": "last must be an integer"})
                    return
            self._send_json(200, obs.flight.to_json(last))
        elif route == "/trace":
            events = obs.trace.chrome_trace_events() if obs is not None else []
            self._send_json(200, {"traceEvents": events})
        else:
            self._send_json(404, {"error": f"unknown endpoint {route!r}",
                                  "endpoints": list(ENDPOINTS)})


class TelemetryServer:
    """Background HTTP server over one observer's live telemetry.

    ``port=0`` binds an ephemeral port (read it back from ``.port`` /
    ``.url``).  *liveness* maps probe names to zero-argument callables
    returning truthy-while-alive; runtimes register their worker /
    engine probes via :meth:`add_liveness`.  The server thread is a
    daemon: it never blocks interpreter exit, but call :meth:`close`
    for a deterministic shutdown (the runtimes do, from their own
    ``close()``).
    """

    def __init__(self, obs, port: int = 0, host: str = "127.0.0.1",
                 liveness: dict | None = None) -> None:
        self.obs = obs
        self.liveness: dict = dict(liveness or {})
        self._httpd = ThreadingHTTPServer((host, port), _Handler)
        self._httpd.daemon_threads = True
        self._httpd.telemetry = self  # type: ignore[attr-defined]
        self.host, self.port = self._httpd.server_address[:2]
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, name="repro-telemetry",
            daemon=True)
        self._thread.start()
        log.info("obs.telemetry_started", url=self.url)

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def add_liveness(self, name: str, probe) -> None:
        """Register/replace one liveness probe (name -> callable)."""
        self.liveness[name] = probe

    def close(self) -> None:
        """Stop serving and join the server thread."""
        self._httpd.shutdown()
        self._httpd.server_close()
        self._thread.join(timeout=5.0)
        log.info("obs.telemetry_stopped", url=self.url)

    def __enter__(self) -> "TelemetryServer":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False
