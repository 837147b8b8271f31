"""The one tick record: an enabled observer writes one ring row per tick.

Three guarantees of the pull design, across every expression that takes
``obs=`` (and the reference kernel under ``StreamingRuntime``, which the
runtime records for):

* a ratchet — a steady-state tick makes no span, gauge or counter write,
  only its one row;
* one schema — spans, ``phase_seconds``, the Prometheus samples, the
  ``/health`` document and ``event_snapshot()`` are views of the same
  rows and the same live ``EventCounters``;
* scrapes stay well-formed while an engine or a server shuts down.
"""

import json
import socketserver
import sys
import threading
import urllib.error
import urllib.request

import pytest

from repro.compass.batched import BatchedCompassSimulator
from repro.compass.fast import FastCompassSimulator
from repro.compass.simulator import CompassSimulator
from repro.core.builders import poisson_inputs, random_network
from repro.core.kernel import ReferenceKernel
from repro.obs import (
    ENDPOINTS,
    EVENT_METRICS,
    PHASES,
    MetricFamily,
    Observer,
    TraceBuffer,
    evaluate_health,
)
from repro.runtime.serving import ModelServer

TICKS = 24

ENGINES = {
    "fast": lambda net, obs: FastCompassSimulator(net, obs=obs),
    "compass": lambda net, obs: CompassSimulator(net, n_ranks=2, obs=obs),
    "batched": lambda net, obs: BatchedCompassSimulator(net, 3, obs=obs),
}


@pytest.fixture(scope="module")
def network():
    return random_network(n_cores=4, connectivity=0.4, stochastic=True, seed=11)


@pytest.fixture(scope="module")
def inputs(network):
    return poisson_inputs(network, 2 * TICKS, 300.0, seed=3)


class TestRatchet:
    @pytest.mark.parametrize("engine", sorted(ENGINES))
    def test_steady_tick_is_one_ring_write(self, engine, network, inputs, monkeypatch):
        obs = Observer()
        sim = ENGINES[engine](network, obs)
        sim.load_inputs(inputs)
        for _ in range(3):  # first-tick set-up
            sim.step()
        written = obs.flight.recorded
        calls = []
        for cls, name in ((TraceBuffer, "add"), (MetricFamily, "set"),
                          (MetricFamily, "inc")):
            monkeypatch.setattr(
                cls, name, lambda *a, _n=name, **k: calls.append(_n)
            )
        step = getattr(sim, "step_arrays", sim.step)  # compass: step() only
        for _ in range(20):
            step()
        monkeypatch.undo()
        assert calls == []
        assert obs.flight.recorded - written == 20
        assert obs.metrics.snapshot()["repro_tick_seconds"]["count"] == 23


def _phase_samples(prom: str) -> dict:
    out = {}
    for line in prom.splitlines():
        if line.startswith("repro_phase_seconds_total{"):
            labels, value = line.split(" ")
            out[labels.split('"')[1]] = float(value)
    return out


def _span_seconds(obs) -> dict:
    ns = dict.fromkeys(PHASES, 0)
    for span in obs.trace.spans():
        if span.name in ns:
            ns[span.name] += span.end_ns - span.begin_ns
    return {name: total * 1e-9 for name, total in ns.items()}


class TestOneSchema:
    @pytest.mark.parametrize("engine", sorted(ENGINES))
    def test_every_view_reads_the_same_numbers(self, engine, network, inputs):
        obs = Observer()
        sim = ENGINES[engine](network, obs)
        sim.load_inputs(inputs)
        for _ in range(TICKS // 2):
            sim.step()
        ckpt = sim.snapshot()
        before = sim.counters
        for _ in range(TICKS // 2):
            sim.step()
        later = obs.event_snapshot()
        sim.restore(ckpt)  # rebinds sim.counters to the checkpoint's
        assert engine == "batched" or sim.counters is not before
        snap = obs.event_snapshot()
        assert snap != later
        for name, attr in EVENT_METRICS.items():
            assert snap[name] == getattr(sim.counters, attr), name

        seconds = obs.phase_seconds()
        assert seconds == _span_seconds(obs)
        if engine != "batched":  # the one engine without the property
            assert seconds == sim.phase_seconds
        assert seconds == _phase_samples(obs.metrics.to_prometheus())
        assert all(seconds[name] > 0 for name in PHASES)
        health = evaluate_health(obs)
        assert health["ticks"] == len(obs.flight) == TICKS
        assert health["real_time_factor"] == obs.flight.summary()["real_time_factor"]
        assert health["budget_ratio"] == obs.flight.summary()["budget_ratio_last"]
        snap = obs.metrics.snapshot()  # the gauges are the same reads
        assert snap["repro_rtf"] == health["real_time_factor"]
        assert snap["repro_tick_budget_ratio"] == health["budget_ratio"]
        assert snap["repro_queue_depth"] == health["queue_depth"]
        assert snap["repro_queue_depth"] == obs.flight.rows(last=1)["queue_depth"][0] > 0

    def test_reference_kernel_is_recorded_by_the_runtime(self):
        from repro.apps.video import generate_scene
        from repro.corelets.corelet import Composition
        from repro.corelets.library.basic import relay
        from repro.runtime.streaming import SceneSource, StreamingRuntime

        comp = Composition(seed=0)
        r = relay(12 * 20)
        comp.add(r)
        comp.export_input("in", r.inputs["in"])
        comp.export_output("out", r.outputs["out"])
        compiled = comp.compile()
        obs = Observer()
        kernel = ReferenceKernel(compiled.network)  # takes no observer
        runtime = StreamingRuntime(
            kernel, compiled.inputs["in"], ticks_per_frame=4, obs=obs
        )
        report = runtime.run(SceneSource(generate_scene(12, 20, n_frames=2, seed=2)))

        rows = obs.flight.rows()
        assert rows["tick"].tolist() == list(range(report.ticks))
        assert int(rows["spikes"].sum()) == report.output_spikes
        # A row without phase timings: the whole-tick span and nothing else.
        names = [s.name for s in obs.trace.spans()]
        assert names.count("tick") == report.ticks and not set(PHASES) & set(names)
        assert obs.phase_seconds() == _span_seconds(obs) == dict.fromkeys(PHASES, 0.0)
        assert _phase_samples(obs.metrics.to_prometheus()) == {}
        health = evaluate_health(obs)
        assert health["real_time_factor"] == obs.flight.summary()["real_time_factor"]

    def test_engine_holding_the_observer_is_not_recorded_twice(self, network):
        from repro.runtime.streaming import StreamingRuntime

        obs = Observer()
        own = StreamingRuntime(FastCompassSimulator(network, obs=obs), [], obs=obs)
        other = StreamingRuntime(FastCompassSimulator(network, obs=Observer()), [], obs=obs)
        assert not own._records_ticks and other._records_ticks


class _Hammer(threading.Thread):
    """GET every endpoint in a loop until stopped; keep what came back."""

    def __init__(self, url: str) -> None:
        super().__init__(daemon=True)
        self.url = url
        self.stop = threading.Event()
        self.closing = threading.Event()
        self.responses: list[tuple[str, int, str]] = []
        self.refused_early: list[str] = []

    def get(self, path: str) -> None:
        try:
            with urllib.request.urlopen(self.url + path, timeout=5.0) as resp:
                self.responses.append((path, resp.status, resp.read().decode()))
        except urllib.error.HTTPError as err:
            self.responses.append((path, err.code, err.read().decode()))
        except (urllib.error.URLError, OSError) as err:
            if not self.closing.is_set():  # no listener is fine once closing
                self.refused_early.append(f"{path}: {err}")

    def run(self) -> None:
        while not self.stop.is_set():
            for path in ENDPOINTS:
                self.get(path)

    def check(self) -> None:
        assert self.refused_early == []
        assert {path for path, _, _ in self.responses} == set(ENDPOINTS)
        for path, status, body in self.responses:
            assert status in (200, 503), (path, status, body)
            if path == "/metrics":
                for line in body.splitlines():
                    if line and not line.startswith("#"):
                        float(line.rsplit(" ", 1)[1])
            else:
                json.loads(body)


@pytest.fixture()
def handler_errors(monkeypatch):
    """Exceptions the HTTP server threads would have logged."""
    errors = []
    monkeypatch.setattr(
        socketserver.BaseServer, "handle_error",
        lambda self, request, client: errors.append(sys.exc_info()[1]),
    )
    return errors


class TestScrapeUnderShutdown:
    def test_model_server_drains_and_closes_under_scrape(self, network, handler_errors):
        server = ModelServer(network, n_lanes=2, telemetry_port=0)
        hammer = _Hammer(server.telemetry.url)
        hammer.start()
        try:
            for i in range(5):
                server.submit(poisson_inputs(network, 30, 300.0, seed=i), 30)
            sessions = server.run()
            hammer.closing.set()
            server.close()
        finally:
            hammer.stop.set()
            hammer.join(timeout=30)
        assert not hammer.is_alive()
        assert len(sessions) == 5
        hammer.check()
        assert handler_errors == []
        snap = server.obs.metrics.snapshot()  # the collector outlives close()
        assert snap["repro_sessions_completed_total"] == 5
        assert snap["repro_batch_occupancy"] == 0.0
