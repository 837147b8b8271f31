"""Tests for the telemetry HTTP plane (repro.obs.server) and repro top."""

import json
import urllib.error
import urllib.request

import pytest

from repro.cli import main as cli_main
from repro.core.builders import poisson_inputs, random_network
from repro.obs import Observer
from repro.obs.server import TelemetryServer, evaluate_health
from repro.runtime.serving import ModelServer


def small_net(seed=11):
    return random_network(
        n_cores=3, n_axons=12, n_neurons=12, stochastic=True, seed=seed
    )


def get(url, path):
    with urllib.request.urlopen(url + path, timeout=5.0) as resp:
        return resp.status, resp.read().decode("utf-8"), resp.headers


@pytest.fixture()
def observed_server():
    obs = Observer()
    server = TelemetryServer(obs, port=0)
    yield obs, server
    server.close()


class TestEvaluateHealth:
    def test_no_data_reports_ok_with_null_gauges(self):
        doc = evaluate_health(Observer())
        assert doc["status"] == "ok"
        assert doc["ticks"] == 0
        assert doc["real_time_factor"] is None
        assert doc["budget_ratio"] is None

    def test_slow_tick_degrades(self):
        obs = Observer()
        obs.tick(0, 0, 5_000_000, 0, 0)  # 5x the 1 ms budget
        doc = evaluate_health(obs)
        assert doc["status"] == "degraded"
        assert doc["budget_ratio"] == pytest.approx(5.0)

    def test_one_slow_tick_among_fast_ones_is_ok(self):
        # The rule reads the flight window, not its last row: a single
        # 50 ms hiccup on a shared host is not an engine running behind.
        obs = Observer()
        for tick in range(40):
            obs.tick(tick, 0, 300_000, 0, 0)
        obs.tick(40, 0, 50_000_000, 0, 0)
        doc = evaluate_health(obs)
        assert doc["status"] == "ok"
        assert doc["budget_ratio"] == pytest.approx(50.0)
        assert doc["slow_tick_share"] == pytest.approx(1 / 41)
        for tick in range(41, 90):  # ... but a run of them is
            obs.tick(tick, 0, 2_500_000, 0, 0)
        assert evaluate_health(obs)["status"] == "degraded"

    def test_one_real_time_factor_beyond_the_window(self):
        # 744 slow ticks then a window's worth of fast ones: every
        # real-time factor in the document covers the whole ring, as the
        # gauge does; only the degraded rule reads the trailing window.
        from repro.obs.server import HEALTH_WINDOW

        obs = Observer()
        for tick in range(1000 - HEALTH_WINDOW):
            obs.tick(tick, 0, 4_000_000, 0, 0)
        for tick in range(1000 - HEALTH_WINDOW, 1000):
            obs.tick(tick, 0, 500_000, 0, 0)
        doc = evaluate_health(obs)
        snap = obs.metrics.snapshot()
        assert doc["real_time_factor"] == doc["flight"]["real_time_factor"] == snap["repro_rtf"]
        assert doc["flight"]["ticks"] == doc["ticks"] == 1000
        assert doc["real_time_factor"] == pytest.approx(1000 / 3104)
        assert doc["slow_tick_share"] == 0.0 and doc["status"] == "ok"

    def test_dead_probe_fails(self):
        obs = Observer()
        obs.tick(0, 0, 100_000, 0, 0)
        doc = evaluate_health(obs, {"engine": lambda: False})
        assert doc["status"] == "failed"
        assert doc["workers"] == {"engine": False}

    def test_raising_probe_counts_as_dead(self):
        def boom():
            raise RuntimeError("probe crashed")

        doc = evaluate_health(Observer(), {"w0": boom, "w1": lambda: True})
        assert doc["status"] == "failed"
        assert doc["workers"] == {"w0": False, "w1": True}


class TestTelemetryServer:
    def test_ephemeral_port_and_url(self, observed_server):
        _, server = observed_server
        assert server.port > 0
        assert server.url == f"http://127.0.0.1:{server.port}"

    def test_metrics_endpoint_prometheus(self, observed_server):
        obs, server = observed_server
        obs.metrics.counter("repro_ticks_total").inc(7)
        status, body, headers = get(server.url, "/metrics")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        assert "version=0.0.4" in headers["Content-Type"]
        assert "# TYPE repro_ticks_total counter" in body
        assert "repro_ticks_total 7" in body

    def test_health_and_ready_lifecycle(self, observed_server):
        obs, server = observed_server
        with pytest.raises(urllib.error.HTTPError) as err:
            get(server.url, "/ready")
        assert err.value.code == 503  # no tick recorded yet
        obs.tick(0, 0, 200_000, 1, 1)
        status, body, _ = get(server.url, "/ready")
        assert (status, json.loads(body)) == (200, {"ready": True})
        status, body, _ = get(server.url, "/health")
        doc = json.loads(body)
        assert doc["status"] == "ok"
        assert doc["real_time_factor"] > 0
        assert doc["flight"]["ticks"] == 1

    def test_health_503_on_dead_liveness(self, observed_server):
        obs, server = observed_server
        server.add_liveness("engine", lambda: False)
        with pytest.raises(urllib.error.HTTPError) as err:
            get(server.url, "/health")
        assert err.value.code == 503
        doc = json.loads(err.value.read().decode("utf-8"))
        assert doc["status"] == "failed"

    def test_flight_endpoint_with_tail(self, observed_server):
        obs, server = observed_server
        for t in range(5):
            obs.tick(t, 0, 100_000, t, t)
        status, body, _ = get(server.url, "/flight?last=2")
        doc = json.loads(body)
        assert status == 200
        assert len(doc["rows"]) == 2
        assert doc["rows"][-1][0] == 4.0
        with pytest.raises(urllib.error.HTTPError) as err:
            get(server.url, "/flight?last=nope")
        assert err.value.code == 400

    def test_trace_endpoint_chrome_format(self, observed_server):
        obs, server = observed_server
        with obs.span("unit-span"):
            pass
        _, body, _ = get(server.url, "/trace")
        events = json.loads(body)["traceEvents"]
        assert any(ev["name"] == "unit-span" for ev in events)

    def test_unknown_endpoint_404(self, observed_server):
        _, server = observed_server
        with pytest.raises(urllib.error.HTTPError) as err:
            get(server.url, "/nope")
        assert err.value.code == 404

    def test_requests_counted_per_endpoint(self, observed_server):
        obs, server = observed_server
        get(server.url, "/metrics")
        get(server.url, "/metrics")
        counter = obs.metrics.counter("repro_telemetry_requests_total")
        assert counter.value(endpoint="/metrics") == 2

    def test_context_manager_closes(self):
        with TelemetryServer(Observer(), port=0) as server:
            url = server.url
            get(url, "/metrics")
        with pytest.raises((urllib.error.URLError, OSError)):
            get(url, "/metrics")


class TestModelServerTelemetry:
    def test_end_to_end_serving_telemetry(self):
        net = small_net()
        server = ModelServer(net, n_lanes=2, telemetry_port=0)
        try:
            url = server.telemetry.url
            for i in range(3):
                server.submit(poisson_inputs(net, 20, 300.0, seed=i), 20)
            server.run()
            status, body, _ = get(url, "/health")
            doc = json.loads(body)
            assert doc["status"] == "ok"
            assert doc["real_time_factor"] > 0
            assert doc["workers"] == {"engine": True}
            _, body, _ = get(url, "/metrics")
            assert "repro_session_latency_seconds_bucket" in body
            assert "repro_rtf" in body
            _, body, _ = get(url, "/flight")
            assert json.loads(body)["summary"]["ticks"] > 0
        finally:
            server.close()
        assert server.telemetry is None

    def test_failed_engine_surfaces_in_health(self, monkeypatch):
        net = small_net()
        server = ModelServer(net, n_lanes=2, telemetry_port=0)
        try:
            server.submit(poisson_inputs(net, 5, 300.0, seed=0), 5)

            def boom():
                raise RuntimeError("injected pass failure")

            monkeypatch.setattr(server.engine, "step_arrays", boom)
            with pytest.raises(RuntimeError, match="injected"):
                server.step()
            with pytest.raises(urllib.error.HTTPError) as err:
                get(server.telemetry.url, "/health")
            assert err.value.code == 503
        finally:
            server.close()


class TestTopCli:
    def test_top_renders_health(self, capsys):
        obs = Observer()
        obs.tick(0, 0, 400_000, 3, 6)
        with TelemetryServer(obs, port=0) as server:
            rc = cli_main(["top", "--url", server.url,
                           "--iterations", "2", "--interval", "0",
                           "--plain"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "repro top" in out
        assert "real-time factor" in out
        assert out.count("status") == 2  # two polls rendered

    def test_top_unreachable_exits_nonzero(self, capsys):
        rc = cli_main(["top", "--url", "http://127.0.0.1:9",
                       "--iterations", "1"])
        assert rc == 1
        assert "unreachable" in capsys.readouterr().err


class TestServeCliTelemetry:
    def test_serve_prints_url_and_linger_zero_exits(self, capsys):
        rc = cli_main([
            "serve", "recurrent-deterministic", "--sessions", "2",
            "--lanes", "2",
            "--ticks", "10", "--telemetry-port", "0",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "telemetry: http://127.0.0.1:" in out
        assert "sessions completed" in out
