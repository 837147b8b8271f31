"""Tests for the flight recorder and crash-dump bundles (repro.obs.flight)."""

import json

import numpy as np
import pytest

from repro.compass.fast import FastCompassSimulator
from repro.core.builders import poisson_inputs, random_network
from repro.obs import PHASES, Observer
from repro.obs.flight import (
    BUDGET_NS,
    FLIGHT_FIELDS,
    ROW_DTYPE,
    FlightRecorder,
    write_crash_dump,
)


class TestFlightRecorder:
    def test_empty_ring_is_well_defined(self):
        rec = FlightRecorder(capacity=8)
        assert len(rec) == 0
        assert rec.rows().shape == (0,)
        assert rec.rows().dtype == ROW_DTYPE
        assert rec.real_time_factor() == 0.0
        summary = rec.summary()
        assert summary["ticks"] == 0
        assert summary["budget_compliance"] == 1.0
        assert summary["real_time_factor"] == 0.0

    def test_record_and_read_back(self):
        rec = FlightRecorder(capacity=8)
        begin = 2**55 + 1  # past float64's exact integers
        rec.record(0, begin, begin + 500_000, spikes=3, messages_total=10,
                   phases=(100, 200, 150, 50), queue_depth=4,
                   active=6, n_neurons=24)
        rec.record(1, begin + 600_000, begin + 2_600_000, spikes=1,
                   messages_total=14)
        rows = rec.rows()
        assert rows.shape == (2,)
        assert rows.dtype.names == FLIGHT_FIELDS
        assert rows["tick"].tolist() == [0, 1]
        assert rows["wall_ns"].tolist() == [500_000, 2_000_000]
        assert rows["spikes"].tolist() == [3, 1]
        # messages column stores per-tick deltas of the cumulative total
        assert rows["messages"].tolist() == [10, 4]
        assert rows["begin_ns"].tolist() == [begin, begin + 600_000]
        assert rows["queue_depth"].tolist() == [4, 0]
        assert rows["active"].tolist() == [6, -1]
        assert rows["active_fraction"].tolist() == [0.25, 1.0]
        assert [rows[f"{p}_ns"][0] for p in PHASES] == [100, 200, 150, 50]

    def test_message_counter_reset_restarts_baseline(self):
        rec = FlightRecorder(capacity=4)
        rec.record(0, 0, 1000, messages_total=50)
        rec.record(0, 0, 1000, messages_total=3)  # lane reset: total fell
        assert rec.column("messages").tolist() == [50, 3]

    def test_ring_overwrites_oldest(self):
        rec = FlightRecorder(capacity=4)
        for t in range(10):
            rec.record(t, 0, 1000 * (t + 1), spikes=t)
        assert len(rec) == 4
        assert rec.recorded == 10
        assert rec.column("tick").tolist() == [6, 7, 8, 9]
        assert rec.rows(last=2)["tick"].tolist() == [8, 9]
        assert rec.column("spikes").tolist() == [6, 7, 8, 9]

    def test_cumulative_sums_survive_eviction(self):
        rec = FlightRecorder(capacity=4)
        for t in range(10):
            rec.record(t, 0, 100, phases=(1, 2, 3, 4))
        assert rec.totals_ns() == {
            "wall_ns": 1000, "deliver_ns": 10, "integrate_ns": 20,
            "update_ns": 30, "route_ns": 40,
        }
        assert int(rec.column("update_ns").sum()) == 12  # the window alone

    def test_windowed_real_time_factor_tracks_eviction(self):
        rec = FlightRecorder(capacity=4)
        for _ in range(4):
            rec.record(0, 0, 2 * BUDGET_NS)  # half real time
        assert rec.real_time_factor() == pytest.approx(0.5)
        for _ in range(4):
            rec.record(0, 0, BUDGET_NS // 2)  # evicts the slow rows
        assert rec.real_time_factor() == pytest.approx(2.0)

    def test_summary_budget_accounting(self):
        rec = FlightRecorder(capacity=8)
        rec.record(0, 0, BUDGET_NS // 2, spikes=2, messages_total=5)
        rec.record(1, 0, 3 * BUDGET_NS, spikes=0, messages_total=5)
        s = rec.summary()
        assert s["ticks"] == 2
        assert s["budget_compliance"] == pytest.approx(0.5)
        assert s["budget_ratio_last"] == pytest.approx(3.0)
        assert s["budget_ratio_max"] == pytest.approx(3.0)
        assert s["max_tick_ms"] == pytest.approx(3.0)
        assert s["spikes"] == 2 and s["messages"] == 5

    def test_to_json_shape(self):
        rec = FlightRecorder(capacity=4)
        rec.record(0, 0, 1000, 1, 2)
        doc = rec.to_json()
        assert doc["fields"] == list(FLIGHT_FIELDS)
        assert doc["fields"][0] == "tick"
        assert doc["budget_ns"] == BUDGET_NS
        assert doc["capacity"] == 4 and doc["recorded"] == 1
        assert doc["dropped"] == 0
        assert len(doc["rows"]) == 1
        assert len(doc["rows"][0]) == len(FLIGHT_FIELDS)
        json.dumps(doc)  # must be JSON-serializable as-is

    def test_dump_writes_npz_and_json(self, tmp_path):
        rec = FlightRecorder(capacity=8)
        for t in range(3):
            rec.record(t, 0, 1000, t, t)
        npz_path, json_path = rec.dump(str(tmp_path))
        with np.load(npz_path) as data:
            assert data["rows"].shape == (3,)
            assert data["rows"].dtype == ROW_DTYPE
            assert list(data["fields"]) == list(FLIGHT_FIELDS)
            assert int(data["budget_ns"]) == BUDGET_NS
        doc = json.loads((tmp_path / "flight.json").read_text())
        assert doc["summary"]["ticks"] == 3
        assert "rows" not in doc  # bulk data lives in the .npz

    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError, match="capacity"):
            FlightRecorder(capacity=0)


class TestAdoption:
    """extend(): how the parallel engine takes over a child rank's ring."""

    def test_extend_adopts_rows_and_sums_past_eviction(self):
        worker = FlightRecorder(4, bytearray(FlightRecorder.nbytes(4)))
        for t in range(6):
            worker.record(t, 10 * t, 10 * t + 8, phases=(1, 2, 3, 1))
        own = FlightRecorder(capacity=8)
        own.extend(worker)
        assert own.column("tick").tolist() == [2, 3, 4, 5]
        assert own.totals_ns()["integrate_ns"] == 12  # all six ticks
        own.extend(worker)  # a second run's rows append, sums add
        assert own.column("tick").tolist() == [2, 3, 4, 5, 2, 3, 4, 5]
        assert own.totals_ns()["integrate_ns"] == 24
        own.record(9, 0, 5)  # the cursor stays consistent for the writer
        assert own.column("tick").tolist() == [3, 4, 5, 2, 3, 4, 5, 9]

    def test_release_drops_the_buffer_views(self):
        buf = bytearray(FlightRecorder.nbytes(2))
        rec = FlightRecorder(2, buf)
        rec.record(0, 0, 1)
        rec.release()
        assert len(rec) == 0
        buf.clear()  # no exported view left: resizing is allowed


class TestObserverFlightTick:
    def test_engine_hook_populates_ring_and_gauges(self):
        net = random_network(n_cores=3, n_axons=12, n_neurons=12, seed=5)
        ins = poisson_inputs(net, 10, 400.0, seed=1)
        obs = Observer()
        sim = FastCompassSimulator(net, obs=obs)
        sim.run(10, ins)
        assert len(obs.flight) == 10
        rows = obs.flight.rows()
        assert rows["tick"].tolist() == list(range(10))
        assert (rows["wall_ns"] > 0).all()  # every tick took wall time
        assert (np.diff(rows["begin_ns"]) > 0).all()
        # spikes column totals the engine's spike counter
        assert int(rows["spikes"].sum()) == sim.counters.spikes
        assert int(rows["messages"].sum()) == sim.counters.messages
        snap = obs.metrics.snapshot()  # gauges are pulled from the last row
        assert snap["repro_rtf"] == obs.flight.real_time_factor() > 0.0
        assert snap["repro_tick_budget_ratio"] == rows["wall_ns"][-1] / BUDGET_NS
        # the four marks are contiguous: the phases sum to the whole tick
        phases = sum(rows[f"{p}_ns"] for p in PHASES)
        assert (phases == rows["wall_ns"]).all()

    def test_disabled_observer_records_nothing(self):
        net = random_network(n_cores=2, n_axons=8, n_neurons=8, seed=7)
        obs = Observer(enabled=False)
        sim = FastCompassSimulator(net, obs=obs)
        sim.run(5, poisson_inputs(net, 5, 300.0, seed=2))
        assert len(obs.flight) == 0
        assert "repro_rtf" not in obs.metrics.snapshot()


class TestCrashDumps:
    def test_disabled_without_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_CRASH_DIR", raising=False)
        assert write_crash_dump(Observer(), "unit-test") is None

    def test_bundle_layout(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CRASH_DIR", str(tmp_path))
        obs = Observer()
        obs.tick(0, 0, 1_000_000, 2, 4)
        try:
            raise RuntimeError("distinctive-crash-detail")
        except RuntimeError as err:
            bundle = write_crash_dump(obs, "unit-test", detail="d", exc=err)
        assert bundle is not None
        manifest = json.loads((tmp_path / bundle.split("/")[-1] /
                               "manifest.json").read_text())
        assert manifest["reason"] == "unit-test"
        assert "distinctive-crash-detail" in manifest["exception"]
        assert manifest["flight_summary"]["ticks"] == 1
        for name in ("flight.npz", "flight.json", "metrics.json",
                     "trace.json"):
            assert (tmp_path / bundle.split("/")[-1] / name).exists()
        assert obs.metrics.counter("repro_crash_dumps_total").value() == 1

    def test_no_observer_writes_manifest_only(self, tmp_path):
        bundle = write_crash_dump(None, "bare", crash_dir=str(tmp_path))
        files = sorted(p.name for p in
                       (tmp_path / bundle.split("/")[-1]).iterdir())
        assert files == ["manifest.json"]

    def test_marked_exception_is_not_dumped_twice(self, tmp_path):
        err = RuntimeError("once")
        first = write_crash_dump(None, "first", exc=err,
                                 crash_dir=str(tmp_path))
        second = write_crash_dump(None, "second", exc=err,
                                  crash_dir=str(tmp_path))
        assert first is not None and second is None
        assert len(list(tmp_path.iterdir())) == 1

    def test_worker_kill_produces_bundle_with_flight_ring(
            self, tmp_path, monkeypatch):
        # The acceptance-criterion path: a killed parallel worker leaves
        # a postmortem bundle holding a non-empty flight ring.
        from repro.compass.parallel import (
            ParallelCompassSimulator,
            WorkerFailedError,
        )

        monkeypatch.setenv("REPRO_CRASH_DIR", str(tmp_path))
        net = random_network(n_cores=4, connectivity=0.6, seed=41)
        obs = Observer()
        sim = ParallelCompassSimulator(net, n_workers=2, obs=obs)
        sim.step()  # one clean tick so the flight ring is non-empty
        sim._procs[0].kill()
        sim._procs[0].join(timeout=5)
        with pytest.raises(WorkerFailedError):
            for _ in range(3):
                sim.step()
        bundles = [p for p in tmp_path.iterdir() if p.name.startswith("crash-")]
        assert len(bundles) == 1
        manifest = json.loads((bundles[0] / "manifest.json").read_text())
        assert manifest["reason"].startswith("worker_failed")
        with np.load(bundles[0] / "flight.npz") as data:
            assert data["rows"].shape[0] >= 1  # the ring is non-empty
        assert (bundles[0] / "metrics.json").exists()
        assert (bundles[0] / "trace.json").exists()
