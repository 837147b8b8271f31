"""Cross-engine observability tests.

The obs layer's promise is uniformity: every engine reports the same
phase names, and the deterministic event metrics are bit-identical
across the reference, fast, and parallel expressions on the same
seeded network — message granularity matched by running the reference
at one core per rank and the parallel engine at one core per worker.
"""

import io
import json
import logging

import pytest

from repro.cli import main
from repro.compass.fast import FastCompassSimulator
from repro.compass.parallel import ParallelCompassSimulator
from repro.compass.simulator import CompassSimulator
from repro.core.builders import poisson_inputs, random_network
from repro.obs import PHASES, Observer, configure
from repro.obs.log import get_logger

TICKS = 20


@pytest.fixture(scope="module")
def network():
    return random_network(n_cores=4, connectivity=0.4, stochastic=True, seed=11)


@pytest.fixture(scope="module")
def inputs(network):
    return poisson_inputs(network, TICKS, 300.0, seed=3)


class TestPhaseParity:
    def test_fast_profile_reports_same_phase_names_as_compass(self, network, inputs):
        fast = FastCompassSimulator(network, obs=Observer())
        compass = CompassSimulator(network, obs=Observer())
        fast.run(TICKS, inputs)
        compass.run(TICKS, inputs)
        assert set(fast.phase_seconds) == set(compass.phase_seconds) == set(PHASES)
        for name in PHASES:
            assert fast.phase_seconds[name] > 0
            assert compass.phase_seconds[name] > 0

    def test_truenorth_records_the_same_row_once_selected_with_an_observer(self, network, inputs):
        # The hardware expression runs the per-core tick Compass runs, so
        # an observer threaded through select_engine gets the four-phase
        # row from it too, and the streaming runtime leaves the row to it.
        from repro.compass.engine import select_engine
        from repro.runtime.streaming import StreamingRuntime

        obs = Observer()
        chip = select_engine(network, "truenorth", obs=obs)
        assert not StreamingRuntime(chip, [], obs=obs)._records_ticks
        record = chip.run(TICKS, inputs)
        rows = obs.flight.rows()
        assert rows["tick"].tolist() == list(range(TICKS))
        assert int(rows["spikes"].sum()) == record.n_spikes
        assert all(chip.phase_seconds[name] > 0 for name in PHASES)
        assert record == select_engine(network, "truenorth").run(TICKS, inputs)

    def test_truenorth_built_directly_is_observed(self, network, inputs):
        # The observer goes through the constructor, as on Compass: no
        # select_engine needed, and nothing bound twice.
        from repro.hardware.simulator import TrueNorthSimulator

        obs = Observer()
        chip = TrueNorthSimulator(network, detailed_noc=True, obs=obs)
        assert chip.obs is obs
        record = chip.run(TICKS, inputs)
        rows = obs.flight.rows()
        assert rows["tick"].tolist() == list(range(TICKS))
        assert int(rows["spikes"].sum()) == record.n_spikes
        assert all(chip.phase_seconds[name] > 0 for name in PHASES)
        assert obs.event_snapshot()["repro_spikes_total"] == record.n_spikes

    def test_profiling_does_not_change_fast_results(self, network, inputs):
        a = FastCompassSimulator(network, obs=Observer()).run(TICKS, inputs)
        b = FastCompassSimulator(network).run(TICKS, inputs)
        assert a == b


class TestThreeWayEquivalence:
    def test_event_snapshots_bit_identical(self, network, inputs):
        """fast vs reference (core/rank) vs parallel (core/worker)."""
        snapshots = {}
        records = {}

        obs = Observer()
        records["fast"] = FastCompassSimulator(network, obs=obs).run(TICKS, inputs)
        snapshots["fast"] = obs.event_snapshot()

        obs = Observer()
        records["compass"] = CompassSimulator(
            network, n_ranks=network.n_cores, obs=obs
        ).run(TICKS, inputs)
        snapshots["compass"] = obs.event_snapshot()

        obs = Observer()
        sim = ParallelCompassSimulator(network, n_workers=network.n_cores, obs=obs)
        records["parallel"] = sim.run(TICKS, inputs)
        sim.close()
        snapshots["parallel"] = obs.event_snapshot()

        assert snapshots["fast"] == snapshots["compass"] == snapshots["parallel"]
        assert snapshots["fast"]["repro_ticks_total"] == TICKS
        assert snapshots["fast"]["repro_spikes_total"] > 0
        assert records["fast"] == records["compass"] == records["parallel"]


class TestParallelTraceMerge:
    def test_worker_spans_merged_by_rank(self, network, inputs):
        obs = Observer()
        sim = ParallelCompassSimulator(network, n_workers=2, obs=obs)
        sim.run(TICKS, inputs)
        sim.close()
        # Rank r is tid r: rank 0 wrote its rows in-process, with its
        # phases like any other rank; rank 1's were adopted at close().
        assert obs.trace.tids() == [0, 1]
        per_rank_phases = {
            tid: {s.name for s in obs.trace.spans() if s.tid == tid}
            for tid in (0, 1)
        }
        for names in per_rank_phases.values():
            assert set(PHASES) <= names
        # Merged view is tick-ordered across ranks.
        ticks = [s.tick for s in obs.trace.spans() if s.tick is not None]
        assert ticks == sorted(ticks)
        # Every rank's phase time feeds the uniform phase metric.
        assert sum(obs.phase_seconds()[p] for p in PHASES) > 0


    def test_totals_cover_a_run_longer_than_the_rank_ring(self, network, monkeypatch):
        """40 ticks through 8-row rings: the phase totals are all 40
        ticks' (the rings' cumulative sums), the spans the last 8."""
        from repro.obs import FlightRecorder, TraceBuffer

        obs = Observer(flight_capacity=8)  # sizes the per-rank rings too
        sim = ParallelCompassSimulator(network, n_workers=2, obs=obs)
        sim.load_inputs(poisson_inputs(network, 40, 300.0, seed=3))
        for _ in range(40):
            sim.step_arrays()
        rings = [obs.flight, *sim._worker_flights]  # rank 0's, then the child's
        assert [ring.recorded for ring in rings] == [40, 40]
        accumulated = [ring.totals_ns() for ring in rings]
        # Rank 0's phases count as they happen; the child's are adopted at close.
        assert sim.phase_seconds == {
            phase: accumulated[0][f"{phase}_ns"] * 1e-9 for phase in PHASES
        }

        per_record = []  # close() drains with array slices, not per record
        monkeypatch.setattr(FlightRecorder, "record",
                            lambda *a, **k: per_record.append("record"))
        monkeypatch.setattr(TraceBuffer, "add",
                            lambda *a, **k: per_record.append("add"))
        sim.close()
        monkeypatch.undo()
        assert per_record == []

        for phase in PHASES:
            total_ns = sum(t[f"{phase}_ns"] for t in accumulated)
            assert total_ns > 0
            assert obs.phase_seconds()[phase] == sim.phase_seconds[phase] == total_ns * 1e-9
            assert (f'repro_phase_seconds_total{{phase="{phase}"}} {total_ns * 1e-9}'
                    in obs.metrics.to_prometheus())
        for tid in (0, 1):
            kept = [s.tick for s in obs.trace.spans()
                    if s.tid == tid and s.name == "tick"]
            assert kept == list(range(32, 40))
            update_ns = sum(s.end_ns - s.begin_ns for s in obs.trace.spans()
                            if s.tid == tid and s.name == "update")
            assert 0 < update_ns < accumulated[tid]["update_ns"]


class TestEngineSelectionLogging:
    def test_selection_decision_logged(self, network):
        from repro.compass.engine import select_engine

        stream = io.StringIO()
        configure(level=logging.INFO, stream=stream, force=True)
        try:
            select_engine(network, "fast")
            text = stream.getvalue()
        finally:
            configure(force=True)
        assert "engine_selected" in text
        assert "engine=fast" in text
        assert "reason=" in text

    def test_stereo_build_logged(self):
        from repro.apps.stereo import build_stereo_pipeline

        stream = io.StringIO()
        configure(level=logging.INFO, stream=stream, force=True)
        try:
            build_stereo_pipeline(8)
            text = stream.getvalue()
        finally:
            configure(force=True)
        assert "stereo_pipeline_built" in text
        assert "repro.apps.stereo" in text

    def test_silent_by_default(self, network):
        from repro.compass.engine import select_engine

        stream = io.StringIO()
        configure(stream=stream, force=True)  # env default: WARNING
        try:
            select_engine(network, "fast")
            assert stream.getvalue() == ""
        finally:
            configure(force=True)

    def test_namespace_is_hierarchical(self):
        assert get_logger("repro.engine").name == "repro.engine"


class TestStreamingObs:
    def test_runtime_publishes_stream_metrics_and_frame_spans(self):
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

        scene = generate_scene(12, 20, n_frames=3, seed=2)
        obs = Observer()
        runtime = StreamingRuntime(
            compiled.network, compiled.inputs["in"],
            ticks_per_frame=5, engine="fast", obs=obs,
        )
        report = runtime.run(SceneSource(scene))

        snap = obs.metrics.snapshot()
        assert snap["repro_frames_total"] == report.frames == 3
        assert snap["repro_input_events_total"] == report.input_events
        assert snap["repro_output_spikes_total"] == report.output_spikes
        assert snap["repro_wall_seconds_total"] == pytest.approx(
            report.wall_seconds)
        # One frame span per frame, alongside the engine's tick spans.
        names = [s.name for s in obs.trace.spans()]
        assert names.count("frame") == 3
        assert names.count("tick") == report.ticks


class TestCli:
    def test_trace_builtin_parallel(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        metrics = tmp_path / "metrics.json"
        rc = main([
            "trace", "recurrent-stochastic", "--ticks", "10",
            "--engine", "parallel", "--workers", "2",
            "--out", str(out), "--metrics-out", str(metrics),
        ])
        assert rc == 0
        assert "wrote" in capsys.readouterr().out
        doc = json.loads(out.read_text())
        complete = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        tids = {e["tid"] for e in complete}
        assert tids == {0, 1}  # both ranks: the caller's own and the child's
        phase_names = {e["name"] for e in complete}
        assert set(PHASES) <= phase_names
        # Per-tick spans from all ranks appear in merged tick order.
        ticked = [e["args"]["tick"] for e in complete
                  if "args" in e and "tick" in e["args"]]
        assert ticked == sorted(ticked)
        snap = json.loads(metrics.read_text())
        assert snap["repro_ticks_total"] == 10

    def test_metrics_prometheus_to_stdout(self, capsys):
        rc = main(["metrics", "recurrent-deterministic", "--ticks", "5",
                   "--format", "prom"])
        assert rc == 0
        text = capsys.readouterr().out
        assert "# TYPE repro_spikes_total counter" in text
        assert "repro_ticks_total 5" in text

    def test_metrics_json_to_file(self, tmp_path, capsys):
        out = tmp_path / "metrics.json"
        rc = main(["metrics", "recurrent-deterministic", "--ticks", "5",
                   "--out", str(out)])
        assert rc == 0
        assert json.loads(out.read_text())["repro_ticks_total"] == 5
