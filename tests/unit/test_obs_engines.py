"""Cross-engine observability tests.

The obs layer's promise is uniformity: every engine reports the same
phase names and the same event metrics, read from the counters the
differential oracle (``tests/property/test_oracle.py``) holds to
Listing 1.
"""

import io
import json
import logging

import pytest

from repro.cli import main
from repro.compass.fast import FastCompassSimulator
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
        from repro.core.chip import Placement
        from repro.noc.mesh import MeshNetwork

        mesh = MeshNetwork.spanning(Placement.default(network.n_cores))
        chip = TrueNorthSimulator(network, mesh=mesh, obs=obs)
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

        # The StreamReport is the source of the session totals.
        assert (report.frames, report.ticks) == (3, 3 * 5 + 2)
        assert report.input_events > 0
        # The relay passes every injected event through one tick later.
        assert report.output_spikes == report.input_events
        assert report.output_spikes == obs.metrics.snapshot()["repro_spikes_total"]
        assert report.wall_seconds > 0
        # One frame span per frame, alongside the engine's tick spans.
        names = [s.name for s in obs.trace.spans()]
        assert names.count("frame") == 3
        assert names.count("tick") == report.ticks


class TestCli:
    def test_trace_two_compass_ranks(self, tmp_path, capsys):
        """Two Compass ranks, traced: one flight row per tick, on one
        trace row, with the four phases and the metric snapshot."""
        out = tmp_path / "trace.json"
        metrics = tmp_path / "metrics.json"
        rc = main([
            "trace", "recurrent-stochastic", "--ticks", "10",
            "--engine", "compass", "--ranks", "2",
            "--out", str(out), "--metrics-out", str(metrics),
        ])
        assert rc == 0
        assert "wrote" in capsys.readouterr().out
        doc = json.loads(out.read_text())
        complete = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        tids = {e["tid"] for e in complete}
        assert tids == {0}  # the one flight ring
        phase_names = {e["name"] for e in complete}
        assert set(PHASES) <= phase_names
        # Per-tick spans appear in tick order.
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
        assert 'repro_phase_seconds_total{phase="update"}' in text

    def test_metrics_json_to_file(self, tmp_path, capsys):
        out = tmp_path / "metrics.json"
        rc = main(["metrics", "recurrent-deterministic", "--ticks", "5",
                   "--out", str(out)])
        assert rc == 0
        assert json.loads(out.read_text())["repro_ticks_total"] == 5
