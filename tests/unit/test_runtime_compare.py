"""Tests for the streaming runtime and record comparison tooling."""

import pytest

from repro.analysis.compare import compare_records, divergence_horizon
from repro.apps.video import generate_scene
from repro.compass.engine import run_engine
from repro.compass.simulator import CompassSimulator
from repro.core.record import SpikeRecord
from repro.corelets.corelet import Composition
from repro.corelets.library.basic import relay
from repro.hardware.simulator import TrueNorthSimulator
from repro.runtime.streaming import SceneSource, StreamingRuntime


def build_relay_pipeline(n):
    comp = Composition(seed=0)
    r = relay(n)
    comp.add(r)
    comp.export_input("in", r.inputs["in"])
    comp.export_output("out", r.outputs["out"])
    return comp.compile()


class TestStreamingRuntime:
    def test_streams_scene_end_to_end(self):
        scene = generate_scene(12, 20, n_frames=3, seed=2)
        compiled = build_relay_pipeline(12 * 20)
        runtime = StreamingRuntime(
            TrueNorthSimulator(compiled.network),
            compiled.inputs["in"],
            ticks_per_frame=5,
        )
        collected = []
        report = runtime.run(
            SceneSource(scene), sink=lambda t, spikes: collected.extend(spikes)
        )
        assert report.frames == 3
        assert report.ticks == 3 * 5 + 2
        assert report.input_events > 0
        assert report.output_spikes == len(collected)
        # relay passes every injected event through one tick later
        assert report.output_spikes == report.input_events
        assert report.wall_per_tick_s > 0
        assert report.real_time_factor > 0

    def test_looping_source(self):
        scene = generate_scene(12, 20, n_frames=2, seed=3)
        frames = list(SceneSource(scene, loops=3).frames())
        assert len(frames) == 6
        assert frames[0][0] == 0 and frames[-1][0] == 5

    def test_same_stream_on_both_expressions(self):
        scene = generate_scene(12, 20, n_frames=2, seed=4)
        compiled = build_relay_pipeline(12 * 20)
        out_a, out_b = [], []
        StreamingRuntime(
            TrueNorthSimulator(compiled.network), compiled.inputs["in"], 4
        ).run(SceneSource(scene), sink=lambda t, s: out_a.extend(s))
        StreamingRuntime(
            CompassSimulator(compiled.network, n_ranks=3), compiled.inputs["in"], 4
        ).run(SceneSource(scene), sink=lambda t, s: out_b.extend(s))
        assert out_a == out_b

    def test_invalid_tick_budget(self):
        compiled = build_relay_pipeline(4)
        with pytest.raises(ValueError):
            StreamingRuntime(
                TrueNorthSimulator(compiled.network), compiled.inputs["in"], 0
            )


class TestStreamReportGuards:
    def test_zero_tick_session_is_well_defined(self):
        from repro.runtime.streaming import StreamReport

        report = StreamReport()
        assert report.ticks == 0
        assert report.wall_per_tick_s == 0.0
        assert report.real_time_factor == 0.0

    def test_zero_wall_with_ticks_reports_infinite_factor(self):
        from repro.runtime.streaming import StreamReport

        report = StreamReport()
        report.ticks = 10
        report.wall_seconds = 0.0
        assert report.wall_per_tick_s == 0.0
        assert report.real_time_factor == float("inf")

    def test_normal_session_unchanged(self):
        from repro.core import params
        from repro.runtime.streaming import StreamReport

        report = StreamReport()
        report.ticks = 100
        report.wall_seconds = 2.0
        assert report.wall_per_tick_s == pytest.approx(0.02)
        assert report.real_time_factor == pytest.approx(
            100 * params.TICK_SECONDS / 2.0
        )


class TestCompareRecords:
    def test_identical_records(self):
        a = SpikeRecord.from_events([(0, 0, 0), (1, 0, 1)])
        report = compare_records(a, a)
        assert report.identical
        assert "not a single spike mismatch" in report.summary()
        assert divergence_horizon(a, a) is None

    def test_divergence_located(self):
        a = SpikeRecord.from_events([(0, 0, 0), (3, 1, 2), (5, 0, 1)])
        b = SpikeRecord.from_events([(0, 0, 0), (3, 1, 3), (5, 0, 1)])
        report = compare_records(a, b)
        assert not report.identical
        assert report.first_mismatch_tick == 3
        assert report.missing_in_b == 1 and report.extra_in_b == 1
        assert report.per_core_mismatches == {1: 2}
        assert "DIVERGE" in report.summary()

    def test_agreement_trace(self):
        a = SpikeRecord.from_events([(t, 0, 0) for t in range(6)])
        b = SpikeRecord.from_events([(t, 0, 0) for t in range(3)])
        report = compare_records(a, b, horizon_ticks=4)
        # after tick 3, A fires and B is silent: agreement 0
        assert report.agreement_by_tick[0] == (3, 0.0)

    def test_chaotic_network_diverges_fast(self):
        # Perturb one spike of a coupled recurrent run and measure the
        # horizon: the chaotic dynamics amplify it within a few ticks.
        from repro.apps.recurrent import probabilistic_recurrent_network
        from repro.core.inputs import InputSchedule

        net = probabilistic_recurrent_network(
            150.0, 24, grid_side=2, neurons_per_core=32,
            coupling="balanced", seed=8,
        )
        clean = run_engine(net, 60, engine="compass")
        poke = InputSchedule.from_events([(10, 0, 5)])
        perturbed = run_engine(net, 60, poke, engine="compass")
        horizon = divergence_horizon(clean, perturbed, threshold=0.7)
        assert horizon is not None
        assert horizon <= 32  # "spikes quickly and chaotically diverge"
