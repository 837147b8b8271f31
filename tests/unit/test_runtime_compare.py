"""Tests for the streaming runtime."""

import multiprocessing as mp

import pytest

from repro.apps.saliency import build_saliency_pipeline
from repro.apps.video import generate_scene
from repro.compass.parallel import ParallelCompassSimulator
from repro.compass.simulator import CompassSimulator
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


class TestRuntimeClose:
    def pipeline(self):
        pipe = build_saliency_pipeline(32, 48)
        return pipe.compiled.network, pipe.pixel_pins

    def test_close_releases_the_engine_the_runtime_built(self):
        # No engine the runtime can select holds OS resources, so the
        # one it built is given a close() to watch.
        network, pins = self.pipeline()
        runtime = StreamingRuntime(network, pins, ticks_per_frame=5)
        closed = []
        runtime.simulator.close = lambda: closed.append(True)
        runtime.run(SceneSource(generate_scene(32, 48, n_frames=2, seed=5)))
        runtime.close()
        assert closed == [True]

    def test_close_leaves_a_caller_engine_open(self):
        network, pins = self.pipeline()
        sim = ParallelCompassSimulator(network, n_workers=2)
        try:
            runtime = StreamingRuntime(sim, pins, ticks_per_frame=5)
            runtime.run(SceneSource(generate_scene(32, 48, n_frames=1, seed=5)))
            runtime.close()
            assert len(mp.active_children()) == 1
            sim.step_arrays()  # still live: the caller closes it
        finally:
            sim.close()
        assert mp.active_children() == []


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
