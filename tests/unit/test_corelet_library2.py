"""Tests for the extended corelet library (temporal, conv, reservoir, RBM)."""

import numpy as np
import pytest

from repro.compass.engine import run_engine
from repro.core.inputs import InputSchedule
from repro.corelets.corelet import Composition
from repro.corelets.library.convolution import conv2d
from repro.corelets.library.rbm import (
    compile_sampler,
    firing_probability,
    rbm_sampling_layer,
    sample_hidden,
)
from repro.corelets.library.reservoir import liquid_reservoir, reservoir_state_features
from repro.corelets.library.temporal import coincidence, compose_reichardt, delay_chain


def build_single(corelet, outputs=("out",)):
    comp = Composition(seed=0)
    comp.add(corelet)
    for cname, conn in corelet.inputs.items():
        comp.export_input(cname, conn)
    for cname in outputs:
        comp.export_output(cname, corelet.outputs[cname])
    return comp.compile()


def collect(compiled, rec, name="out"):
    pins = {(p.core, p.index): i for i, p in enumerate(compiled.outputs[name])}
    return sorted((t, pins[(c, n)]) for t, c, n in rec.as_tuples() if (c, n) in pins)


class TestDelayChain:
    @pytest.mark.parametrize("extra", [0, 1, 7, 15, 16, 40])
    def test_exact_delay(self, extra):
        compiled = build_single(delay_chain(4, extra))
        ins = InputSchedule()
        pin = compiled.inputs["in"][2]
        ins.add(0, pin.core, pin.index)
        rec = run_engine(compiled.network, extra + 2, ins, engine="truenorth")
        out = collect(compiled, rec)
        assert out == [(extra, 2)]

    def test_stage_count(self):
        assert delay_chain(4, 0).n_cores == 1
        assert delay_chain(4, 15).n_cores == 2
        assert delay_chain(4, 30).n_cores == 3
        assert delay_chain(4, 31).n_cores == 4

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            delay_chain(4, -1)


class TestCoincidence:
    def test_fires_only_on_joint_arrival(self):
        compiled = build_single(coincidence(4))
        a = compiled.inputs["in_a"]
        b = compiled.inputs["in_b"]
        ins = InputSchedule()
        ins.add(0, a[1].core, a[1].index)  # lone a
        ins.add(2, b[1].core, b[1].index)  # lone b
        ins.add(4, a[1].core, a[1].index)  # joint
        ins.add(4, b[1].core, b[1].index)
        rec = run_engine(compiled.network, 6, ins, engine="truenorth")
        assert collect(compiled, rec) == [(4, 1)]

    def test_lone_inputs_do_not_accumulate(self):
        compiled = build_single(coincidence(2))
        a = compiled.inputs["in_a"]
        ins = InputSchedule.from_events(
            [(t, a[0].core, a[0].index) for t in range(6)]
        )
        rec = run_engine(compiled.network, 7, ins, engine="truenorth")
        assert collect(compiled, rec) == []


class TestReichardt:
    def run_moving_stimulus(self, velocity, detector_velocity, direction=+1):
        n = 6
        comp = Composition(seed=0)
        in_conn, out_conn = compose_reichardt(comp, n, velocity_ticks=detector_velocity)
        comp.export_input("in", in_conn)
        comp.export_output("out", out_conn)
        compiled = comp.compile()
        pins = compiled.inputs["in"]
        ins = InputSchedule()
        positions = range(n) if direction > 0 else range(n - 1, -1, -1)
        for step, pos in enumerate(positions):
            ins.add(step * velocity, pins[pos].core, pins[pos].index)
        horizon = n * velocity + detector_velocity + 4
        rec = run_engine(compiled.network, horizon, ins, engine="truenorth")
        return collect(compiled, rec)

    def test_matched_velocity_fires(self):
        out = self.run_moving_stimulus(velocity=2, detector_velocity=2)
        assert len(out) >= 4  # most adjacent pairs detected

    def test_wrong_velocity_silent(self):
        out = self.run_moving_stimulus(velocity=5, detector_velocity=2)
        assert out == []

    def test_opposite_direction_silent(self):
        out = self.run_moving_stimulus(velocity=2, detector_velocity=2, direction=-1)
        assert out == []


class TestConv2d:
    def test_output_geometry(self):
        kernels = np.ones((4, 3), dtype=np.int64)
        layer = conv2d(6, 8, kernels, stride=2)
        assert (layer.out_h, layer.out_w) == (3, 4)
        assert layer.n_features == 3
        assert len(layer.compiled.outputs["features"]) == 3 * 4 * 3

    def test_overlapping_windows_detect_edge(self):
        # vertical-edge kernel over a 6x6 frame with stride 1: windows
        # straddling the edge respond, others do not.
        k = 2
        kernel = np.array([[1], [-1], [1], [-1]])  # +left, -right columns
        layer = conv2d(6, 6, kernel, stride=1, gain=32, threshold=48, decay=32)
        frame = np.zeros((6, 6))
        frame[:, :3] = 1.0
        from repro.apps.transduction import transduce_video

        ins = transduce_video(frame[None].repeat(2, axis=0), layer.pixel_pins,
                              ticks_per_frame=15)
        rec = run_engine(layer.compiled.network, 32, ins, engine="truenorth")
        fmap = layer.feature_map(rec)[:, :, 0]
        # the column of windows whose left pixel is bright and right dark
        # (origin x=2) responds most
        col_resp = fmap.sum(axis=0)
        assert col_resp.argmax() == 2
        assert col_resp[2] > 0

    def test_stride_must_be_positive(self):
        with pytest.raises(ValueError):
            conv2d(4, 4, np.ones((4, 1), dtype=np.int64), stride=0)

    def test_kernel_must_be_square(self):
        with pytest.raises(ValueError):
            conv2d(4, 4, np.ones((5, 1), dtype=np.int64))


class TestReservoir:
    def test_state_dimensions(self):
        res = liquid_reservoir(n_neurons=32, n_inputs=8, seed=1)
        compiled = build_single(res, outputs=("state",))
        assert len(compiled.outputs["state"]) == 32

    def test_fading_memory(self):
        # A brief input pulse echoes in the reservoir for several ticks,
        # then dies out (the liquid's fading memory).
        res = liquid_reservoir(n_neurons=48, n_inputs=8, seed=3,
                               recurrent_connectivity=0.2)
        compiled = build_single(res, outputs=("state",))
        pins = compiled.inputs["in"]
        ins = InputSchedule()
        for i in range(8):
            for t in range(3):
                ins.add(t, pins[i].core, pins[i].index)
        rec = run_engine(compiled.network, 40, ins, engine="truenorth")
        out = collect(compiled, rec, "state")
        ticks = [t for t, _ in out]
        assert len(out) > 0
        assert max(ticks) > 4  # persists beyond the stimulus
        assert max(ticks) < 40  # but eventually dies out

    def test_different_inputs_separate_states(self):
        res = liquid_reservoir(n_neurons=48, n_inputs=8, seed=5)
        compiled = build_single(res, outputs=("state",))
        pins = compiled.inputs["in"]

        def run_pattern(lines):
            ins = InputSchedule()
            for t in range(10):
                for i in lines:
                    ins.add(t, pins[i].core, pins[i].index)
            rec = run_engine(compiled.network, 20, ins, engine="truenorth")
            return reservoir_state_features(rec, compiled.outputs["state"], 48, 20)

        fa = run_pattern([0, 1, 2, 3])
        fb = run_pattern([4, 5, 6, 7])
        assert fa.shape == (4 * 48,)
        assert not np.array_equal(fa, fb)

    def test_capacity_limits(self):
        with pytest.raises(ValueError):
            liquid_reservoir(n_neurons=200, n_inputs=8)


class TestRBM:
    def test_sampling_statistics_match_analytic(self):
        # one hidden unit per drive level: weights columns with 0..3
        # positive visible connections
        n_visible = 4
        weights = np.zeros((n_visible, 4), dtype=np.int64)
        for j in range(4):
            weights[:j, j] = 1
        layer = rbm_sampling_layer(weights, gain=48, bias=16)
        compiled = compile_sampler(layer)
        visible = np.ones(n_visible, dtype=bool)
        samples = sample_hidden(compiled, visible, n_samples=1200)
        rates = samples.mean(axis=0)
        for j in range(4):
            expected = firing_probability(j, gain=48, bias=16)
            assert rates[j] == pytest.approx(expected, abs=0.06)

    def test_negative_drive_never_fires(self):
        weights = np.full((4, 2), -1, dtype=np.int64)
        layer = rbm_sampling_layer(weights, gain=48, bias=16)
        compiled = compile_sampler(layer)
        samples = sample_hidden(compiled, np.ones(4, dtype=bool), n_samples=100)
        assert samples.sum() == 0

    def test_samples_are_independent_across_presentations(self):
        # With P ~ 0.5, runs of identical outcomes must not dominate
        # (carryover between presentations would produce streaks).
        weights = np.zeros((2, 1), dtype=np.int64)
        weights[0, 0] = 1
        layer = rbm_sampling_layer(weights, gain=48, bias=64)
        compiled = compile_sampler(layer)
        visible = np.array([True, False])
        samples = sample_hidden(compiled, visible, n_samples=400)[:, 0]
        p = samples.mean()
        assert 0.3 < p < 0.6
        flips = np.abs(np.diff(samples.astype(int))).mean()
        assert flips > 0.3  # plenty of alternation

    def test_ternary_weights_enforced(self):
        with pytest.raises(ValueError):
            rbm_sampling_layer(np.full((2, 2), 3))
