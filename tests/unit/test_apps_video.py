"""Tests for the synthetic video generator and transduction."""

import numpy as np
import pytest

from repro.apps.transduction import (
    rate_code_frame,
    spike_counts_by_pin,
    spike_map,
    transduce_video,
)
from repro.apps.video import (
    CLASS_PROFILES,
    GroundTruthBox,
    generate_scene,
    static_pattern,
)
from repro.corelets.corelet import Composition, GlobalPin, pin_columns
from repro.corelets.library.basic import relay
from repro.core.inputs import InputSchedule
from repro.core.record import SpikeRecord
from repro.hardware.simulator import run_truenorth


class TestSceneGenerator:
    def test_shapes_and_range(self):
        scene = generate_scene(24, 32, n_frames=5, seed=1)
        assert scene.frames.shape == (5, 24, 32)
        assert scene.frames.min() >= 0.0 and scene.frames.max() <= 1.0
        assert scene.n_frames == 5 and scene.shape == (24, 32)

    def test_ground_truth_every_frame(self):
        scene = generate_scene(24, 32, n_frames=4, n_objects=3, seed=2)
        for f in range(4):
            assert len(scene.boxes[f]) == 3
            for box in scene.boxes[f]:
                assert box.label in CLASS_PROFILES
                assert 0 <= box.y and box.y + box.h <= 24

    def test_objects_brighter_than_background(self):
        scene = generate_scene(24, 32, n_frames=1, n_objects=1, seed=3)
        box = scene.boxes[0][0]
        inside = scene.frames[0, box.y : box.y + box.h, box.x : box.x + box.w].mean()
        assert inside > 3 * scene.frames[0].mean() / 2

    def test_deterministic(self):
        a = generate_scene(20, 24, seed=9)
        b = generate_scene(20, 24, seed=9)
        assert np.array_equal(a.frames, b.frames)

    def test_moving_objects_move(self):
        scene = generate_scene(24, 48, n_frames=8, n_objects=4, seed=5)
        moved = any(
            scene.boxes[0][i].x != scene.boxes[-1][i].x for i in range(4)
        )
        assert moved

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            generate_scene(4, 4)


class TestGroundTruthBox:
    def test_iou_identity(self):
        b = GroundTruthBox(0, "car", 2, 3, 5, 9)
        assert b.iou(b) == 1.0

    def test_iou_disjoint(self):
        a = GroundTruthBox(0, "car", 0, 0, 4, 4)
        b = GroundTruthBox(0, "car", 10, 10, 4, 4)
        assert a.iou(b) == 0.0

    def test_iou_partial(self):
        a = GroundTruthBox(0, "car", 0, 0, 4, 4)
        b = GroundTruthBox(0, "car", 0, 2, 4, 4)
        assert a.iou(b) == pytest.approx(8 / 24)


class TestStaticPatterns:
    @pytest.mark.parametrize(
        "kind", ["vertical-edge", "horizontal-edge", "checkerboard", "uniform", "noise"]
    )
    def test_kinds(self, kind):
        p = static_pattern(16, 16, kind)
        assert p.shape == (16, 16)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            static_pattern(8, 8, "spiral")


class TestTransduction:
    def build_relay(self, n):
        comp = Composition(seed=0)
        r = relay(n)
        comp.add(r)
        comp.export_input("in", r.inputs["in"])
        comp.export_output("out", r.outputs["out"])
        return comp.compile()

    def test_rate_proportional_to_intensity(self):
        compiled = self.build_relay(2)
        frame = np.array([[0.1, 0.9]])
        ins = InputSchedule()
        n = rate_code_frame(frame, compiled.inputs["in"], ins, 0, ticks=200, seed=3)
        rec = run_truenorth(compiled.network, 201, ins)
        counts = spike_map(rec, compiled.outputs["out"], (1, 2))
        assert counts[0, 1] > 4 * counts[0, 0]
        assert n == ins.n_events

    def test_zero_intensity_silent(self):
        compiled = self.build_relay(4)
        ins = transduce_video(np.zeros((2, 1, 4)), compiled.inputs["in"])
        assert ins.n_events == 0

    def test_deterministic_given_seed(self):
        compiled = self.build_relay(4)
        frames = np.random.default_rng(1).random((2, 1, 4))
        a = transduce_video(frames, compiled.inputs["in"], seed=5)
        b = transduce_video(frames, compiled.inputs["in"], seed=5)
        assert list(a) == list(b)
        c = transduce_video(frames, compiled.inputs["in"], seed=6)
        assert list(a) != list(c)

    def test_pin_count_mismatch_rejected(self):
        compiled = self.build_relay(4)
        with pytest.raises(ValueError):
            transduce_video(np.zeros((1, 2, 4)), compiled.inputs["in"])

    def test_pin_columns_code_the_same_events_as_the_pin_list(self):
        pins = self.build_relay(6).inputs["in"]
        frame = np.random.default_rng(2).random((2, 3))
        a, b = InputSchedule(), InputSchedule()
        n = rate_code_frame(frame, pins, a, 4, ticks=9, seed=1)
        assert rate_code_frame(frame, pin_columns(pins), b, 4, ticks=9, seed=1) == n
        assert a == b and a.n_events == n > 0


class TestSpikeCountsByPin:
    def reference(self, record, pins):
        """The per-spike dictionary walk the column form replaced."""
        index = {(p.core, p.index): i for i, p in enumerate(pins)}
        counts = np.zeros(len(pins), dtype=np.int64)
        for _, core, neuron in record.as_tuples():
            if (core, neuron) in index:
                counts[index[(core, neuron)]] += 1
        return counts

    @pytest.mark.parametrize("seed", range(6))
    def test_equals_the_dictionary_walk(self, seed):
        rng = np.random.default_rng(seed)
        # Pins out of order, some listed twice, some spikes on no pin,
        # neurons past the widest pin.
        pins = [GlobalPin(int(c), int(n)) for c, n in rng.integers(0, 5, (12, 2))]
        record = SpikeRecord.from_arrays(
            rng.integers(0, 20, 400), rng.integers(0, 6, 400), rng.integers(0, 9, 400)
        )
        want = self.reference(record, pins)
        assert want.sum() > 0
        assert spike_counts_by_pin(record, pins).tolist() == want.tolist()
        assert spike_counts_by_pin(record, pin_columns(pins)).tolist() == want.tolist()

    def test_empty_record_and_empty_pins(self):
        record = SpikeRecord.from_events([(0, 1, 2)])
        assert spike_counts_by_pin(SpikeRecord(), [GlobalPin(1, 2)]).tolist() == [0]
        assert spike_counts_by_pin(record, []).size == 0
        assert spike_counts_by_pin(record, [GlobalPin(1, 2), GlobalPin(0, 0)]).tolist() == [1, 0]
