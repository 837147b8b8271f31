"""Tests for sequence detection, tracking, and the voltage study."""

import pytest

from repro.apps.neovision import NeovisionSystem
from repro.apps.tracking import Track, Tracker, evaluate_tracking, track_scene
from repro.apps.video import generate_scene
from repro.apps.workloads import ANCHOR_A, ANCHOR_C, characterization_workload
from repro.compass.engine import run_engine
from repro.core import params
from repro.core.inputs import InputSchedule
from repro.corelets.library.sequence import sequence_detector_network
from repro.experiments.voltage import (
    evaluate_point,
    minimum_feasible_voltage,
    optimal_operating_point,
    voltage_study,
)


class TestSequenceDetector:
    def fire(self, compiled, times, horizon=None):
        pins = compiled.inputs["in"]
        ins = InputSchedule()
        for ch, t in enumerate(times):
            if t is not None:
                ins.add(t, pins[ch].core, pins[ch].index)
        horizon = horizon or (max(t for t in times if t is not None) + 12)
        rec = run_engine(compiled.network, horizon, ins, engine="truenorth")
        out = {(p.core, p.index) for p in compiled.outputs["out"]}
        return [t for t, c, n in rec.as_tuples() if (c, n) in out]

    def test_correct_sequence_detected(self):
        compiled = sequence_detector_network([0, 2, 5])
        fired = self.fire(compiled, [0, 2, 5])
        assert len(fired) == 1

    def test_wrong_order_rejected(self):
        compiled = sequence_detector_network([0, 2, 5])
        assert self.fire(compiled, [5, 2, 0]) == []

    def test_wrong_spacing_rejected(self):
        compiled = sequence_detector_network([0, 2, 5])
        assert self.fire(compiled, [0, 3, 5]) == []

    def test_missing_channel_rejected(self):
        compiled = sequence_detector_network([0, 2, 5])
        assert self.fire(compiled, [0, 2, None], horizon=20) == []

    def test_shifted_sequence_still_detected(self):
        # relative timing is what matters, not absolute start
        compiled = sequence_detector_network([0, 2, 5])
        assert len(self.fire(compiled, [7, 9, 12])) == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            sequence_detector_network([0])
        with pytest.raises(ValueError):
            sequence_detector_network([-1, 2])


class TestTracker:
    def test_straight_line_association(self):
        tracker = Tracker(max_match_distance=3.0)
        for f in range(5):
            tracker.update(f, [(10.0, 5.0 + f)])
        tracks = tracker.completed_tracks()
        assert len(tracks) == 1
        assert tracks[0].length == 5
        vy, vx = tracks[0].velocity
        assert vx == pytest.approx(1.0)
        assert vy == pytest.approx(0.0)

    def test_two_objects_stay_separate(self):
        tracker = Tracker(max_match_distance=3.0)
        for f in range(4):
            tracker.update(f, [(5.0, 5.0 + f), (20.0, 30.0 - f)])
        tracks = tracker.completed_tracks()
        assert len(tracks) == 2
        assert {round(t.velocity[1]) for t in tracks} == {1, -1}

    def test_distance_gate_opens_new_track(self):
        tracker = Tracker(max_match_distance=2.0)
        tracker.update(0, [(0.0, 0.0)])
        tracker.update(1, [(0.0, 30.0)])  # jumped too far: new track
        assert len(tracker.tracks) == 2
        assert tracker.completed_tracks() == []

    def test_track_velocity_single_point(self):
        t = Track(0)
        t.add(0, (1.0, 1.0))
        assert t.velocity == (0.0, 0.0)


class TestSpikingTrackingEndToEnd:
    @pytest.mark.slow
    def test_tracks_moving_object(self):
        system = NeovisionSystem(height=24, width=48, seed=0)
        scene = generate_scene(24, 48, n_frames=5, n_objects=1,
                               classes=("car",), seed=42)
        result = evaluate_tracking(system, scene)
        assert result["n_tracks"] >= 1
        assert result["coverage"] > 0.5
        assert result["mean_position_error"] < 8.0

    def test_requires_multiple_frames(self):
        system = NeovisionSystem(height=24, width=48, seed=0)
        scene = generate_scene(24, 48, n_frames=1, seed=1)
        with pytest.raises(ValueError):
            track_scene(system, scene)


class TestVoltageStudy:
    def test_light_workload_runs_at_floor(self):
        v = minimum_feasible_voltage(ANCHOR_A)
        assert v == pytest.approx(params.MIN_FUNCTIONAL_VOLTAGE, abs=0.02)

    def test_worst_case_needs_higher_voltage(self):
        worst = characterization_workload(1000.0, 256.0)
        v = minimum_feasible_voltage(worst)
        assert v is not None
        assert v > minimum_feasible_voltage(ANCHOR_A)

    def test_infeasible_demand_returns_none(self):
        worst = characterization_workload(1000.0, 256.0)
        assert minimum_feasible_voltage(worst, tick_frequency_hz=10_000.0) is None

    def test_optimal_is_most_efficient_feasible(self):
        optimal = optimal_operating_point(ANCHOR_C)
        nominal = evaluate_point(ANCHOR_C, params.NOMINAL_VOLTAGE)
        assert optimal.feasible
        assert optimal.gsops_per_watt >= nominal.gsops_per_watt

    def test_study_table(self):
        rows = voltage_study([ANCHOR_A, ANCHOR_C])
        assert all(r["feasible"] for r in rows)
        for r in rows:
            assert 0.0 <= r["saving_vs_nominal"] < 1.0
            assert r["saving_vs_max"] > r["saving_vs_nominal"]
