"""Integration tests: full application pipelines across kernel expressions."""

import numpy as np
from repro.apps.haar import build_haar_pipeline
from repro.apps.saliency import build_saliency_pipeline, salient_patches
from repro.apps.transduction import transduce_video
from repro.apps.video import generate_scene, static_pattern
from repro.compass.engine import run_engine
from repro.compass.simulator import CompassSimulator
from repro.core.workload import WorkloadDescriptor
from repro.corelets.placement import place_connectivity_aware, place_row_major
from repro.hardware.energy import EnergyModel
from repro.hardware.simulator import TrueNorthSimulator
from repro.hardware.timing import TimingModel
from repro.machines.cost import compare_truenorth_vs_compass
from repro.machines.specs import X86


class TestVisionPipelineAcrossExpressions:
    """A composed vision network must behave identically on Compass and
    TrueNorth — the applications "run without modification" claim."""

    def test_haar_identical_on_both_expressions(self):
        pipe = build_haar_pipeline(8, 8, 4)
        frames = static_pattern(8, 8, "noise", seed=4)[None]
        ins = transduce_video(frames, pipe.pixel_pins, ticks_per_frame=12)
        n_ticks = 14
        hw = run_engine(pipe.compiled.network, n_ticks, ins, engine="truenorth")
        sw = CompassSimulator(pipe.compiled.network, n_ranks=4).run(n_ticks, ins)
        assert hw == sw

    def test_saliency_detects_object_location(self):
        pipe = build_saliency_pipeline(16, 16, 4)
        scene = generate_scene(16, 18, n_frames=2, n_objects=1, seed=8)
        frames = scene.frames[:, :, :16]
        ins = transduce_video(frames, pipe.pixel_pins, ticks_per_frame=20)
        rec = run_engine(pipe.compiled.network, 42, ins, engine="truenorth")
        smap = pipe.feature_map(rec).sum(axis=2)
        mask = salient_patches(smap, fraction=0.5)
        box = scene.boxes[-1][0]
        cy, cx = box.center
        # the object's patch neighbourhood contains a salient patch
        py, px = int(cy) // 4, min(int(cx) // 4, 3)
        neighbourhood = mask[
            max(0, py - 1) : py + 2, max(0, px - 1) : px + 2
        ]
        assert neighbourhood.any()


class TestMeasurementPipeline:
    """Counters from a real simulated run feed the performance models."""

    def test_run_to_comparison_flow(self):
        pipe = build_haar_pipeline(8, 8, 4)
        frames = static_pattern(8, 8, "noise", seed=3)[None]
        ins = transduce_video(frames, pipe.pixel_pins, ticks_per_frame=12)
        rec = run_engine(pipe.compiled.network, 14, ins, engine="truenorth")

        measured = WorkloadDescriptor.from_counters(
            "haar-measured", rec.counters, pipe.compiled.network.n_cores
        )
        full_scale = measured.scaled_to(n_neurons=617_567, n_cores=2_605)
        cmp = compare_truenorth_vs_compass(full_scale, X86)
        assert cmp.speedup > 1.0
        assert cmp.energy_improvement > 1e3

    def test_energy_and_timing_from_counters(self):
        pipe = build_saliency_pipeline(8, 8, 4)
        frames = static_pattern(8, 8, "noise", seed=2)[None]
        ins = transduce_video(frames, pipe.pixel_pins, ticks_per_frame=10)
        rec = run_engine(pipe.compiled.network, 12, ins, engine="truenorth")
        energy = EnergyModel().energy_for_run_j(rec.counters)
        max_khz = TimingModel().max_frequency_for_run_khz(rec.counters)
        assert energy > 0
        assert max_khz > 1.0  # tiny network runs far faster than real time


class TestPlacementIntegration:
    def test_connectivity_placement_reduces_run_hops(self):
        # Build a pipeline (stage-local connectivity), run with both
        # placements: the connectivity-aware one must not do worse.
        pipe = build_haar_pipeline(8, 8, 4)
        net = pipe.compiled.network
        frames = static_pattern(8, 8, "noise", seed=1)[None]
        ins = transduce_video(frames, pipe.pixel_pins, ticks_per_frame=10)
        naive = TrueNorthSimulator(net, placement=place_row_major(net))
        naive_rec = naive.run(12, ins)
        aware = TrueNorthSimulator(net, placement=place_connectivity_aware(net))
        aware_rec = aware.run(12, ins)
        assert naive_rec == aware_rec  # function invariant
        assert aware_rec.counters.hops <= naive_rec.counters.hops

    def test_defective_mesh_preserves_function(self):
        import numpy as np
        from repro.core.builders import poisson_inputs, random_network
        from repro.core.chip import ChipGeometry, Placement
        from repro.noc.mesh import MeshNetwork

        net = random_network(n_cores=9, seed=3)
        ins = poisson_inputs(net, 12, 400.0, seed=1)
        compact = Placement.compact(9)
        clean = TrueNorthSimulator(net, compact, MeshNetwork.spanning(compact)).run(12, ins)
        # Disable a router in the 3x3 core block's interior: cores sit on
        # it, so pick an unoccupied coordinate by moving cores apart.
        spread = Placement(
            chip_x=np.zeros(9, dtype=np.int64),
            chip_y=np.zeros(9, dtype=np.int64),
            x=(np.arange(9) % 3) * 2,
            y=(np.arange(9) // 3) * 2,
            geometry=ChipGeometry(),
        )
        damaged = MeshNetwork.spanning(spread)
        damaged.disable(1, 1)
        rec = TrueNorthSimulator(net, spread, damaged).run(12, ins)
        assert rec == clean
        # detours make the damaged mesh pay extra hops
        baseline = TrueNorthSimulator(net, spread, MeshNetwork.spanning(spread))
        base_rec = baseline.run(12, ins)
        assert rec.counters.hops >= base_rec.counters.hops
