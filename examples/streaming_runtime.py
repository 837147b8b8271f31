"""Streaming runtime: continuous video through a saliency network.

Models the deployed-system loop of the paper's eight-board rack
(Fig. 1(f)): frames stream in, transduce to spikes, the network
advances tick by tick, and output spikes stream to a consumer.  The
report quantifies how far from real time the *software* expression runs
on this host — the gap the silicon expression closes by construction.

Run:  python examples/streaming_runtime.py
"""

from repro.apps.saliency import build_saliency_pipeline
from repro.apps.video import generate_scene
from repro.compass import CompassSimulator
from repro.core.workload import WorkloadDescriptor
from repro.hardware import EnergyModel, TimingModel, TrueNorthSimulator
from repro.obs import Observer
from repro.runtime import SceneSource, StreamingRuntime


def main() -> None:
    scene = generate_scene(height=16, width=24, n_frames=4, n_objects=2, seed=11)
    pipeline = build_saliency_pipeline(16, 24, patch=4)
    net = pipeline.compiled.network
    print(f"saliency network: {net.n_cores} cores, {net.n_neurons} neurons")

    # --- stream through the TrueNorth expression --------------------------
    heatmap = {}

    def sink(tick, spikes):
        for _, core, neuron in spikes:
            heatmap[(core, neuron)] = heatmap.get((core, neuron), 0) + 1

    runtime = StreamingRuntime(
        TrueNorthSimulator(net), pipeline.pixel_pins, ticks_per_frame=15
    )
    report = runtime.run(SceneSource(scene, loops=2), sink=sink)
    print(f"\nstreamed {report.frames} frames over {report.ticks} ticks:")
    print(f"  input events:  {report.input_events}")
    print(f"  output spikes: {report.output_spikes}")
    print(f"  wall clock:    {report.wall_seconds * 1e3:.0f} ms "
          f"({report.wall_per_tick_s * 1e6:.0f} us/tick)")
    print(f"  real-time factor of this host: {report.real_time_factor:.2f}x "
          "(1.0 = biological real time)")

    # --- the same stream on the Compass expression -------------------------
    compass_runtime = StreamingRuntime(
        CompassSimulator(net, n_ranks=4, obs=Observer()),
        pipeline.pixel_pins,
        ticks_per_frame=15,
    )
    compass_report = compass_runtime.run(SceneSource(scene, loops=2))
    ph = compass_runtime.simulator.phase_seconds
    print(f"\ncompass expression: {compass_report.real_time_factor:.2f}x real time; "
          "phase breakdown "
          f"{(ph['deliver'] + ph['integrate'] + ph['update']) * 1e3:.0f} ms compute / "
          f"{ph['route'] * 1e3:.0f} ms network")

    # --- what the chip would do --------------------------------------------
    counters = runtime.simulator.counters
    w = WorkloadDescriptor.from_counters("stream", counters, net.n_cores)
    max_khz = TimingModel().max_frequency_for_run_khz(counters)
    energy = EnergyModel().energy_for_run_j(counters)
    print(f"\nchip models: this load sustains {max_khz:.1f} kHz ticks "
          f"({max_khz:.0f}x real time) at "
          f"{energy / counters.ticks * 1e6:.1f} uJ/tick")


if __name__ == "__main__":
    main()
