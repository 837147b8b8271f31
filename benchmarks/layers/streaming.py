"""The stream_saliency workload: frames through ``StreamingRuntime``."""

from __future__ import annotations

import numpy as np

from repro.apps.saliency import build_saliency_pipeline
from repro.apps.video import generate_scene
from repro.compass.fast import FastCompassSimulator, staged_inputs
from repro.core import params
from repro.core.record import SpikeRecord
from repro.obs import Observer
from repro.runtime import streaming
from repro.runtime.streaming import FrameSource, StreamingRuntime

from .measure import (
    Run,
    Scale,
    assemble_record,
    calm,
    counts_of,
    peak_rss_mb,
    percentile_ms,
    probe_ns,
    record_digest,
    steady_metrics,
    tick_metrics,
    timed_setup,
)
from .recurrent import Replay
from .trace import Tracer, now_ns

HEIGHT, WIDTH, PATCH = 64, 96, 4
TICKS_PER_FRAME = 33

#: Frames re-run on the dense engine by the correctness check.
DENSE_CHECK_FRAMES = 10


class TimedSource(FrameSource):
    """Closed-loop frame source that stamps every pull.

    The runtime pulls the next frame when the previous one is finished,
    so the interval from one pull's return to the next pull is that
    frame's latency; the host-speed probe runs in between, outside it.
    Yields the first *n_frames* of the scene, then keeps cycling through
    them until *seconds* have passed.
    """

    def __init__(self, scene_frames, n_frames: int, seconds: float, sim) -> None:
        self._frames = scene_frames
        self.n_frames = n_frames
        self.seconds = seconds
        self.sim = sim
        #: When each pull arrived, its probe, and when the frame was handed over.
        self.done_ns: list[int] = []
        self.ref_ns: list[int] = []
        self.pull_ns: list[int] = []
        #: Cumulative synaptic events at each pull.
        self.events: list[int] = []
        #: The engine's counters when the first *n_frames* were done.
        self.counters = None

    def frames(self):
        index = 0
        while True:
            self.done_ns.append(now_ns())
            self.ref_ns.append(probe_ns())
            now = now_ns()
            self.pull_ns.append(now)
            self.events.append(self.sim.counters.synaptic_events)
            if index == self.n_frames:
                self.counters = self.sim.counters.copy()
            if index >= self.n_frames and now - self.pull_ns[0] >= self.seconds * 1e9:
                return
            yield index, self._frames[index % self.n_frames]
            index += 1


class Stream:
    """64x96 saliency pipeline, 33 ticks per frame, fast engine, with a sink."""

    def __init__(self, scale: Scale) -> None:
        self.scale = scale
        self.n_ops = scale.frames

    def generate(self, seed: int) -> None:
        self.seed = seed
        self.pipeline = build_saliency_pipeline(HEIGHT, WIDTH, patch=PATCH, seed=seed)
        self.scene = generate_scene(
            HEIGHT, WIDTH, n_frames=self.scale.frames, n_objects=3,
            # One class: with the default mix, object area and so the input
            # events per frame differ by +-25 % from seed to seed.
            classes=("car",), seed=seed)
        self.net = self.pipeline.compiled.network

    def _runtime(self, simulator, obs=None) -> StreamingRuntime:
        return StreamingRuntime(
            simulator, self.pipeline.pixel_pins, ticks_per_frame=TICKS_PER_FRAME,
            seed=self.seed, engine="fast", obs=obs,
        )

    def setup(self, tracer: Tracer) -> dict[str, float]:
        return timed_setup(tracer, self.scale, self.net, self._runtime)

    def run(self, tracer: Tracer, n_frames: int, seconds: float, obs=None) -> Run:
        runtime = self._runtime(self.net, obs=obs)
        sim = runtime.simulator
        keep_ticks = n_frames * TICKS_PER_FRAME
        warmup = self.scale.warmup
        replay = Replay(tracer) if tracer.enabled else None
        step, load = sim.step_arrays, sim.load_inputs
        step_ns: list[int] = []
        cores_acc, neurons_acc = [], []
        staged: dict[int, np.ndarray] = {}
        harness_ns = [0]  # spent in the stand-ins below, outside the engine

        # The runtime drives the engine, so the engine boundary is seen by
        # standing in for its two entry points on this one instance.
        def step_arrays():
            entered = now_ns()
            tick = sim.tick
            fired = None
            if replay is not None and tick >= warmup and tick % Replay.EVERY == 0:
                fired = replay.before(sim, staged.get(tick))
            t0 = now_ns()
            out = step()
            t1 = now_ns()
            tracer.add("engine.step_arrays", t0, t1)
            step_ns.append(t1 - t0)
            if fired is not None:
                replay.after(sim, fired, out[1], out[2], t1 - t0)
            if tick < keep_ticks:
                cores_acc.append(out[1])
                neurons_acc.append(out[2])
            harness_ns[0] += (t0 - entered) + (now_ns() - t1)
            return out

        def load_inputs(schedule):
            with tracer.span("engine.load_inputs"):
                load(schedule)
            if replay is not None:
                staged.update(staged_inputs(sim.compiled, schedule))

        sim.step_arrays, sim.load_inputs = step_arrays, load_inputs
        unwrap = tracer.wrap(streaming, "rate_code_frame", "transduction.rate_code_frame")
        source = TimedSource(self.scene.frames, n_frames, seconds, sim)
        sink_ns: list[int] = []
        try:
            report = runtime.run(source, sink=lambda tick, spikes: sink_ns.append(now_ns()))
        finally:
            unwrap()
            runtime.close()

        # Frame 0 starts on an empty ring; steady state is frames 1..
        frame_ns = (np.array(source.done_ns[1:]) - np.array(source.pull_ns[:-1]))[1:]
        ref_ns = source.ref_ns[2:]  # the probe that followed each of them
        metrics = tick_metrics(step_ns, warmup)
        metrics.update(steady_metrics(
            frame_ns, np.full(frame_ns.size, TICKS_PER_FRAME),
            source.events[-1] - source.events[1], ref_ns))
        metrics.update({
            "peak_rss_mb": peak_rss_mb(),
            "latency.p95_ms": percentile_ms(frame_ns, 95),
            "streaming.tick_ms_p50": percentile_ms(np.diff(sink_ns), 50),
        })
        if tracer.enabled:
            transduce = tracer.durations_ns("transduction.rate_code_frame")
            stage = tracer.durations_ns("engine.load_inputs")
            inside = (sum(transduce) + sum(stage) + sum(step_ns)) * 1e-9
            metrics.update({
                "transduction.rate_code_frame_ms_p50": percentile_ms(transduce, 50),
                "streaming.load_inputs_ms_p50": percentile_ms(stage, 50),
                "streaming.overhead_frac": (
                    1.0 - inside / (report.wall_seconds - harness_ns[0] * 1e-9)),
            })
            metrics.update(replay.metrics(sim.counters))

        # The runtime hands spikes to the sink and assembles no record:
        # this one exists for the digest, outside time_to_solution_s.
        with tracer.span("record.from_arrays") as assembled:
            record = assemble_record(cores_acc, neurons_acc, source.counters)
        metrics["record.from_arrays_s"] = assembled.seconds
        metrics["record.n_spikes"] = record.n_spikes
        return Run(
            metrics=metrics,
            solve_s=metrics["rtf"] * keep_ticks * params.TICK_SECONDS,
            op_s=calm(frame_ns, ref_ns) * 1e-9,
            attempted=n_frames,
            counts=counts_of(source.counters),
            sha256=record_digest([record]),
            keep={"record": record},
        )

    def probe(self, tracer: Tracer, run: Run, baseline: Run) -> dict[str, float]:
        # ROADMAP item 5's unmeasured cost: the baseline's frames twice
        # more, back to back (this host's speed drifts within seconds),
        # without and with an enabled observer.
        untraced = Tracer(tracer.workload, False)
        plain = self.run(untraced, baseline.attempted, 0.0)
        observed = self.run(untraced, baseline.attempted, 0.0, obs=Observer())
        return {"obs.enabled_overhead_frac": observed.op_s / plain.op_s - 1.0}

    def verify(self, run: Run) -> dict[str, str]:
        """The first frames again with ``gated=False``: the dense oracle."""
        n_frames = min(DENSE_CHECK_FRAMES, run.attempted)
        n_ticks = n_frames * TICKS_PER_FRAME
        dense = FastCompassSimulator(self.net, gated=False)
        events: list[tuple[int, int, int]] = []
        self._runtime(dense).run(
            TimedSource(self.scene.frames, n_frames, 0.0, dense),
            sink=lambda tick, spikes: events.extend(spikes),
        )
        want = SpikeRecord.from_events([e for e in events if e[0] < n_ticks])
        main = run.keep["record"]
        head = main.ticks < n_ticks
        got = SpikeRecord(main.ticks[head], main.cores[head], main.neurons[head])
        return {"dense_rerun": "ok" if want == got else
                f"mismatch: first at {want.first_mismatch(got)}"}
