"""Streaming runtime: continuous sensor-to-decision operation.

The deployed TrueNorth systems (the NS1e-style boards of paper Fig. 1(f))
run continuously: frames stream in at 30 fps, are transduced to spikes,
the chip advances in real time, and output spikes stream to consumers.
This runtime reproduces that loop around either simulator expression:

* a :class:`FrameSource` produces frames on demand;
* each frame is rate-coded over its tick budget (at
  :func:`~repro.apps.transduction.rate_code_frame`'s default peak
  rate) and injected;
* output spikes are delivered to a sink callback per tick;
* the :class:`StreamReport` accounts the real-time behaviour: ticks
  processed, wall-clock per tick, and the real-time factor this host
  achieves (the software expression runs slower than biology — exactly
  the gap the chip closes).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from repro.apps.transduction import rate_code_frame
from repro.apps.video import Scene
from repro.compass.compile import CompiledNetwork
from repro.compass.engine import select_engine
from repro.core import params
from repro.core.events import event_tuples
from repro.core.inputs import InputSchedule
from repro.core.network import Network
from repro.corelets.corelet import pin_columns
from repro.obs.flight import write_crash_dump
from repro.obs.observer import NULL_SPAN, Observer, active_observer
from repro.obs.trace import now_ns
from repro.utils.validation import require


class FrameSource:
    """Base frame source: iterate to get (frame_index, frame) pairs."""

    def frames(self) -> Iterator[tuple[int, np.ndarray]]:
        """Yield frames in presentation order."""
        raise NotImplementedError


@dataclass
class SceneSource(FrameSource):
    """Frame source over a generated scene, optionally looping."""

    scene: Scene
    loops: int = 1

    def frames(self) -> Iterator[tuple[int, np.ndarray]]:
        """Yield every scene frame, repeated ``loops`` times."""
        index = 0
        for _ in range(self.loops):
            for frame in self.scene.frames:
                yield index, frame
                index += 1


@dataclass
class StreamReport:
    """Accounting of one streaming session: the source of its totals."""

    ticks: int = 0
    frames: int = 0
    input_events: int = 0
    output_spikes: int = 0
    wall_seconds: float = 0.0

    @property
    def wall_per_tick_s(self) -> float:
        """Mean wall-clock seconds per simulated tick."""
        return self.wall_seconds / self.ticks if self.ticks else 0.0

    @property
    def real_time_factor(self) -> float:
        """Simulated time / wall time (1.0 = real time, <1 = slower).

        Degenerate sessions are well-defined rather than divide-by-zero
        prone: zero ticks means no simulated time, so the factor is 0.0
        regardless of wall clock; ticks with unmeasurably small wall
        time report infinity.
        """
        if self.ticks == 0:
            return 0.0
        if self.wall_seconds == 0.0:
            return float("inf")
        return self.ticks * params.TICK_SECONDS / self.wall_seconds


class StreamingRuntime:
    """Continuous frame -> spikes -> simulator -> sink loop."""

    def __init__(
        self,
        simulator,
        input_pins,
        ticks_per_frame: int = 33,
        seed: int = 0,
        engine: str = "auto",
        obs: Observer | None = None,
    ) -> None:
        """Wrap *simulator* (or build one) in the streaming loop.

        *simulator* may be any constructed kernel expression, or a
        :class:`~repro.core.network.Network` /
        :class:`~repro.compass.compile.CompiledNetwork`, in which case
        :func:`repro.compass.engine.select_engine` constructs the
        *engine* expression for it (``"auto"`` picks the sparse path;
        ``"batched"`` is refused: a stream is one session, and that
        engine's ticks return a lane column the loop does not read).

        With *obs* attached, each frame's transduce-and-advance window
        becomes a ``frame`` span; when the runtime constructs the
        simulator itself, the same observer is threaded into it, so one
        trace covers frames and tick phases end to end.  A simulator the
        runtime constructs is the runtime's to :meth:`close`.
        """
        require(ticks_per_frame >= 1, "need at least one tick per frame")
        require(
            engine != "batched",
            "StreamingRuntime streams one session; engine='batched' steps replica "
            "lanes (ModelServer serves sessions on it)",
        )
        self.obs = obs
        self._owns_simulator = isinstance(simulator, (Network, CompiledNetwork))
        if self._owns_simulator:
            simulator = select_engine(simulator, engine, obs=obs)
        self.simulator = simulator
        self.input_pins = pin_columns(input_pins)  # once, not per frame
        self.ticks_per_frame = ticks_per_frame
        self.seed = seed
        # An engine holding this observer records its own tick rows;
        # the runtime records them only on behalf of one that does not
        # (the scalar reference kernel takes no observer, and a
        # constructed simulator may carry a different one).
        self._records_ticks = getattr(simulator, "obs", None) is not obs

    def close(self) -> None:
        """Close the simulator the runtime constructed, if it has a ``close()``.

        A simulator passed in by the caller stays the caller's to close.
        """
        close = getattr(self.simulator, "close", None)
        if self._owns_simulator and close is not None:
            close()

    def _tick(self, sink, tick_cursor: int, report: StreamReport,
              obs: Observer | None = None) -> None:
        """Advance one tick, preferring the array-returning hot path.

        Engines exposing ``step_arrays()`` (the sparse and parallel
        expressions) stay vectorized end to end: per-spike Python tuples
        are materialized only when a *sink* actually consumes them.
        With an active *obs* and an engine that does not record its own
        ticks (the reference simulator), the runtime records the
        whole-tick row here.
        """
        tick_obs = obs if self._records_ticks else None
        if tick_obs is not None:
            sent = -self._messages()
            begin = now_ns()
        step_arrays = getattr(self.simulator, "step_arrays", None)
        if step_arrays is not None:
            tick, core_ids, neurons = step_arrays()
            n_spikes = int(core_ids.size)
            report.output_spikes += n_spikes
            if sink is not None:
                sink(tick_cursor, event_tuples(tick, core_ids, neurons))
        else:
            spikes = self.simulator.step()
            n_spikes = len(spikes)
            report.output_spikes += n_spikes
            if sink is not None:
                sink(tick_cursor, spikes)
        if tick_obs is not None:
            tick_obs.tick(
                tick_cursor, begin, now_ns(), n_spikes, sent + self._messages(),
            )

    def _messages(self) -> int:
        """The simulator's cumulative message count (0 if it keeps none)."""
        return getattr(getattr(self.simulator, "counters", None), "messages", 0)

    def run(
        self,
        source: FrameSource,
        sink: Callable[[int, list], None] | None = None,
    ) -> StreamReport:
        """Stream every frame from *source*; return the session report.

        ``sink(tick, spikes)`` receives each tick's output spikes as
        (tick, core, neuron) tuples; two extra ticks run after the last
        frame so in-flight spikes land.
        """
        report = StreamReport()
        obs = active_observer(self.obs)
        start = time.perf_counter()
        tick_cursor = 0
        try:
            for frame_index, frame in source.frames():
                with (obs.span("frame", frame=frame_index)
                      if obs is not None else NULL_SPAN):
                    schedule = InputSchedule()
                    report.input_events += rate_code_frame(
                        frame,
                        self.input_pins,
                        schedule,
                        start_tick=tick_cursor,
                        ticks=self.ticks_per_frame,
                        seed=self.seed,
                    )
                    self.simulator.load_inputs(schedule)
                    for _ in range(self.ticks_per_frame):
                        self._tick(sink, tick_cursor, report, obs)
                        tick_cursor += 1
                        report.ticks += 1
                    report.frames += 1
            for _ in range(2):
                self._tick(sink, tick_cursor, report, obs)
                tick_cursor += 1
                report.ticks += 1
        except Exception as err:
            # Postmortem before surfacing: the stream's flight ring and
            # metric snapshot survive the failed session.
            write_crash_dump(
                self.obs, "streaming_run_failed",
                detail=f"tick={tick_cursor}", exc=err,
            )
            raise
        report.wall_seconds = time.perf_counter() - start
        return report
