"""High-throughput serving: many concurrent sessions, one batched engine.

The ROADMAP's deployment north star is "heavy traffic from millions of
users": many independent input streams against the same model, where
throughput-per-watt is dominated by how well fixed per-step costs are
amortized.  This module is that serving layer over the batched engine
(:mod:`repro.compass.batched`):

* :class:`ModelServer` multiplexes concurrent *sessions* (one input
  stream + tick budget each) onto the lanes of one
  :class:`~repro.compass.batched.BatchedCompassSimulator` — admission
  into free lanes, eviction on completion, and per-session
  :class:`~repro.core.record.SpikeRecord` demux.  Every session is
  bit-identical to a standalone sparse run of its (seed, inputs): lane
  admission uses ``reset_lane``, which restarts the lane's PRNG
  coordinates at tick 0.
* :class:`CompiledModelCache` is an LRU over compiled networks keyed by
  :func:`model_digest`, so repeat submissions of a known model skip
  ``compile()`` entirely — the serving analogue of the per-network
  compile cache, but shared across model objects and bounded.

The CLI front door is ``python -m repro serve``.
"""

from __future__ import annotations

import os
from collections import OrderedDict, deque
from dataclasses import dataclass, field

import numpy as np

from repro.compass.batched import BatchedCompassSimulator
from repro.compass.compile import CompiledNetwork, compile_network
from repro.core import params
from repro.core.inputs import InputSchedule
from repro.core.network import Network
from repro.core.prng import derive_stream_seed
from repro.core.record import SpikeRecord
from repro.io.checkpoint import EngineCheckpoint, model_digest
from repro.obs.flight import write_crash_dump
from repro.obs.observer import Observer, active_observer
from repro.obs.server import TelemetryServer
from repro.obs.trace import now_ns
from repro.utils.validation import require

__all__ = [
    "CompiledModelCache", "ModelServer", "Session", "model_digest",
]


class CompiledModelCache:
    """Bounded LRU of compiled networks keyed by :func:`model_digest`.

    ``get()`` returns the cached :class:`CompiledNetwork` for any model
    object whose digest is known, compiling (and evicting the least
    recently used entry past *capacity*) otherwise.  ``hits`` /
    ``misses`` make cache behaviour observable; the server republishes
    them through the obs catalogue.
    """

    def __init__(self, capacity: int = 8) -> None:
        require(capacity >= 1, f"cache capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._entries: OrderedDict[str, CompiledNetwork] = OrderedDict()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, network: Network | CompiledNetwork) -> CompiledNetwork:
        """The compiled artifact for *network*, compiling on first sight."""
        digest = model_digest(network)
        entry = self._entries.get(digest)
        if entry is not None:
            self.hits += 1
            self._entries.move_to_end(digest)
            return entry
        self.misses += 1
        compiled = compile_network(network)
        self._entries[digest] = compiled
        if len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
        return compiled

    def info(self) -> dict:
        """Snapshot: size, capacity, hit/miss counts."""
        return {
            "size": len(self._entries),
            "capacity": self.capacity,
            "hits": self.hits,
            "misses": self.misses,
        }


@dataclass
class Session:
    """One served input stream: a schedule, a tick budget, a seed.

    Lifecycle: *pending* (no lane) -> *active* (``lane`` set, spikes
    accumulating) -> *done* (``record`` set, lane released).  The
    finished record is bit-identical to a standalone sparse run of the
    same (seed, inputs) for ``n_ticks`` ticks.
    """

    session_id: str
    inputs: InputSchedule | None
    n_ticks: int
    seed: int
    lane: int | None = None
    ticks_done: int = 0
    record: SpikeRecord | None = None
    submitted_ns: int = 0
    admitted_ns: int = 0
    finalized_ns: int = 0
    preemptions: int = 0
    _ticks: list = field(default_factory=list, repr=False)
    _cores: list = field(default_factory=list, repr=False)
    _neurons: list = field(default_factory=list, repr=False)
    # Preemption state: the lane checkpoint (or its on-disk path when
    # the server has a checkpoint_dir) to restore from at readmission.
    _checkpoint: EngineCheckpoint | None = field(default=None, repr=False)
    _checkpoint_path: str | None = field(default=None, repr=False)

    @property
    def done(self) -> bool:
        """Whether the session has finished and holds its record."""
        return self.record is not None

    @property
    def wait_seconds(self) -> float:
        """SLO: submit -> lane admission wait (0.0 until admitted)."""
        if not self.admitted_ns:
            return 0.0
        return (self.admitted_ns - self.submitted_ns) * 1e-9

    @property
    def latency_seconds(self) -> float:
        """SLO: submit -> finalize latency (0.0 until finished)."""
        if not self.finalized_ns:
            return 0.0
        return (self.finalized_ns - self.submitted_ns) * 1e-9


class ModelServer:
    """Admission, batched advancement, and demux for concurrent sessions.

    One server drives one model on one batched engine of ``n_lanes``
    lanes.  Sessions past the lane count queue and are admitted as
    lanes free up (FIFO); each admission restarts the lane at tick 0
    with the session's seed, so serving order never changes any
    session's spikes.  ``step()`` advances every lane one tick and
    demuxes the pass's spikes to their sessions; ``run()`` drains the
    queue to completion.
    """

    def __init__(
        self,
        network: Network | CompiledNetwork,
        n_lanes: int = 8,
        *,
        cache: CompiledModelCache | None = None,
        obs: Observer | None = None,
        telemetry_port: int | None = None,
        checkpoint_dir: str | None = None,
    ) -> None:
        require(n_lanes >= 1, f"n_lanes must be >= 1, got {n_lanes}")
        self.checkpoint_dir = checkpoint_dir
        if telemetry_port is not None and obs is None:
            # Live endpoints need an observer feeding them; create one
            # before the engine so its tick loop records into it.
            obs = Observer()
        self.obs = obs
        self.cache = cache
        compiled = cache.get(network) if cache is not None else compile_network(network)
        self.engine = BatchedCompassSimulator(compiled, n_lanes, obs=obs)
        self.n_lanes = n_lanes
        self._base_seed = compiled.network.seed
        self._pending: deque[Session] = deque()
        self._active: dict[int, Session] = {}
        self._free: deque[int] = deque(range(n_lanes))
        self._completed: list[Session] = []
        self._live_ids: set[str] = set()  # pending or active; freed at finalize
        self._n_submitted = 0
        self._failed = False
        self._pass_wall_ns = 0
        self.telemetry: TelemetryServer | None = None
        if telemetry_port is not None:
            self.telemetry = TelemetryServer(
                obs, port=telemetry_port,
                liveness={"engine": lambda: not self._failed},
            )
        self._publish_serving_metrics()

    def close(self) -> None:
        """Shut down the telemetry server (idempotent)."""
        if self.telemetry is not None:
            self.telemetry.close()
            self.telemetry = None

    def __enter__(self) -> "ModelServer":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False

    # -- metrics -----------------------------------------------------------
    def _publish_serving_metrics(self) -> None:
        obs = active_observer(self.obs)
        if obs is None:
            return
        obs.set_gauge("repro_batch_lanes", self.n_lanes)
        obs.set_gauge("repro_batch_occupancy", len(self._active) / self.n_lanes)
        obs.metrics.counter("repro_sessions_total").set(self._n_submitted)
        obs.metrics.counter("repro_sessions_completed_total").set(
            len(self._completed)
        )
        if self.cache is not None:
            obs.metrics.counter("repro_compile_cache_hits_total").set(
                self.cache.hits
            )
            obs.metrics.counter("repro_compile_cache_misses_total").set(
                self.cache.misses
            )

    # -- session lifecycle -------------------------------------------------
    def submit(
        self,
        inputs: InputSchedule | None,
        n_ticks: int,
        *,
        seed: int | None = None,
        session_id: str | None = None,
    ) -> Session:
        """Enqueue one session; it is admitted as soon as a lane frees.

        Without an explicit *seed* the session gets a decorrelated
        derived seed (:func:`~repro.core.prng.derive_stream_seed` of
        the model's base seed by submission index — the first session
        keeps the base seed itself).  Deterministic: the same
        submission sequence always produces the same seeds, records,
        and admission order.

        A *session_id* names the session to :meth:`preempt` and its
        on-disk checkpoint, so one that is still pending or active is
        refused; it is free again once that session finalizes.  The
        default ``session-<n>`` steps past any id in use.
        """
        require(n_ticks >= 1, f"n_ticks must be >= 1, got {n_ticks}")
        if seed is None:
            seed = derive_stream_seed(self._base_seed, self._n_submitted)
        if not session_id:
            n = self._n_submitted
            while (session_id := f"session-{n}") in self._live_ids:
                n += 1
        require(
            session_id not in self._live_ids,
            f"session_id {session_id!r} is already pending or active",
        )
        self._live_ids.add(session_id)
        session = Session(
            session_id=session_id,
            inputs=inputs,
            n_ticks=int(n_ticks),
            seed=int(seed),
            submitted_ns=now_ns(),
        )
        self._n_submitted += 1
        self._pending.append(session)
        self._admit()
        return session

    def _admit(self) -> None:
        """Move pending sessions into free lanes (FIFO, lowest lane first).

        A fresh session's lane is reset to tick 0 with the session
        seed; a preempted session's lane is *restored* from its
        checkpoint instead, so the resumed run continues mid-stream
        with identical PRNG coordinates — bit-identical to a session
        that was never preempted.
        """
        obs = active_observer(self.obs)
        while self._free and self._pending:
            lane = self._free.popleft()
            session = self._pending.popleft()
            ckpt = session._checkpoint
            if ckpt is None and session._checkpoint_path is not None:
                ckpt = EngineCheckpoint.load(
                    session._checkpoint_path, self.engine.network
                )
            if ckpt is not None:
                self.engine.restore_lane(lane, ckpt)
                session._checkpoint = None
                session._checkpoint_path = None
            else:
                self.engine.reset_lane(
                    lane, seed=session.seed, inputs=session.inputs
                )
            session.lane = lane
            session.admitted_ns = now_ns()
            self._active[lane] = session
            if obs is not None:
                obs.metrics.histogram("repro_session_wait_seconds").observe(
                    session.wait_seconds
                )
        self._publish_serving_metrics()

    def preempt(self, session_id: str) -> Session:
        """Evict an active session, checkpointing its lane for later.

        The lane's complete state (membranes, in-flight ring slice,
        staged inputs, counters, lane tick) is captured as an
        :class:`~repro.io.checkpoint.EngineCheckpoint` — written to
        ``checkpoint_dir`` when the server has one, held in memory
        otherwise — the lane is freed, and the session requeues at the
        back of the pending queue.  On readmission the lane is restored
        rather than reset, so the finished record is bit-identical to
        an unpreempted run; only latency changes.  Accumulated spikes
        stay on the session object throughout.
        """
        session = next(
            (s for s in self._active.values() if s.session_id == session_id),
            None,
        )
        require(
            session is not None,
            f"session {session_id!r} is not active (cannot preempt)",
        )
        lane = session.lane
        ckpt = self.engine.snapshot_lane(lane)
        obs = active_observer(self.obs)
        if self.checkpoint_dir is not None:
            path = os.path.join(
                self.checkpoint_dir, f"{session.session_id}.npz"
            )
            n_bytes = ckpt.save(path)
            session._checkpoint_path = path
            if obs is not None:
                obs.metrics.counter("repro_checkpoint_bytes_total").inc(n_bytes)
        else:
            session._checkpoint = ckpt
        if obs is not None:
            obs.metrics.counter("repro_checkpoints_total").inc()
        session.preemptions += 1
        session.lane = None
        del self._active[lane]
        self._free.append(lane)
        self._pending.append(session)
        self._publish_serving_metrics()
        return session

    def _finalize(self, session: Session) -> None:
        """Seal a finished session's record and release its lane."""
        lane = session.lane
        counters = self.engine.lane_counters(lane)
        if session._ticks:
            session.record = SpikeRecord.from_arrays(
                np.concatenate(session._ticks),
                np.concatenate(session._cores),
                np.concatenate(session._neurons),
                counters,
            )
        else:
            empty = np.zeros(0, dtype=np.int64)
            session.record = SpikeRecord.from_arrays(empty, empty, empty, counters)
        session._ticks = session._cores = session._neurons = []
        session.finalized_ns = now_ns()
        self._live_ids.discard(session.session_id)
        del self._active[lane]
        self._free.append(lane)
        self._completed.append(session)
        obs = active_observer(self.obs)
        if obs is not None:
            obs.metrics.histogram("repro_session_latency_seconds").observe(
                session.latency_seconds
            )

    # -- advancement -------------------------------------------------------
    def step(self) -> int:
        """One batched pass: advance every lane, demux, evict, admit.

        Returns the number of sessions that completed on this pass.
        No-op (returns 0) when no session is active.
        """
        if not self._active:
            return 0
        begin = now_ns()
        try:
            lanes, ticks, cores, neurons = self.engine.step_arrays()
        except Exception as err:
            # Leave a postmortem behind before surfacing the failure;
            # /health flips to "failed" via the engine liveness probe.
            self._failed = True
            write_crash_dump(
                self.obs, "serving_step_failed",
                detail=f"pass={self.engine.passes}", exc=err,
                sanitize_report=self.engine.sanitize_report,
            )
            raise
        self._pass_wall_ns += now_ns() - begin
        finished = []
        for lane, session in self._active.items():
            if lanes.size:
                mask = lanes == lane
                if mask.any():
                    session._ticks.append(ticks[mask])
                    session._cores.append(cores[mask])
                    session._neurons.append(neurons[mask])
            session.ticks_done += 1
            if session.ticks_done >= session.n_ticks:
                finished.append(session)
        for session in finished:
            self._finalize(session)
        if finished:
            self._admit()
        else:
            self._publish_serving_metrics()
        return len(finished)

    def run(self, max_passes: int | None = None) -> list[Session]:
        """Drain the queue: step until every session completes.

        With *max_passes* the server stops early after that many
        passes.  Returns every session completed so far, in completion
        order.
        """
        self._admit()
        passes = 0
        while self._active and (max_passes is None or passes < max_passes):
            self.step()
            passes += 1
        return list(self._completed)

    # -- introspection -----------------------------------------------------
    @property
    def occupancy(self) -> float:
        """Fraction of lanes holding an active session.

        Safe at any point in the lifecycle, including before the first
        :meth:`step` (0.0 with nothing admitted).
        """
        if not self.n_lanes:  # defensive: constructor requires >= 1
            return 0.0
        return len(self._active) / self.n_lanes

    def stats(self) -> dict:
        """Server snapshot: queue depths, passes, throughput, SLO rates.

        Safe before the first :meth:`step` — the derived rates carry
        the same zero-pass guards as ``StreamReport`` (no passes ->
        0.0; passes with no measurable wall time -> ``inf``), so a
        freshly constructed server never raises from a stats scrape.
        """
        passes = self.engine.passes
        wall_s = self._pass_wall_ns * 1e-9
        lane_ticks = sum(s.n_ticks for s in self._completed) + sum(
            s.ticks_done for s in self._active.values()
        )
        out = {
            "n_lanes": self.n_lanes,
            "pending": len(self._pending),
            "active": len(self._active),
            "completed": len(self._completed),
            "submitted": self._n_submitted,
            "passes": passes,
            "lane_ticks_served": lane_ticks,
            "occupancy": self.occupancy,
            "wall_seconds": wall_s,
            "mean_pass_seconds": (
                0.0 if not passes else (wall_s / passes)
            ),
            "lane_ticks_per_second": (
                0.0 if not lane_ticks
                else (lane_ticks / wall_s if wall_s > 0.0 else float("inf"))
            ),
            "real_time_factor": (
                0.0 if not passes
                else (
                    (passes * params.TICK_SECONDS) / wall_s
                    if wall_s > 0.0 else float("inf")
                )
            ),
        }
        if self.cache is not None:
            out["cache"] = self.cache.info()
        return out
