"""Batched multi-replica execution: B networks per vectorized pass.

The paper's headline throughput comes from amortizing fixed per-tick
cost across massive parallel work.  The array engine
(:mod:`repro.compass.fast`) already makes one tick a handful of numpy
calls — but serving many concurrent input streams would still pay that
fixed Python overhead once *per stream*.  Lanes are a leading axis of
that one engine's state and tick (``(B, N)`` membranes, ``(B,
DELAY_SLOTS, A)`` rings, counters per lane): the matvec becomes one
sparse x ``(A, B)`` product, the scatter and the stochastic-crosspoint
walk take a lane column, every PRNG purpose is one draw over a
``B x cores`` block, and the neuron update is one ``(B, N)`` sweep.
:class:`BatchedCompassSimulator` is that engine at ``B`` lanes; what it
adds is only what its name supplies — the lane count and seeds, the
TN401 seed check, the pass counter and its metrics, and the lane form
of the driving surface.

Replica independence is exact, not approximate.  Every lane carries its
own PRNG coordinates — a per-lane seed and a per-lane tick counter —
and the counter-based generator (:mod:`repro.core.prng`) makes each
draw a pure function of (seed, purpose, core, tick, unit).  Lane ``b``
therefore observes *bit-identical* spikes, counters, and membrane
trajectories to a standalone :class:`~repro.compass.fast.FastCompassSimulator`
run of the same seed and inputs, which the differential oracle holds
to Listing 1 lane by lane.  Per-lane tick counters also make lanes
restartable in place (:meth:`~repro.compass.fast.FastCompassSimulator.reset_lane`),
the primitive the serving runtime (:mod:`repro.runtime.serving`) uses
to admit a new session into a free lane mid-flight.
"""

from __future__ import annotations

import numpy as np

from repro.compass.compile import CompiledNetwork
from repro.compass.fast import (
    FastCompassSimulator,
    concat_columns,
    lane_bounds,
    stage_inputs,
    staged_inputs,
)
from repro.core.network import Network
from repro.core.prng import derive_stream_seed
from repro.core.record import SpikeRecord
from repro.obs.observer import Observer
from repro.utils.validation import require


def replica_seeds(base_seed: int, n_replicas: int) -> list[int]:
    """The default per-lane seed vector for *n_replicas* lanes.

    Lane 0 keeps *base_seed* (bit-identical to the unbatched run of the
    network as built); later lanes get decorrelated derived seeds via
    :func:`~repro.core.prng.derive_stream_seed`, pairwise distinct so
    the TN401 replica-coordinate check passes by construction.
    """
    return [derive_stream_seed(base_seed, b) for b in range(n_replicas)]


class BatchedCompassSimulator(FastCompassSimulator):
    """B independent replicas of one compiled network per vectorized pass.

    Each lane is a full, independent simulation of the same network:
    its own membranes, delivery ring, input schedule, event counters,
    seed, and tick counter.  Lanes sharing a seed observe identical
    stochastic streams (flagged by the TN401 replica check); pass
    ``seeds=replica_seeds(net.seed, B)`` for decorrelated lanes, or
    leave the default — every lane at the network's own seed — when
    replicas exist purely for throughput over identical dynamics.

    One :meth:`step_arrays` call advances *every* lane one tick.  After
    :meth:`reset_lane`, lane tick counters diverge: a pass advances
    each lane at its own local tick, which is what keeps mid-flight
    admission bit-identical to a fresh standalone run.
    """

    def __init__(
        self,
        network: Network | CompiledNetwork,
        n_replicas: int = 1,
        *,
        seeds=None,
        obs: Observer | None = None,
    ) -> None:
        require(n_replicas >= 1, f"n_replicas must be >= 1, got {n_replicas}")
        super().__init__(network, obs=obs)
        self.n_replicas = int(n_replicas)
        if seeds is None:
            seeds = [self.network.seed] * self.n_replicas
        else:
            seeds = [int(s) for s in seeds]
            require(
                len(seeds) == self.n_replicas,
                f"seeds has {len(seeds)} entries for {self.n_replicas} lanes",
            )
        # TN401 replica-coordinate check: duplicate seeds on a stochastic
        # network mean lanes observe identical streams (warning, not error).
        from repro.lint.model import check_replica_seeds

        self.lint_report = check_replica_seeds(seeds, stochastic=self.compiled.is_stochastic)
        self._start(seeds)
        self.passes = 0
        if obs is not None:
            obs.metrics.add_collector(self._collect_batch_metrics)

    def _collect_batch_metrics(self) -> None:
        """Scrape-time view of the batch width and the pass count."""
        metrics = self.obs.metrics
        metrics.gauge("repro_batch_lanes").set(self.n_replicas)
        metrics.counter("repro_batch_passes_total").set(self.passes)

    @property
    def v(self) -> np.ndarray:
        """The ``(B, N)`` membrane matrix (rebound by each pass)."""
        return self._state.v

    @property
    def counters(self):
        """Every lane's counters summed (see :meth:`aggregate_counters`)."""
        return self.aggregate_counters()

    def load_inputs(self, inputs, lane: int | None = None) -> None:
        """Stage input events: one schedule per lane, or one for all.

        *inputs* may be ``None``, a single :class:`InputSchedule`
        (staged into every lane — or just *lane* when given), or a
        sequence of ``n_replicas`` schedules (one per lane; ``None``
        entries skip a lane).  Ticks are *lane-local*: events at tick
        ``t`` arrive at the lane's own tick ``t``, matching what a
        standalone simulator fed the same schedule would see, and one
        at a tick its lane has already run is refused (``ValueError``)
        before any lane is staged.
        """
        lanes = list(range(self.n_replicas))
        if isinstance(inputs, (list, tuple)):
            require(
                len(inputs) == self.n_replicas,
                f"got {len(inputs)} schedules for {self.n_replicas} lanes",
            )
        elif lane is not None:
            lanes, inputs = [self._lane(lane)], [inputs]
        else:
            # Staged once: the lanes share the arrays.
            inputs = [None if inputs is None else staged_inputs(self.compiled, inputs)] * len(lanes)
        ticks = self.lane_tick
        stage_inputs([self._inputs[b] for b in lanes], self.compiled, inputs,
                     [int(ticks[b]) for b in lanes])

    def snapshot(self) -> list:
        """Whole-engine snapshot: one EngineCheckpoint per lane."""
        return [self.snapshot_lane(b) for b in range(self.n_replicas)]

    def restore(self, ckpts) -> None:
        """Restore every lane from a :meth:`snapshot` list."""
        require(
            len(ckpts) == self.n_replicas,
            f"got {len(ckpts)} lane checkpoints for {self.n_replicas} lanes",
        )
        for b, ckpt in enumerate(ckpts):
            self.restore_lane(b, ckpt)

    def step_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Advance every lane one tick; return per-spike arrays.

        ``(lanes, ticks, core_ids, neurons)`` — one entry per spike
        across the whole batch, each stamped with its lane's *local*
        tick.  The demux-free hot path the serving runtime drives; one
        flight row per pass, numbered by the pass.
        """
        ticks = self.lane_tick
        fired, bounds = self._pass(self.passes, self.n_replicas)
        self.passes += 1
        lanes = np.repeat(np.arange(self.n_replicas), np.diff(bounds))
        c = self.compiled
        return lanes, ticks[lanes], c.core_of_neuron[fired], c.local_neuron[fired]

    def run(self, n_ticks: int, inputs=None) -> list[SpikeRecord]:
        """Advance *n_ticks* passes; return one spike record per lane.

        *inputs* accepts the same forms as :meth:`load_inputs`.  Each
        lane's record carries its own lane counters, so element ``b``
        is bit-identical to the record of a standalone sparse run of
        lane ``b``'s (seed, inputs).
        """
        self.load_inputs(inputs)
        lanes, ticks, cores, neurons = concat_columns(self.step_arrays, n_ticks, 4)
        order = lanes.argsort(kind="stable")  # each lane one run, in pass order
        bounds = lane_bounds(lanes[order], 1, self.n_replicas)
        return [
            SpikeRecord.from_arrays(ticks[mine], cores[mine], neurons[mine], self.lane_counters(b))
            for b, mine in enumerate(np.split(order, bounds[1:-1]))
        ]
