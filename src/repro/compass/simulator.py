"""Compass: the software (supercomputer) expression of the kernel.

What it is *for*: the rank-level message model behind Fig. 8 — how many
aggregated messages and bytes an n-rank Compass exchanges per tick,
which is what the BG/Q and x86 cost models consume — not speed (the
sparse engines are the fast expressions, and
:mod:`repro.compass.parallel` the one that runs ranks as processes).

A vectorized functional simulator for networks of neurosynaptic cores,
structured exactly like the original C++/MPI/OpenMP Compass (paper
Section III-B):

* cores are partitioned across simulated MPI ranks with load balancing;
* each tick runs the three kernel phases —
  **Synapse** (crossbar integration), **Neuron** (leak/threshold/fire),
  **Network** (spike transmission) — with spikes between ranks
  aggregated into single messages;
* a two-step synchronization closes the tick barrier.

Who owns what: state, input staging, event accounting, the delivery
ring, checkpoints and the tick — its first two phases are
:class:`~repro.compass.fast.TickState`'s integrate and update, run
dense — are :class:`~repro.compass.fast.ArrayEngine`'s, the engine the
sparse and the silicon expressions (:mod:`repro.hardware.simulator`)
subclass too; what is Compass's own is the Network phase.

Numerical semantics are bit-identical to the scalar reference kernel
(Section VI-A's one-to-one equivalence): the vectorized tick draws from
the same counter-based PRNG and applies the same integer update rules,
and the equivalence suites hold it to Listing 1 spike for spike.
"""

from __future__ import annotations

from repro.core.events import event_tuples
from repro.core.inputs import InputSchedule
from repro.core.network import Network
from repro.core.record import SpikeRecord
from repro.compass.compile import CompiledNetwork
from repro.compass.fast import ArrayEngine
from repro.compass.partition import partition
from repro.compass.simmpi import SimMPI
from repro.obs.observer import NULL_SPAN, Observer


class CompassSimulator(ArrayEngine):
    """Rank-partitioned, vectorized simulator for one network."""

    def __init__(
        self,
        network: Network | CompiledNetwork,
        n_ranks: int = 1,
        partition_strategy: str = "load_balanced",
        obs: Observer | None = None,
    ) -> None:
        """Build a Compass simulator over *n_ranks* simulated MPI ranks.

        With an *obs* observer the kernel phases are wall-clock timed per
        tick — the measurement Compass used to overlap communication
        with computation — and the partitioning gets a span of its own.
        """
        super().__init__(network, obs)
        self.n_ranks = n_ranks
        with (obs.span("partition", ranks=n_ranks)
              if obs is not None else NULL_SPAN):
            self.rank_of_core = partition(self.network, n_ranks, partition_strategy)
        self.mpi = SimMPI(n_ranks)

    def _network_phase(self, src_cores, dst_cores, dst_axons, when) -> None:
        """Send every routed spike rank to rank; exchange; close the barrier.

        Spikes between a pair of ranks aggregate into one message.
        ``messages`` accumulates per tick (see ``EventCounters``), so
        only this exchange's newly sent messages are booked.
        """
        ranks = self.rank_of_core
        for src, dst, event in zip(
            ranks[src_cores].tolist(), ranks[dst_cores].tolist(),
            event_tuples(dst_axons, when),
        ):
            self.mpi.send(src, dst, event)
        sent_before = self.mpi.messages_sent
        self.mpi.exchange()
        self.counters.messages += self.mpi.messages_sent - sent_before
        # Tick barrier: two-step synchronization.
        self.mpi.barrier_sync()


def run_compass(
    network: Network | CompiledNetwork,
    n_ticks: int,
    inputs: InputSchedule | None = None,
    n_ranks: int = 1,
    partition_strategy: str = "load_balanced",
) -> SpikeRecord:
    """Convenience one-shot Compass run."""
    sim = CompassSimulator(network, n_ranks, partition_strategy)
    return sim.run(n_ticks, inputs)
