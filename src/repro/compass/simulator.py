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
:class:`~repro.compass.fast.TickState`'s integrate and update — are
the fast engine's
(:class:`~repro.compass.fast.FastCompassSimulator`), which this class
extends, as the silicon expression (:mod:`repro.hardware.simulator`)
does.  What is Compass's own is the Network phase, and that is the fast
engine's message count over a core -> rank map: the fast engine is
Compass with every core its own rank.

Numerical semantics are bit-identical to the scalar reference kernel
(Section VI-A's one-to-one equivalence): the vectorized tick draws from
the same counter-based PRNG and applies the same integer update rules,
and the differential oracle holds it to Listing 1 spike for spike.
"""

from __future__ import annotations

from repro.core.network import Network
from repro.compass.compile import CompiledNetwork
from repro.compass.fast import FastCompassSimulator
from repro.compass.partition import partition
from repro.compass.simmpi import SimMPI
from repro.obs.observer import NULL_SPAN, Observer


class CompassSimulator(FastCompassSimulator):
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
        super().__init__(network, obs=obs)
        self.n_ranks = n_ranks
        with (obs.span("partition", ranks=n_ranks)
              if obs is not None else NULL_SPAN):
            self.rank_of_core = partition(self.network, n_ranks, partition_strategy)
        self.mpi = SimMPI(n_ranks)

    def _network_phase(self, src_cores, dst_cores, bounds) -> None:
        """Exchange the tick's spikes rank to rank; close the tick barrier.

        Spikes between a pair of ranks aggregate into one message (one
        lane: *bounds* splits nothing).
        """
        ranks = self.rank_of_core
        self.counters.messages += self.mpi.exchange(ranks[src_cores], ranks[dst_cores])
        self.mpi.barrier_sync()
