"""Spike records: the observable output of a simulation run.

A :class:`SpikeRecord` stores every neuron firing as a (tick, core,
neuron) triple plus the run's :class:`~repro.core.counters.EventCounters`.
Records from different kernel expressions compare with ``==`` for the
one-to-one equivalence regressions of paper Section VI-A.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.counters import EventCounters
from repro.core.events import canonical_events, event_columns, event_tuples


@dataclass
class SpikeRecord:
    """All spikes emitted during a run, in canonical sorted order."""

    ticks: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    cores: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    neurons: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    counters: EventCounters = field(default_factory=EventCounters)

    @staticmethod
    def from_events(
        events: list[tuple[int, int, int]], counters: EventCounters | None = None
    ) -> "SpikeRecord":
        """Build a record from (tick, core, neuron) tuples."""
        return SpikeRecord.from_arrays(*event_columns(events), counters)

    @staticmethod
    def from_arrays(
        ticks: np.ndarray,
        cores: np.ndarray,
        neurons: np.ndarray,
        counters: EventCounters | None = None,
    ) -> "SpikeRecord":
        """Build a record from parallel (ticks, cores, neurons) arrays.

        The array path avoids per-spike Python tuples entirely; the
        canonical (tick, core, neuron) sort order matches
        :meth:`from_events`, so records built either way compare equal.
        Every sparse engine already emits that order, so it is verified
        in one pass and the arrays are taken as they are (no copy);
        only input found out of order pays the sort.
        """
        ticks, cores, neurons = canonical_events(ticks, cores, neurons)
        return SpikeRecord(
            ticks=ticks,
            cores=cores,
            neurons=neurons,
            counters=counters or EventCounters(),
        )

    @property
    def n_spikes(self) -> int:
        """Total number of recorded spikes."""
        return int(self.ticks.size)

    def as_tuples(self) -> list[tuple[int, int, int]]:
        """Return spikes as sorted (tick, core, neuron) tuples."""
        return event_tuples(self.ticks, self.cores, self.neurons)

    def spikes_at(self, tick: int) -> list[tuple[int, int]]:
        """Return (core, neuron) pairs that fired at *tick*."""
        mask = self.ticks == tick
        return event_tuples(self.cores[mask], self.neurons[mask])

    def for_core(self, core: int) -> "SpikeRecord":
        """Return the sub-record of spikes emitted by *core*."""
        mask = self.cores == core
        return SpikeRecord(
            ticks=self.ticks[mask],
            cores=self.cores[mask],
            neurons=self.neurons[mask],
            counters=self.counters,
        )

    def rate_hz(self, n_neurons: int, n_ticks: int, tick_seconds: float = 1e-3) -> float:
        """Mean per-neuron firing rate over the run."""
        if n_neurons == 0 or n_ticks == 0:
            return 0.0
        return self.n_spikes / (n_neurons * n_ticks * tick_seconds)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SpikeRecord):
            return NotImplemented
        return (
            np.array_equal(self.ticks, other.ticks)
            and np.array_equal(self.cores, other.cores)
            and np.array_equal(self.neurons, other.neurons)
        )

    def first_mismatch(self, other: "SpikeRecord") -> tuple[int, int, int] | None:
        """Return the earliest spike present in exactly one record, or None.

        This mirrors the paper's regression methodology: a single missed
        or spurious spike is a detectable, reportable divergence.
        """
        mine = set(self.as_tuples())
        theirs = set(other.as_tuples())
        diff = mine.symmetric_difference(theirs)
        if not diff:
            return None
        return min(diff)
