"""The array engine: what ``FastCompassSimulator``'s tick frame guarantees every subclass.

Fast, Compass and TrueNorth run one deliver -> integrate -> update ->
route tick and differ in their network phase alone.  That the tick
computes Listing 1 is the differential oracle's
(``tests/property/test_oracle.py``); what the frame promises beyond it —
a network phase on every tick, silent ones included, and a flight row of
four contiguous phases — is stated here once, for all three.
"""

import itertools

import numpy as np
import pytest

from repro.compass import fast
from repro.compass.engine import select_engine
from repro.core.builders import poisson_inputs, random_network
from repro.core.inputs import InputSchedule
from repro.obs import Observer

SHELL = ("fast", "compass", "truenorth")
PHASES = ("deliver", "integrate", "update", "route")
TICKS, SPLIT, QUIET, N_RANKS = 30, 13, 3, 3


@pytest.fixture(scope="module")
def network():
    net = random_network(
        n_cores=4, n_axons=10, n_neurons=10, connectivity=0.5, stochastic=True, seed=9,
    )
    for core in net.cores:  # nothing fires unprovoked: the first ticks are silent
        core.leak[:] = np.minimum(core.leak, 0)
        core.threshold_mask[:] = 0
    return net


@pytest.fixture(scope="module")
def inputs(network):
    ticks, cores, axons = poisson_inputs(network, TICKS - QUIET, 400.0, seed=3).columns()
    delayed = InputSchedule()
    delayed.add_events(ticks + QUIET, cores, axons)
    return delayed


def build(network, engine, obs=None):
    return select_engine(network, engine, n_ranks=N_RANKS, obs=obs)


def drive(sim, n_ticks):
    events = []
    for _ in range(n_ticks):
        events.extend(sim.step())
    return events


@pytest.mark.parametrize("engine", SHELL)
def test_an_observed_tick_is_four_contiguous_spans(engine, network, inputs, monkeypatch):
    """Five clock readings a tick, whatever the core count, the phases
    lying between consecutive ones: on a clock that advances one ns per
    reading every phase lasts exactly 1 and the tick exactly 4.  The
    network phase runs every tick, the first QUIET silent ones too."""
    assert network.n_cores > 1  # a per-core accumulation would read more
    clock = itertools.count()
    monkeypatch.setattr(fast, "now_ns", lambda: next(clock))
    obs = Observer()
    sim = build(network, engine, obs)
    routed_ticks = []
    network_phase = sim._network_phase

    def counted_network_phase(*spikes):
        routed_ticks.append(sim.tick)
        return network_phase(*spikes)

    sim._network_phase = counted_network_phase
    sim.load_inputs(inputs)
    head = drive(sim, SPLIT)
    # A silent tick still reaches the network phase (Compass's barrier).
    assert not any(tick < QUIET for tick, _, _ in head)
    assert routed_ticks == list(range(SPLIT))
    if engine == "compass":
        assert sim.mpi.sync_messages == 2 * (N_RANKS - 1) * SPLIT
    rows = obs.flight.rows()
    assert rows["begin_ns"].tolist() == list(range(0, 5 * SPLIT, 5))
    for name in PHASES:
        assert rows[f"{name}_ns"].tolist() == [1] * SPLIT, name
    assert rows["wall_ns"].tolist() == [4] * SPLIT
