"""The array engine: what ``ArrayEngine``'s tick guarantees for every subclass.

Fast, Compass and TrueNorth run one deliver -> integrate -> update ->
route tick and differ in their network phase alone, so what the tick
promises is stated here once, for all three, with the scalar
``ReferenceKernel`` as the only oracle.
"""

import itertools

import numpy as np
import pytest

from repro.compass import fast
from repro.compass.engine import select_engine
from repro.core import params
from repro.core.builders import poisson_inputs, random_network
from repro.core.inputs import InputSchedule
from repro.core.kernel import ReferenceKernel
from repro.core.record import SpikeRecord
from repro.obs import Observer

SHELL = ("fast", "compass", "truenorth")
PHASES = ("deliver", "integrate", "update", "route")
TICKS, SPLIT, QUIET, N_RANKS = 30, 13, 3, 3

# What every expression must agree on with Listing 1; `hops` / `messages`
# follow the expression and `active_neuron_updates` the gate.
LOGICAL = (
    "ticks", "synaptic_events", "spikes", "deliveries", "neuron_updates",
    "membrane_saturations", "max_core_events_per_tick",
)


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


@pytest.fixture(scope="module")
def oracle(network, inputs):
    """Listing 1, uninterrupted: spikes, membranes, logical counters."""
    ref = ReferenceKernel(network)
    ref.load_inputs(inputs)
    events, saturations = [], 0
    for _ in range(TICKS):
        events.extend(ref.step())
        v = np.concatenate([np.asarray(m) for m in ref.membranes])
        saturations += np.count_nonzero(
            (v == params.MEMBRANE_MIN) | (v == params.MEMBRANE_MAX)
        )
    ref.counters.membrane_saturations = saturations  # the scalar kernel books none
    assert min(tick for tick, _, _ in events) >= QUIET
    return SpikeRecord.from_events(events), v, ref.counters


def build(network, engine, obs=None):
    return select_engine(network, engine, n_ranks=N_RANKS, obs=obs)


def drive(sim, n_ticks):
    events = []
    for _ in range(n_ticks):
        events.extend(sim.step())
    return events


@pytest.mark.parametrize("engine", SHELL)
def test_the_frame_is_the_same_on_every_engine(engine, network, inputs, oracle):
    want_record, want_v, want_counters = oracle
    obs = Observer()
    sim = build(network, engine, obs)
    routed_ticks = []
    network_phase = sim._network_phase

    def counted_network_phase(*spikes):
        routed_ticks.append(sim.tick)
        network_phase(*spikes)

    sim._network_phase = counted_network_phase
    sim.load_inputs(inputs)
    head = drive(sim, SPLIT)

    # One row per tick whose four phases are the tick's wall, to the ns.
    rows = obs.flight.rows()
    assert rows["tick"].tolist() == list(range(SPLIT))
    phases = sum(rows[f"{name}_ns"] for name in PHASES)
    assert phases.tolist() == rows["wall_ns"].tolist()

    # A silent tick still reaches the network phase (Compass's barrier).
    assert not any(tick < QUIET for tick, _, _ in head)
    assert routed_ticks == list(range(SPLIT))
    if engine == "compass":
        assert sim.mpi.sync_messages == 2 * (N_RANKS - 1) * SPLIT

    # The snapshot continues on each other engine as Listing 1 would have.
    ckpt = sim.snapshot()
    for other in SHELL:
        if other == engine:
            continue
        resumed = build(network, other)
        resumed.restore(ckpt)
        tail = drive(resumed, TICKS - SPLIT)
        assert SpikeRecord.from_events(head + tail) == want_record, other
        np.testing.assert_array_equal(resumed.v, want_v, err_msg=other)
        for name in LOGICAL:
            assert getattr(resumed.counters, name) == getattr(want_counters, name), (other, name)
        np.testing.assert_array_equal(
            resumed.counters.synaptic_events_per_core,
            want_counters.synaptic_events_per_core, err_msg=other,
        )


@pytest.mark.parametrize("engine", SHELL)
def test_an_observed_tick_is_four_contiguous_spans(engine, network, inputs, monkeypatch):
    """Five clock readings a tick, whatever the core count, the phases
    lying between consecutive ones: on a clock that advances one ns per
    reading every phase lasts exactly 1 and the tick exactly 4."""
    assert network.n_cores > 1  # a per-core accumulation would read more
    clock = itertools.count()
    monkeypatch.setattr(fast, "now_ns", lambda: next(clock))
    obs = Observer()
    sim = build(network, engine, obs)
    sim.load_inputs(inputs)
    drive(sim, SPLIT)
    rows = obs.flight.rows()
    assert rows["begin_ns"].tolist() == list(range(0, 5 * SPLIT, 5))
    for name in PHASES:
        assert rows[f"{name}_ns"].tolist() == [1] * SPLIT, name
    assert rows["wall_ns"].tolist() == [4] * SPLIT
