"""Property-based bit-exact resume: snapshot at ANY tick, on ANY engine.

For every builtin network and any randomly generated one — deterministic
and stochastic, gated and dense — a checkpoint captured at a random
mid-run tick must restore to a simulator whose remaining run is
bit-identical to the uninterrupted run: same spikes, same membranes,
same counters.  The cross-engine matrix is the centerpiece: a checkpoint
is engine-agnostic, so fast -> reference, fast -> batched lane,
batched lane -> fast, and the hardware expression (TrueNorthSimulator)
to and from all of them must resume bit-exactly too.
"""

from __future__ import annotations

from dataclasses import fields

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.compass.batched import BatchedCompassSimulator
from repro.compass.compile import compile_network
from repro.compass.fast import FastCompassSimulator
from repro.compass.parallel import ParallelCompassSimulator
from repro.compass.simulator import CompassSimulator
from repro.core.builders import poisson_inputs, random_network
from repro.core.record import SpikeRecord
from repro.hardware.simulator import TrueNorthSimulator
from repro.io.checkpoint import EngineCheckpoint
from repro.lint.examples import BUILTIN_NETWORKS

TICKS = 14

LOGICAL = (
    "ticks", "synaptic_events", "spikes", "deliveries", "neuron_updates",
    "membrane_saturations", "max_core_events_per_tick",
)


def assert_counters_equal(got, want, logical_only=False) -> None:
    names = LOGICAL if logical_only else tuple(
        f.name for f in fields(want) if f.name != "synaptic_events_per_core"
    )
    for name in names:
        assert getattr(got, name) == getattr(want, name), name
    np.testing.assert_array_equal(
        got.synaptic_events_per_core, want.synaptic_events_per_core
    )


def drive(sim, n_ticks):
    events = []
    step_arrays = getattr(sim, "step_arrays", None)  # all but ReferenceKernel
    for _ in range(n_ticks):
        if step_arrays is not None:
            tick, cores, neurons = step_arrays()
            events.extend(
                (tick, int(cc), int(nn)) for cc, nn in zip(cores, neurons)
            )
        else:
            events.extend(sim.step())
    return events


@st.composite
def small_networks(draw):
    n_cores = draw(st.integers(1, 4))
    size = draw(st.sampled_from([4, 8, 12]))
    stochastic = draw(st.booleans())
    seed = draw(st.integers(0, 2**31))
    connectivity = draw(st.floats(0.1, 0.9))
    return random_network(
        n_cores=n_cores, n_axons=size, n_neurons=size,
        connectivity=connectivity, stochastic=stochastic, seed=seed,
    )


@st.composite
def schedules(draw):
    # rate 0.0 -> no external inputs: resume must survive silence too.
    rate = draw(st.sampled_from([0.0, 200.0, 600.0]))
    seed = draw(st.integers(0, 2**31))
    return rate, seed


class TestFastResumeProperty:
    @given(
        name=st.sampled_from(sorted(BUILTIN_NETWORKS)),
        split=st.integers(1, TICKS - 1),
        sched=schedules(),
        gated=st.booleans(),
    )
    @settings(max_examples=30, deadline=None)
    def test_builtin_networks_resume_bit_exact(self, name, split, sched, gated):
        # Every builtin network — deterministic and stochastic, vision
        # pipelines included — resumes bit-exactly from any split tick.
        net = BUILTIN_NETWORKS[name]()
        rate, seed = sched
        ins = poisson_inputs(net, TICKS, rate, seed=seed) if rate else None
        compiled = compile_network(net)

        full = FastCompassSimulator(compiled, gated=gated)
        full.load_inputs(ins)
        full_events = drive(full, TICKS)

        first = FastCompassSimulator(compiled, gated=gated)
        first.load_inputs(ins)
        head = drive(first, split)
        ckpt = EngineCheckpoint.from_bytes(first.snapshot().to_bytes())

        resumed = FastCompassSimulator(compiled, gated=gated)
        resumed.restore(ckpt)
        tail = drive(resumed, TICKS - split)

        assert SpikeRecord.from_events(head + tail) == SpikeRecord.from_events(
            full_events
        )
        np.testing.assert_array_equal(resumed.v, full.v)
        assert_counters_equal(resumed.counters, full.counters)

    @given(net=small_networks(), split=st.integers(1, TICKS - 1),
           sched=schedules())
    @settings(max_examples=30, deadline=None)
    def test_random_networks_resume_bit_exact(self, net, split, sched):
        rate, seed = sched
        ins = poisson_inputs(net, TICKS, rate, seed=seed) if rate else None
        compiled = compile_network(net)

        full = FastCompassSimulator(compiled)
        full.load_inputs(ins)
        full_events = drive(full, TICKS)

        first = FastCompassSimulator(compiled)
        first.load_inputs(ins)
        head = drive(first, split)
        ckpt = first.snapshot()

        resumed = FastCompassSimulator(compiled)
        resumed.restore(ckpt)
        tail = drive(resumed, TICKS - split)

        assert SpikeRecord.from_events(head + tail) == SpikeRecord.from_events(
            full_events
        )
        np.testing.assert_array_equal(resumed.v, full.v)
        assert_counters_equal(resumed.counters, full.counters)


class TestCrossEngineMatrixProperty:
    @given(net=small_networks(), split=st.integers(1, TICKS - 1),
           sched=schedules())
    @settings(max_examples=15, deadline=None)
    def test_fast_to_reference_and_batched(self, net, split, sched):
        # One checkpoint, three engines: the snapshot taken on the fast
        # engine resumes bit-exactly on the reference simulator AND on
        # a batched lane — and a batched lane's snapshot resumes on the
        # fast engine.
        rate, seed = sched
        ins = poisson_inputs(net, TICKS, rate, seed=seed) if rate else None
        compiled = compile_network(net)

        full = FastCompassSimulator(compiled)
        full.load_inputs(ins)
        full_events = drive(full, TICKS)
        full_rec = SpikeRecord.from_events(full_events)

        first = FastCompassSimulator(compiled)
        first.load_inputs(ins)
        head = drive(first, split)
        ckpt = first.snapshot()

        ref = CompassSimulator(net)
        ref.restore(ckpt)
        tail = drive(ref, TICKS - split)
        assert SpikeRecord.from_events(head + tail) == full_rec
        assert_counters_equal(ref.counters, full.counters, logical_only=True)

        batched = BatchedCompassSimulator(compiled, 2)
        batched.restore_lane(1, ckpt)
        tail = []
        for _ in range(TICKS - split):
            tail.extend(
                (t, c, nn) for b, t, c, nn in batched.step() if b == 1
            )
        assert SpikeRecord.from_events(head + tail) == full_rec
        np.testing.assert_array_equal(batched.v[1], full.v)
        assert_counters_equal(
            batched.lane_counters(1), full.counters, logical_only=True
        )

        # ...and back: the end-of-run lane snapshot restores onto the
        # fast engine with the full run's membranes and tick.
        back = FastCompassSimulator(compiled)
        back.restore(batched.snapshot_lane(1))
        assert back.tick == TICKS
        np.testing.assert_array_equal(back.v, full.v)

    @given(net=small_networks(), split=st.integers(1, TICKS - 1),
           sched=schedules(),
           per_core=st.sampled_from([TrueNorthSimulator, CompassSimulator]))
    @settings(max_examples=20, deadline=None)
    def test_per_core_expressions_in_the_matrix(self, net, split, sched, per_core):
        # The hardware expression and the Compass reference speak the
        # same checkpoint: either resumes itself with every counter
        # field intact, hands over to the fast engine and a batch lane,
        # and takes over from the fast engine.
        rate, seed = sched
        ins = poisson_inputs(net, TICKS, rate, seed=seed) if rate else None
        compiled = compile_network(net)

        full = FastCompassSimulator(compiled)
        full.load_inputs(ins)
        full_rec = SpikeRecord.from_events(drive(full, TICKS))
        own_full = per_core(net)
        own_full.load_inputs(ins)
        assert SpikeRecord.from_events(drive(own_full, TICKS)) == full_rec

        first = per_core(net)
        first.load_inputs(ins)
        head = drive(first, split)
        ckpt = EngineCheckpoint.from_bytes(first.snapshot().to_bytes())

        same = per_core(net)
        same.restore(ckpt)
        assert SpikeRecord.from_events(head + drive(same, TICKS - split)) == full_rec
        np.testing.assert_array_equal(same.snapshot().v, full.v)
        assert_counters_equal(same.counters, own_full.counters)

        fast = FastCompassSimulator(compiled)
        fast.restore(ckpt)
        assert SpikeRecord.from_events(head + drive(fast, TICKS - split)) == full_rec
        np.testing.assert_array_equal(fast.v, full.v)
        assert_counters_equal(fast.counters, full.counters,
                              logical_only=True)

        batched = BatchedCompassSimulator(compiled, 2)
        batched.restore_lane(1, ckpt)
        tail = []
        for _ in range(TICKS - split):
            tail.extend((t, c, nn) for b, t, c, nn in batched.step() if b == 1)
        assert SpikeRecord.from_events(head + tail) == full_rec
        np.testing.assert_array_equal(batched.v[1], full.v)
        assert_counters_equal(batched.lane_counters(1), full.counters,
                              logical_only=True)

        # ...and the other way: fast -> the per-core expression.
        lead = FastCompassSimulator(compiled)
        lead.load_inputs(ins)
        head = drive(lead, split)
        back = per_core(net)
        back.restore(lead.snapshot())
        assert SpikeRecord.from_events(head + drive(back, TICKS - split)) == full_rec
        np.testing.assert_array_equal(back.snapshot().v, full.v)
        assert_counters_equal(back.counters, full.counters,
                              logical_only=True)

    @given(net=small_networks(), split=st.integers(1, TICKS - 1),
           sched=schedules(), n_workers=st.sampled_from([2, 3]))
    @settings(max_examples=5, deadline=None)
    def test_parallel_matrix(self, net, split, sched, n_workers):
        # (Bounded example count: each example spawns worker pools.)
        rate, seed = sched
        ins = poisson_inputs(net, TICKS, rate, seed=seed) if rate else None
        compiled = compile_network(net)

        full = FastCompassSimulator(compiled)
        full.load_inputs(ins)
        full_events = drive(full, TICKS)
        full_rec = SpikeRecord.from_events(full_events)

        par = ParallelCompassSimulator(net, n_workers=n_workers)
        try:
            par.load_inputs(ins)
            head = drive(par, split)
            ckpt = par.snapshot()
        finally:
            par.close()

        fast = FastCompassSimulator(compiled)
        fast.restore(ckpt)
        tail = drive(fast, TICKS - split)
        assert SpikeRecord.from_events(head + tail) == full_rec
        np.testing.assert_array_equal(fast.v, full.v)

        par2 = ParallelCompassSimulator(net, n_workers=n_workers)
        try:
            par2.restore(ckpt)
            tail2 = drive(par2, TICKS - split)
        finally:
            par2.close()
        assert SpikeRecord.from_events(head + tail2) == full_rec

        # The hardware expression's checkpoint scatters over a pool too.
        chip = TrueNorthSimulator(net)
        chip.load_inputs(ins)
        head3 = drive(chip, split)
        par3 = ParallelCompassSimulator(net, n_workers=2)
        try:
            par3.restore(chip.snapshot())
            tail3 = drive(par3, TICKS - split)
            v3 = par3.snapshot().v
        finally:
            par3.close()
        assert SpikeRecord.from_events(head3 + tail3) == full_rec
        np.testing.assert_array_equal(v3, full.v)
        assert_counters_equal(par3.counters, full.counters, logical_only=True)
