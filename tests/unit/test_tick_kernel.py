"""The pieces every sparse engine's tick shares (``repro.compass.fast``).

``update_neurons`` and ``ActivityGate`` are lane-generic — one body
serves the single-lane engines and the batched one — and ``TickState``
sequences them.  Each is checked here against the simpler thing it must
equal: B stacked one-lane calls, B one-lane gates, and the scalar
``ReferenceKernel``'s per-tick counter deltas.
"""

import sys
import threading
from unittest import mock

import numpy as np
import pytest

from repro.apps.recurrent import probabilistic_recurrent_network
from repro.compass import fast
from repro.compass.batched import BatchedCompassSimulator
from repro.compass.compile import NeuronTables, compile_network, partition_compiled, take
from repro.compass.fast import (
    ActivityGate,
    FastCompassSimulator,
    TickState,
    update_neurons,
)
from repro.compass.partition import partition
from repro.core import params, prng
from repro.core.builders import poisson_inputs, random_network
from repro.core.kernel import ReferenceKernel
from repro.core.network import Core, Network
from repro.lint.examples import BUILTIN_NETWORKS

B = 4


def _compiled(name):
    if name == "random-stochastic":  # the only one with threshold masks
        return compile_network(
            random_network(n_cores=3, n_neurons=16, stochastic=True, seed=5)
        )
    return compile_network(BUILTIN_NETWORKS[name]())


def _membranes(rng, shape):
    """Random membranes and inputs that reach both rails and every branch."""
    span = params.MEMBRANE_MAX  # sums overshoot the 20-bit range and clip
    v = rng.integers(-span, span, size=shape)
    syn = rng.integers(-span, span, size=shape)
    quiet = rng.random(shape) < 0.5  # half the neurons see small inputs
    syn[quiet] = rng.integers(-8, 8, size=shape)[quiet]
    return v, syn


class TestLaneGenericUpdate:
    NETWORKS = ("stereo", "recurrent-stochastic", "random-stochastic")

    @pytest.mark.parametrize("name", NETWORKS)
    @pytest.mark.parametrize("diverged", [False, True])
    def test_batch_equals_stacked_single_lane_calls(self, name, diverged):
        c = _compiled(name)
        v, syn = _membranes(np.random.default_rng(3), (B, c.n_neurons))
        seeds = [11, 12, 11, 14] if diverged else [11] * B
        ticks = np.array([5, 5, 9, 0]) if diverged else np.full(B, 5)

        v_next, spiked = update_neurons(c, seeds, ticks, v, syn)
        assert v_next.shape == spiked.shape == (B, c.n_neurons)
        for b in range(B):
            want_v, want_spiked = update_neurons(
                c, seeds[b], int(ticks[b]), v[b], syn[b]
            )
            assert want_v.shape == (c.n_neurons,)  # one lane stays 1-D
            np.testing.assert_array_equal(v_next[b], want_v)
            np.testing.assert_array_equal(spiked[b], want_spiked)

    def test_equal_coordinates_draw_one_row_for_the_whole_batch(self, monkeypatch):
        c = _compiled("random-stochastic")
        assert c.any_stoch_leak and c.any_stoch_threshold
        v, syn = _membranes(np.random.default_rng(4), (B, c.n_neurons))
        for name in ("effective_leak", "effective_threshold"):
            monkeypatch.setattr(fast, name, mock.Mock(wraps=getattr(fast, name)))
        update_neurons(c, [7] * B, np.full(B, 2), v, syn)
        assert fast.effective_leak.call_count == 1
        assert fast.effective_threshold.call_count == 1
        update_neurons(c, [7, 7, 8, 7], np.full(B, 2), v, syn)
        assert fast.effective_leak.call_count == 1 + B
        assert fast.effective_threshold.call_count == 1 + B


def _every_branch_core():
    """Mostly passive neurons cycling through every reset and floor mode.

    With ``RESET_NONE`` a spiking neuron keeps its membrane (so it can
    sit on the upper rail, and stays unsettled), and a floor below the
    20-bit range lets others ride the lower rail.  Leak reversal is on
    for every second block of six, so on and off for the leaky neurons.
    """
    n = 24
    k = np.arange(n)
    core = Core.build(
        n, n,
        crossbar=np.eye(n, dtype=bool),
        leak=(k % 6 == 5).astype(np.int64),  # a few always-active neurons
        leak_reversal=(k // 6) % 2 == 1,
        threshold=1000,
        neg_threshold=np.where(k % 2, 500, params.MEMBRANE_MAX),
        reset_value=7,
        reset_mode=k % 3,
        neg_floor_mode=(k // 3) % 2,
    )
    return compile_network(Network(cores=[core], seed=0))


def _listing_update(c, seed, tick, v, syn):
    """Listing 1 itself: the scalar kernel's update, neuron by neuron."""
    ref = ReferenceKernel(c.network)
    ref.seed, ref.tick = seed, tick
    rows = [
        ref._update_neuron(core, core_id, neuron, int(v[lo + neuron]), int(syn[lo + neuron]))
        for core_id, (core, lo) in enumerate(zip(c.network.cores, c.neuron_base))
        for neuron in range(core.n_neurons)
    ]
    return tuple(np.array(column) for column in zip(*rows))


class TestUpdateIsPure:
    """Frozen inputs in, fresh arrays out, whatever buffer the caller lends."""

    @pytest.mark.parametrize("cut", [False, True])
    @pytest.mark.parametrize("lanes", [None, B])
    @pytest.mark.parametrize("name", ["random-stochastic", "every-branch"])
    def test_frozen_inputs_fresh_outputs_listing_values(self, name, lanes, cut):
        c = _every_branch_core() if name == "every-branch" else _compiled(name)
        plan = c.update_plan
        if name == "every-branch":
            assert plan.any_reversal and plan.reset_mode == -1
            assert set(c.neg_floor_mode.tolist()) == set(params.NEG_FLOOR_MODES)
        rng = np.random.default_rng(6)
        v, syn = _membranes(rng, (lanes or 1, c.n_neurons))
        seeds, ticks = [11, 12, 11, 14][: lanes or 1], np.array([5, 5, 9, 0])[: lanes or 1]
        want_v, want_spiked = (
            np.stack(rows) for rows in zip(*(
                _listing_update(c, seeds[b], int(ticks[b]), v[b], syn[b])
                for b in range(lanes or 1)
            ))
        )
        tables, keep = c, np.arange(c.n_neurons)
        if cut:
            keep = np.nonzero(rng.random(c.n_neurons) < 0.6)[0]
            tables = NeuronTables(**take(NeuronTables, c, keep))
        v, syn = np.ascontiguousarray(v[:, keep]), np.ascontiguousarray(syn[:, keep])
        seed, tick = seeds, ticks
        if lanes is None:
            v, syn, seed, tick = v[0], syn[0], seeds[0], int(ticks[0])
            want_v, want_spiked = want_v[0], want_spiked[0]
        v.flags.writeable = syn.flags.writeable = False

        scratch = np.empty((2, c.n_neurons), dtype=np.uint64)
        calls = [
            update_neurons(tables, seed, tick, v, syn, scratch),
            update_neurons(tables, seed, tick, v, syn, scratch),
            update_neurons(tables, seed, tick, v, syn),  # its own buffer: same answer
        ]
        for v_next, spiked in calls:
            np.testing.assert_array_equal(v_next, want_v[..., keep])
            np.testing.assert_array_equal(spiked, want_spiked[..., keep])
        outputs = [out for call in calls for out in call]
        for i, out in enumerate(outputs):
            assert out.base is None and out.flags.writeable
            for other in (v, syn, scratch, *outputs[:i]):
                assert not np.may_share_memory(out, other)


class TestScratchIsPerEngine:
    """Engines over one artifact, interleaved or concurrent, do not meet."""

    TICKS = 30

    @pytest.fixture(scope="class")
    def shared(self):
        net = random_network(n_cores=4, n_axons=64, n_neurons=256, stochastic=True, seed=21)
        compiled = compile_network(net)
        assert compiled.any_stoch_leak and compiled.any_stoch_threshold
        inputs = [poisson_inputs(net, self.TICKS, 300.0, seed=s) for s in (1, 2)]
        apart = [FastCompassSimulator(compiled).run(self.TICKS, ins) for ins in inputs]
        assert apart[0] != apart[1]
        return compiled, inputs, apart

    def test_two_engines_stepped_alternately(self, shared):
        compiled, inputs, apart = shared
        sims = [FastCompassSimulator(compiled) for _ in inputs]
        spikes = [[], []]
        for sim, ins in zip(sims, inputs):
            sim.load_inputs(ins)
        for _ in range(self.TICKS):
            for sim, acc in zip(sims, spikes):
                acc.extend(sim.step())
        for sim, acc, want in zip(sims, spikes, apart):
            assert acc == want.as_tuples()
            assert sim.counters.messages == want.counters.messages
            np.testing.assert_array_equal(
                sim.counters.synaptic_events_per_core, want.counters.synaptic_events_per_core
            )

    def test_one_engine_stepped_from_a_second_thread(self, shared):
        compiled, inputs, apart = shared
        sims = [FastCompassSimulator(compiled) for _ in inputs]
        got = [None, None]

        def drive(i):
            got[i] = sims[i].run(self.TICKS, inputs[i])

        worker = threading.Thread(target=drive, args=(1,))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            worker.start()
            drive(0)
            worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not worker.is_alive()
        assert got == apart


class TestWorkRatchet:
    """A count, not a timing: what one steady tick may do N-wide."""

    TICKS = 10

    @pytest.fixture
    def mixed_sizes(self, monkeypatch):
        """Sizes the vectorized mixers are called with; ``np.unique`` raises."""
        sizes = []
        for name in ("_mix64", "_mix64_into"):
            mixer = getattr(prng, name)

            def recording(x, *rest, _mixer=mixer):
                sizes.append(np.size(x))
                return _mixer(x, *rest)

            monkeypatch.setattr(prng, name, recording)

        def unique(*args, **kwargs):
            raise AssertionError("np.unique on the tick path")

        monkeypatch.setattr(np, "unique", unique)
        return sizes

    @pytest.mark.parametrize("expression", ["fast", "partition", "batched"])
    def test_one_neuron_wide_mix_per_purpose_per_tick(self, expression, mixed_sizes):
        net = probabilistic_recurrent_network(
            100.0, 16, grid_side=2, neurons_per_core=64, coupling="balanced", seed=3
        )
        c = compile_network(net)
        assert c.stoch_leak_idx.size == c.n_neurons  # one active purpose: the leak
        assert not c.any_stoch_threshold and not c.any_stoch_synapse
        wide = c.n_neurons
        if expression == "fast":
            sim = FastCompassSimulator(c)
            spikes = sum(sim.step_arrays()[1].size for _ in range(self.TICKS))
            assert spikes and sim.counters.messages
        elif expression == "batched":
            sim = BatchedCompassSimulator(c, 4)
            spikes = sum(sim.step_arrays()[0].size for _ in range(self.TICKS))
            assert spikes and sim.counters.messages
        else:  # what a parallel worker runs, in process
            part = partition_compiled(c, partition(net, 2, "round_robin"), 2).partitions[1]
            assert part.core_ids.tolist() == [1, 3]  # global ids, not contiguous
            state = TickState(part, net.seed, part.initial_v.copy(), False)
            wide = part.n_neurons
            for tick in range(self.TICKS):
                state.update(tick, np.zeros(wide, dtype=np.int64), None)
        assert mixed_sizes.count(wide) == self.TICKS
        assert all(size == wide or size <= c.n_cores for size in mixed_sizes)


class TestLaneGenericGate:
    def test_batch_gate_tracks_b_single_lane_gates(self):
        """Random gated updates with one lane reset midway."""
        c = _every_branch_core()
        assert c.gating_worthwhile and (~c.passive_mask).any()
        rng = np.random.default_rng(8)
        v0, _ = _membranes(rng, (B, c.n_neurons))
        seeds = [3] * B
        batch = TickState(c, seeds, v0.copy(), True)
        lanes = [TickState(c, seeds[b], v0[b].copy(), True) for b in range(B)]
        assert isinstance(batch.gate, ActivityGate)
        saw_hot = saw_saturated = False

        for step in range(12):
            if step == 6:
                fresh = c.initial_v
                batch.set_lane(2, fresh)
                lanes[2] = TickState(c, seeds[2], fresh.copy(), True)
            _, syn = _membranes(rng, (B, c.n_neurons))
            reached = rng.random((B, c.n_neurons)) < 0.2
            syn[~reached] = 0
            touched = [np.nonzero(reached[b])[0] for b in range(B)]

            lane_f, neuron_f = batch.update(
                np.full(B, step), syn, np.concatenate(touched)
            )
            for b in range(B):
                fired, = lanes[b].update(step, syn[b], touched[b])
                np.testing.assert_array_equal(neuron_f[lane_f == b], fired)
                np.testing.assert_array_equal(batch.v[b], lanes[b].v)
                np.testing.assert_array_equal(batch.gate.hot[b], lanes[b].gate.hot)
                assert batch.gate.n_saturated[b] == lanes[b].gate.n_saturated
                assert batch.n_saturated[b] == lanes[b].n_saturated
            # One union sweep: at least every lane's own active set.
            assert batch.n_active >= max(lane.n_active for lane in lanes)
            saw_hot |= bool(batch.gate.hot.any())
            saw_saturated |= bool(batch.gate.n_saturated.any())
        assert saw_hot and saw_saturated


class TestTickStateStats:
    TICKS = 6

    @pytest.mark.parametrize("gated", [False, True])
    @pytest.mark.parametrize("name", sorted(BUILTIN_NETWORKS))
    def test_per_tick_stats_equal_reference_counter_deltas(self, name, gated):
        network = BUILTIN_NETWORKS[name]()
        inputs = poisson_inputs(network, self.TICKS, 300.0, seed=2)
        ref = ReferenceKernel(network)
        ref.load_inputs(inputs)
        sim = FastCompassSimulator(network, gated=gated)
        sim.load_inputs(inputs)
        st = sim._state

        for _ in range(self.TICKS):
            before = ref.counters.copy()
            want_spikes = ref.step()
            assert sim.step() == want_spikes
            after = ref.counters
            assert st.events == after.synaptic_events - before.synaptic_events
            np.testing.assert_array_equal(
                st.per_core,
                after.synaptic_events_per_core - before.synaptic_events_per_core,
            )
            computed = after.active_neuron_updates - before.active_neuron_updates
            if gated:
                assert st.n_active <= computed
            else:
                assert st.n_active == computed
            membranes = np.concatenate([np.asarray(m) for m in ref.membranes])
            assert st.n_saturated == np.count_nonzero(
                (membranes == params.MEMBRANE_MIN) | (membranes == params.MEMBRANE_MAX)
            )
        assert sim.counters.synaptic_events == ref.counters.synaptic_events > 0
