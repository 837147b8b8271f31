"""The pieces every sparse engine's tick shares (``repro.compass.fast``).

``update_neurons`` and the PRNG draws are lane-generic — one body
serves one lane and B — and ``TickState`` sequences them.  Each is
checked here against the simpler thing it must equal: B stacked
one-lane calls and the scalar ``ReferenceKernel``'s per-tick counter
deltas.
"""

import sys
import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from repro.apps.recurrent import probabilistic_recurrent_network
from repro.compass.batched import BatchedCompassSimulator, replica_seeds
from repro.compass.compile import TickTables, compile_network, partition_compiled, take
from repro.compass.fast import (
    FastCompassSimulator,
    TickState,
    integrate_deliveries,
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
    NETWORKS = ("rbm-sampler", "recurrent-stochastic", "random-stochastic")

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


def _uniform_network():
    """The recurrent generator at grid side 2: every plan column uniform."""
    return compile_network(probabilistic_recurrent_network(
        100.0, 16, grid_side=2, neurons_per_core=64, coupling="balanced", seed=3
    ))


def _reset_core(mode):
    """Every neuron on one reset *mode*, to a nonzero value; some leak stochastically."""
    n = 24
    k = np.arange(n)
    core = Core.build(
        n, n,
        crossbar=np.eye(n, dtype=bool),
        leak=np.where(k % 4 == 0, 100, -3),
        stoch_leak=k % 4 == 0,
        threshold=np.where(k % 2, 900, 40_000),
        neg_threshold=np.where(k % 3, 600, 200_000),
        reset_value=37,
        reset_mode=mode,
        neg_floor_mode=k % 2,
    )
    return compile_network(Network(cores=[core], seed=0))


_UPDATE_CASES = {
    "random-stochastic": lambda: _compiled("random-stochastic"),
    "every-branch": _every_branch_core,
    "uniform": _uniform_network,
    "reset-value": lambda: _reset_core(params.RESET_TO_VALUE),
    "reset-linear": lambda: _reset_core(params.RESET_LINEAR),
    "reset-none": lambda: _reset_core(params.RESET_NONE),
}


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

    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    @pytest.mark.parametrize("cut", [False, True])
    @pytest.mark.parametrize("lanes", [None, B])
    @pytest.mark.parametrize("name", sorted(_UPDATE_CASES))
    def test_frozen_inputs_fresh_outputs_listing_values(self, name, lanes, cut, dtype):
        c = _UPDATE_CASES[name]()
        plan = c.update_plan
        if name == "every-branch":
            assert plan.any_reversal and plan.reset_mode == -1
            assert set(c.neg_floor_mode.tolist()) == set(params.NEG_FLOOR_MODES)
        elif name == "uniform":  # the one-sign unit-step leak
            assert isinstance(plan.leak_draw[1], slice) and plan.leak_draw[2] == 1
        elif name.startswith("reset-"):
            assert plan.reset_mode == c.reset_mode[0] and plan.reset_value == 37
        rng = np.random.default_rng(6)
        v, syn = (a.astype(dtype) for a in _membranes(rng, (lanes or 1, c.n_neurons)))
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
            tables = TickTables(**take(c, keep, np.arange(c.n_axons), np.arange(c.n_cores)))
        v, syn = np.ascontiguousarray(v[:, keep]), np.ascontiguousarray(syn[:, keep])
        seed, tick = seeds, ticks
        if lanes is None:
            v, syn, seed, tick = v[0], syn[0], seeds[0], int(ticks[0])
            want_v, want_spiked = want_v[0], want_spiked[0]
        v.flags.writeable = syn.flags.writeable = False

        scratch = np.empty((2, (lanes or 1) * c.n_neurons), dtype=np.uint64)
        calls = [
            update_neurons(tables, seed, tick, v, syn, scratch),
            update_neurons(tables, seed, tick, v, syn, scratch),
            update_neurons(tables, seed, tick, v, syn),  # its own buffer: same answer
        ]
        for v_next, spiked in calls:
            assert v_next.dtype == np.int32
            np.testing.assert_array_equal(v_next, want_v[..., keep])
            np.testing.assert_array_equal(spiked, want_spiked[..., keep])
        outputs = [out for call in calls for out in call]
        for i, out in enumerate(outputs):
            assert out.base is None and out.flags.writeable
            for other in (v, syn, scratch, *outputs[:i]):
                assert not np.may_share_memory(out, other)


def _masked_uniform_core():
    """One core, every column uniform, a stochastic leak and threshold on all."""
    n = 16
    core = Core.build(
        n, n, crossbar=np.eye(n, dtype=bool), leak=-5, stoch_leak=True,
        threshold=50, threshold_mask=15, reset_value=3, neg_threshold=40,
    )
    return compile_network(Network(cores=[core], seed=0))


def _plan_columns(c):
    """``(plan column, the field values it narrows)`` for every column the update reads."""
    plan, neg_limit = c.update_plan, -c.neg_threshold
    pairs = [
        (plan.leak, c.leak),
        (plan.threshold, c.threshold),
        (plan.reset_value, c.reset_value),
        (plan.neg_limit, neg_limit),
        (plan.neg_floor, np.where(
            c.neg_floor_mode == params.NEG_FLOOR_SATURATE, neg_limit, -c.reset_value
        )),
    ]
    if plan.leak_draw is not None:
        lam = c.leak[c.stoch_leak_idx]
        pairs += [(plan.leak_draw[2], np.sign(lam)), (plan.leak_draw[3], np.abs(lam))]
    if plan.threshold_draw is not None:
        ti = c.stoch_threshold_idx
        pairs += [(plan.threshold_draw[2], c.threshold[ti]),
                  (plan.threshold_draw[3], c.threshold_mask[ti])]
    return pairs


class TestUpdatePlanNarrowing:
    """Every column the update reads is int32; a uniform one is one ``np.int32``."""

    @pytest.mark.parametrize("build", [_uniform_network, _masked_uniform_core])
    def test_uniform_columns_are_scalars(self, build):
        c = build()
        pairs = _plan_columns(c)
        assert len(pairs) == (9 if c.any_stoch_threshold else 7)
        for column, values in pairs:
            assert type(column) is np.int32 and column == values[0]

    @pytest.mark.parametrize("name", ["every-branch", "random-stochastic", "reset-linear"])
    def test_mixed_columns_are_int32_arrays(self, name):
        arrays = 0
        for column, values in _plan_columns(_UPDATE_CASES[name]()):
            if (values == values[0]).all():
                assert type(column) is np.int32 and column == values[0]
            else:
                assert column.dtype == np.int32
                np.testing.assert_array_equal(column, values)
                arrays += 1
        assert arrays


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
        wide, lanes = c.n_neurons, 1
        if expression == "fast":
            sim = FastCompassSimulator(c)
            spikes = sum(sim.step_arrays()[1].size for _ in range(self.TICKS))
            assert spikes and sim.counters.messages
        elif expression == "batched":  # every lane in the one mix
            lanes = 4
            sim = BatchedCompassSimulator(c, lanes)
            wide = lanes * c.n_neurons
            spikes = sum(sim.step_arrays()[0].size for _ in range(self.TICKS))
            assert spikes and sim.counters.messages
        else:  # what a parallel worker runs, in process
            part = partition_compiled(c, partition(net, 2, "round_robin"), 2).partitions[1]
            assert part.core_ids.tolist() == [1, 3]  # global ids, not contiguous
            state = TickState(part, net.seed, part.initial_v.copy())
            wide = part.n_neurons
            for tick in range(self.TICKS):
                state.update(tick, np.zeros(wide, dtype=np.int64))
        assert mixed_sizes.count(wide) == self.TICKS
        assert all(size == wide or size <= lanes * c.n_cores for size in mixed_sizes)

    def test_dense_update_allocates_no_wide_temporary(self, monkeypatch):
        """The tracemalloc peak of a steady dense ``TickState.update`` on a
        uniform 4,096-neuron network: 59,352 B at most in five ticks, under
        16 B a neuron; with int64 membranes and an int64 leak vector it was
        104,656 B (25.6 B a neuron)."""
        net = probabilistic_recurrent_network(
            200.0, 26, grid_side=4, coupling="balanced", seed=1
        )
        sim = FastCompassSimulator(net)
        for _ in range(self.TICKS):
            sim.step_arrays()
        state, peaks = sim._state, []
        update = state.update

        def traced(*args):
            tracemalloc.start()
            try:
                return update(*args)
            finally:
                peaks.append(tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()

        monkeypatch.setattr(state, "update", traced)
        spikes = sum(sim.step_arrays()[1].size for _ in range(5))
        assert spikes and state.v.dtype == np.int32
        assert max(peaks) <= 16 * net.n_neurons, peaks

    def test_steady_tick_allocates_under_24_bytes_a_neuron(self):
        """The tracemalloc peak of one steady ``step_arrays()`` on the
        4,096-neuron ``rec200x26`` network: ~90 kB (22 B a neuron), the event
        scatter's compact table being allocated once per engine, so one tick
        no longer allocates it; 52.5 B a neuron when each tick allocated a
        table of all its active rows."""
        net = probabilistic_recurrent_network(
            200.0, 26, grid_side=4, coupling="balanced", seed=1
        )
        sim = FastCompassSimulator(net)
        for _ in range(self.TICKS):
            sim.step_arrays()
        peaks = []
        for _ in range(5):
            tracemalloc.start()
            try:
                sim.step_arrays()
            finally:
                peaks.append(tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()
        assert sim.counters.synaptic_events and sim.counters.messages
        assert max(peaks) <= 24 * net.n_neurons, peaks

    def test_a_pass_draws_once_per_purpose_for_every_lane(self, monkeypatch):
        """16 lanes on distinct seeds, their ticks diverged by a reset: one
        ``draw_staged`` per purpose covers them all."""
        net = random_network(
            n_cores=16, n_axons=64, n_neurons=64, connectivity=0.3, stochastic=True, seed=4,
        )
        c = compile_network(net)
        assert c.any_stoch_synapse and c.any_stoch_leak and c.any_stoch_threshold
        lanes = 16
        sim = BatchedCompassSimulator(c, lanes, seeds=replica_seeds(net.seed, lanes))
        sim.load_inputs([poisson_inputs(net, 20, 400.0, seed=b) for b in range(lanes)])
        for _ in range(5):
            sim.step_arrays()
        sim.reset_lane(3, seed=99, inputs=poisson_inputs(net, 20, 400.0, seed=77))
        sim.step_arrays()
        assert sorted(set(sim.lane_tick.tolist())) == [1, 6]
        draws = mock.Mock(wraps=prng.draw_staged)
        monkeypatch.setattr(prng, "draw_staged", draws)
        sim.step_arrays()
        purposes = [call.args[1] for call in draws.call_args_list]
        assert sorted(purposes) == sorted(
            [prng.PURPOSE_SYNAPSE, prng.PURPOSE_LEAK, prng.PURPOSE_THRESHOLD]
        )

    def test_steady_batched_pass_allocates_under_52_bytes_a_lane_neuron(self):
        """The tracemalloc peak of one steady 16-lane pass on the network
        above: 51.3 B a lane-neuron when the draw gathered entry by entry
        into its workspace and the route looped over the lanes; 35.8 B once
        the draw copies rows and the route is one lane-flat write, shifted
        in the keys' int32 (an int64 shift of int32 keys buffers its cast)."""
        net = random_network(
            n_cores=16, n_axons=64, n_neurons=64, connectivity=0.3, stochastic=True, seed=4,
        )
        lanes = 16
        sim = BatchedCompassSimulator(net, lanes, seeds=replica_seeds(net.seed, lanes))
        sim.load_inputs([poisson_inputs(net, 40, 400.0, seed=b) for b in range(lanes)])
        for _ in range(self.TICKS):
            sim.step_arrays()
        peaks = []
        for _ in range(5):
            tracemalloc.start()
            try:
                sim.step_arrays()
            finally:
                peaks.append(tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()
        assert sim._state.events and sim.counters.messages
        assert max(peaks) <= 52 * lanes * net.n_neurons, peaks


class TestStochasticWorkspace:
    """A ``TickState``'s own lane-major stochastic tables against a call's
    and against B one-lane calls; and what a steady pass may allocate."""

    @staticmethod
    def _artifact(kind):
        net = random_network(
            n_cores=4, n_axons=16, n_neurons=16, connectivity=0.5,
            stochastic=kind != "deterministic", seed=9,
        )
        c = compile_network(net)
        assert c.any_stoch_synapse == (kind != "deterministic")
        if kind != "rank":
            return c
        part = partition_compiled(c, partition(net, 2, "round_robin"), 2).partitions[1]
        assert part.core_ids.tolist() == [1, 3]  # global ids, not contiguous
        return part

    @pytest.mark.parametrize("lanes", [1, 3, 16])
    @pytest.mark.parametrize("kind", ["whole", "rank", "deterministic"])
    def test_workspace_equals_call_local_and_single_lanes(self, kind, lanes):
        c = self._artifact(kind)
        rng = np.random.default_rng(lanes)
        seeds = [int(s) for s in rng.integers(0, 2**31, size=lanes)]
        ticks = rng.integers(0, 50, size=lanes)
        state = TickState(c, seeds, np.repeat(c.initial_v[None], lanes, axis=0))
        passes = ["none", "all", "some", "reset", "some", "all"]
        for step in passes:
            if step == "reset":  # a lane restarts on a new seed; the shared list follows
                seeds[lanes - 1], ticks[lanes - 1] = 12345, 0
            active = rng.random((lanes, c.n_axons)) < 0.3
            if step in ("none", "all"):
                active[:] = step == "all"
            active_idx = active.ravel().nonzero()[0]
            got = state.integrate(ticks, active, active_idx)
            np.testing.assert_array_equal(
                got, integrate_deliveries(c, seeds, ticks, active, active_idx)
            )
            for b in range(lanes):
                np.testing.assert_array_equal(got[b], integrate_deliveries(
                    c, seeds[b], int(ticks[b]), active[b], active[b].nonzero()[0]
                ))
            if step == "none":  # nothing drawn yet, so nothing built
                assert state._stoch is None
            elif step == "all" and c.any_stoch_synapse:  # k = B * S, the workspace's capacity
                tables = state._stoch
                assert tables.work.shape[1] == lanes * c.stoch_col.size == tables.indptr[-1]
            ticks += 1
        assert (state._stoch is None) == (not c.any_stoch_synapse)

    def test_steady_integrate_allocates_nothing_event_sized(self, monkeypatch):
        """serve_b16's network and 16 lanes at 50 Hz: a steady pass's
        tracemalloc peak inside ``TickState.integrate``, and its draws."""
        net = random_network(
            n_cores=16, n_axons=64, n_neurons=64, connectivity=0.3, stochastic=True, seed=1,
        )
        lanes = 16
        sim = BatchedCompassSimulator(net, lanes, seeds=replica_seeds(net.seed, lanes))
        sim.load_inputs([poisson_inputs(net, 30, 50.0, seed=b) for b in range(lanes)])
        for _ in range(10):
            sim.step_arrays()
        state, peaks = sim._state, []
        integrate = state.integrate

        def traced(*args):
            tracemalloc.start()
            try:
                return integrate(*args)
            finally:
                peaks.append(tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()

        monkeypatch.setattr(state, "integrate", traced)
        draws = mock.Mock(wraps=prng.draw_staged)
        monkeypatch.setattr(prng, "draw_staged", draws)
        for _ in range(5):
            sim.step_arrays()
        assert state.events > 0
        assert draws.call_count == 5 * 3  # synapse, leak and threshold, every lane in each
        assert max(peaks) <= 1.5 * 2**20, peaks


class TestTickStateStats:
    TICKS = 6

    @pytest.mark.parametrize("name", sorted(BUILTIN_NETWORKS))
    def test_per_tick_stats_equal_reference_counter_deltas(self, name):
        network = BUILTIN_NETWORKS[name]()
        inputs = poisson_inputs(network, self.TICKS, 300.0, seed=2)
        ref = ReferenceKernel(network)
        ref.load_inputs(inputs)
        sim = FastCompassSimulator(network)
        sim.load_inputs(inputs)
        st = sim._state

        for _ in range(self.TICKS):
            before = ref.counters.copy()
            want_spikes = ref.step()
            assert sim.step() == want_spikes
            after = ref.counters
            assert st.events == after.synaptic_events - before.synaptic_events
            np.testing.assert_array_equal(  # the engine's one lane
                st.per_core,
                [after.synaptic_events_per_core - before.synaptic_events_per_core],
            )
            membranes = np.concatenate([np.asarray(m) for m in ref.membranes])
            assert st.n_saturated == [np.count_nonzero(
                (membranes == params.MEMBRANE_MIN) | (membranes == params.MEMBRANE_MAX)
            )]
        assert sim.counters.synaptic_events == ref.counters.synaptic_events > 0
