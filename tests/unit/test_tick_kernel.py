"""The pieces every sparse engine's tick shares (``repro.compass.fast``).

``update_neurons`` and ``ActivityGate`` are lane-generic — one body
serves the single-lane engines and the batched one — and ``TickState``
sequences them.  Each is checked here against the simpler thing it must
equal: B stacked one-lane calls, B one-lane gates, and the scalar
``ReferenceKernel``'s per-tick counter deltas.
"""

from unittest import mock

import numpy as np
import pytest

from repro.compass import fast
from repro.compass.compile import compile_network
from repro.compass.fast import (
    ActivityGate,
    FastCompassSimulator,
    TickState,
    update_neurons,
)
from repro.core import params
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
    20-bit range lets others ride the lower rail.
    """
    n = 24
    k = np.arange(n)
    core = Core.build(
        n, n,
        crossbar=np.eye(n, dtype=bool),
        leak=(k % 6 == 5).astype(np.int64),  # a few always-active neurons
        threshold=1000,
        neg_threshold=np.where(k % 2, 500, params.MEMBRANE_MAX),
        reset_value=7,
        reset_mode=k % 3,
        neg_floor_mode=(k // 3) % 2,
    )
    return compile_network(Network(cores=[core], seed=0))


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
