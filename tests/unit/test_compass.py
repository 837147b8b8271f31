"""Tests for the Compass software expression (repro.compass)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compass.engine import run_engine
from repro.compass.partition import (
    partition,
    partition_block,
    partition_load_balanced,
    partition_round_robin,
    rank_loads,
)
from repro.compass.simmpi import SimMPI
from repro.compass.simulator import CompassSimulator
from repro.core.builders import poisson_inputs, random_network


def ranks(*ids):
    return np.array(ids, dtype=np.int64)


class TestSimMPI:
    def test_local_delivery_is_free(self):
        mpi = SimMPI(2)
        assert mpi.exchange(ranks(0, 1, 1), ranks(0, 1, 1)) == 0
        assert mpi.messages_sent == 0 and mpi.bytes_sent == 0

    def test_aggregation_one_message_per_pair(self):
        mpi = SimMPI(3)
        assert mpi.exchange(ranks(*[0] * 11), ranks(*[1] * 10, 2)) == 2  # aggregated
        assert mpi.messages_sent == 2
        assert mpi.bytes_sent == 11 * 8

    def test_silent_tick_books_an_exchange_and_no_message(self):
        mpi = SimMPI(4)
        assert mpi.exchange(ranks(), ranks()) == 0
        assert (mpi.exchanges, mpi.messages_sent, mpi.bytes_sent) == (1, 0, 0)

    def test_two_step_sync(self):
        mpi = SimMPI(8)
        mpi.barrier_sync()
        assert mpi.sync_steps == 2
        assert mpi.sync_messages == 2 * 7

    def test_rejects_zero_ranks(self):
        with pytest.raises(ValueError):
            SimMPI(0)

    @given(
        data=st.data(),
        n_ranks=st.integers(1, 6),
        n_ticks=st.integers(1, 4),
    )
    @settings(max_examples=60, deadline=None)
    def test_exchange_equals_a_set_of_tuples(self, data, n_ranks, n_ticks):
        """Messages are the distinct cross-rank pairs of a tick, bytes 8 per
        cross-rank event, summed over ticks — empty ones included."""
        mpi = SimMPI(n_ranks)
        want_messages = want_bytes = 0
        for _ in range(n_ticks):
            events = data.draw(st.lists(
                st.tuples(st.integers(0, n_ranks - 1), st.integers(0, n_ranks - 1)),
                max_size=30,
            ))
            cross = [(s, d) for s, d in events if s != d]
            want_messages += len(set(cross))
            want_bytes += 8 * len(cross)
            src = np.array([s for s, _ in events], dtype=np.int64)
            dst = np.array([d for _, d in events], dtype=np.int64)
            assert mpi.exchange(src, dst) == len(set(cross))
        assert (mpi.messages_sent, mpi.bytes_sent) == (want_messages, want_bytes)
        assert mpi.exchanges == n_ticks


class TestPartition:
    @pytest.fixture
    def net(self):
        return random_network(n_cores=10, seed=5)

    def test_block_contiguous(self, net):
        a = partition_block(net, 3)
        assert (np.diff(a) >= 0).all()
        assert set(a.tolist()) == {0, 1, 2}

    def test_round_robin(self, net):
        a = partition_round_robin(net, 4)
        assert a.tolist() == [0, 1, 2, 3, 0, 1, 2, 3, 0, 1]

    def test_load_balance_quality(self):
        net = random_network(n_cores=16, connectivity=0.5, seed=2)
        a = partition_load_balanced(net, 4)
        loads = rank_loads(net, a, 4)
        assert loads.max() - loads.min() <= max(c.n_synapses for c in net.cores)

    def test_every_core_assigned(self, net):
        for strategy in ("block", "round_robin", "load_balanced"):
            a = partition(net, 3, strategy)
            assert a.shape == (10,)
            assert ((a >= 0) & (a < 3)).all()

    def test_unknown_strategy(self, net):
        with pytest.raises(ValueError):
            partition(net, 2, "nope")

    def test_more_ranks_than_cores(self, net):
        a = partition(net, 32, "load_balanced")
        assert ((a >= 0) & (a < 32)).all()


class TestCompassBehaviour:
    def test_messages_counted_only_across_ranks(self):
        net = random_network(n_cores=6, connectivity=0.5, seed=4)
        ins = poisson_inputs(net, 10, 500.0, seed=3)
        one = CompassSimulator(net, n_ranks=1)
        one.run(10, ins)
        assert one.counters.messages == 0  # everything is rank-local
        many = CompassSimulator(net, n_ranks=6)
        many.run(10, ins)
        assert many.counters.messages > 0

    def test_run_is_repeatable(self):
        net = random_network(n_cores=3, stochastic=True, seed=8)
        ins = poisson_inputs(net, 12, 350.0, seed=5)
        first = run_engine(net, 12, ins, engine="compass")
        assert first == run_engine(net, 12, ins, engine="compass")

    def test_step_returns_current_tick_spikes(self):
        net = random_network(n_cores=2, connectivity=0.8, seed=1)
        ins = poisson_inputs(net, 5, 800.0, seed=1)
        sim = CompassSimulator(net)
        sim.load_inputs(ins)
        for expected_tick in range(5):
            for tick, _, _ in sim.step():
                assert tick == expected_tick
