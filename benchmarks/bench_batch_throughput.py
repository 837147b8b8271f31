"""BATCH: batched multi-replica engine throughput vs sequential runs.

Measures aggregate ticks/second of ``BatchedCompassSimulator`` advancing
B=16 replicas in one vectorized pass against the same 16 replicas run
sequentially on the sparse engine.  The serving regime the batch axis
targets is many concurrent sessions of a *small* model, where the fixed
Python per-tick cost dominates and batching amortizes it across lanes.

The deterministic workload carries the ISSUE 6 acceptance gate
(>=3x aggregate throughput at B=16); the stochastic workload pays extra
per-lane PRNG draws and is gated more loosely.  Both assert per-lane
bit-identity with the sequential runs before any speedup claim.
"""

import time

import numpy as np
import pytest

from benchmarks.conftest import emit
from repro.compass.batched import BatchedCompassSimulator
from repro.compass.compile import compile_network
from repro.compass.fast import FastCompassSimulator
from repro.core.builders import poisson_inputs, random_network

B = 16
N_TICKS = 40


def assert_lanes_match(lanes, seq):
    """Every batch lane's counters equal its sequential run's, exactly."""
    for lane, ref in zip(lanes, seq):
        for name in (
            "ticks", "synaptic_events", "spikes", "deliveries",
            "neuron_updates", "messages", "membrane_saturations",
            "max_core_events_per_tick",
        ):
            assert getattr(lane, name) == getattr(ref, name), name
        assert np.array_equal(
            lane.synaptic_events_per_core, ref.synaptic_events_per_core
        )


def serving_workload(n_cores, *, stochastic):
    """A small serving-style model plus its input schedule.

    Both sides of :func:`run_pair` stage it for real inside their timed
    regions: sixteen gathers sequentially, one shared by the batch.
    """
    net = random_network(
        n_cores=n_cores, n_axons=32, n_neurons=32,
        connectivity=0.3, stochastic=stochastic, seed=8,
    )
    compiled = compile_network(net)
    ins = poisson_inputs(net, N_TICKS, 200.0, seed=4)
    return compiled, ins


def run_pair(compiled, ins):
    """Time 16 sequential sparse runs vs one 16-lane batched run."""
    start = time.perf_counter()
    seq = []
    for _ in range(B):
        sim = FastCompassSimulator(compiled)
        sim.load_inputs(ins)
        for _ in range(N_TICKS):
            sim.step()
        seq.append(sim.counters)
    t_seq = time.perf_counter() - start

    start = time.perf_counter()
    bat = BatchedCompassSimulator(compiled, B)
    bat.load_inputs(ins)
    for _ in range(N_TICKS):
        bat.step_arrays()
    t_bat = time.perf_counter() - start
    lanes = [bat.lane_counters(b) for b in range(B)]
    return seq, lanes, t_seq, t_bat


class TestBatchThroughput:
    def test_batched_deterministic_speedup(self, benchmark):
        # ISSUE 6 acceptance gate: >=3x aggregate ticks/sec at B=16.
        compiled, ins = serving_workload(4, stochastic=False)
        seq, lanes, t_seq, t_bat = benchmark.pedantic(
            run_pair, args=(compiled, ins), rounds=1, iterations=1
        )
        speedup = t_seq / t_bat
        emit(
            f"BATCH deterministic: {speedup:.1f}x aggregate throughput at "
            f"B={B} ({t_seq * 1e3:.0f} ms -> {t_bat * 1e3:.0f} ms over "
            f"{N_TICKS} ticks, {compiled.n_cores} cores)"
        )
        assert_lanes_match(lanes, seq)  # bit-identical per lane
        assert speedup >= 3.0

    def test_batched_stochastic_speedup(self, benchmark):
        # Stochastic lanes draw their PRNG streams per lane, so the
        # amortization is smaller; gate conservatively and report.
        compiled, ins = serving_workload(9, stochastic=True)
        seq, lanes, t_seq, t_bat = benchmark.pedantic(
            run_pair, args=(compiled, ins), rounds=1, iterations=1
        )
        speedup = t_seq / t_bat
        emit(
            f"BATCH stochastic: {speedup:.1f}x aggregate throughput at "
            f"B={B} ({t_seq * 1e3:.0f} ms -> {t_bat * 1e3:.0f} ms over "
            f"{N_TICKS} ticks, {compiled.n_cores} cores)"
        )
        assert_lanes_match(lanes, seq)
        assert speedup >= 2.0

    def test_batched_lane_ticks_accounted(self, benchmark):
        # Aggregate counters must report B * N_TICKS lane-ticks: the
        # quantity the ">=3x aggregate ticks/sec" claim is measured in.
        compiled, ins = serving_workload(4, stochastic=False)

        def run():
            sim = BatchedCompassSimulator(compiled, B)
            sim.load_inputs(ins)
            for _ in range(N_TICKS):
                sim.step_arrays()
            return sim.aggregate_counters()

        agg = benchmark(run)
        assert agg.ticks == B * N_TICKS
