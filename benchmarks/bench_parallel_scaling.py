"""PAR: parallel-engine scaling — the multi-worker speedup, measured.

The shared-memory partitioned engine exists to beat the single-process
sparse path on large workloads (paper Fig. 8: Compass's strong scaling
across BG/Q ranks).  This module measures exactly that claim on a
>=128-core recurrent workload and asserts the >=2x win with 4 workers,
plus the crossover behaviour that grounds the ``engine="auto"``
thresholds (:data:`repro.compass.parallel.AUTO_MIN_NEURONS`).

The speedup assertion needs real CPUs to share the work: on hosts with
fewer than 4 usable cores the workers serialize and the measurement
would say nothing about the engine, so it is skipped there (the
bit-identity checks always run).
"""

import time

import pytest

from benchmarks.conftest import emit
from repro.apps.recurrent import probabilistic_recurrent_network
from repro.compass.compile import compile_network
from repro.compass.fast import FastCompassSimulator
from repro.compass.parallel import (
    AUTO_MAX_WORKERS,
    AUTO_MIN_NEURONS,
    ParallelCompassSimulator,
    _usable_cpus,
    auto_workers,
)

N_TICKS = 20
CROSSOVER_TICKS = 60


@pytest.fixture(scope="module")
def large_network():
    # 144 cores x 64 neurons = 9216 neurons: comfortably past the
    # >=128-core acceptance bar (engines are named explicitly here;
    # "auto" stays single-process far beyond this size).
    net = probabilistic_recurrent_network(
        100.0, 32, grid_side=12, neurons_per_core=64, coupling="balanced", seed=5
    )
    assert net.n_cores >= 128
    return net


def _ticks_per_second(sim, n_ticks: int) -> float:
    start = time.perf_counter()
    for _ in range(n_ticks):
        sim.step_arrays()
    return n_ticks / (time.perf_counter() - start)


class TestParallelScaling:
    def test_parallel_matches_fast_on_large_workload(self, benchmark, large_network):
        # Bit-identity on the benchmark workload itself, so the timing
        # comparison below compares equal computations.
        compiled = compile_network(large_network)

        def run_pair():
            fast = FastCompassSimulator(compiled)
            par = ParallelCompassSimulator(compiled, n_workers=4)
            try:
                for _ in range(5):
                    tick_f, cores_f, neurons_f = fast.step_arrays()
                    tick_p, cores_p, neurons_p = par.step_arrays()
                    assert tick_f == tick_p
                    assert (cores_f == cores_p).all()
                    assert (neurons_f == neurons_p).all()
            finally:
                par.close()
            return fast.counters, par.counters

        fast_c, par_c = benchmark.pedantic(run_pair, rounds=1, iterations=1)
        assert fast_c.spikes == par_c.spikes
        assert fast_c.synaptic_events == par_c.synaptic_events

    @pytest.mark.skipif(
        _usable_cpus() < 4,
        reason="speedup needs >=4 usable CPUs; workers would serialize here",
    )
    def test_parallel_speedup_on_many_cores(self, benchmark, large_network):
        # The tentpole claim: >=2x faster than the single-process sparse
        # engine with 4 workers on a >=128-core workload.
        compiled = compile_network(large_network)

        def run_pair():
            fast = FastCompassSimulator(compiled)
            tps_fast = _ticks_per_second(fast, N_TICKS)
            par = ParallelCompassSimulator(compiled, n_workers=4)
            try:
                par.step_arrays()  # spawn + warm the pool off the clock
                tps_par = _ticks_per_second(par, N_TICKS)
            finally:
                par.close()
            return tps_fast, tps_par

        tps_fast, tps_par = benchmark.pedantic(run_pair, rounds=1, iterations=1)
        speedup = tps_par / tps_fast
        emit(
            f"PAR speedup: {speedup:.2f}x with 4 workers on "
            f"{large_network.n_cores} cores ({tps_fast:.0f} -> {tps_par:.0f} "
            f"ticks/s, {_usable_cpus()} usable CPUs)"
        )
        assert speedup >= 2.0

    def test_auto_threshold_crossover(self, benchmark):
        # Measure fast vs parallel per-tick cost across sizes, with the
        # worker count "auto" would pick on this host: the data behind
        # AUTO_MIN_NEURONS (table in docs/performance.md).  Pure
        # measurement — the auto policy itself is asserted below and in
        # the unit suite.
        workers = max(2, min(AUTO_MAX_WORKERS, _usable_cpus()))

        def run_sweep():
            rows = []
            for grid, per_core in ((4, 64), (12, 64), (8, 256), (16, 256)):
                net = probabilistic_recurrent_network(
                    100.0, 32, grid_side=grid, neurons_per_core=per_core,
                    coupling="balanced", seed=5,
                )
                compiled = compile_network(net)
                fast = FastCompassSimulator(compiled)
                fast.step_arrays()  # derived tables and caches off the clock
                fast_tps = _ticks_per_second(fast, CROSSOVER_TICKS)
                par = ParallelCompassSimulator(compiled, n_workers=workers)
                try:
                    par.step_arrays()
                    par_tps = _ticks_per_second(par, CROSSOVER_TICKS)
                finally:
                    par.close()
                rows.append((net.n_cores, net.n_neurons, fast_tps, par_tps))
            return rows

        rows = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
        lines = [
            f"  {cores:4d} cores {neurons:5d} neurons: "
            f"fast {f_tps:8.0f} ticks/s  parallel({workers}w) {p_tps:8.0f} ticks/s  "
            f"{p_tps / f_tps:.2f}x"
            for cores, neurons, f_tps, p_tps in rows
        ]
        emit("PAR crossover (grounds AUTO_MIN_NEURONS):\n" + "\n".join(lines))

    def test_small_network_latency_guarded_by_auto(self, benchmark):
        # <=16-core latency must not regress: "auto" keeps such networks
        # on the single-process path (1024 neurons < AUTO_MIN_NEURONS),
        # so their per-tick cost is exactly the sparse engine's.
        net = probabilistic_recurrent_network(
            100.0, 32, grid_side=4, neurons_per_core=64,
            coupling="balanced", seed=5,
        )
        assert net.n_cores <= 16
        assert net.n_neurons < AUTO_MIN_NEURONS
        assert auto_workers(net) == 1
        compiled = compile_network(net)

        def run():
            sim = FastCompassSimulator(compiled)
            for _ in range(N_TICKS):
                sim.step_arrays()
            return sim.counters

        counters = benchmark(run)
        emit(
            f"PAR small-net guard: {net.n_cores} cores stay single-process "
            f"under auto ({counters.synaptic_events} synaptic events / "
            f"{N_TICKS} ticks)"
        )
        assert counters.ticks == N_TICKS
