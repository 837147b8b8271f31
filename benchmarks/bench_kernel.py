"""KERN: kernel micro-benchmarks — simulator throughput per expression.

Measures wall-clock ticks/second and synaptic events/second of the
Compass (vectorized) and TrueNorth (event-driven) expressions, plus the
scalar reference kernel, on the same recurrent workload.  These numbers
are this repository's own "Compass on a workstation" datapoints.
"""

import pytest

from benchmarks.conftest import emit
from repro.apps.recurrent import probabilistic_recurrent_network
from repro.compass.compile import compile_network, n_builds
from repro.compass.fast import FastCompassSimulator
from repro.compass.simulator import CompassSimulator
from repro.core.kernel import ReferenceKernel
from repro.hardware.simulator import TrueNorthSimulator

N_TICKS = 20


@pytest.fixture(scope="module")
def workload_network():
    return probabilistic_recurrent_network(
        100.0, 32, grid_side=4, neurons_per_core=64, coupling="balanced", seed=5
    )


class TestKernelThroughput:
    def test_compass_tick_throughput(self, benchmark, workload_network):
        def run():
            sim = CompassSimulator(workload_network, n_ranks=1)
            for _ in range(N_TICKS):
                sim.step()
            return sim.counters

        counters = benchmark(run)
        emit(
            f"KERN compass: {counters.synaptic_events} synaptic events / "
            f"{N_TICKS} ticks on {workload_network.n_cores} cores"
        )
        assert counters.ticks == N_TICKS

    def test_compass_multirank_overhead(self, benchmark, workload_network):
        def run():
            sim = CompassSimulator(workload_network, n_ranks=8)
            for _ in range(N_TICKS):
                sim.step()
            return sim.counters

        counters = benchmark(run)
        assert counters.messages > 0

    def test_truenorth_tick_throughput(self, benchmark, workload_network):
        def run():
            sim = TrueNorthSimulator(workload_network)
            for _ in range(N_TICKS):
                sim.step()
            return sim.counters

        counters = benchmark(run)
        emit(
            f"KERN truenorth: {counters.hops} hops routed over {N_TICKS} ticks"
        )
        assert counters.ticks == N_TICKS

    def test_fast_compass_throughput(self, benchmark):
        # Deterministic driven network: the pure-matvec path with no
        # PRNG draws (the stochastic path is benched separately below).
        from repro.core.builders import poisson_inputs, random_network

        net = random_network(
            n_cores=16, n_axons=64, n_neurons=64, connectivity=0.3, seed=8
        )
        ins = poisson_inputs(net, N_TICKS, 200.0, seed=4)

        def run():
            sim = FastCompassSimulator(net)
            sim.load_inputs(ins)
            for _ in range(N_TICKS):
                sim.step()
            return sim.counters

        counters = benchmark(run)
        emit(
            f"KERN fast-compass: {counters.synaptic_events} synaptic events / "
            f"{N_TICKS} ticks on one sparse matrix ({net.n_cores} cores)"
        )
        assert counters.ticks == N_TICKS

    def test_fast_compass_stochastic_throughput(self, benchmark, workload_network):
        # The characterization workload drives neurons by stochastic
        # leak — the modes the sparse engine now runs directly.
        compiled = compile_network(workload_network)

        def run():
            sim = FastCompassSimulator(compiled)
            for _ in range(N_TICKS):
                sim.step()
            return sim.counters

        counters = benchmark(run)
        emit(
            f"KERN fast-compass/stochastic: {counters.synaptic_events} synaptic "
            f"events / {N_TICKS} ticks on {workload_network.n_cores} cores"
        )
        assert counters.ticks == N_TICKS

    def test_compiled_network_shared_across_simulators(self, workload_network):
        # Constructing further simulators from a CompiledNetwork must do
        # no sparse-matrix rebuild.
        compiled = compile_network(workload_network)
        before = n_builds()
        a = FastCompassSimulator(compiled)
        b = FastCompassSimulator(workload_network)
        c = CompassSimulator(compiled)
        assert n_builds() == before
        assert a.compiled is b.compiled is c.compiled is compiled

    def test_reference_kernel_throughput(self, benchmark):
        # The scalar kernel is the slow ground truth: bench a small net.
        net = probabilistic_recurrent_network(
            100.0, 8, grid_side=2, neurons_per_core=16, coupling="balanced", seed=5
        )

        def run():
            kernel = ReferenceKernel(net)
            for _ in range(N_TICKS):
                kernel.step()
            return kernel.counters

        counters = benchmark(run)
        assert counters.ticks == N_TICKS
