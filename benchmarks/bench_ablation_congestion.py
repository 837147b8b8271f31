"""Ablation: NoC congestion — does communication ever limit real time?

Quantifies the paper's design claim that spike traffic, "sparse in
time", never throttles the tick: uniform traffic leaves large router
margins across the whole characterization space, while only adversarial
all-to-one traffic saturates.
"""

from benchmarks.conftest import emit
from repro.analysis.report import render_table
from repro.apps.recurrent import probabilistic_recurrent_network
from repro.apps.workloads import characterization_workload
from repro.core.chip import Placement
from repro.hardware.simulator import TrueNorthSimulator
from repro.noc.congestion import congestion_margin, run_with_congestion
from repro.noc.mesh import MeshNetwork


class TestCongestionAblation:
    def test_analytic_margins_across_sweep(self, benchmark):
        def run():
            rows = []
            for rate, syn in ((20.0, 128.0), (100.0, 128.0), (200.0, 256.0)):
                w = characterization_workload(rate, syn)
                m = congestion_margin(w)
                rows.append([
                    f"{rate:g}Hz x {syn:g}", m["uniform_utilization"],
                    m["hotspot_utilization"], m["uniform_stretch"],
                    m["hotspot_stretch"],
                ])
            return rows

        rows = benchmark(run)
        emit(render_table(
            ["workload", "uniform util", "hotspot util",
             "uniform stretch", "hotspot stretch"],
            rows, title="ABLATION: router-load margins (capacity 40k pkts/tick)",
        ))
        # uniform traffic never stretches the tick anywhere on the sweep
        assert all(row[3] == 1.0 for row in rows)
        # adversarial all-to-one traffic saturates at the heavy corner
        assert rows[-1][4] > 1.0

    def test_measured_congestion_on_simulated_network(self, benchmark):
        net = probabilistic_recurrent_network(
            150.0, 16, grid_side=4, neurons_per_core=64, seed=9
        )

        def run():
            mesh = MeshNetwork.spanning(Placement.default(net.n_cores))
            sim = TrueNorthSimulator(net, mesh=mesh)
            _, monitor = run_with_congestion(sim, 20)
            return monitor

        monitor = benchmark.pedantic(run, rounds=1, iterations=1)
        emit(
            f"ABLATION: measured peak router load {monitor.peak} pkts/tick "
            f"(worst stretch {monitor.worst_stretch():.2f}) on a 16-core "
            "recurrent network at 150 Hz"
        )
        assert monitor.worst_stretch() == 1.0
