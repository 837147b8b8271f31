"""Tests for composition inspection."""

from repro.core.builders import random_network
from repro.corelets.inspect import analyze, report_text


class TestInspection:
    def test_analyze_random_network(self):
        net = random_network(n_cores=4, n_axons=16, n_neurons=16,
                             connectivity=0.5, seed=3)
        r = analyze(net)
        assert r.n_cores == 4
        assert r.n_neurons == 64
        assert 0.3 < r.crossbar_utilization < 0.7
        assert r.max_fan_in <= 16 and r.max_fan_out <= 16
        assert r.chips_required == 1 and r.fits_one_chip

    def test_output_vs_routed_partition(self):
        net = random_network(n_cores=2, seed=1)  # all neurons routed
        r = analyze(net)
        assert r.routed_neurons + r.output_neurons == r.n_neurons
        assert r.routed_neurons == r.n_neurons

    def test_stochastic_counting(self):
        det = random_network(n_cores=2, stochastic=False, seed=5)
        sto = random_network(n_cores=2, stochastic=True, seed=5)
        assert analyze(det).stochastic_neurons == 0
        assert analyze(sto).stochastic_neurons > 0

    def test_multi_chip_requirement(self):
        from repro.core.network import Core, Network

        # 5000 one-neuron cores exceed one 4096-core chip
        cores = [Core.build(n_axons=1, n_neurons=1) for _ in range(5000)]
        net = Network(cores=cores)
        r = analyze(net)
        assert r.chips_required == 2
        assert not r.fits_one_chip

    def test_report_text(self):
        net = random_network(n_cores=2, seed=2)
        text = report_text(net)
        assert "crossbar utilization" in text
        assert "chips required" in text
