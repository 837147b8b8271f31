"""Tests for workload descriptors (repro.core.workload)."""

import pytest

from repro.compass.engine import run_engine
from repro.core.builders import poisson_inputs, random_network
from repro.core.workload import WorkloadDescriptor


def anchor_a():
    return WorkloadDescriptor(
        name="anchor-A", n_neurons=2**20, n_cores=4096, rate_hz=20.0, active_synapses=128.0
    )


class TestDescriptor:
    def test_per_tick_counts(self):
        w = anchor_a()
        assert w.spikes_per_tick == pytest.approx(2**20 * 0.020)
        assert w.syn_events_per_tick == pytest.approx(2**20 * 0.020 * 128)
        assert w.neuron_updates_per_tick == 2**20

    def test_sops_matches_paper_definition(self):
        w = anchor_a()
        assert w.sops == pytest.approx(20 * 128 * 2**20)

    def test_busiest_core_balanced(self):
        w = anchor_a()
        assert w.busiest_core_events_per_tick == pytest.approx(
            w.syn_events_per_tick / 4096
        )

    def test_imbalance_scales_busiest_core(self):
        w = WorkloadDescriptor(
            name="x", n_neurons=1000, n_cores=10, rate_hz=10, active_synapses=10,
            load_imbalance=2.0,
        )
        assert w.busiest_core_events_per_tick == pytest.approx(
            2.0 * w.syn_events_per_tick / 10
        )

    def test_scaled_to(self):
        w = anchor_a().scaled_to(n_neurons=512, n_cores=2)
        assert w.rate_hz == 20.0 and w.n_neurons == 512

    def test_validation(self):
        with pytest.raises(ValueError):
            WorkloadDescriptor("bad", 0, 1, 10, 10)
        with pytest.raises(ValueError):
            WorkloadDescriptor("bad", 10, 1, -1, 10)
        with pytest.raises(ValueError):
            WorkloadDescriptor("bad", 10, 1, 1, 10, load_imbalance=0.5)


class TestFromCounters:
    def test_measured_descriptor_consistent(self):
        net = random_network(n_cores=4, n_neurons=16, n_axons=16, connectivity=0.5, seed=3)
        ins = poisson_inputs(net, 50, 400.0, seed=1)
        rec = run_engine(net, 50, ins, engine="truenorth")
        w = WorkloadDescriptor.from_counters("measured", rec.counters, net.n_cores)
        assert w.n_neurons == 64
        assert w.rate_hz == pytest.approx(rec.counters.mean_firing_rate_hz)
        assert w.syn_events_per_tick * 50 == pytest.approx(
            rec.counters.synaptic_events, rel=1e-6
        )
        assert w.load_imbalance >= 1.0

    def test_requires_executed_run(self):
        from repro.core.counters import EventCounters

        with pytest.raises(ValueError):
            WorkloadDescriptor.from_counters("x", EventCounters(), 1)
