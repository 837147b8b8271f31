"""Tests for NoC congestion analysis (repro.noc.congestion)."""

import pytest

from repro.apps.workloads import ANCHOR_A, ANCHOR_C, characterization_workload
from repro.core.builders import poisson_inputs, random_network
from repro.core.chip import Placement
from repro.hardware.simulator import TrueNorthSimulator
from repro.noc.congestion import (
    ROUTER_CAPACITY_PER_TICK,
    CongestionMonitor,
    TickCongestion,
    congestion_margin,
    hotspot_traffic_load,
    run_with_congestion,
    uniform_traffic_hotspot_load,
)
from repro.noc.mesh import MeshNetwork


def on_mesh(net):
    """TrueNorth on a mesh that just holds the default placement."""
    return TrueNorthSimulator(net, mesh=MeshNetwork.spanning(Placement.default(net.n_cores)))


class TestTickCongestion:
    def test_stretch_below_capacity_is_one(self):
        e = TickCongestion(0, peak_router_load=100, mean_router_load=10, total_hops=500)
        assert e.stretch() == 1.0
        assert not e.saturated

    def test_stretch_above_capacity(self):
        e = TickCongestion(0, peak_router_load=2 * ROUTER_CAPACITY_PER_TICK,
                           mean_router_load=10, total_hops=500)
        assert e.stretch() == 2.0
        assert e.saturated


class TestMonitor:
    def test_requires_detailed_noc(self):
        net = random_network(n_cores=4, seed=1)
        sim = TrueNorthSimulator(net)
        with pytest.raises(ValueError):
            CongestionMonitor(sim)

    def test_per_tick_loads_sum_to_hops(self):
        net = random_network(n_cores=6, connectivity=0.5, seed=4)
        sim = on_mesh(net)
        ins = poisson_inputs(net, 15, 500.0, seed=2)
        record, monitor = run_with_congestion(sim, 15, ins)
        assert len(monitor.history) == 15
        total = sum(e.total_hops for e in monitor.history)
        assert total == record.counters.hops > 0
        # router loads count local deliveries too: one more than the
        # hops per packet
        assert sim.mesh.load.sum() > total
        assert monitor.peak >= 1
        assert record == TrueNorthSimulator(net).run(15, ins)

    def test_no_stretch_for_small_networks(self):
        net = random_network(n_cores=4, seed=2)
        sim = on_mesh(net)
        ins = poisson_inputs(net, 10, 300.0, seed=1)
        _, monitor = run_with_congestion(sim, 10, ins)
        assert monitor.worst_stretch() == 1.0


class TestAnalyticModel:
    def test_uniform_traffic_has_huge_margin(self):
        # The paper's design claim: communication never limits real time
        # for spike-sparse workloads.  Even the heaviest characterization
        # point leaves >10x headroom on the busiest router.
        for w in (ANCHOR_A, ANCHOR_C):
            margin = congestion_margin(w)
            assert margin["uniform_utilization"] < 0.25
            assert margin["uniform_stretch"] == 1.0

    def test_adversarial_hotspot_saturates(self):
        # All-to-one traffic at high rate saturates the destination
        # router: the one pattern the mesh does NOT absorb.
        w = characterization_workload(200.0, 256.0)
        margin = congestion_margin(w)
        assert margin["hotspot_utilization"] > 1.0
        assert margin["hotspot_stretch"] > 1.0

    def test_hotspot_load_equals_spike_rate(self):
        w = ANCHOR_A
        assert hotspot_traffic_load(w) == pytest.approx(w.spikes_per_tick)

    def test_uniform_load_scales_with_hops(self):
        w_near = characterization_workload(100.0, 128.0)
        from dataclasses import replace

        w_far = replace(w_near, mean_hops=w_near.mean_hops * 2)
        assert uniform_traffic_hotspot_load(w_far) == pytest.approx(
            2 * uniform_traffic_hotspot_load(w_near)
        )
