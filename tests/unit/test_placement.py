"""Tests for corelet placement (repro.corelets.placement)."""

import numpy as np

from repro.core.builders import poisson_inputs, random_network
from repro.core.chip import ChipGeometry, DefectMap
from repro.corelets.placement import (
    connectivity_graph,
    place_connectivity_aware,
    place_row_major,
    total_wirelength,
)
from repro.hardware.simulator import TrueNorthSimulator


class TestConnectivityGraph:
    def test_edges_weighted_by_targets(self):
        net = random_network(n_cores=6, connectivity=0.4, seed=2)
        g = connectivity_graph(net)
        assert g.number_of_nodes() == 6
        for _, _, data in g.edges(data=True):
            assert data["weight"] >= 1

    def test_self_loops_excluded(self):
        net = random_network(n_cores=3, seed=1)
        g = connectivity_graph(net)
        assert all(u != v for u, v in g.edges())


class TestPlacers:
    def test_both_placements_are_complete(self):
        net = random_network(n_cores=12, seed=7)
        for placer in (place_row_major, place_connectivity_aware):
            p = placer(net)
            assert p.n_cores == 12
            coords = set(zip(p.chip_x.tolist(), p.x.tolist(), p.y.tolist()))
            assert len(coords) == 12  # no slot reused

    def test_connectivity_aware_beats_row_major_on_scattered_clusters(self):
        # Clusters whose members are interleaved in logical core order:
        # row-major placement scatters them, the BFS placer regroups them.
        rng = np.random.default_rng(0)
        from repro.core.network import Network
        from repro.core.builders import random_core

        n_clusters, per_cluster = 4, 4
        n_cores = n_clusters * per_cluster
        net = Network(seed=0)
        for c in range(n_cores):
            cluster = c % n_clusters  # interleaved membership
            members = np.arange(cluster, n_cores, n_clusters)
            core = random_core(rng, n_axons=8, n_neurons=8, n_cores=n_cores, self_core=0)
            core.target_core[:] = rng.choice(members, size=8)
            net.add_core(core)
        net.validate()
        wl_naive = total_wirelength(net, place_row_major(net))
        wl_aware = total_wirelength(net, place_connectivity_aware(net))
        assert wl_aware < wl_naive

    def test_function_invariant_under_placement(self):
        net = random_network(n_cores=8, seed=3)
        ins = poisson_inputs(net, 15, 400.0, seed=2)
        a = TrueNorthSimulator(net, placement=place_row_major(net)).run(15, ins)
        b = TrueNorthSimulator(net, placement=place_connectivity_aware(net)).run(15, ins)
        assert a == b

    def test_respects_defects(self):
        net = random_network(n_cores=4, seed=1)
        defects = DefectMap(frozenset({(0, 0, 0, 0)}))
        g = ChipGeometry(cores_x=4, cores_y=4)
        p = place_connectivity_aware(net, geometry=g, defects=defects)
        slots = set(zip(p.chip_x.tolist(), p.x.tolist(), p.y.tolist()))
        assert (0, 0, 0) not in slots

    def test_wirelength_zero_for_self_targets(self):
        net = random_network(n_cores=1, seed=1)
        assert total_wirelength(net, place_row_major(net)) == 0
