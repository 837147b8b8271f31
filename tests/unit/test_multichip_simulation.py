"""Tests for detailed multi-chip simulation (TrueNorthSimulator + ChipArray)."""

import pytest

from repro.core.builders import poisson_inputs, random_network
from repro.core.chip import ChipGeometry, Placement
from repro.hardware.simulator import TrueNorthSimulator
from repro.noc.multichip import ChipArray


def two_chip_placement(n_cores, cores_per_side=4):
    """Place cores across a 2x1 array of small demo chips."""
    g = ChipGeometry(cores_x=cores_per_side, cores_y=cores_per_side)
    p = Placement.grid(n_cores, g)
    return p, g


class TestChipArraySimulation:
    def test_functional_equivalence_with_plain_simulation(self):
        net = random_network(n_cores=20, connectivity=0.4, seed=6)
        placement, g = two_chip_placement(20)
        array = ChipArray(chips_x=2, chips_y=1, geometry=g)
        ins = poisson_inputs(net, 15, 400.0, seed=3)

        plain = TrueNorthSimulator(net, placement=placement).run(15, ins)
        tiled_sim = TrueNorthSimulator(net, placement=placement, chip_array=array)
        tiled = tiled_sim.run(15, ins)
        assert tiled == plain
        assert tiled.counters.hops == plain.counters.hops
        assert tiled_sim.boundary_crossings == 0 or tiled_sim.boundary_crossings > 0

    def test_boundary_links_accumulate_traffic(self):
        net = random_network(n_cores=20, connectivity=0.5, seed=9)
        placement, g = two_chip_placement(20)
        array = ChipArray(chips_x=2, chips_y=1, geometry=g)
        sim = TrueNorthSimulator(net, placement=placement, chip_array=array)
        sim.run(15, poisson_inputs(net, 15, 500.0, seed=2))
        total_link_traffic = sum(
            link.crossed
            for boundary in array.boundaries.values()
            for link in boundary.links.values()
        )
        assert total_link_traffic == sim.boundary_crossings
        assert sim.boundary_crossings > 0

    def test_crossings_match_analytic_counting(self):
        net = random_network(n_cores=20, connectivity=0.4, seed=6)
        placement, g = two_chip_placement(20)
        array = ChipArray(chips_x=2, chips_y=1, geometry=g)
        ins = poisson_inputs(net, 12, 400.0, seed=1)
        tiled = TrueNorthSimulator(net, placement=placement, chip_array=array)
        tiled.run(12, ins)
        plain = TrueNorthSimulator(net, placement=placement)
        plain.run(12, ins)
        assert tiled.boundary_crossings == plain.boundary_crossings

    def test_placement_must_fit_array(self):
        net = random_network(n_cores=20, seed=1)
        placement, g = two_chip_placement(20)
        small = ChipArray(chips_x=1, chips_y=1, geometry=g)
        with pytest.raises(ValueError, match="fit"):
            TrueNorthSimulator(net, placement=placement, chip_array=small)

    def test_incompatible_options_rejected(self):
        net = random_network(n_cores=4, seed=1)
        g = ChipGeometry(cores_x=2, cores_y=2)
        array = ChipArray(chips_x=1, chips_y=1, geometry=g)
        with pytest.raises(ValueError, match="combine"):
            TrueNorthSimulator(
                net, placement=Placement.grid(4, g), chip_array=array,
                detailed_noc=True,
            )
