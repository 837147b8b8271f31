"""Tests for the NoC substrate (repro.noc)."""

import pytest

from repro.noc.merge_split import Edge, MergeSplitLink
from repro.noc.mesh import MeshNetwork, board_4x1, board_4x4
from repro.core.chip import ChipGeometry


class TestRouterPortSelection:
    @pytest.mark.parametrize(
        "dst, first_step",
        [
            ((5, 3), (4, 3)),  # east
            ((1, 3), (2, 3)),  # west
            ((3, 5), (3, 4)),  # north
            ((3, 1), (3, 2)),  # south
            ((3, 3), None),  # local delivery: no step
            # x resolves before y (dimension order)
            ((5, 9), (4, 3)),
            ((0, 0), (2, 3)),
        ],
        ids=["east", "west", "north", "south", "local", "x-before-y-east", "x-before-y-west"],
    )
    def test_dimension_order(self, dst, first_step):
        path = MeshNetwork(8, 10).route((3, 3), dst)
        assert (path[1] if len(path) > 1 else None) == first_step

    def test_forward_counts(self):
        mesh = MeshNetwork(4, 4)
        for dst in ((3, 0), (3, 2), (0, 0)):
            mesh.deliver((0, 0), dst)
        assert mesh.load[0, 0] == 3  # two forwarded east, one delivered locally
        assert mesh.load[1, 0] == 2

    def test_disabled_router_refuses(self):
        mesh = MeshNetwork(4, 4)
        mesh.disable(0, 0)
        with pytest.raises(RuntimeError):
            mesh.deliver((0, 0), (1, 0))


class TestMeshRouting:
    def test_straight_line(self):
        mesh = MeshNetwork(8, 8)
        path = mesh.route((0, 0), (3, 0))
        assert path == [(0, 0), (1, 0), (2, 0), (3, 0)]

    def test_x_then_y(self):
        mesh = MeshNetwork(8, 8)
        path = mesh.route((0, 0), (2, 2))
        assert path == [(0, 0), (1, 0), (2, 0), (2, 1), (2, 2)]

    def test_hops_equal_manhattan(self):
        mesh = MeshNetwork(16, 16)
        assert mesh.hops((2, 3), (9, 11)) == 7 + 8
        assert mesh.hops((9, 11), (2, 3)) == 7 + 8

    def test_self_delivery_zero_hops(self):
        mesh = MeshNetwork(4, 4)
        assert mesh.hops((2, 2), (2, 2)) == 0

    def test_deliver_updates_counters(self):
        mesh = MeshNetwork(8, 8)
        assert mesh.deliver((0, 0), (3, 2)) == (5, 0)
        path = [(0, 0), (1, 0), (2, 0), (3, 0), (3, 1), (3, 2)]
        assert all(mesh.load[xy] == 1 for xy in path)
        assert mesh.load.sum() == len(path)  # the local delivery included

    def test_out_of_bounds_rejected(self):
        mesh = MeshNetwork(4, 4)
        with pytest.raises(ValueError):
            mesh.route((0, 0), (4, 0))
        with pytest.raises(ValueError):
            mesh.deliver((-1, 0), (0, 0))


class TestDefectRouting:
    def test_detour_around_disabled_router(self):
        mesh = MeshNetwork(8, 8)
        mesh.disable(2, 0)
        path = mesh.route((0, 0), (4, 0))
        assert (2, 0) not in path
        assert path[0] == (0, 0) and path[-1] == (4, 0)
        # one sidestep costs exactly two extra hops
        assert len(path) - 1 == 4 + 2

    def test_detour_in_y_leg(self):
        mesh = MeshNetwork(8, 8)
        mesh.disable(3, 2)
        path = mesh.route((3, 0), (3, 4))
        assert (3, 2) not in path
        assert len(path) - 1 == 4 + 2

    def test_multiple_defects(self):
        mesh = MeshNetwork(10, 10)
        mesh.disable(2, 0)
        mesh.disable(5, 0)
        path = mesh.route((0, 0), (8, 0))
        assert (2, 0) not in path and (5, 0) not in path
        assert path[-1] == (8, 0)

    def test_disabled_endpoint_raises(self):
        mesh = MeshNetwork(4, 4)
        mesh.disable(3, 3)
        with pytest.raises(RuntimeError):
            mesh.route((0, 0), (3, 3))
        with pytest.raises(RuntimeError):
            mesh.route((3, 3), (0, 0))

    def test_congestion_map(self):
        mesh = MeshNetwork(4, 4)
        mesh.deliver((0, 0), (3, 0))
        mesh.deliver((0, 0), (3, 0))
        assert mesh.load[1, 0] == 2
        assert mesh.load[0, 1] == 0


class TestMergeSplit:
    def test_capacity_enforced(self):
        link = MergeSplitLink(capacity_per_tick=2)
        link.begin_tick()
        assert link.cross() and link.cross()
        assert not link.cross()
        assert link.dropped == 1 and link.crossed == 2
        assert link.peak_in_tick == 3 and link.utilization == 1.5

    def test_tick_window_resets(self):
        link = MergeSplitLink(capacity_per_tick=1)
        link.begin_tick()
        link.cross()
        link.begin_tick()
        assert link.cross()

    def test_boundary_cross(self):
        mesh = MeshNetwork.tiled(2, 2, ChipGeometry(cores_x=4, cores_y=4))
        assert mesh.deliver((3, 1), (4, 1)) == (1, 1)
        assert mesh.deliver((5, 3), (5, 4)) == (1, 1)
        assert mesh.links[(0, 0)][Edge.EAST].crossed == 1
        assert mesh.links[(1, 0)][Edge.NORTH].crossed == 1
        assert mesh.boundary_traffic() == {(0, 0): 1, (1, 0): 1}


class TestChipArray:
    def test_board_capacities(self):
        b41 = board_4x1()
        assert b41.n_chips == 4
        b44 = board_4x4()
        assert b44.n_chips == 16
        assert b44.n_neurons == 16 * 1024 * 1024  # "16 million neurons"
        assert b44.n_synapses == 16 * 268_435_456  # "4 billion synapses"

    def test_cross_chip_delivery(self):
        arr = MeshNetwork.tiled(2, 1, ChipGeometry(cores_x=4, cores_y=4))
        arr.begin_tick()
        hops, crossings = arr.deliver((0, 0), (5, 0))
        assert hops == 5
        assert crossings == 1
        assert arr.boundary_traffic()[(0, 0)] == 1

    def test_same_chip_no_crossing(self):
        arr = MeshNetwork.tiled(2, 2, ChipGeometry(cores_x=4, cores_y=4))
        arr.begin_tick()
        _, crossings = arr.deliver((0, 0), (3, 3))
        assert crossings == 0

    def test_diagonal_chip_route_crosses_twice(self):
        arr = MeshNetwork.tiled(2, 2, ChipGeometry(cores_x=4, cores_y=4))
        arr.begin_tick()
        hops, crossings = arr.deliver((0, 0), (7, 7))
        assert hops == 14
        assert crossings == 2  # one x-boundary, one y-boundary

    def test_chip_of(self):
        arr = MeshNetwork.tiled(2, 2, ChipGeometry(cores_x=4, cores_y=4))
        assert arr.chip_of(0, 0) == (0, 0)
        assert arr.chip_of(4, 0) == (1, 0)
        assert arr.chip_of(3, 7) == (0, 1)

    def test_detour_crosses_chip_edges(self):
        # Router (3, 1) is dead: the y-leg (3, 0) -> (3, 3) goes around
        # it in column 4, on the next chip, and so crosses twice.
        arr = MeshNetwork.tiled(2, 1, ChipGeometry(cores_x=4, cores_y=4))
        arr.disable(3, 1)
        assert arr.deliver((3, 0), (3, 3)) == (5, 2)
        assert arr.links[(0, 0)][Edge.EAST].crossed == 1
        assert arr.links[(1, 0)][Edge.WEST].crossed == 1

    def test_mesh_ending_inside_a_chip(self):
        mesh = MeshNetwork(5, 3, ChipGeometry(cores_x=4, cores_y=4))
        assert mesh.n_chips == 2
        assert mesh.deliver((0, 0), (4, 2)) == (6, 1)
        assert MeshNetwork(8, 8).n_chips == 1
