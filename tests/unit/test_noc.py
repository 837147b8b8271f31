"""Tests for the NoC substrate (repro.noc)."""

import pytest

from repro.noc.merge_split import ChipBoundary, Edge, MergeSplitLink
from repro.noc.mesh import MeshNetwork
from repro.noc.multichip import ChipArray, board_4x1, board_4x4
from repro.noc.router import Port, Router, dimension_order_port
from repro.core.chip import ChipGeometry


class TestRouterPortSelection:
    @pytest.mark.parametrize(
        "dst, expected",
        [
            ((5, 3), Port.EAST),
            ((1, 3), Port.WEST),
            ((3, 5), Port.NORTH),
            ((3, 1), Port.SOUTH),
            ((3, 3), Port.LOCAL),
            # x resolves before y (dimension order)
            ((5, 9), Port.EAST),
            ((0, 0), Port.WEST),
        ],
    )
    def test_dimension_order(self, dst, expected):
        assert dimension_order_port(3, 3, *dst) == expected

    def test_forward_counts(self):
        r = Router(x=0, y=0)
        r.forward(3, 0)
        r.forward(3, 2)
        r.forward(0, 0)
        assert r.forwarded[Port.EAST] == 2
        assert r.forwarded[Port.LOCAL] == 1
        assert r.total_forwarded == 3

    def test_disabled_router_refuses(self):
        r = Router(x=0, y=0, enabled=False)
        with pytest.raises(RuntimeError):
            r.forward(1, 0)


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
        hops = mesh.deliver((0, 0), (3, 2))
        assert hops == 5
        assert mesh.router(1, 0).forwarded[Port.EAST] == 1
        assert mesh.router(3, 1).forwarded[Port.NORTH] == 1
        assert mesh.router(3, 2).forwarded[Port.LOCAL] == 1

    def test_out_of_bounds_rejected(self):
        mesh = MeshNetwork(4, 4)
        with pytest.raises(ValueError):
            mesh.router(4, 0)


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
        cmap = mesh.congestion_map()
        assert cmap[(1, 0)] == 2


class TestMergeSplit:
    def test_tag_roundtrip_identity(self):
        link = MergeSplitLink(Edge.EAST, rows=64)
        for row in (0, 17, 63):
            tag, ok = link.merge(row)
            assert ok and link.split(tag) == row

    def test_capacity_enforced(self):
        link = MergeSplitLink(Edge.EAST, rows=4, capacity_per_tick=2)
        link.begin_tick()
        assert link.merge(0)[1] and link.merge(1)[1]
        assert not link.merge(2)[1]
        assert link.dropped == 1 and link.crossed == 2

    def test_tick_window_resets(self):
        link = MergeSplitLink(Edge.EAST, rows=4, capacity_per_tick=1)
        link.begin_tick()
        link.merge(0)
        link.begin_tick()
        assert link.merge(1)[1]

    def test_bad_row_rejected(self):
        link = MergeSplitLink(Edge.NORTH, rows=4)
        with pytest.raises(ValueError):
            link.merge(4)
        with pytest.raises(ValueError):
            link.split(9)

    def test_boundary_cross(self):
        b = ChipBoundary(rows=64, cols=64)
        assert b.cross(Edge.EAST, 10)
        assert b.cross(Edge.NORTH, 5)
        assert b.total_crossings == 2


class TestChipArray:
    def test_board_capacities(self):
        b41 = board_4x1()
        assert b41.n_chips == 4
        b44 = board_4x4()
        assert b44.n_chips == 16
        assert b44.n_neurons == 16 * 1024 * 1024  # "16 million neurons"
        assert b44.n_synapses == 16 * 268_435_456  # "4 billion synapses"

    def test_cross_chip_delivery(self):
        arr = ChipArray(chips_x=2, chips_y=1, geometry=ChipGeometry(cores_x=4, cores_y=4))
        arr.begin_tick()
        hops, crossings = arr.deliver((0, 0), (5, 0))
        assert hops == 5
        assert crossings == 1
        assert arr.boundary_traffic()[(0, 0)] == 1

    def test_same_chip_no_crossing(self):
        arr = ChipArray(chips_x=2, chips_y=2, geometry=ChipGeometry(cores_x=4, cores_y=4))
        arr.begin_tick()
        _, crossings = arr.deliver((0, 0), (3, 3))
        assert crossings == 0

    def test_diagonal_chip_route_crosses_twice(self):
        arr = ChipArray(chips_x=2, chips_y=2, geometry=ChipGeometry(cores_x=4, cores_y=4))
        arr.begin_tick()
        hops, crossings = arr.deliver((0, 0), (7, 7))
        assert hops == 14
        assert crossings == 2  # one x-boundary, one y-boundary

    def test_chip_of(self):
        arr = ChipArray(chips_x=2, chips_y=2, geometry=ChipGeometry(cores_x=4, cores_y=4))
        assert arr.chip_of(0, 0) == (0, 0)
        assert arr.chip_of(4, 0) == (1, 0)
        assert arr.chip_of(3, 7) == (0, 1)
