"""Tests for chip geometry, placement, and defect maps (repro.core.chip)."""

import numpy as np
import pytest

from repro.core.chip import ChipGeometry, DefectMap, Placement
from repro.noc.mesh import MeshNetwork


class TestGeometry:
    def test_default_is_truenorth(self):
        g = ChipGeometry()
        assert g.cores_x == 64 and g.cores_y == 64
        assert g.cores_per_chip == 4096


class TestGridPlacement:
    def test_row_major_single_chip(self):
        p = Placement.grid(5, ChipGeometry(cores_x=2, cores_y=4))
        assert p.x.tolist() == [0, 1, 0, 1, 0]
        assert p.y.tolist() == [0, 0, 1, 1, 2]
        assert p.n_chips == 1

    def test_overflow_to_second_chip(self):
        p = Placement.grid(10, ChipGeometry(cores_x=2, cores_y=4))
        assert p.n_cores == 10
        assert p.n_chips == 2
        assert p.chip_x[8] == 1 and p.x[8] == 0 and p.y[8] == 0

    def test_full_truenorth_chip(self):
        p = Placement.grid(4096)
        assert p.n_chips == 1
        assert p.x.max() == 63 and p.y.max() == 63

    def test_defects_are_skipped(self):
        defects = DefectMap(frozenset({(0, 0, 0, 0), (0, 0, 1, 0)}))
        p = Placement.grid(4, ChipGeometry(cores_x=2, cores_y=4), defects)
        assert (p.x[0], p.y[0]) == (0, 1)  # first row skipped entirely
        assert p.n_cores == 4

    def test_too_many_defects_raises(self):
        g = ChipGeometry(cores_x=2, cores_y=2)
        slots = frozenset((cx, 0, x, y) for cx in range(64) for x in range(2) for y in range(2))
        with pytest.raises(ValueError):
            Placement.grid(4, g, DefectMap(slots))


def route(p, src, dst):
    """One route's (hops, crossings) through the array form."""
    hops, crossings = p.route_lengths(np.array([src]), np.array([dst]))
    return int(hops[0]), int(crossings[0])


class TestHops:
    def test_same_core_zero_hops(self):
        p = Placement.compact(4)
        assert route(p, 2, 2) == (0, 0)

    def test_manhattan_distance(self):
        p = Placement.grid(8, ChipGeometry(cores_x=4, cores_y=4))
        # core0 at (0,0), core7 at (3,1): |3-0| + |1-0| = 4
        assert route(p, 0, 7) == (4, 0)

    def test_symmetric(self):
        p = Placement.compact(9)
        a, b = (ids.ravel() for ids in np.meshgrid(np.arange(9), np.arange(9)))
        np.testing.assert_array_equal(p.route_lengths(a, b), p.route_lengths(b, a))

    def test_cross_chip_hops_use_global_grid(self):
        g = ChipGeometry(cores_x=2, cores_y=2)
        p = Placement.grid(8, g)  # two 2x2 chips side by side
        # core0 at chip0 (0,0) -> global (0,0); core4 at chip1 (0,0) -> global (2,0)
        assert route(p, 0, 4) == (2, 1)

    def test_vectorized_matches_a_per_pair_loop(self):
        """Two rows of chips, defects skipped: every route against the
        coordinates read one pair at a time."""
        g = ChipGeometry(cores_x=3, cores_y=3)
        defects = DefectMap(frozenset({(0, 0, 1, 1), (1, 0, 0, 0), (2, 0, 2, 2)}))
        strip = Placement.grid(30, g, defects)
        p = Placement(chip_x=strip.chip_x % 2, chip_y=strip.chip_x // 2,
                      x=strip.x, y=strip.y, geometry=g)
        assert p.n_chips == 4
        rng = np.random.default_rng(0)
        src, dst = rng.integers(0, 30, 200), rng.integers(0, 30, 200)
        hops, crossings = p.route_lengths(src, dst)
        for s, d, h, c in zip(src.tolist(), dst.tolist(), hops.tolist(), crossings.tolist()):
            gx = [p.chip_x[i] * 3 + p.x[i] for i in (s, d)]
            gy = [p.chip_y[i] * 3 + p.y[i] for i in (s, d)]
            assert h == abs(gx[1] - gx[0]) + abs(gy[1] - gy[0])
            assert c == abs(p.chip_x[d] - p.chip_x[s]) + abs(p.chip_y[d] - p.chip_y[s])

    def test_coordinates_are_read_only_once_placed(self):
        p = Placement.compact(4)
        with pytest.raises(ValueError):
            p.x[0] = 3


class TestCompactPlacement:
    def test_near_square(self):
        p = Placement.compact(10)
        assert p.n_cores == 10
        assert p.x.max() <= 3 and p.y.max() <= 3

    def test_rejects_oversize(self):
        with pytest.raises(ValueError):
            Placement.compact(5000)


class TestDefaultPlacement:
    """The simulator's placement rule, and a mesh sized to it, above one chip."""

    def test_compact_up_to_one_chip(self):
        for n in (1, 10, 4096):
            p = Placement.default(n)
            q = Placement.compact(n)
            assert p.n_chips == 1
            for a, b in zip((p.chip_x, p.chip_y, p.x, p.y), (q.chip_x, q.chip_y, q.x, q.y)):
                np.testing.assert_array_equal(a, b)

    def test_grid_above_one_chip(self):
        p = Placement.default(4097)  # where Placement.compact raises
        q = Placement.grid(4097)
        assert p.n_cores == 4097 and p.n_chips == 2
        for a, b in zip((p.chip_x, p.chip_y, p.x, p.y), (q.chip_x, q.chip_y, q.x, q.y)):
            np.testing.assert_array_equal(a, b)
        mesh = MeshNetwork.spanning(p)
        assert (mesh.width, mesh.height) == (65, 64)  # the second chip holds one core


class TestDefectMap:
    def test_from_fraction_count(self):
        g = ChipGeometry(cores_x=8, cores_y=8)
        d = DefectMap.from_fraction(g, 0.25, seed=1)
        assert len(d.defective) == 16

    def test_is_defective(self):
        d = DefectMap(frozenset({(0, 0, 3, 4)}))
        assert d.is_defective(0, 0, 3, 4)
        assert not d.is_defective(0, 0, 4, 3)

    def test_bad_fraction_rejected(self):
        with pytest.raises(ValueError):
            DefectMap.from_fraction(ChipGeometry(), 1.5)
