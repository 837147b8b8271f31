"""Physical chip geometry, core placement, and defect maps.

TrueNorth arranges 4,096 cores in a 64x64 grid; chips themselves tile in a
2D array (paper Fig. 3).  A :class:`Placement` maps each *logical* core of
a :class:`~repro.core.network.Network` to physical coordinates
``(chip_x, chip_y, x, y)``.  Placement does not affect function — only
spike hop counts (and hence energy and NoC load) depend on it.

The architecture is robust to core defects: "if a core fails, we disable
it and route spike events around it."  A :class:`DefectMap` marks disabled
physical slots; placements skip them and the NoC adds detour hops.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core import params
from repro.utils.rng import seeded_rng
from repro.utils.validation import require


@dataclass(frozen=True)
class ChipGeometry:
    """Core-grid dimensions of one chip."""

    cores_x: int = params.CHIP_CORES_X
    cores_y: int = params.CHIP_CORES_Y

    @property
    def cores_per_chip(self) -> int:
        """Total core slots on one chip."""
        return self.cores_x * self.cores_y


@dataclass(frozen=True)
class DefectMap:
    """Set of defective physical core slots, as (chip_x, chip_y, x, y)."""

    defective: frozenset = field(default_factory=frozenset)

    @staticmethod
    def from_fraction(
        geometry: ChipGeometry, fraction: float, seed: int = 0, chips: int = 1
    ) -> "DefectMap":
        """Mark a random *fraction* of core slots defective (yield model)."""
        require(0.0 <= fraction < 1.0, "defect fraction must be in [0, 1)")
        rng = seeded_rng(seed)
        slots = [
            (cx, 0, x, y)
            for cx in range(chips)
            for y in range(geometry.cores_y)
            for x in range(geometry.cores_x)
        ]
        n_bad = int(round(fraction * len(slots)))
        picks = rng.choice(len(slots), size=n_bad, replace=False)
        return DefectMap(frozenset(slots[i] for i in picks))

    def is_defective(self, chip_x: int, chip_y: int, x: int, y: int) -> bool:
        """True when the physical slot is disabled."""
        return (chip_x, chip_y, x, y) in self.defective


@dataclass
class Placement:
    """Mapping from logical core index to physical coordinates.

    Arrays are indexed by logical core id; ``chip_x/chip_y`` locate the
    chip within a board-level tile array, ``x/y`` locate the core within
    the chip's 64x64 grid.  They are read-only once placed: the global
    mesh coordinates every route is measured on are derived from them
    once, at construction.
    """

    chip_x: np.ndarray
    chip_y: np.ndarray
    x: np.ndarray
    y: np.ndarray
    geometry: ChipGeometry = field(default_factory=ChipGeometry)

    def __post_init__(self) -> None:
        for coords in (self.chip_x, self.chip_y, self.x, self.y):
            coords.flags.writeable = False
        # Rows: global x, global y, chip x, chip y — one gather per route end.
        self._route_coords = np.stack([
            self.chip_x * self.geometry.cores_x + self.x,
            self.chip_y * self.geometry.cores_y + self.y,
            self.chip_x,
            self.chip_y,
        ])

    @property
    def n_cores(self) -> int:
        """Number of placed logical cores."""
        return int(self.x.size)

    @property
    def n_chips(self) -> int:
        """Number of distinct chips used by the placement."""
        return np.unique(self._route_coords[2:], axis=1).shape[1]

    def global_xy(self) -> tuple[np.ndarray, np.ndarray]:
        """Global mesh coordinates, treating tiled chips as one big grid.

        Chip tiling is seamless (merge/split preserves mesh semantics), so
        dimension-order routing operates on these global coordinates.
        """
        return self._route_coords[0], self._route_coords[1]

    def route_lengths(
        self, src_cores: np.ndarray, dst_cores: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Hops and chip-boundary crossings of each route ``src -> dst``.

        Vectorized over parallel core-id arrays.  The hop count of the
        X-then-Y route is the Manhattan distance on the global mesh
        (:meth:`global_xy`); the merge/split crossings are the Manhattan
        distance between the two cores' chips.
        """
        coords = self._route_coords
        # take(axis=1): a third of the time of coords[:, idx] at 3k routes.
        d = np.abs(coords.take(dst_cores, axis=1) - coords.take(src_cores, axis=1))
        return d[0] + d[1], d[2] + d[3]

    @staticmethod
    def grid(
        n_cores: int,
        geometry: ChipGeometry | None = None,
        defects: DefectMap | None = None,
    ) -> "Placement":
        """Place logical cores row-major onto chips, skipping defects.

        Chips are added along +x as needed; defective slots are skipped,
        emulating the route-around reconfiguration of the paper.
        """
        geometry = geometry or ChipGeometry()
        defects = defects or DefectMap()
        per_chip = geometry.cores_per_chip

        slots: list[tuple[int, int, int, int]] = []  # (chip_x, chip_y, x, y)
        chip = 0
        while len(slots) < n_cores:
            slots += [
                (chip, 0, x, y)
                for y in range(geometry.cores_y)
                for x in range(geometry.cores_x)
                if not defects.is_defective(chip, 0, x, y)
            ]
            chip += 1
            if chip > 2 * (n_cores // max(1, per_chip) + 2):
                raise ValueError("placement failed: too many defective slots")
        chip_x, chip_y, x, y = np.array(slots[:n_cores], dtype=np.int64).reshape(-1, 4).T
        return Placement(chip_x=chip_x, chip_y=chip_y, x=x, y=y, geometry=geometry)

    @staticmethod
    def default(n_cores: int) -> "Placement":
        """The simulator's placement: :meth:`compact` up to one chip's cores, :meth:`grid` above."""
        if n_cores <= ChipGeometry().cores_per_chip:
            return Placement.compact(n_cores)
        return Placement.grid(n_cores)

    @staticmethod
    def compact(n_cores: int, geometry: ChipGeometry | None = None) -> "Placement":
        """Place cores on a single chip in a near-square block.

        Used for small test networks so that hop distances stay realistic
        without occupying the whole 64x64 grid.
        """
        geometry = geometry or ChipGeometry()
        side = int(np.ceil(np.sqrt(n_cores)))
        require(
            side <= geometry.cores_x and side <= geometry.cores_y,
            f"{n_cores} cores do not fit on one chip",
        )
        idx = np.arange(n_cores)
        return Placement(
            chip_x=np.zeros(n_cores, dtype=np.int64),
            chip_y=np.zeros(n_cores, dtype=np.int64),
            x=idx % side,
            y=idx // side,
            geometry=geometry,
        )
