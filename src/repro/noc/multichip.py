"""Multi-chip tiling: 4x1 and 4x4 boards, and beyond.

"Individual chips also tile in 2D, with the routing network extending
across chip boundaries through peripheral merge and split blocks"
(paper Fig. 3(c)); the 16-chip board of Section VII-C implements a 4x4
array — 16M neurons and 4B synapses — with no auxiliary communication
circuitry.

A :class:`ChipArray` assembles a seamless global mesh from a grid of
chips, tracks per-chip boundary traffic via :class:`ChipBoundary`
links, and answers capacity questions for the future-systems
projections (Section VII).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core import params
from repro.core.chip import ChipGeometry
from repro.noc.merge_split import ChipBoundary, Edge
from repro.noc.mesh import MeshNetwork
from repro.utils.validation import require


@dataclass
class ChipArray:
    """A chips_x x chips_y tiled array of TrueNorth chips."""

    chips_x: int = 1
    chips_y: int = 1
    geometry: ChipGeometry = field(default_factory=ChipGeometry)
    link_capacity_per_tick: int = 40_000
    mesh: MeshNetwork = field(init=False)
    boundaries: dict = field(default_factory=dict, init=False)

    def __post_init__(self) -> None:
        require(self.chips_x >= 1 and self.chips_y >= 1, "array must have >= 1 chip")
        self.mesh = MeshNetwork(
            width=self.chips_x * self.geometry.cores_x,
            height=self.chips_y * self.geometry.cores_y,
        )
        self.boundaries = {
            (cx, cy): ChipBoundary(
                rows=self.geometry.cores_y,
                cols=self.geometry.cores_x,
                capacity_per_tick=self.link_capacity_per_tick,
            )
            for cx in range(self.chips_x)
            for cy in range(self.chips_y)
        }

    # -- capacity -----------------------------------------------------------
    @property
    def n_chips(self) -> int:
        """Total chips in the array."""
        return self.chips_x * self.chips_y

    @property
    def n_cores(self) -> int:
        """Total core slots."""
        return self.n_chips * self.geometry.cores_per_chip

    @property
    def n_neurons(self) -> int:
        """Total neurons (256 per core)."""
        return self.n_cores * params.CORE_NEURONS

    @property
    def n_synapses(self) -> int:
        """Total synapses (256x256 per core)."""
        return self.n_cores * params.CORE_AXONS * params.CORE_NEURONS

    # -- routing --------------------------------------------------------------
    def chip_of(self, gx: int, gy: int) -> tuple[int, int]:
        """Chip coordinates containing global mesh position (gx, gy)."""
        return gx // self.geometry.cores_x, gy // self.geometry.cores_y

    def begin_tick(self) -> None:
        """Open a new tick window on every chip boundary."""
        for boundary in self.boundaries.values():
            boundary.begin_tick()

    def deliver(self, src: tuple[int, int], dst: tuple[int, int]) -> tuple[int, int]:
        """Route one packet on the global mesh, crossing chip boundaries.

        Returns (hops, boundary_crossings).  Every chip-edge crossing on
        the path goes through the source-side chip's merge/split link.
        The path is routed once; the mesh counts along the same path.
        """
        path = self.mesh.route(src, dst)
        crossings = 0
        for (x, y), (nx, ny) in zip(path[:-1], path[1:]):
            chip_a = self.chip_of(x, y)
            chip_b = self.chip_of(nx, ny)
            if chip_a == chip_b:
                continue
            crossings += 1
            if nx > x:
                edge, lane = Edge.EAST, y % self.geometry.cores_y
            elif nx < x:
                edge, lane = Edge.WEST, y % self.geometry.cores_y
            elif ny > y:
                edge, lane = Edge.NORTH, x % self.geometry.cores_x
            else:
                edge, lane = Edge.SOUTH, x % self.geometry.cores_x
            self.boundaries[chip_a].cross(edge, lane)
        return self.mesh.forward(path), crossings

    def boundary_traffic(self) -> dict:
        """Total accepted crossings per chip."""
        return {
            chip: boundary.total_crossings
            for chip, boundary in self.boundaries.items()
            if boundary.total_crossings > 0
        }


def board_4x1() -> ChipArray:
    """The paper's 4x1 TrueNorth array board (Section VII-B)."""
    return ChipArray(chips_x=4, chips_y=1)


def board_4x4() -> ChipArray:
    """The paper's 4x4 (16-chip) board: 16M neurons, 4B synapses."""
    return ChipArray(chips_x=4, chips_y=4)
