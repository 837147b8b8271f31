"""The 2D mesh network: one chip or a tiled board, walked packet by packet.

Each core has a five-port router; packets travel "first in the x
dimension then in the y dimension (deadlock-free dimension-order
routing)" (paper Section III-C, citing Dally & Seitz).  Chips tile in
2D, "with the routing network extending across chip boundaries through
peripheral merge and split blocks" (paper Fig. 3(c)); the 16-chip board
of Section VII-C is a 4x4 array — 16M neurons and 4B synapses — with no
auxiliary communication circuitry.  A :class:`MeshNetwork` is that one
seamless grid in *global* coordinates, tiled into chips, with a
merge/split link on each edge of each chip
(:mod:`repro.noc.merge_split`).

Defect tolerance: "if a core fails, we disable it and route spike events
around it" (paper Section III-C).  We model the minimal detour consistent
with X-then-Y routing: when the next router on the dimension-order path
is disabled, the packet sidesteps one hop in the orthogonal dimension,
then resumes.  Each sidestep costs two extra hops (out and back).

:meth:`MeshNetwork.deliver` walks each packet's path once; that one path
gives its hops, its chip crossings, the load on every router it visits
and the traffic on every chip-edge link it crosses.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from repro.core import params
from repro.core.chip import ChipGeometry
from repro.noc.merge_split import Edge, MergeSplitLink


@dataclass
class MeshNetwork:
    """A width x height router grid, tiled into chips, with disabled routers.

    ``geometry`` is the chip tile (one chip spans the whole mesh when it
    is None); a mesh that does not fill its last chip row or column ends
    inside that chip.  ``load[x, y]`` counts the packets through router
    (x, y), local deliveries included; ``links[(chip_x, chip_y)][edge]``
    is the merge/split link on that chip's *edge*.
    """

    width: int
    height: int
    geometry: ChipGeometry | None = None
    link_capacity_per_tick: int = 40_000
    disabled: set = field(default_factory=set)  # {(x, y), ...}
    load: np.ndarray = field(init=False, repr=False)
    links: dict = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.width < 1 or self.height < 1:
            raise ValueError("mesh must have >= 1 router")
        if self.geometry is None:
            self.geometry = ChipGeometry(cores_x=self.width, cores_y=self.height)
        self.load = np.zeros((self.width, self.height), dtype=np.int64)
        chips_x, chips_y = self.chip_of(self.width - 1, self.height - 1)
        self.links = {
            (cx, cy): {edge: MergeSplitLink(self.link_capacity_per_tick) for edge in Edge}
            for cx in range(chips_x + 1)
            for cy in range(chips_y + 1)
        }

    @classmethod
    def tiled(
        cls,
        chips_x: int,
        chips_y: int,
        geometry: ChipGeometry | None = None,
        link_capacity_per_tick: int = 40_000,
    ) -> "MeshNetwork":
        """A board of chips_x x chips_y whole chips (64x64 cores by default)."""
        geometry = geometry or ChipGeometry()
        return cls(
            chips_x * geometry.cores_x, chips_y * geometry.cores_y, geometry,
            link_capacity_per_tick,
        )

    @classmethod
    def spanning(cls, placement) -> "MeshNetwork":
        """The smallest mesh holding *placement*, tiled by its chips."""
        gx, gy = placement.global_xy()
        return cls(int(gx.max()) + 1, int(gy.max()) + 1, placement.geometry)

    # -- capacity -----------------------------------------------------------
    @property
    def n_chips(self) -> int:
        """Chips the mesh touches."""
        return len(self.links)

    @property
    def n_neurons(self) -> int:
        """Total neurons (256 per router's core)."""
        return self.width * self.height * params.CORE_NEURONS

    @property
    def n_synapses(self) -> int:
        """Total synapses (256x256 per core)."""
        return self.width * self.height * params.CORE_AXONS * params.CORE_NEURONS

    def chip_of(self, x, y) -> tuple:
        """Chip coordinates containing global mesh position (x, y)."""
        return x // self.geometry.cores_x, y // self.geometry.cores_y

    # -- routing --------------------------------------------------------------
    def disable(self, x: int, y: int) -> None:
        """Mark the router at (x, y) defective (routes detour around it)."""
        self.disabled.add((x, y))

    def _ok(self, x: int, y: int) -> bool:
        """True when (x, y) is an in-bounds, enabled router."""
        return (
            0 <= x < self.width
            and 0 <= y < self.height
            and (x, y) not in self.disabled
        )

    def _detour(
        self, x: int, y: int, dx: int, dy: int, dst_x: int, dst_y: int
    ) -> list[tuple[int, int]]:
        """Go around the disabled router at (x+dx, y+dy); +2 hops per defect.

        For an x-dimension blockage the packet steps one router aside in y
        and continues east/west in the offset row (dimension-order routing
        resumes from there and turns into y at the destination column).
        For a y-dimension blockage the destination column is already fixed
        (dst_x == x), so the packet walks an adjacent column past every
        consecutive defect and rejoins.
        """
        if dx != 0:  # blocked moving in x: sidestep into an adjacent row
            for sy in ((1, -1) if dst_y >= y else (-1, 1)):
                if self._ok(x, y + sy) and self._ok(x + dx, y + sy):
                    return [(x, y + sy), (x + dx, y + sy)]
        else:  # blocked moving in y: go around in an adjacent column
            for sx in ((1, -1) if dst_x >= x else (-1, 1)):
                if not self._ok(x + sx, y):
                    continue
                segment = [(x + sx, y)]
                k = 1
                while not self._ok(x, y + k * dy):
                    if y + k * dy == dst_y or not self._ok(x + sx, y + k * dy):
                        segment = None
                        break
                    segment.append((x + sx, y + k * dy))
                    k += 1
                if segment is not None:
                    segment.append((x + sx, y + k * dy))
                    segment.append((x, y + k * dy))
                    return segment
        return None  # local detour impossible; caller falls back to BFS

    def _bfs_path(
        self, src: tuple[int, int], dst: tuple[int, int]
    ) -> list[tuple[int, int]]:
        """Shortest enabled path (fallback when local detours fail).

        Physical TrueNorth reconfigures routing tables around defect
        clusters; BFS models that global reconfiguration.
        """
        queue = deque([src])
        parent: dict = {src: None}
        while queue:
            node = queue.popleft()
            if node == dst:
                path = []
                while node is not None:
                    path.append(node)
                    node = parent[node]
                return path[::-1]
            x, y = node
            for nxt in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)):
                if nxt not in parent and self._ok(*nxt):
                    parent[nxt] = node
                    queue.append(nxt)
        raise RuntimeError(f"mesh is partitioned: no route {src} -> {dst}")

    def route(self, src: tuple[int, int], dst: tuple[int, int]) -> list[tuple[int, int]]:
        """Compute the router path src -> dst (inclusive of both ends).

        Follows dimension-order routing, inserting minimal detours around
        disabled routers.  Raises if an end lies outside the mesh, if
        source or destination is disabled, or if no detour exists.
        """
        for end in (src, dst):
            if not (0 <= end[0] < self.width and 0 <= end[1] < self.height):
                raise ValueError(f"router {end} outside {self.width}x{self.height} mesh")
        if src in self.disabled:
            raise RuntimeError(f"source router {src} is disabled")
        if dst in self.disabled:
            raise RuntimeError(f"destination router {dst} is disabled")
        x, y = src
        path = [(x, y)]
        guard = 4 * (self.width + self.height) + 16
        while (x, y) != dst:
            # X then Y: resolve the x offset fully before turning into y.
            if dst[0] != x:
                dx, dy = (1 if dst[0] > x else -1), 0
            else:
                dx, dy = 0, (1 if dst[1] > y else -1)
            nxt = (x + dx, y + dy)
            if nxt in self.disabled and nxt != dst:
                segment = self._detour(x, y, dx, dy, dst[0], dst[1])
                if segment is None:
                    # Defect cluster: splice in a globally-rerouted path.
                    segment = self._bfs_path((x, y), dst)[1:]
                path.extend(segment)
                x, y = segment[-1]
            else:
                x, y = nxt
                path.append(nxt)
            if len(path) > guard:
                raise RuntimeError(f"routing loop detected {src} -> {dst}")
        return path

    def hops(self, src: tuple[int, int], dst: tuple[int, int]) -> int:
        """Hop count of the route (without counting any traffic)."""
        return len(self.route(src, dst)) - 1

    # -- traffic --------------------------------------------------------------
    def begin_tick(self) -> None:
        """Open a new tick window on every chip-edge link."""
        for links in self.links.values():
            for link in links.values():
                link.begin_tick()

    def deliver(self, src: tuple[int, int], dst: tuple[int, int]) -> tuple[int, int]:
        """Walk one packet src -> dst; return (hops, chip crossings).

        Every router on the path counts the packet in ``load``; every
        chip-edge step goes through the source-side chip's merge/split
        link on that edge.
        """
        path = self.route(src, dst)
        crossings = 0
        for x, y in path:
            self.load[x, y] += 1
        for (x, y), (nx, ny) in zip(path, path[1:]):
            chip = self.chip_of(x, y)
            if chip != self.chip_of(nx, ny):
                crossings += 1
                if nx != x:
                    edge = Edge.EAST if nx > x else Edge.WEST
                else:
                    edge = Edge.NORTH if ny > y else Edge.SOUTH
                self.links[chip][edge].cross()
        return len(path) - 1, crossings

    def boundary_traffic(self) -> dict:
        """Total accepted crossings per chip, for chips that sent any."""
        traffic = {
            chip: sum(link.crossed for link in links.values())
            for chip, links in self.links.items()
        }
        return {chip: total for chip, total in traffic.items() if total > 0}


def board_4x1() -> MeshNetwork:
    """The paper's 4x1 TrueNorth array board (Section VII-B)."""
    return MeshNetwork.tiled(4, 1)


def board_4x4() -> MeshNetwork:
    """The paper's 4x4 (16-chip) board: 16M neurons, 4B synapses."""
    return MeshNetwork.tiled(4, 4)
