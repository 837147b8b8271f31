"""The 2D mesh network: path computation, hop accounting, defect detours.

The mesh operates on *global* coordinates: tiled chips form one seamless
grid (the merge/split boundary blocks preserve mesh semantics across
chip edges — see :mod:`repro.noc.merge_split`).

Defect tolerance: "if a core fails, we disable it and route spike events
around it" (paper Section III-C).  We model the minimal detour consistent
with X-then-Y routing: when the next router on the dimension-order path
is disabled, the packet sidesteps one hop in the orthogonal dimension,
then resumes.  Each sidestep costs two extra hops (out and back).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.noc.router import PORT_DELTA, Port, Router, dimension_order_port


@dataclass
class MeshNetwork:
    """A width x height router grid with optional disabled routers."""

    width: int
    height: int
    disabled: set = field(default_factory=set)  # {(x, y), ...}
    _routers: dict = field(default_factory=dict, init=False, repr=False)

    def router(self, x: int, y: int) -> Router:
        """Return (lazily creating) the router at (x, y)."""
        if not (0 <= x < self.width and 0 <= y < self.height):
            raise ValueError(f"router ({x},{y}) outside {self.width}x{self.height} mesh")
        key = (x, y)
        if key not in self._routers:
            self._routers[key] = Router(x=x, y=y, enabled=key not in self.disabled)
        return self._routers[key]

    def disable(self, x: int, y: int) -> None:
        """Mark the router at (x, y) defective (routes detour around it)."""
        self.disabled.add((x, y))
        if (x, y) in self._routers:
            self._routers[(x, y)].enabled = False

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
        from collections import deque

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
        disabled routers.  Raises if source or destination is disabled or
        no detour exists.
        """
        if src in self.disabled:
            raise RuntimeError(f"source router {src} is disabled")
        if dst in self.disabled:
            raise RuntimeError(f"destination router {dst} is disabled")
        x, y = src
        path = [(x, y)]
        guard = 4 * (self.width + self.height) + 16
        while (x, y) != dst:
            port = dimension_order_port(x, y, dst[0], dst[1])
            dx, dy = PORT_DELTA[port]
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

    def deliver(self, src: tuple[int, int], dst: tuple[int, int]) -> int:
        """Route one packet, updating router counters; return hop count."""
        return self.forward(self.route(src, dst))

    def forward(self, path: list[tuple[int, int]]) -> int:
        """Count one packet along a :meth:`route` *path*; return hop count."""
        for (x, y), (nx, ny) in zip(path[:-1], path[1:]):
            # Determine the actual port used (handles detour steps).
            for port, (dx, dy) in PORT_DELTA.items():
                if (x + dx, y + dy) == (nx, ny) and port != Port.LOCAL:
                    self.router(x, y).forwarded[port] += 1
                    break
        self.router(*path[-1]).forwarded[Port.LOCAL] += 1
        return len(path) - 1

    def hops(self, src: tuple[int, int], dst: tuple[int, int]) -> int:
        """Hop count of the route (without mutating counters)."""
        return len(self.route(src, dst)) - 1

    def congestion_map(self) -> dict:
        """Per-router total forwarded packet counts (for hotspot analysis)."""
        return {
            key: router.total_forwarded
            for key, router in self._routers.items()
            if router.total_forwarded > 0
        }
