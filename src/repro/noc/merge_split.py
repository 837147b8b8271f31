"""Merge/split boundary blocks: seamless chip-to-chip mesh extension.

"To scale the 2D mesh across chip boundaries, where the number of
inter-chip connections is limited, we use a merge-split structure at the
four edges of the on-chip mesh boundary.  Packets leaving the mesh are
tagged with their row (or column) before being merged onto a shared link
that exits the chip.  Symmetrically, packets that enter the chip from a
shared link are sent to the appropriate row (or column) using the tagged
information." (paper Section III-C)

Functionally the tag/merge/split round-trip is the identity — that is
the point of the design — so this module models only the *bandwidth*
aspect: one shared link per chip edge with a finite packets-per-tick
capacity, and its utilization statistics, which the multi-chip scaling
analysis reads.  :class:`~repro.noc.mesh.MeshNetwork` holds four links
per chip.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum


class Edge(Enum):
    """The four chip edges, each with one merge and one split block."""

    EAST = "east"
    WEST = "west"
    NORTH = "north"
    SOUTH = "south"


@dataclass
class MergeSplitLink:
    """One shared chip-boundary link (a merge block feeding a split block).

    ``capacity_per_tick`` bounds how many spike packets can cross this
    edge in one 1 ms tick; TrueNorth's asynchronous boundary channels are
    fast relative to spike rates, so the default is generous, but the
    limit makes saturation observable in scaling studies.
    """

    capacity_per_tick: int = 40_000
    crossed: int = 0
    peak_in_tick: int = 0
    dropped: int = 0
    _in_tick: int = 0

    def begin_tick(self) -> None:
        """Reset the per-tick occupancy window."""
        self._in_tick = 0

    def cross(self) -> bool:
        """Send one packet through the link; False when it is dropped.

        A packet beyond the tick capacity is counted as dropped —
        physical hardware would instead backpressure, stretching the
        tick; the timing model reads ``peak_in_tick`` to account for that.
        """
        self._in_tick += 1
        self.peak_in_tick = max(self.peak_in_tick, self._in_tick)
        if self._in_tick > self.capacity_per_tick:
            self.dropped += 1
            return False
        self.crossed += 1
        return True

    @property
    def utilization(self) -> float:
        """Peak per-tick occupancy as a fraction of capacity."""
        return self.peak_in_tick / self.capacity_per_tick
