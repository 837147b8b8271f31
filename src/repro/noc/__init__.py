"""Network-on-chip substrate: routers, mesh, chip boundaries, tiling."""

from repro.noc.merge_split import ChipBoundary, Edge, MergeSplitLink
from repro.noc.mesh import MeshNetwork
from repro.noc.multichip import ChipArray, board_4x1, board_4x4
from repro.noc.router import Port, Router, dimension_order_port

__all__ = [
    "ChipBoundary",
    "Edge",
    "MergeSplitLink",
    "MeshNetwork",
    "ChipArray",
    "board_4x1",
    "board_4x4",
    "Port",
    "Router",
    "dimension_order_port",
]
