"""Network-on-chip substrate: the mesh, its chip-edge links, congestion."""

from repro.noc.merge_split import Edge, MergeSplitLink
from repro.noc.mesh import MeshNetwork, board_4x1, board_4x4

__all__ = [
    "Edge",
    "MergeSplitLink",
    "MeshNetwork",
    "board_4x1",
    "board_4x4",
]
