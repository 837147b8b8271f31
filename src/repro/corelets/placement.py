"""Placing compiled networks onto the physical core grid.

Placement does not change function, only spike hop counts — and hence
NoC traffic and active energy.  Two placers are provided:

* :func:`place_row_major` — the trivial baseline;
* :func:`place_connectivity_aware` — orders cores by a BFS over the
  core-connectivity graph and lays them along a boustrophedon
  (serpentine) curve, keeping communicating cores near each other.
  This is the ablation knob for the placement-quality benchmark.
"""

from __future__ import annotations

import networkx as nx
import numpy as np

from repro.core.chip import ChipGeometry, DefectMap, Placement
from repro.core.network import OUTPUT_TARGET, Network


def connectivity_graph(network: Network) -> nx.Graph:
    """Undirected core graph weighted by inter-core neuron target counts."""
    graph = nx.Graph()
    graph.add_nodes_from(range(network.n_cores))
    for src, core in enumerate(network.cores):
        targets, counts = np.unique(
            core.target_core[core.target_core != OUTPUT_TARGET], return_counts=True
        )
        for dst, count in zip(targets.tolist(), counts.tolist()):
            if dst == src:
                continue
            w = graph.get_edge_data(src, dst, {"weight": 0})["weight"]
            graph.add_edge(src, dst, weight=w + count)
    return graph


def _serpentine_slots(n: int, geometry: ChipGeometry, defects: DefectMap) -> list:
    """First *n* usable grid slots along a serpentine curve.

    The curve runs over a near-square block (not the full chip width) so
    that consecutive cores stay 2D-adjacent — that is what keeps BFS
    neighbours physically close.
    """
    import math

    side = min(geometry.cores_x, max(1, math.isqrt(max(n - 1, 0)) + 1))
    slots = []
    chip = 0
    while len(slots) < n:
        for y in range(geometry.cores_y):
            xs = range(side)
            if y % 2 == 1:
                xs = reversed(xs)
            for x in xs:
                if defects.is_defective(chip, 0, x, y):
                    continue
                slots.append((chip, 0, x, y))
                if len(slots) == n:
                    return slots
        chip += 1
    return slots


def place_row_major(
    network: Network,
    geometry: ChipGeometry | None = None,
    defects: DefectMap | None = None,
) -> Placement:
    """Baseline placement: logical core order onto the grid row-major."""
    return Placement.grid(network.n_cores, geometry, defects)


def place_connectivity_aware(
    network: Network,
    geometry: ChipGeometry | None = None,
    defects: DefectMap | None = None,
) -> Placement:
    """BFS-ordered serpentine placement: communicating cores stay close."""
    geometry = geometry or ChipGeometry()
    defects = defects or DefectMap()
    graph = connectivity_graph(network)

    order: list[int] = []
    seen: set[int] = set()
    # Start each component from its highest-degree core.
    for component in nx.connected_components(graph):
        start = max(component, key=lambda c: graph.degree(c, weight="weight"))
        for node in nx.bfs_tree(graph, start):
            if node not in seen:
                seen.add(node)
                order.append(node)
    for node in range(network.n_cores):  # isolated cores
        if node not in seen:
            order.append(node)

    slots = _serpentine_slots(network.n_cores, geometry, defects)
    chip_x = np.zeros(network.n_cores, dtype=np.int64)
    chip_y = np.zeros(network.n_cores, dtype=np.int64)
    xs = np.zeros(network.n_cores, dtype=np.int64)
    ys = np.zeros(network.n_cores, dtype=np.int64)
    for slot, core_id in zip(slots, order):
        chip_x[core_id], chip_y[core_id], xs[core_id], ys[core_id] = slot
    return Placement(chip_x=chip_x, chip_y=chip_y, x=xs, y=ys, geometry=geometry)


def total_wirelength(network: Network, placement: Placement) -> int:
    """Sum over neurons of the Manhattan hop distance to their target.

    A placement-quality metric: lower wirelength means fewer hops per
    spike and lower communication energy.
    """
    total = 0
    for src, core in enumerate(network.cores):
        dst = core.target_core[core.target_core != OUTPUT_TARGET]
        hops, _ = placement.route_lengths(np.full(dst.size, src), dst)
        total += int(hops.sum())
    return total
