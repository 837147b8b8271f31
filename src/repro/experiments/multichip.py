"""Multi-chip scaling study: boundary-link traffic vs array size.

Section VII demonstrates 4x1 and 4x4 chip arrays communicating "without
any additional peripheral circuitry"; the scaling question is whether
the shared merge/split boundary links — far narrower than the on-chip
mesh — saturate as arrays grow.  This experiment measures boundary
traffic and link utilization for uniform random traffic over growing
arrays (scaled-geometry chips), plus the analytic full-scale projection.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.chip import ChipGeometry
from repro.core.workload import WorkloadDescriptor
from repro.noc.mesh import MeshNetwork
from repro.utils.rng import seeded_rng


@dataclass(frozen=True)
class MultichipPoint:
    """Boundary-traffic measurement for one array size."""

    chips_x: int
    chips_y: int
    packets: int
    total_hops: int
    boundary_crossings: int
    peak_link_utilization: float

    @property
    def crossing_fraction(self) -> float:
        """Fraction of packets that crossed at least one chip boundary."""
        return self.boundary_crossings / self.packets if self.packets else 0.0


def measure_boundary_traffic(
    chips_x: int,
    chips_y: int,
    n_packets: int = 400,
    cores_per_side: int = 8,
    link_capacity: int = 500,
    seed: int = 0,
) -> MultichipPoint:
    """Route uniform random packets over an array; measure the links."""
    rng = seeded_rng(seed)
    array = MeshNetwork.tiled(
        chips_x,
        chips_y,
        ChipGeometry(cores_x=cores_per_side, cores_y=cores_per_side),
        link_capacity_per_tick=link_capacity,
    )
    array.begin_tick()
    width = chips_x * cores_per_side
    height = chips_y * cores_per_side
    hops = crossings = 0
    for _ in range(n_packets):
        src = (int(rng.integers(0, width)), int(rng.integers(0, height)))
        dst = (int(rng.integers(0, width)), int(rng.integers(0, height)))
        h, c = array.deliver(src, dst)
        hops += h
        crossings += c
    peak = max(
        (
            link.utilization
            for links in array.links.values()
            for link in links.values()
        ),
        default=0.0,
    )
    return MultichipPoint(
        chips_x=chips_x,
        chips_y=chips_y,
        packets=n_packets,
        total_hops=hops,
        boundary_crossings=crossings,
        peak_link_utilization=peak,
    )


def array_sweep(
    sizes: tuple = ((1, 1), (2, 1), (2, 2), (4, 1), (4, 4)),
    **kwargs,
) -> list[MultichipPoint]:
    """Measure boundary traffic across the paper's board geometries."""
    return [
        measure_boundary_traffic(cx, cy, seed=i, **kwargs)
        for i, (cx, cy) in enumerate(sizes)
    ]


def full_scale_link_load(
    workload: WorkloadDescriptor,
    chips_x: int = 4,
    chips_y: int = 4,
    long_range_fraction: float = 1.0,
) -> dict:
    """Analytic boundary-link load for a full-scale tiled workload.

    ``long_range_fraction`` is the share of spikes whose destination is
    uniform over the whole array (the rest stay on their home chip).
    The busiest vertical-cut boundary carries the bisection traffic.

    This is the quantitative form of the paper's locality argument: at
    ``long_range_fraction = 1`` a 200 Hz workload saturates the shared
    boundary links, while cortex-like clustered traffic (a few percent
    long-range, Section III-A) leaves ample margin — "the hierarchical
    communication model lowers system bandwidth requirements".
    """
    total_chips = chips_x * chips_y
    spikes_per_tick_per_chip = workload.spikes_per_tick
    total_spikes = spikes_per_tick_per_chip * total_chips
    # For uniform random traffic, P(cross central x-cut) = 2 * p * (1-p)
    # with p the fraction of chips left of the cut.
    p = (chips_x // 2) / chips_x
    crossing = total_spikes * long_range_fraction * 2 * p * (1 - p)
    # The cut spans chips_y chip edges, each one shared link per direction.
    per_link = crossing / max(chips_y, 1) / 2
    capacity = 40_000
    return {
        "crossing_packets_per_tick": crossing,
        "per_link_load_per_tick": per_link,
        "link_utilization": per_link / capacity,
        "saturated": per_link > capacity,
    }
