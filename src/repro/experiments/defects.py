"""Defect-tolerance (yield) study: "local core failures do not disrupt
global usability" (paper Section III-C).

Sweeps the fraction of defective cores/routers and measures the three
costs of routing around them:

* placement displacement (defective slots skipped);
* added hops (detours around dead routers);
* added communication energy;

while asserting the zeroth-order property: spike-for-spike functional
equivalence with the defect-free chip.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.core.builders import poisson_inputs, random_network
from repro.core.chip import ChipGeometry, Placement
from repro.hardware.energy import E_HOP_J
from repro.hardware.simulator import TrueNorthSimulator
from repro.noc.mesh import MeshNetwork
from repro.utils.rng import seeded_rng


@dataclass(frozen=True)
class DefectPoint:
    """Outcome of one defect-fraction trial."""

    defect_fraction: float
    n_disabled_routers: int
    functional_match: bool
    baseline_hops: int
    defective_hops: int

    @property
    def hop_overhead(self) -> float:
        """Relative extra hops paid for the detours."""
        if self.baseline_hops == 0:
            return 0.0
        return (self.defective_hops - self.baseline_hops) / self.baseline_hops

    @property
    def energy_overhead_j(self) -> float:
        """Extra communication energy at 0.75 V."""
        return (self.defective_hops - self.baseline_hops) * E_HOP_J


def _sample_connected_defects(
    rng, candidates, occupied, width, height, n_disable, max_tries: int = 20
) -> set:
    """Sample defective routers that leave every core mutually reachable.

    A defect set that partitions the mesh would make the chip unusable
    (the paper's yield model discards such die); resampling models the
    screening.  A sample is kept when a breadth-first walk over the
    enabled routers from one occupied router reaches every occupied one.
    If no such sample is found, the defect count is reduced.
    """
    start = next(iter(occupied))
    while n_disable > 0:
        for _ in range(max_tries):
            picks = rng.choice(len(candidates), size=n_disable, replace=False)
            disabled = {candidates[i] for i in picks}
            reached, queue = {start}, deque([start])
            while queue:
                x, y = queue.popleft()
                for nxt in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)):
                    if (0 <= nxt[0] < width and 0 <= nxt[1] < height
                            and nxt not in disabled and nxt not in reached):
                        reached.add(nxt)
                        queue.append(nxt)
            if occupied <= reached:
                return disabled
        n_disable -= 1
    return set()


def _spread_placement(n_cores: int, spacing: int = 2) -> Placement:
    """Spaced placement leaving router slots free for defects."""
    side = int(np.ceil(np.sqrt(n_cores)))
    idx = np.arange(n_cores)
    return Placement(
        chip_x=np.zeros(n_cores, dtype=np.int64),
        chip_y=np.zeros(n_cores, dtype=np.int64),
        x=(idx % side) * spacing,
        y=(idx // side) * spacing,
        geometry=ChipGeometry(),
    )


def defect_trial(
    defect_fraction: float,
    n_cores: int = 16,
    n_ticks: int = 25,
    seed: int = 0,
) -> DefectPoint:
    """One trial: disable a fraction of *unoccupied* routers, compare runs.

    Occupied (core-hosting) routers stay alive — the paper's model is
    that a dead core is depopulated at placement time (tested separately
    via :meth:`Placement.grid` defect skipping), while mesh detours
    handle dead routers on the path.
    """
    rng = seeded_rng(seed)
    net = random_network(n_cores=n_cores, connectivity=0.4, seed=seed)
    placement = _spread_placement(n_cores)
    ins = poisson_inputs(net, n_ticks, 400.0, seed=seed + 1)

    mesh = MeshNetwork.spanning(placement)
    base_rec = TrueNorthSimulator(net, placement, mesh).run(n_ticks, ins)

    gx, gy = placement.global_xy()
    occupied = set(zip(gx.tolist(), gy.tolist()))
    width, height = mesh.width, mesh.height
    candidates = [
        (x, y)
        for x in range(width)
        for y in range(height)
        if (x, y) not in occupied
    ]
    n_disable = int(round(defect_fraction * (width * height)))
    n_disable = min(n_disable, len(candidates))
    disabled = _sample_connected_defects(
        rng, candidates, occupied, width, height, n_disable
    )

    damaged = MeshNetwork.spanning(placement)
    for router in disabled:
        damaged.disable(*router)
    dmg_rec = TrueNorthSimulator(net, placement, damaged).run(n_ticks, ins)

    return DefectPoint(
        defect_fraction=defect_fraction,
        n_disabled_routers=len(disabled),
        functional_match=(dmg_rec == base_rec),
        baseline_hops=base_rec.counters.hops,
        defective_hops=dmg_rec.counters.hops,
    )


def defect_sweep(
    fractions: tuple = (0.0, 0.05, 0.1, 0.2),
    n_cores: int = 16,
    n_ticks: int = 25,
    seed: int = 3,
) -> list[DefectPoint]:
    """Run the full yield sweep."""
    return [
        defect_trial(f, n_cores=n_cores, n_ticks=n_ticks, seed=seed + i)
        for i, f in enumerate(fractions)
    ]
