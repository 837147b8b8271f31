"""NoC congestion analysis: router hotspots and tick-stretch estimation.

TrueNorth's mesh is engineered so that spike traffic — "sparse in time"
— never limits real-time operation; routers and boundary links have
orders of magnitude more bandwidth than uniform spike traffic needs.
This module makes that claim *checkable*: it tracks per-tick per-router
packet loads during simulation on a mesh, estimates the tick
stretching a saturated router would cause, and provides the analytic
hotspot model used by the congestion ablation bench (which shows uniform
traffic is far below capacity while adversarial all-to-one traffic
saturates).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.compass.fast import concat_columns
from repro.core import params
from repro.core.record import SpikeRecord
from repro.core.workload import WorkloadDescriptor
from repro.utils.validation import require

# Router forwarding capacity per 1 ms tick.  Matches the merge/split
# shared-link budget: the asynchronous routers run at tens of MHz
# effective packet rates (paper: fast time-multiplexed metal wires).
ROUTER_CAPACITY_PER_TICK = 40_000


@dataclass(frozen=True)
class TickCongestion:
    """Router load statistics for one tick."""

    tick: int
    peak_router_load: int
    mean_router_load: float
    total_hops: int

    def stretch(self, capacity: int = ROUTER_CAPACITY_PER_TICK) -> float:
        """Tick-duration multiplier if the busiest router saturates."""
        return max(1.0, self.peak_router_load / capacity)

    @property
    def saturated(self) -> bool:
        """True when the busiest router exceeded its tick budget."""
        return self.peak_router_load > ROUTER_CAPACITY_PER_TICK


class CongestionMonitor:
    """Tracks per-tick router loads of a simulation on a mesh.

    A router's load counts every packet through it, its local deliveries
    included; a tick's ``total_hops`` is the hops its packets walked.
    """

    def __init__(self, sim) -> None:
        require(sim.mesh is not None, "congestion monitoring needs a mesh")
        self.sim = sim
        self._load = sim.mesh.load.copy()
        self._hops = sim.counters.hops
        self.history: list[TickCongestion] = []

    def after_tick(self) -> TickCongestion:
        """Record loads accumulated since the previous call."""
        load = self.sim.mesh.load
        loads = (load - self._load)[load > self._load]
        self._load = load.copy()
        hops = self.sim.counters.hops
        entry = TickCongestion(
            tick=self.sim.tick - 1,
            peak_router_load=int(loads.max()) if loads.size else 0,
            mean_router_load=float(loads.mean()) if loads.size else 0.0,
            total_hops=hops - self._hops,
        )
        self._hops = hops
        self.history.append(entry)
        return entry

    @property
    def peak(self) -> int:
        """Busiest router-tick load over the whole run."""
        return max((e.peak_router_load for e in self.history), default=0)

    def worst_stretch(self, capacity: int = ROUTER_CAPACITY_PER_TICK) -> float:
        """Largest per-tick stretch over the run."""
        return max((e.stretch(capacity) for e in self.history), default=1.0)


def run_with_congestion(sim, n_ticks: int, inputs=None):
    """Run a simulator on a mesh, returning (record, monitor)."""
    monitor = CongestionMonitor(sim)
    sim.load_inputs(inputs)

    def step():
        tick, core_ids, neurons = sim.step_arrays()
        monitor.after_tick()
        return np.full(core_ids.size, tick, dtype=np.int64), core_ids, neurons

    return SpikeRecord.from_arrays(*concat_columns(step, n_ticks, 3), sim.counters), monitor


def uniform_traffic_hotspot_load(
    workload: WorkloadDescriptor, grid_side: int = params.CHIP_CORES_X
) -> float:
    """Analytic busiest-router load/tick under uniform random traffic.

    Total hop-traversals per tick spread over the mesh's routers; the
    central routers of a dimension-order-routed mesh carry ~4x the mean
    (the standard DOR center-loading factor for uniform traffic).
    """
    total_hops = workload.hops_per_tick
    mean_per_router = total_hops / (grid_side * grid_side)
    return 4.0 * mean_per_router


def hotspot_traffic_load(workload: WorkloadDescriptor) -> float:
    """Busiest-router load/tick under adversarial all-to-one traffic.

    Every spike converges on one destination core: its local router
    carries every packet.
    """
    return workload.spikes_per_tick


def congestion_margin(
    workload: WorkloadDescriptor,
    grid_side: int = params.CHIP_CORES_X,
    capacity: int = ROUTER_CAPACITY_PER_TICK,
) -> dict:
    """Capacity margins under uniform vs adversarial traffic patterns."""
    uniform = uniform_traffic_hotspot_load(workload, grid_side)
    hotspot = hotspot_traffic_load(workload)
    return {
        "uniform_peak_load": uniform,
        "uniform_utilization": uniform / capacity,
        "hotspot_peak_load": hotspot,
        "hotspot_utilization": hotspot / capacity,
        "uniform_stretch": max(1.0, uniform / capacity),
        "hotspot_stretch": max(1.0, hotspot / capacity),
    }
