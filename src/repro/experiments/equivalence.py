"""Experiment EQ: one-to-one equivalence regressions (paper Section VI-A).

The paper verified TrueNorth against Compass with 413,333 single-core
and 7,536+289 full-chip regressions, 10k-100M time steps, with "not a
single spike mismatch".  Here the kernel expressions — reference
kernel, Compass (multiple rank counts), the sparse FastCompass engine
(including every stochastic mode), the shared-memory peer-rank pool,
TrueNorth (with and without the detailed NoC) — are run over suites of
randomized networks and compared spike-for-spike.

Wall-clock projection (EQ2): the longest regression, 100M ticks, took
27.7 hours on TrueNorth at real time vs ~74 days on the 8-thread x86
server — both reproduced from the timing/cost models.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.apps.recurrent import probabilistic_recurrent_network
from repro.apps.workloads import characterization_workload
from repro.compass.engine import run_engine
from repro.compass.parallel import ParallelCompassSimulator
from repro.compass.simulator import CompassSimulator
from repro.core.builders import poisson_inputs, random_network
from repro.core.chip import Placement
from repro.hardware.simulator import TrueNorthSimulator
from repro.hardware.timing import TimingModel
from repro.machines.cost import CompassCostModel
from repro.machines.specs import X86_LEGACY
from repro.noc.mesh import MeshNetwork


@dataclass
class RegressionReport:
    """Outcome of one equivalence regression suite."""

    n_regressions: int = 0
    n_mismatches: int = 0
    total_spikes_compared: int = 0
    mismatches: list = field(default_factory=list)

    @property
    def all_matched(self) -> bool:
        """True when every regression agreed spike-for-spike."""
        return self.n_mismatches == 0


def single_core_regressions(
    n_networks: int = 8, n_ticks: int = 30, seed: int = 0
) -> RegressionReport:
    """Randomized single-core regressions across all three expressions."""
    report = RegressionReport()
    for i in range(n_networks):
        stochastic = i % 2 == 1
        net = random_network(
            n_cores=1, n_axons=16, n_neurons=16, connectivity=0.4,
            stochastic=stochastic, seed=seed + i,
        )
        ins = poisson_inputs(net, n_ticks, 300.0, seed=seed + 1000 + i)
        ref = run_engine(net, n_ticks, ins, engine="reference")
        for record in (
            run_engine(net, n_ticks, ins, engine="compass"),
            run_engine(net, n_ticks, ins, engine="auto"),  # sparse fast path
            run_engine(net, n_ticks, ins, engine="truenorth"),
        ):
            report.n_regressions += 1
            report.total_spikes_compared += ref.n_spikes
            mismatch = record.first_mismatch(ref)
            if mismatch is not None:
                report.n_mismatches += 1
                report.mismatches.append((net.name, mismatch))
    return report


def multi_core_regressions(
    n_networks: int = 4, n_cores: int = 6, n_ticks: int = 40, seed: int = 50
) -> RegressionReport:
    """Randomized multi-core regressions, multiple rank counts + NoC."""
    report = RegressionReport()
    for i in range(n_networks):
        net = random_network(
            n_cores=n_cores, n_axons=12, n_neurons=12, stochastic=True, seed=seed + i
        )
        ins = poisson_inputs(net, n_ticks, 250.0, seed=seed + 2000 + i)
        ref = run_engine(net, n_ticks, ins, engine="reference")
        placement = Placement.default(net.n_cores)
        for record in (
            run_engine(net, n_ticks, ins, engine="compass"),
            CompassSimulator(net, n_ranks=3, partition_strategy="round_robin").run(n_ticks, ins),
            run_engine(net, n_ticks, ins, engine="fast"),  # sparse, stochastic
            ParallelCompassSimulator(net, n_workers=2).run(n_ticks, ins),
            run_engine(net, n_ticks, ins, engine="truenorth"),
            TrueNorthSimulator(net, placement, MeshNetwork.spanning(placement)).run(n_ticks, ins),
        ):
            report.n_regressions += 1
            report.total_spikes_compared += ref.n_spikes
            mismatch = record.first_mismatch(ref)
            if mismatch is not None:
                report.n_mismatches += 1
                report.mismatches.append((net.name, mismatch))
    return report


def recurrent_network_regressions(
    n_ticks: int = 60, seed: int = 7
) -> RegressionReport:
    """Coupled stochastic recurrent networks: the paper's sensitive assay.

    "Their rich stochastic dynamics cause spikes to quickly and
    chaotically diverge from simulation if the processor misses even a
    single neural operation."
    """
    report = RegressionReport()
    for rate, k in ((80.0, 8), (150.0, 16)):
        net = probabilistic_recurrent_network(
            rate, k, grid_side=2, neurons_per_core=32,
            coupling="balanced", seed=seed,
        )
        ref = run_engine(net, n_ticks, engine="reference")
        for record in (
            CompassSimulator(net, n_ranks=2).run(n_ticks),
            run_engine(net, n_ticks, engine="auto"),  # sparse fast path
            run_engine(net, n_ticks, engine="truenorth"),
        ):
            report.n_regressions += 1
            report.total_spikes_compared += ref.n_spikes
            mismatch = record.first_mismatch(ref)
            if mismatch is not None:
                report.n_mismatches += 1
                report.mismatches.append((net.name, mismatch))
    return report


def regression_wall_clock(n_ticks: int = 100_000_000) -> dict:
    """EQ2: project the 100M-tick regression wall clock on both targets."""
    tn_hours = TimingModel().wall_clock_for_ticks_s(n_ticks) / 3600.0
    legacy = CompassCostModel(X86_LEGACY)
    workload = characterization_workload(20.0, 128.0)
    x86_days = (
        legacy.time_per_tick_s(workload, hosts=1, threads_per_host=8) * n_ticks / 86400.0
    )
    return {
        "truenorth_hours": tn_hours,  # paper: 27.7 hours
        "x86_legacy_days": x86_days,  # paper: ~74 days
        "ratio": x86_days * 24.0 / tn_hours,
    }
