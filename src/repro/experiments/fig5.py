"""Experiment FIG5: TrueNorth characterization contours (paper Fig. 5).

Six panels over the 88-network characterization space:

* (a) GSOPS vs (rate, synapses) at 0.75 V
* (b) max tick frequency (kHz) vs (rate, synapses) at 0.75 V
* (c) max tick frequency (kHz) vs (voltage, synapses) at 50 Hz
* (d) total energy per tick (uJ) vs (rate, synapses) at 0.75 V
* (e) GSOPS/W vs (rate, synapses) at 0.75 V
* (f) GSOPS/W vs (voltage, synapses) at 50 Hz

Each panel is generated from the calibrated models over the full-chip
workload grid; :func:`empirical_validation` cross-checks the analytic
event counts against counts measured by actually simulating scaled
recurrent networks (DESIGN.md substitution #5).
"""

from __future__ import annotations

from repro.analysis.contour import (
    SweepGrid,
    default_rate_axis,
    default_synapse_axis,
    default_voltage_axis,
    sweep,
)
from repro.apps.recurrent import chip_placement, probabilistic_recurrent_network
from repro.core import params
from repro.hardware.energy import EnergyModel
from repro.hardware.simulator import TrueNorthSimulator
from repro.hardware.timing import TimingModel

FIG5_VOLTAGE = params.NOMINAL_VOLTAGE
FIG5C_RATE_HZ = 50.0


def fig5a_gsops(n: int = 9) -> SweepGrid:
    """Computation per time: GSOPS over (rate, synapses) at 0.75 V."""
    model = EnergyModel(FIG5_VOLTAGE)
    return sweep(
        "rate_hz", default_rate_axis(n),
        "active_synapses", default_synapse_axis(n),
        lambda r, k: model.sops(r, k) / 1e9,
        metric="GSOPS",
    )


def fig5b_max_frequency(n: int = 9) -> SweepGrid:
    """Maximum tick frequency (kHz) over (rate, synapses) at 0.75 V."""
    model = TimingModel(FIG5_VOLTAGE)
    return sweep(
        "rate_hz", default_rate_axis(n),
        "active_synapses", default_synapse_axis(n),
        model.max_frequency_for_workload_khz,
        metric="max tick frequency (kHz)",
    )


def fig5c_frequency_vs_voltage(n: int = 8) -> SweepGrid:
    """Maximum tick frequency (kHz) over (voltage, synapses) at 50 Hz."""
    return sweep(
        "voltage", default_voltage_axis(n),
        "active_synapses", default_synapse_axis(n),
        lambda v, k: TimingModel(v).max_frequency_for_workload_khz(FIG5C_RATE_HZ, k),
        metric="max tick frequency (kHz) @50Hz",
    )


def fig5d_energy_per_tick(n: int = 9) -> SweepGrid:
    """Total energy per tick (uJ) over (rate, synapses) at 0.75 V."""
    model = EnergyModel(FIG5_VOLTAGE)
    return sweep(
        "rate_hz", default_rate_axis(n),
        "active_synapses", default_synapse_axis(n),
        lambda r, k: model.energy_per_tick_for_workload(r, k) * 1e6,
        metric="energy per tick (uJ)",
    )


def fig5e_efficiency(n: int = 9) -> SweepGrid:
    """GSOPS/W over (rate, synapses) at 0.75 V, real time."""
    model = EnergyModel(FIG5_VOLTAGE)
    return sweep(
        "rate_hz", default_rate_axis(n),
        "active_synapses", default_synapse_axis(n),
        model.gsops_per_watt,
        metric="GSOPS/W",
    )


def fig5f_efficiency_vs_voltage(n: int = 8) -> SweepGrid:
    """GSOPS/W over (voltage, synapses) at 50 Hz, real time."""
    return sweep(
        "voltage", default_voltage_axis(n),
        "active_synapses", default_synapse_axis(n),
        lambda v, k: EnergyModel(v).gsops_per_watt(FIG5C_RATE_HZ, k),
        metric="GSOPS/W @50Hz",
    )


def headline_points() -> dict:
    """The Section VI-B headline operating points."""
    model = EnergyModel(FIG5_VOLTAGE)
    counts_a = model.workload_counts_per_tick(20.0, 128.0)
    power_a = model.power_w(
        counts_a["synaptic_events"], counts_a["neuron_updates"],
        counts_a["spikes"], counts_a["hops"],
    )
    return {
        "power_mw_20hz_128syn": power_a * 1e3,
        "gsops_per_watt_real_time": model.gsops_per_watt(20.0, 128.0),
        "gsops_per_watt_5x": model.gsops_per_watt(20.0, 128.0, tick_frequency_hz=5000.0),
        "gsops_per_watt_200hz_256syn": model.gsops_per_watt(200.0, 256.0),
        "power_density_mw_per_cm2": model.power_density_w_per_cm2(20.0, 128.0) * 1e3,
    }


def empirical_validation(
    rate_hz: float = 100.0,
    active_synapses: int = 16,
    grid_side: int = 4,
    neurons_per_core: int = 64,
    n_ticks: int = 200,
    seed: int = 11,
    engine: str = "truenorth",
) -> dict:
    """Cross-check analytic event counts against a simulated network.

    Runs a scaled recurrent network on the chosen kernel expression,
    measures its event counters, and compares the per-tick
    synaptic-event and spike counts against the analytic workload model
    used by Fig. 5.  Returns both so benches can assert agreement.

    The default engine is the hardware expression (it additionally
    accounts mesh hops, feeding the energy figure); any engine name from
    :data:`repro.compass.engine.ENGINES` but ``"batched"`` (one record
    per lane) works — the sweep's stochastic recurrent networks run end
    to end on the sparse ``"fast"`` / ``"auto"`` path, with identical
    spike and synaptic-event counts.
    """
    net = probabilistic_recurrent_network(
        rate_hz, active_synapses, grid_side=grid_side,
        neurons_per_core=neurons_per_core, seed=seed,
    )
    if engine == "truenorth":
        sim = TrueNorthSimulator(net, placement=chip_placement(grid_side))
    else:
        from repro.compass.engine import select_engine

        sim = select_engine(net, engine)
    record = sim.run(n_ticks)
    c = record.counters

    n_neurons = grid_side * grid_side * neurons_per_core
    model = EnergyModel(FIG5_VOLTAGE)
    analytic = model.workload_counts_per_tick(
        rate_hz, active_synapses, n_neurons=n_neurons,
        mean_hops=2 * 21.66 * grid_side / 64.0,
    )
    return {
        "measured_syn_events_per_tick": c.synaptic_events / c.ticks,
        "analytic_syn_events_per_tick": analytic["synaptic_events"],
        "measured_spikes_per_tick": c.spikes / c.ticks,
        "analytic_spikes_per_tick": analytic["spikes"],
        "measured_rate_hz": c.mean_firing_rate_hz,
        "target_rate_hz": rate_hz,
        "measured_energy_per_tick_j": model.energy_for_run_j(c) / c.ticks,
        "counters": c,
    }
