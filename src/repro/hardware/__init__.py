"""TrueNorth: the silicon expression of the kernel, plus time/energy models."""

from repro.hardware.energy import (
    CHARACTERIZATION_MEAN_HOPS,
    E_HOP_J,
    E_NEURON_UPDATE_J,
    E_SPIKE_INJECT_J,
    E_SYNAPTIC_EVENT_J,
    P_PASSIVE_W,
    EnergyModel,
)
from repro.hardware.power import (
    PowerMeasurement,
    adc_sample,
    level_triggered_average,
    measure_power,
    synthesize_tick_waveform,
)
from repro.hardware.simulator import TrueNorthSimulator
from repro.hardware.timing import TimingModel

__all__ = [
    "CHARACTERIZATION_MEAN_HOPS",
    "E_HOP_J",
    "E_NEURON_UPDATE_J",
    "E_SPIKE_INJECT_J",
    "E_SYNAPTIC_EVENT_J",
    "P_PASSIVE_W",
    "EnergyModel",
    "PowerMeasurement",
    "adc_sample",
    "level_triggered_average",
    "measure_power",
    "synthesize_tick_waveform",
    "TrueNorthSimulator",
    "TimingModel",
]
