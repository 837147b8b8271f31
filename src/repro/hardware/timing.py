"""TrueNorth timing model: maximum tick frequency vs. load and voltage.

The chip is globally tick-synchronized: a tick completes only when every
core has drained its synaptic events and every packet has been routed.
The maximum tick frequency (Fig. 5(b,c)) is therefore set by the busiest
core's event-service time plus a fixed per-tick overhead (neuron sweep,
synchronization):

    t_tick(V) = (t_fixed + busiest_core_events * t_syn) / s(V)

Calibration at 0.75 V (see DESIGN.md section 5):

* ``t_syn``  = 12.5 ns per synaptic event (80 M events/s per core) — at
  the worst case of 65,536 events per core-tick (every synapse active,
  every neuron firing every tick), the tick takes ~0.97 ms: the design
  point of "real-time at the worst case";
* ``t_fixed`` = 150 us — light-load tick ceiling ~6.7 kHz, and the
  anchor-A network (20 Hz x 128 syn) reaches ~6.3 kHz >= the 5x faster
  run the paper reports.

Voltage scaling: the asynchronous logic's speed is roughly linear in the
overdrive, s(V) = (V - 0.55) / (0.75 - 0.55); correct operation requires
V >= ~0.70 V (paper Section VI-B).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core import params
from repro.core.counters import EventCounters
from repro.utils.validation import require

T_FIXED_S = 150e-6  # fixed tick overhead at 0.75 V
T_SYNAPTIC_EVENT_S = 12.5e-9  # per-event core service time at 0.75 V
V_SPEED_INTERCEPT = 0.55  # extrapolated zero-speed supply voltage


@dataclass(frozen=True)
class TimingModel:
    """Maximum-tick-frequency evaluator at a given supply voltage."""

    voltage: float = params.NOMINAL_VOLTAGE

    def __post_init__(self) -> None:
        require(
            params.MIN_FUNCTIONAL_VOLTAGE - 1e-9 <= self.voltage <= params.MAX_VOLTAGE + 1e-9,
            f"voltage {self.voltage} below functional floor "
            f"{params.MIN_FUNCTIONAL_VOLTAGE} or above {params.MAX_VOLTAGE}",
        )

    @property
    def speed_factor(self) -> float:
        """Logic speed relative to 0.75 V operation."""
        return (self.voltage - V_SPEED_INTERCEPT) / (
            params.NOMINAL_VOLTAGE - V_SPEED_INTERCEPT
        )

    def tick_time_s(self, busiest_core_events: float) -> float:
        """Minimum tick duration given the busiest core's event load."""
        base = T_FIXED_S + busiest_core_events * T_SYNAPTIC_EVENT_S
        return base / self.speed_factor

    def max_tick_frequency_hz(self, busiest_core_events: float) -> float:
        """Maximum sustainable tick frequency for the given load."""
        return 1.0 / self.tick_time_s(busiest_core_events)

    # -- uniform-workload helpers (Fig. 5(b,c)) ---------------------------
    @staticmethod
    def core_events_per_tick(rate_hz: float, active_synapses: float) -> float:
        """Busiest-core synaptic events/tick for a uniform workload.

        Each of the core's 256 neurons receives ``active_synapses``
        events per presynaptic spike at ``rate_hz``; the recurrent
        characterization networks are balanced, so the busiest core
        equals the mean core.
        """
        return params.CORE_NEURONS * active_synapses * rate_hz * params.TICK_SECONDS

    def max_frequency_for_workload_khz(
        self, rate_hz: float, active_synapses: float
    ) -> float:
        """Maximum tick frequency (kHz) of a uniform recurrent workload."""
        events = self.core_events_per_tick(rate_hz, active_synapses)
        return self.max_tick_frequency_hz(events) / 1e3

    def max_frequency_for_run_khz(self, counters: EventCounters) -> float:
        """Maximum tick frequency implied by a simulated run's peak load."""
        return self.max_tick_frequency_hz(counters.max_core_events_per_tick) / 1e3

    def wall_clock_for_ticks_s(
        self, n_ticks: int, tick_frequency_hz: float = params.REAL_TIME_HZ
    ) -> float:
        """Wall-clock time to execute *n_ticks* at a chosen tick rate.

        The paper's longest regression: 100M ticks at 1 kHz = 27.7 hours.
        """
        return n_ticks / tick_frequency_hz
