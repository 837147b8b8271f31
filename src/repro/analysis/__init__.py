"""Measurement analysis: metrics, sweep grids, and report rendering."""

from repro.analysis.contour import (
    SweepGrid,
    default_rate_axis,
    default_synapse_axis,
    default_voltage_axis,
    sweep,
)
from repro.analysis.metrics import (
    energy_improvement,
    gsops,
    gsops_per_watt,
    orders_of_magnitude,
    power_improvement,
    sops,
    sops_from_counters,
    speedup,
    within_band,
)
from repro.analysis.report import (
    format_value,
    render_contour,
    render_markdown_table,
    render_series,
    render_table,
)

__all__ = [
    "SweepGrid",
    "default_rate_axis",
    "default_synapse_axis",
    "default_voltage_axis",
    "sweep",
    "energy_improvement",
    "gsops",
    "gsops_per_watt",
    "orders_of_magnitude",
    "power_improvement",
    "sops",
    "sops_from_counters",
    "speedup",
    "within_band",
    "format_value",
    "render_contour",
    "render_markdown_table",
    "render_series",
    "render_table",
]
