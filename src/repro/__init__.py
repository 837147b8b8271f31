"""repro — reproduction of the SC14 TrueNorth / Compass cortical-computing system.

Public API surface; see README.md for a tour and DESIGN.md for the
paper-to-module map.
"""

from repro.core import (
    Core,
    EventCounters,
    InputSchedule,
    Network,
    Placement,
    SpikeRecord,
)

__version__ = "1.0.0"

__all__ = [
    "Core",
    "EventCounters",
    "InputSchedule",
    "Network",
    "Placement",
    "SpikeRecord",
    "__version__",
]
