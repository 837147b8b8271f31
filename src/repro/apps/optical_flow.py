"""Optical flow: direction- and velocity-selective motion estimation.

The paper lists "optical flow" among the applications deployed on the
ecosystem (Fig. 2).  The spiking implementation uses banks of Reichardt
delay-and-correlate detectors (see
:mod:`repro.corelets.library.temporal`): each image row carries one
detector per direction (+x, -x) per tuned velocity; the dominant
direction of a moving stimulus is read out as the most active bank.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.apps.transduction import spike_counts_by_pin
from repro.core.inputs import InputSchedule
from repro.corelets.corelet import CompiledComposition, Composition, Connector, pin_columns
from repro.corelets.library.basic import splitter
from repro.corelets.library.temporal import coincidence, delay_chain
from repro.hardware.simulator import run_truenorth
from repro.utils.validation import require


@dataclass
class FlowPipeline:
    """Compiled motion-detector bank over one image row geometry."""

    compiled: CompiledComposition
    n_positions: int
    velocities: tuple

    def direction_energies(self, record) -> dict:
        """Spike counts per (direction, velocity) bank."""
        out = {}
        for direction in ("+x", "-x"):
            for v in self.velocities:
                pins = self.compiled.outputs[f"flow{direction}v{v}"]
                out[(direction, v)] = int(spike_counts_by_pin(record, pins).sum())
        return out

    def dominant_flow(self, record) -> tuple[str, int]:
        """(direction, velocity) of the most active detector bank."""
        energies = self.direction_energies(record)
        return max(energies, key=energies.get)


def build_flow_pipeline(
    n_positions: int = 8,
    velocities: tuple = (1, 2, 4),
    seed: int = 0,
    name: str = "flow",
) -> FlowPipeline:
    """Detector banks for both x directions at several tuned velocities."""
    require(n_positions >= 2, "need at least two positions")
    comp = Composition(name=name, seed=seed)
    ways = 2 * len(velocities) * 2  # (delayed + direct) per velocity per direction
    sp = splitter(n_positions, ways, name=f"{name}/split")

    way = 0
    for direction, order in (("+x", 1), ("-x", -1)):
        for v in velocities:
            tag = f"{name}/{direction}v{v}"
            chain = delay_chain(n_positions, v - 1, name=f"{tag}/delay")
            corr = coincidence(n_positions - 1, name=f"{tag}/corr")
            delayed_src = sp.outputs[f"out{way}"]
            direct_src = sp.outputs[f"out{way + 1}"]
            way += 2
            if order < 0:
                delayed_src = Connector(delayed_src.name + "r", delayed_src.pins[::-1])
                direct_src = Connector(direct_src.name + "r", direct_src.pins[::-1])
            comp.connect(delayed_src, chain.inputs["in"])
            comp.connect(
                chain.outputs["out"].slice(0, n_positions - 1), corr.inputs["in_a"]
            )
            comp.connect(
                Connector("direct", direct_src.pins[1:]), corr.inputs["in_b"]
            )
            comp.export_output(f"flow{direction}v{v}", corr.outputs["out"])

    comp.export_input("in", sp.inputs["in"])
    return FlowPipeline(
        compiled=comp.compile(), n_positions=n_positions, velocities=velocities
    )


def moving_bar_inputs(
    pipeline: FlowPipeline,
    velocity: int,
    direction: int = +1,
    sweeps: int = 2,
) -> tuple[InputSchedule, int]:
    """Inputs for a bar sweeping across the positions; returns (ins, ticks)."""
    cores, axons = pin_columns(pipeline.compiled.inputs["in"])
    n = pipeline.n_positions
    pos = np.arange(n) if direction > 0 else np.arange(n - 1, -1, -1)
    sweep_ticks = n * velocity + 8  # gap between sweeps
    tick = sweep_ticks * np.arange(sweeps)[:, None] + velocity * np.arange(n)
    ins = InputSchedule()
    ins.add_events(tick, cores[pos], axons[pos])
    return ins, sweeps * sweep_ticks + 8


def estimate_flow(
    pipeline: FlowPipeline, velocity: int, direction: int = +1, sweeps: int = 2
):
    """Run a moving-bar stimulus; return (record, (direction, velocity))."""
    ins, n_ticks = moving_bar_inputs(pipeline, velocity, direction, sweeps)
    record = run_truenorth(pipeline.compiled.network, n_ticks, ins)
    return record, pipeline.dominant_flow(record)
