"""Saccade map: winner-take-all + inhibition-of-return (paper Fig. 4(f)).

"A saccade map selects regions of interest by applying a winner-take-all
mechanism to the saliency map, followed by temporal inhibition-of-return
to promote map exploration, using a corelet with 612,458 neurons in
2,571 cores and a 5 Hz mean firing rate."

Full-scale descriptor: :data:`repro.apps.workloads.SACCADE`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.corelets.corelet import CompiledComposition, Composition, pin_columns
from repro.corelets.library.competition import inhibition_of_return, winner_take_all
from repro.core.inputs import InputSchedule
from repro.hardware.simulator import run_truenorth
from repro.utils.rng import seeded_rng
from repro.utils.validation import require


@dataclass
class SaccadePipeline:
    """Compiled saccade network over an n-location saliency map."""

    compiled: CompiledComposition
    n_locations: int

    def saccade_sequence(self, record) -> list[tuple[int, int]]:
        """(tick, location) winners in firing order."""
        pins = {
            (p.core, p.index): i
            for i, p in enumerate(self.compiled.outputs["saccades"])
        }
        return sorted(
            (t, pins[(c, n)]) for t, c, n in record.as_tuples() if (c, n) in pins
        )


def build_saccade_pipeline(
    n_locations: int = 16,
    suppression: int = 255,
    recovery: int = 8,
    seed: int = 0,
) -> SaccadePipeline:
    """WTA over saliency inputs, then IOR on the winning location."""
    require(1 <= n_locations <= 128, "saccade map limited to 128 locations per core")
    comp = Composition(name="saccade", seed=seed)
    wta = winner_take_all(n_locations, name="saccade/wta")
    ior = inhibition_of_return(
        n_locations,
        gain=255,
        threshold=128,
        suppression=suppression,
        recovery=recovery,
        name="saccade/ior",
    )
    comp.connect(wta.outputs["out"], ior.inputs["in"])
    comp.export_input("saliency", wta.inputs["in"])
    comp.export_output("saccades", ior.outputs["out"])
    return SaccadePipeline(compiled=comp.compile(), n_locations=n_locations)


def drive_saliency_rates(
    pipeline: SaccadePipeline,
    rates: np.ndarray,
    n_ticks: int,
    seed: int = 7,
) -> InputSchedule:
    """Poisson-code per-location saliency strengths onto the WTA input."""
    require(rates.size == pipeline.n_locations, "one rate per location")
    rng = seeded_rng(seed)
    cores, axons = pin_columns(pipeline.compiled.inputs["saliency"])
    ins = InputSchedule()
    hits = rng.random((n_ticks, rates.size)) < np.clip(rates, 0, 1)[None, :]
    tick, loc = np.nonzero(hits)
    ins.add_events(tick, cores[loc], axons[loc])
    return ins


def run_saccades(
    pipeline: SaccadePipeline, rates: np.ndarray, n_ticks: int = 120, seed: int = 7
):
    """Drive the saccade network; return (record, saccade sequence)."""
    ins = drive_saliency_rates(pipeline, rates, n_ticks, seed=seed)
    record = run_truenorth(pipeline.compiled.network, n_ticks, ins)
    return record, pipeline.saccade_sequence(record)


def explored_locations(sequence: list[tuple[int, int]]) -> set[int]:
    """Distinct locations visited by the saccade sequence."""
    return {loc for _, loc in sequence}
