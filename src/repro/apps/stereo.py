"""Stereo disparity estimation by binocular coincidence detection.

A companion to the optical-flow application in the multi-sensory
feature-extraction family the paper motivates: two rate-coded "eyes"
view the same scene with a horizontal shift; coincidence detectors
between the left image and progressively shifted copies of the right
image fire most on the detector bank matching the true disparity — the
classic cooperative-stereo correspondence principle, spiking edition.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.apps.transduction import spike_counts_by_pin
from repro.compass.engine import run_engine
from repro.corelets.corelet import CompiledComposition, Composition, Connector
from repro.corelets.library.basic import splitter
from repro.corelets.library.temporal import coincidence
from repro.core.inputs import InputSchedule
from repro.obs.log import get_logger
from repro.utils.validation import require

log = get_logger("repro.apps.stereo")


@dataclass
class StereoPipeline:
    """Compiled disparity-detector banks over one scanline geometry."""

    compiled: CompiledComposition
    n_positions: int
    disparities: tuple

    def disparity_energies(self, record) -> dict:
        """Spike counts per disparity bank."""
        return {
            d: int(
                spike_counts_by_pin(record, self.compiled.outputs[f"disp{d}"]).sum()
            )
            for d in self.disparities
        }

    def estimate_disparity(self, record) -> int:
        """Winning disparity (most active bank)."""
        energies = self.disparity_energies(record)
        return max(energies, key=energies.get)


def build_stereo_pipeline(
    n_positions: int = 16,
    disparities: tuple = (0, 1, 2, 3),
    seed: int = 0,
    name: str = "stereo",
) -> StereoPipeline:
    """One coincidence bank per candidate disparity.

    Bank d correlates left position i with right position i+d; the
    width of each bank is ``n_positions - max(disparities)`` so every
    bank sees the same number of detector pairs (fair competition).
    """
    require(n_positions >= 2, "need at least two positions")
    d_max = max(disparities)
    require(d_max < n_positions, "disparity exceeds the scanline")
    width = n_positions - d_max

    comp = Composition(name=name, seed=seed)
    ways = len(disparities)
    left = splitter(n_positions, ways, name=f"{name}/left")
    right = splitter(n_positions, ways, name=f"{name}/right")

    for k, d in enumerate(disparities):
        corr = coincidence(width, name=f"{name}/d{d}")
        left_pins = left.outputs[f"out{k}"].pins[:width]
        right_pins = right.outputs[f"out{k}"].pins[d : d + width]
        comp.connect(Connector(f"L{d}", left_pins), corr.inputs["in_a"])
        comp.connect(Connector(f"R{d}", right_pins), corr.inputs["in_b"])
        comp.export_output(f"disp{d}", corr.outputs["out"])

    comp.export_input("left", left.inputs["in"])
    comp.export_input("right", right.inputs["in"])
    compiled = comp.compile()
    log.info(
        "stereo_pipeline_built", n_positions=n_positions,
        disparities=disparities, bank_width=width,
        n_cores=compiled.network.n_cores,
    )
    return StereoPipeline(
        compiled=compiled, n_positions=n_positions, disparities=disparities
    )


def stereo_pair_inputs(
    pipeline: StereoPipeline,
    pattern: np.ndarray,
    true_disparity: int,
    ticks: int = 40,
    max_rate: float = 0.7,
    seed: int = 5,
) -> InputSchedule:
    """Rate-code a 1D pattern into both eyes with the given shift.

    The left eye sees ``pattern``; the right eye sees the same pattern
    shifted ``true_disparity`` positions left (so left[i] corresponds to
    right[i + d]).
    """
    pattern = np.asarray(pattern, dtype=np.float64)
    require(pattern.size == pipeline.n_positions, "pattern width mismatch")
    right_view = np.zeros_like(pattern)
    d = true_disparity
    if d == 0:
        right_view[:] = pattern
    else:
        right_view[d:] = pattern[:-d] if d > 0 else pattern[-d:]

    ins = InputSchedule()
    from repro.apps.transduction import rate_code_frame

    rate_code_frame(
        pattern.reshape(1, -1), pipeline.compiled.inputs["left"], ins, 0,
        ticks=ticks, max_rate=max_rate, seed=seed,
    )
    # The eyes carry independent sensor noise (distinct seeds); the
    # correlation the detectors exploit comes from the shared pattern.
    rate_code_frame(
        right_view.reshape(1, -1), pipeline.compiled.inputs["right"], ins, 0,
        ticks=ticks, max_rate=max_rate, seed=seed + 1,
    )
    return ins


def estimate_scene_disparity(
    pipeline: StereoPipeline,
    pattern: np.ndarray,
    true_disparity: int,
    ticks: int = 40,
    seed: int = 5,
):
    """Run a stereo pair; return (record, estimated disparity)."""
    ins = stereo_pair_inputs(pipeline, pattern, true_disparity, ticks, seed=seed)
    record = run_engine(pipeline.compiled.network, ticks + 3, ins, engine="truenorth")
    estimate = pipeline.estimate_disparity(record)
    log.info(
        "stereo_disparity_estimated", true=true_disparity, estimate=estimate,
        correct=(estimate == true_disparity), ticks=ticks,
        spikes=record.n_spikes, energies=pipeline.disparity_energies(record),
    )
    return record, estimate
