"""Local Binary Pattern histograms (paper Fig. 4(c), Section IV-B).

"20-bin Local Binary Pattern feature histograms in a network of 813,978
neurons in 3,836 cores with a 64 Hz mean firing rate"; Fig. 4(c) shows
"eight LBP histograms extracted from 8 subpatches".

Spiking realization: each subpatch computes eight oriented local
contrast channels (the rate-coded analogue of the 8-neighbour LBP
comparisons), and a histogram corelet counts events per channel with
linear-reset population counters.  The full-scale descriptor lives in
:data:`repro.apps.workloads.LBP`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.apps.transduction import spike_counts_by_pin, transduce_video
from repro.compass.engine import run_engine
from repro.corelets.corelet import CompiledComposition, Composition, Connector
from repro.corelets.library.basic import splitter
from repro.corelets.library.classify import histogram
from repro.corelets.library.filters import signed_filter
from repro.utils.validation import require

N_ORIENTATIONS = 8


def oriented_kernels(patch: int) -> np.ndarray:
    """Eight half-plane contrast sign patterns (LBP neighbour directions)."""
    n = patch * patch
    ys, xs = np.divmod(np.arange(n), patch)
    cy = cx = (patch - 1) / 2.0
    kernels = np.zeros((n, N_ORIENTATIONS), dtype=np.int64)
    for d in range(N_ORIENTATIONS):
        angle = 2.0 * np.pi * d / N_ORIENTATIONS
        proj = np.cos(angle) * (xs - cx) + np.sin(angle) * (ys - cy)
        kernels[:, d] = np.where(proj > 1e-9, 1, np.where(proj < -1e-9, -1, 0))
    return kernels


@dataclass
class LBPPipeline:
    """Compiled LBP pipeline: oriented contrasts + per-subpatch histograms."""

    compiled: CompiledComposition
    height: int
    width: int
    patch: int

    @property
    def n_subpatches(self) -> int:
        """Number of subpatches (histograms)."""
        return (self.height // self.patch) * (self.width // self.patch)

    def histograms(self, record) -> np.ndarray:
        """(n_subpatches, 8) histogram spike counts from a run."""
        counts = spike_counts_by_pin(record, self.compiled.outputs["histograms"])
        return counts.reshape(self.n_subpatches, N_ORIENTATIONS)


def build_lbp_pipeline(
    height: int = 16, width: int = 16, patch: int = 8, count_per_spike: int = 2, seed: int = 0
) -> LBPPipeline:
    """LBP pipeline: per-subpatch oriented contrasts into 8-bin histograms."""
    require(height % patch == 0 and width % patch == 0, "frame must tile by patch")
    kernels = oriented_kernels(patch)
    comp = Composition(name="lbp", seed=seed)

    pin_by_pixel = {}
    hist_pins = []
    for py in range(height // patch):
        for px in range(width // patch):
            tag = f"lbp/p{py}x{px}"
            sp = splitter(patch * patch, 2, name=f"{tag}/split")
            bank = signed_filter(kernels, gain=24, threshold=72, name=f"{tag}/bank")
            hist = histogram(
                np.arange(N_ORIENTATIONS),
                N_ORIENTATIONS,
                count_per_spike=count_per_spike,
                name=f"{tag}/hist",
            )
            comp.connect(sp.outputs["out0"], bank.inputs["in+"])
            comp.connect(sp.outputs["out1"], bank.inputs["in-"])
            comp.connect(bank.outputs["out"], hist.inputs["in"])
            for local, pin in enumerate(sp.inputs["in"].pins):
                y = py * patch + local // patch
                x = px * patch + local % patch
                pin_by_pixel[(y, x)] = pin
            hist_pins.extend(hist.outputs["out"].pins)

    pixel_pins = [pin_by_pixel[(y, x)] for y in range(height) for x in range(width)]
    comp.export_input("pixels", Connector("pixels", pixel_pins))
    comp.export_output("histograms", Connector("histograms", hist_pins))
    return LBPPipeline(compiled=comp.compile(), height=height, width=width, patch=patch)


def run_lbp(
    pipeline: LBPPipeline, frames: np.ndarray, ticks_per_frame: int = 20, seed: int = 0
):
    """Transduce *frames*, run the pipeline, return (record, histograms)."""
    ins = transduce_video(
        frames, pipeline.compiled.inputs["pixels"], ticks_per_frame=ticks_per_frame, seed=seed
    )
    n_ticks = frames.shape[0] * ticks_per_frame + 3
    record = run_engine(pipeline.compiled.network, n_ticks, ins, engine="truenorth")
    return record, pipeline.histograms(record)
