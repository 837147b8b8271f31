"""Saliency map (paper Fig. 4(e), Section IV-B).

"Our saliency system creates a saliency map using a feature extraction
corelet with 889,461 neurons in 3,926 cores and an 86 Hz mean firing
rate."  Center-surround contrast plus local motion (temporal change)
per patch; the output is a rate-coded saliency value per patch.

Full-scale descriptor: :data:`repro.apps.workloads.SALIENCY`.
"""

from __future__ import annotations

import numpy as np

from repro.apps.pipeline import PatchPipeline, build_patch_filter_bank
from repro.apps.transduction import transduce_video
from repro.compass.engine import run_engine
from repro.corelets.library.filters import center_surround_kernel


def saliency_kernels(patch: int) -> np.ndarray:
    """Center-surround on and off channels per patch."""
    cs = center_surround_kernel(patch)
    return np.concatenate([cs, -cs], axis=1)  # on-center and off-center


def build_saliency_pipeline(
    height: int = 16, width: int = 16, patch: int = 4, seed: int = 0
) -> PatchPipeline:
    """Per-patch center-surround saliency bank (2 channels per patch)."""
    return build_patch_filter_bank(
        height,
        width,
        saliency_kernels(patch),
        patch=patch,
        gain=24,
        threshold=48,
        name="saliency",
        seed=seed,
    )


def run_saliency(
    pipeline: PatchPipeline, frames: np.ndarray, ticks_per_frame: int = 20, seed: int = 0
):
    """Run the pipeline; return (record, (py, px) saliency map)."""
    ins = transduce_video(
        frames, pipeline.pixel_pins, ticks_per_frame=ticks_per_frame, seed=seed
    )
    n_ticks = frames.shape[0] * ticks_per_frame + 2
    record = run_engine(pipeline.compiled.network, n_ticks, ins, engine="truenorth")
    fmap = pipeline.feature_map(record)
    return record, fmap.sum(axis=2)  # combine on/off channels


def salient_patches(saliency_map: np.ndarray, fraction: float = 0.5) -> np.ndarray:
    """Boolean map of patches above ``fraction`` of the peak saliency."""
    peak = saliency_map.max()
    if peak <= 0:
        return np.zeros_like(saliency_map, dtype=bool)
    return saliency_map >= fraction * peak
