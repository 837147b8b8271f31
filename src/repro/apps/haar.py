"""Haar-like feature extraction (paper Fig. 4(b), Section IV-B).

"Haar-like features, often used in face detection ... ten Haar-like
features in a network of 617,567 neurons in 2,605 cores with a 135 Hz
mean firing rate" over 100x200 @ 30 fps video.

The full-scale descriptor lives in :data:`repro.apps.workloads.HAAR`;
this module builds the functional pipeline at any (reduced) frame size:
per-patch banks of the five classic Haar sign patterns at two gains
(ten feature channels, as in the paper).
"""

from __future__ import annotations

import numpy as np

from repro.apps.pipeline import PatchPipeline, build_patch_filter_bank
from repro.apps.transduction import transduce_video
from repro.compass.engine import run_engine
from repro.corelets.library.filters import haar_kernels


def build_haar_pipeline(
    height: int = 16, width: int = 16, patch: int = 4, seed: int = 0
) -> PatchPipeline:
    """Per-patch bank of ten Haar-like feature channels.

    The five Haar sign patterns each appear at two detection thresholds
    (a sensitive and a strict channel), giving the paper's ten features.
    """
    five = haar_kernels(patch)
    kernels = np.concatenate([five, five], axis=1)  # 10 channels
    # Threshold ~5 net matched pixels: a full half-pattern (8 pixels at
    # gain 24 = 192/tick) fires every tick while uniform-input shot noise
    # (std ~2 pixels) rarely crosses.
    return build_patch_filter_bank(
        height, width, kernels, patch=patch, gain=24, threshold=120, decay=16,
        name="haar", seed=seed,
    )


def run_haar(
    pipeline: PatchPipeline,
    frames: np.ndarray,
    ticks_per_frame: int = 20,
    seed: int = 0,
):
    """Transduce *frames*, run the pipeline, return (record, feature map)."""
    ins = transduce_video(
        frames, pipeline.pixel_pins, ticks_per_frame=ticks_per_frame, seed=seed
    )
    n_ticks = frames.shape[0] * ticks_per_frame + 2
    record = run_engine(pipeline.compiled.network, n_ticks, ins, engine="truenorth")
    return record, pipeline.feature_map(record)


def dominant_feature(feature_map: np.ndarray) -> np.ndarray:
    """(patches_y, patches_x) argmax feature index per patch."""
    return feature_map.argmax(axis=2)
