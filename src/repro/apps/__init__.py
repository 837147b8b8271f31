"""Applications: the five vision systems + the 88 characterization networks."""

from repro.apps.haar import build_haar_pipeline, run_haar
from repro.apps.lbp import build_lbp_pipeline, run_lbp
from repro.apps.neovision import NeovisionSystem, precision_recall
from repro.apps.recurrent import (
    characterization_grid,
    probabilistic_recurrent_network,
)
from repro.apps.saccade import build_saccade_pipeline, run_saccades
from repro.apps.saliency import build_saliency_pipeline, run_saliency
from repro.apps.transduction import transduce_video
from repro.apps.video import Scene, generate_scene
from repro.apps.workloads import (
    ANCHOR_A,
    ANCHOR_C,
    HAAR,
    LBP,
    NEOVISION,
    SACCADE,
    SALIENCY,
    VISION_APPS,
    characterization_workload,
)

__all__ = [
    "build_haar_pipeline",
    "run_haar",
    "build_lbp_pipeline",
    "run_lbp",
    "NeovisionSystem",
    "precision_recall",
    "characterization_grid",
    "probabilistic_recurrent_network",
    "build_saccade_pipeline",
    "run_saccades",
    "build_saliency_pipeline",
    "run_saliency",
    "transduce_video",
    "Scene",
    "generate_scene",
    "ANCHOR_A",
    "ANCHOR_C",
    "HAAR",
    "LBP",
    "NEOVISION",
    "SACCADE",
    "SALIENCY",
    "VISION_APPS",
    "characterization_workload",
]
