"""Neovision-style multi-object detection and classification (paper IV-B).

"Our system includes a Where network to detect objects, a What network
to classify objects, and a What/Where network to bind these predictions
into labeled bounding boxes ... achieving 0.85 precision and 0.80 recall
on the test set" (on DARPA Neovision2 Tower; here on the synthetic
scenes of :mod:`repro.apps.video` — DESIGN.md substitution #4).

Structure:

* **Where** — the spiking saliency pipeline detects active patches; a
  connected-components pass binds adjacent active patches into candidate
  boxes;
* **What** — a spiking ternary classifier (trained offline, deployed as
  a corelet) labels a fixed-size window around each candidate from
  block-average features;
* **What/Where** — candidates and labels merge into labeled boxes that
  are scored against ground truth by IoU.

Full-scale descriptor: :data:`repro.apps.workloads.NEOVISION`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import ndimage

from repro.apps.saliency import build_saliency_pipeline, run_saliency
from repro.apps.transduction import spike_counts_by_pin, transduce_video
from repro.apps.video import GroundTruthBox, Scene, generate_scene
from repro.compass.engine import run_engine
from repro.corelets.corelet import Composition
from repro.corelets.library.basic import splitter
from repro.corelets.library.classify import ternary_classifier, train_ternary
from repro.utils.validation import require

DEFAULT_CLASSES = ("person", "car", "bus")


@dataclass(frozen=True)
class Detection:
    """One labeled detection in one frame."""

    label: str
    y: int
    x: int
    h: int
    w: int

    def as_box(self, frame: int = 0) -> GroundTruthBox:
        """Convert to a GroundTruthBox for IoU scoring."""
        return GroundTruthBox(frame, self.label, self.y, self.x, self.h, self.w)


def window_features(crop: np.ndarray, block: int = 4) -> np.ndarray:
    """Block-average features of a (window x window) crop."""
    h, w = crop.shape
    return crop.reshape(h // block, block, w // block, block).mean(axis=(1, 3)).reshape(-1)


def extract_crop(frame: np.ndarray, cy: int, cx: int, window: int) -> np.ndarray:
    """Zero-padded window x window crop centered at (cy, cx)."""
    half = window // 2
    padded = np.pad(frame, half)
    return padded[cy : cy + window, cx : cx + window]


@dataclass
class NeovisionSystem:
    """Trainable What/Where detection + classification system."""

    height: int = 32
    width: int = 48
    patch: int = 4
    window: int = 16
    block: int = 4
    classes: tuple = DEFAULT_CLASSES
    seed: int = 0
    saliency_fraction: float = 0.45
    _where: object = field(init=False, default=None)
    _what: object = field(init=False, default=None)
    weights: np.ndarray | None = field(init=False, default=None)

    def __post_init__(self) -> None:
        require(self.window % self.block == 0, "window must tile by block")
        self._where = build_saliency_pipeline(
            self.height, self.width, self.patch, seed=self.seed
        )

    @property
    def n_features(self) -> int:
        """Classifier input dimension (block grid of the window)."""
        return (self.window // self.block) ** 2

    # -- offline training (the Compass role in the ecosystem) ----------------
    def training_set(self, n_scenes: int = 20, seed: int = 100):
        """Labeled window crops harvested from generated scenes."""
        feats, labels = [], []
        for s in range(n_scenes):
            scene = generate_scene(
                self.height, self.width, n_frames=3, n_objects=2,
                classes=self.classes, seed=seed + s,
            )
            for f in range(scene.n_frames):
                for box in scene.boxes[f]:
                    cy, cx = (int(round(v)) for v in box.center)
                    crop = extract_crop(scene.frames[f], cy, cx, self.window)
                    feats.append(window_features(crop, self.block))
                    labels.append(self.classes.index(box.label))
        return np.asarray(feats), np.asarray(labels)

    def train(self, n_scenes: int = 20, seed: int = 100, epochs: int = 60) -> None:
        """Train the What classifier offline and deploy it as a corelet."""
        feats, labels = self.training_set(n_scenes, seed)
        self.weights = train_ternary(
            feats, labels, len(self.classes), epochs=epochs, seed=self.seed
        )
        comp = Composition(name="what", seed=self.seed)
        sp = splitter(self.n_features, 2, name="what/split")
        clf = ternary_classifier(self.weights, gain=32, threshold=64, name="what/clf")
        comp.connect(sp.outputs["out0"], clf.inputs["in+"])
        comp.connect(sp.outputs["out1"], clf.inputs["in-"])
        comp.export_input("in", sp.inputs["in"])
        comp.export_output("out", clf.outputs["out"])
        self._what = comp.compile()

    # -- inference --------------------------------------------------------------
    def classify_crop(self, crop: np.ndarray, ticks: int = 24) -> str:
        """Label one window crop with the spiking What network."""
        require(self._what is not None, "call train() first")
        feats = window_features(crop, self.block)
        ins = transduce_video(
            feats.reshape(1, 1, -1), self._what.inputs["in"], ticks_per_frame=ticks,
            seed=self.seed,
        )
        rec = run_engine(self._what.network, ticks + 2, ins, engine="truenorth")
        rates = spike_counts_by_pin(rec, self._what.outputs["out"])
        return self.classes[int(np.argmax(rates))]

    def where(self, scene: Scene, ticks_per_frame: int = 16):
        """Run the Where network; return candidate (unlabeled) boxes."""
        _, saliency = run_saliency(
            self._where, scene.frames, ticks_per_frame=ticks_per_frame, seed=self.seed
        )
        peak = saliency.max()
        active = saliency >= self.saliency_fraction * peak if peak > 0 else saliency > 0
        labels, n_components = ndimage.label(active)
        boxes = []
        for comp_id in range(1, n_components + 1):
            ys, xs = np.nonzero(labels == comp_id)
            y0, x0 = ys.min() * self.patch, xs.min() * self.patch
            y1 = (ys.max() + 1) * self.patch
            x1 = (xs.max() + 1) * self.patch
            boxes.append((y0, x0, y1 - y0, x1 - x0))
        return boxes, saliency

    def detect(self, scene: Scene, ticks_per_frame: int = 16) -> list[Detection]:
        """Full What/Where pass: labeled bounding boxes for a scene."""
        require(self._what is not None, "call train() first")
        candidates, _ = self.where(scene, ticks_per_frame)
        frame = scene.frames[-1]
        detections = []
        for y, x, h, w in candidates:
            cy, cx = y + h // 2, x + w // 2
            crop = extract_crop(frame, cy, cx, self.window)
            detections.append(Detection(self.classify_crop(crop), y, x, h, w))
        return detections


def match_detections(
    detections: list[Detection],
    truth: list[GroundTruthBox],
    iou_threshold: float = 0.2,
) -> tuple[int, int, int]:
    """Greedy IoU matching; returns (true pos, false pos, false neg)."""
    unmatched = list(truth)
    tp = 0
    for det in detections:
        best, best_iou = None, iou_threshold
        for gt in unmatched:
            iou = det.as_box(gt.frame).iou(gt)
            if iou >= best_iou:
                best, best_iou = gt, iou
        if best is not None:
            unmatched.remove(best)
            tp += 1
    fp = len(detections) - tp
    fn = len(unmatched)
    return tp, fp, fn


def precision_recall(
    system: NeovisionSystem, n_scenes: int = 5, seed: int = 500
) -> tuple[float, float]:
    """Detection precision/recall over freshly generated test scenes."""
    tp = fp = fn = 0
    for s in range(n_scenes):
        scene = generate_scene(
            system.height, system.width, n_frames=2, n_objects=2,
            classes=system.classes, seed=seed + s,
        )
        dets = system.detect(scene)
        a, b, c = match_detections(dets, scene.boxes[-1])
        tp, fp, fn = tp + a, fp + b, fn + c
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    return precision, recall
