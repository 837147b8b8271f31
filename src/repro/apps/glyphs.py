"""Convolutional glyph classification: the "convolutional networks" entry.

The paper's corelet library includes convolutional networks (Fig. 2).
This application classifies small synthetic glyphs (cross, square,
diagonal stripes) with a spiking pipeline:

    pixels -> conv2d (shared ternary kernels, stride) -> feature counts
           -> offline-trained ternary readout

The convolution layer is the real spiking substrate
(:func:`repro.corelets.library.convolution.conv2d`); readout training is
offline, as in the TrueNorth ecosystem.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.apps.transduction import transduce_video
from repro.compass.engine import run_engine
from repro.corelets.library.classify import train_ternary
from repro.corelets.library.convolution import ConvLayer, conv2d
from repro.utils.rng import seeded_rng
from repro.utils.validation import require

GLYPH_CLASSES = ("cross", "square", "stripes")


def draw_glyph(kind: str, size: int = 8, jitter: int = 1, seed: int = 0) -> np.ndarray:
    """Render one glyph with positional jitter and pixel noise."""
    require(kind in GLYPH_CLASSES, f"unknown glyph {kind!r}")
    rng = seeded_rng(seed)
    img = np.zeros((size, size))
    dy, dx = rng.integers(-jitter, jitter + 1, size=2)
    c = size // 2
    if kind == "cross":
        img[np.clip(c + dy, 0, size - 1), :] = 1.0
        img[:, np.clip(c + dx, 0, size - 1)] = 1.0
    elif kind == "square":
        lo, hi = 1 + dy, size - 2 + dy
        lo, hi = max(0, lo), min(size - 1, hi)
        img[lo, lo : hi + 1] = 1.0
        img[hi, lo : hi + 1] = 1.0
        img[lo : hi + 1, lo] = 1.0
        img[lo : hi + 1, hi] = 1.0
    else:  # diagonal stripes
        ys, xs = np.mgrid[0:size, 0:size]
        img[((ys + xs + dx) % 3) == 0] = 1.0
    noise = rng.random((size, size)) < 0.03
    return np.clip(img + noise * 0.5, 0.0, 1.0)


def edge_kernels() -> np.ndarray:
    """3x3 oriented-edge kernel bank (horizontal, vertical, 2 diagonals)."""
    k = np.zeros((9, 4), dtype=np.int64)
    g = lambda a: np.asarray(a, dtype=np.int64).reshape(-1)
    k[:, 0] = g([[1, 1, 1], [0, 0, 0], [-1, -1, -1]])
    k[:, 1] = g([[1, 0, -1], [1, 0, -1], [1, 0, -1]])
    k[:, 2] = g([[1, 1, 0], [1, 0, -1], [0, -1, -1]])
    k[:, 3] = g([[0, 1, 1], [-1, 0, 1], [-1, -1, 0]])
    return k


@dataclass
class GlyphClassifier:
    """Spiking conv features + offline-trained ternary readout."""

    size: int = 8
    stride: int = 2
    ticks: int = 40
    seed: int = 0
    classes: tuple = GLYPH_CLASSES
    layer: ConvLayer = field(init=False)
    weights: np.ndarray | None = field(init=False, default=None)
    _scale: float = field(init=False, default=1.0)

    def __post_init__(self) -> None:
        self.layer = conv2d(
            self.size, self.size, edge_kernels(), stride=self.stride,
            gain=32, threshold=64, decay=32, seed=self.seed,
        )

    def features(self, image: np.ndarray, seed: int = 0) -> np.ndarray:
        """Spiking conv feature counts for one glyph image."""
        frames = image[None].repeat(2, axis=0)
        ins = transduce_video(
            frames, self.layer.pixel_pins, ticks_per_frame=self.ticks // 2, seed=seed
        )
        record = run_engine(self.layer.compiled.network, self.ticks + 2, ins, engine="truenorth")
        return self.layer.feature_map(record).reshape(-1).astype(np.float64)

    def train(self, n_per_class: int = 16, seed: int = 300, epochs: int = 80) -> None:
        """Train the ternary readout on rendered glyphs."""
        feats, labels = [], []
        for k, kind in enumerate(self.classes):
            for i in range(n_per_class):
                img = draw_glyph(kind, self.size, seed=seed + 13 * k + i)
                feats.append(self.features(img, seed=seed + i))
                labels.append(k)
        feats = np.asarray(feats)
        self._scale = feats.max() or 1.0
        self.weights = train_ternary(
            feats / self._scale, np.asarray(labels), len(self.classes),
            epochs=epochs, seed=self.seed,
        )

    def classify(self, image: np.ndarray, seed: int = 0) -> str:
        """Label one glyph image."""
        require(self.weights is not None, "call train() first")
        scores = self.features(image, seed=seed) @ self.weights
        return self.classes[int(np.argmax(scores))]

    def accuracy(self, n_per_class: int = 6, seed: int = 9000) -> float:
        """Accuracy on freshly rendered glyphs."""
        correct = total = 0
        for k, kind in enumerate(self.classes):
            for i in range(n_per_class):
                img = draw_glyph(kind, self.size, seed=seed + 41 * k + i)
                correct += self.classify(img, seed=seed + i) == kind
                total += 1
        return correct / total
