"""Audio analytics: temporal pattern classification with a liquid reservoir.

The paper motivates "real-time audio and video analytics" (Section IV-A)
and lists liquid state machines among the deployed algorithms.  This
application classifies synthetic audio-like events — rising chirps,
falling chirps, steady tones — end to end:

1. a cochlea-style filterbank (numpy, the sensor front end) converts a
   waveform into per-band energies over time;
2. band energies are rate-coded into spikes driving a recurrent liquid
   reservoir corelet;
3. windowed reservoir state counts feed an offline-trained ternary
   readout.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.corelets.corelet import Composition, pin_columns
from repro.corelets.library.classify import train_ternary
from repro.corelets.library.reservoir import liquid_reservoir, reservoir_state_features
from repro.core.inputs import InputSchedule
from repro.hardware.simulator import run_truenorth
from repro.utils.rng import seeded_rng
from repro.utils.validation import require

AUDIO_CLASSES = ("rising", "falling", "steady")
SAMPLE_RATE = 4000.0


def synth_event(kind: str, duration_s: float = 0.05, seed: int = 0) -> np.ndarray:
    """Synthesize one audio event waveform."""
    require(kind in AUDIO_CLASSES, f"unknown event kind {kind!r}")
    rng = seeded_rng(seed)
    t = np.arange(0, duration_s, 1.0 / SAMPLE_RATE)
    if kind == "rising":
        freq = 200.0 + 3000.0 * t / duration_s
    elif kind == "falling":
        freq = 3200.0 - 3000.0 * t / duration_s
    else:
        freq = np.full_like(t, 1200.0)
    phase = 2 * np.pi * np.cumsum(freq) / SAMPLE_RATE
    return np.sin(phase) + 0.05 * rng.standard_normal(t.size)


def cochlea_filterbank(
    waveform: np.ndarray, n_bands: int = 8, n_frames: int = 10
) -> np.ndarray:
    """Per-band energy over time: (n_frames, n_bands) in [0, 1].

    A bank of short-time Goertzel-style band energies over log-spaced
    center frequencies — the sensor front end feeding the spiking
    network.
    """
    freqs = np.geomspace(200.0, 1900.0, n_bands)
    frame_len = waveform.size // n_frames
    energies = np.zeros((n_frames, n_bands))
    t = np.arange(frame_len) / SAMPLE_RATE
    for f in range(n_frames):
        chunk = waveform[f * frame_len : (f + 1) * frame_len]
        for b, fc in enumerate(freqs):
            ref = np.exp(-2j * np.pi * fc * t)
            energies[f, b] = np.abs((chunk * ref).mean())
    peak = energies.max()
    return energies / peak if peak > 0 else energies


@dataclass
class AudioClassifier:
    """Liquid-state-machine audio event classifier."""

    n_bands: int = 8
    n_frames: int = 10
    ticks_per_frame: int = 4
    reservoir_neurons: int = 64
    seed: int = 0
    classes: tuple = AUDIO_CLASSES
    weights: np.ndarray | None = field(init=False, default=None)
    _compiled: object = field(init=False, default=None)

    def __post_init__(self) -> None:
        # Sparse operating point (threshold 256 at gain 32): the liquid
        # must not saturate, or input distinctions wash out of the state.
        res = liquid_reservoir(
            n_neurons=self.reservoir_neurons,
            n_inputs=self.n_bands,
            gain=32,
            threshold=256,
            seed=self.seed,
            name="audio/liquid",
        )
        comp = Composition(name="audio", seed=self.seed)
        comp.add(res)
        comp.export_input("bands", res.inputs["in"])
        comp.export_output("state", res.outputs["state"])
        self._compiled = comp.compile()

    @property
    def n_ticks(self) -> int:
        """Simulation horizon per event (input span + reservoir echo)."""
        return self.n_frames * self.ticks_per_frame + 8

    def encode(self, energies: np.ndarray, seed: int = 0) -> InputSchedule:
        """Rate-code band energies into reservoir input spikes."""
        from repro.core import prng

        cores, axons = pin_columns(self._compiled.inputs["bands"])
        n_ticks = self.n_frames * self.ticks_per_frame
        bands = np.arange(self.n_bands)
        draws = np.array(
            [prng.draw_u16(seed, 0x41554449, 0, tick, bands) for tick in range(n_ticks)]
        )
        frame = np.arange(n_ticks) // self.ticks_per_frame
        threshold = (np.asarray(energies)[frame] * 0.6 * 65536).astype(np.int64)
        tick, band = np.nonzero(draws < threshold)
        ins = InputSchedule()
        ins.add_events(tick, cores[band], axons[band])
        return ins

    def features(self, waveform: np.ndarray, seed: int = 0) -> np.ndarray:
        """Reservoir state features for one waveform."""
        energies = cochlea_filterbank(waveform, self.n_bands, self.n_frames)
        ins = self.encode(energies, seed=seed)
        record = run_truenorth(self._compiled.network, self.n_ticks, ins)
        return reservoir_state_features(
            record, self._compiled.outputs["state"],
            self.reservoir_neurons, self.n_ticks,
        )

    def train(self, n_per_class: int = 16, seed: int = 100, epochs: int = 60) -> None:
        """Train the ternary readout on synthesized labeled events."""
        feats, labels = [], []
        for k, kind in enumerate(self.classes):
            for i in range(n_per_class):
                wave = synth_event(kind, seed=seed + 17 * k + i)
                feats.append(self.features(wave, seed=seed + i))
                labels.append(k)
        feats = np.asarray(feats)
        scale = feats.max() or 1.0
        self.weights = train_ternary(
            feats / scale, np.asarray(labels), len(self.classes),
            epochs=epochs, seed=self.seed,
        )

    def classify(self, waveform: np.ndarray, seed: int = 0) -> str:
        """Label one waveform."""
        require(self.weights is not None, "call train() first")
        scores = self.features(waveform, seed=seed) @ self.weights
        return self.classes[int(np.argmax(scores))]

    def accuracy(self, n_per_class: int = 6, seed: int = 900) -> float:
        """Classification accuracy on freshly synthesized events."""
        correct = total = 0
        for k, kind in enumerate(self.classes):
            for i in range(n_per_class):
                wave = synth_event(kind, seed=seed + 31 * k + i)
                correct += self.classify(wave, seed=seed + i) == kind
                total += 1
        return correct / total
