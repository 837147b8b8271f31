"""Transduction: converting video frames into input spike trains.

"Frames of streaming video drive all applications" (paper Fig. 4).
Video at 30 fps against a 1 kHz tick gives ~33 ticks per frame; pixel
intensity is rate-coded — each pixel emits Bernoulli spikes with
per-tick probability proportional to its intensity — using the same
deterministic counter-based PRNG discipline as the kernel so that runs
are exactly reproducible.
"""

from __future__ import annotations

import numpy as np

from repro.core import prng
from repro.core.inputs import InputSchedule
from repro.corelets.corelet import GlobalPin, pin_columns
from repro.utils.validation import require

TICKS_PER_FRAME_30FPS = 33  # 1 kHz ticks / 30 fps

PURPOSE_TRANSDUCE = 0x54524E53  # distinct PRNG purpose for pixel coding


def rate_code_frame(
    frame: np.ndarray,
    pins: list[GlobalPin],
    schedule: InputSchedule,
    start_tick: int,
    ticks: int = TICKS_PER_FRAME_30FPS,
    max_rate: float = 0.8,
    seed: int = 0,
) -> int:
    """Rate-code one frame onto the given input pins.

    Pixel (row-major) i spikes on each tick with probability
    ``frame.flat[i] * max_rate``.  Returns the number of injected events.
    *pins* may already be :func:`~repro.corelets.corelet.pin_columns`
    (whoever codes many frames converts once); the frame's hits reach
    the schedule in one ``add_events`` call.
    """
    flat = np.asarray(frame, dtype=np.float64).reshape(-1)
    cores, axons = pin_columns(pins)
    require(cores.size == flat.size, f"need {flat.size} pins, got {cores.size}")
    p = np.clip(flat * max_rate, 0.0, 1.0)
    threshold = (p * 65536.0).astype(np.int64)
    units = np.arange(flat.size)
    hits = [
        np.nonzero(prng.draw_u16(seed, PURPOSE_TRANSDUCE, 0, start_tick + dt, units) < threshold)[0]
        for dt in range(ticks)
    ]
    pixel = np.concatenate(hits) if hits else units[:0]
    when = np.repeat(np.arange(start_tick, start_tick + ticks), [h.size for h in hits])
    schedule.add_events(when, cores[pixel], axons[pixel])
    return int(pixel.size)


def transduce_video(
    frames: np.ndarray,
    pins: list[GlobalPin],
    ticks_per_frame: int = TICKS_PER_FRAME_30FPS,
    max_rate: float = 0.8,
    seed: int = 0,
) -> InputSchedule:
    """Rate-code a whole video (n_frames, h, w) into an input schedule."""
    schedule = InputSchedule()
    pins = pin_columns(pins)
    for f, frame in enumerate(frames):
        rate_code_frame(
            frame,
            pins,
            schedule,
            start_tick=f * ticks_per_frame,
            ticks=ticks_per_frame,
            max_rate=max_rate,
            seed=seed,
        )
    return schedule


def spike_counts_by_pin(record, pins: list[GlobalPin]) -> np.ndarray:
    """Per-pin spike counts from a run record (decoding helper).

    One composite (core, line) key per pin and per spike; each spike
    finds its pin by binary search.  A (core, line) listed twice counts
    at its last position, as a dict of the pins would have it.
    """
    cores, lines = pin_columns(pins)
    counts = np.zeros(cores.size, dtype=np.int64)
    if cores.size and record.n_spikes:
        span = max(int(lines.max()), int(record.neurons.max())) + 1
        keys = cores * span + lines
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        spikes = record.cores * span + record.neurons
        at = np.searchsorted(keys, spikes, side="right") - 1
        hit = keys[at] == spikes  # at == -1 wraps to the largest key: no match
        counts += np.bincount(order[at[hit]], minlength=cores.size)
    return counts


def spike_map(record, pins: list[GlobalPin], shape: tuple[int, int]) -> np.ndarray:
    """Reshape per-pin counts into an (h, w) activity map."""
    counts = spike_counts_by_pin(record, pins)
    require(counts.size == shape[0] * shape[1], "shape does not match pin count")
    return counts.reshape(shape)
