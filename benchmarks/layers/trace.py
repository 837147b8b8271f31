"""Spans recorded from the benchmark's side of each layer boundary.

No span lives inside ``src/``: the harness times its own calls into a
layer's public functions, and wraps the calls the program makes between
layers (:meth:`Tracer.wrap`).  Spans stay in memory until :meth:`write`.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

now_ns = time.perf_counter_ns


class Stopwatch:
    """The measured duration of one :meth:`Tracer.span` block."""

    seconds = 0.0


class Tracer:
    """Stopwatch on every pass; keeps the spans only on the traced pass."""

    def __init__(self, workload: str, enabled: bool) -> None:
        self.workload = workload
        self.enabled = enabled
        # One row per span: [name, start_ns, end_ns, parent index or -1].
        self.spans: list[list] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        """Time the block; on the traced pass also record it as a span."""
        watch = Stopwatch()
        start = now_ns()
        if self.enabled:
            self.spans.append([name, start, start, self._open[-1] if self._open else -1])
            self._open.append(len(self.spans) - 1)
        try:
            yield watch
        finally:
            end = now_ns()
            watch.seconds = (end - start) * 1e-9
            if self.enabled:
                self.spans[self._open.pop()][2] = end

    def add(self, name: str, start_ns: int, end_ns: int) -> None:
        """Record an already-timed call as a child of the open span."""
        if self.enabled:
            self.spans.append(
                [name, start_ns, end_ns, self._open[-1] if self._open else -1]
            )

    def wrap(self, owner, attr: str, name: str):
        """Replace ``owner.attr`` with a version that records a span per call.

        This is how calls *between* layers (the runtime calling
        ``rate_code_frame``, the server calling ``reset_lane``) are seen
        without touching the program.  Returns the function that puts the
        original back.  No-op on the untraced pass.
        """
        if not self.enabled:
            return lambda: None
        inner = getattr(owner, attr)

        def traced(*args, **kwargs):
            with self.span(name):
                return inner(*args, **kwargs)

        setattr(owner, attr, traced)
        return lambda: setattr(owner, attr, inner)

    def durations_ns(self, name: str) -> list[int]:
        """Durations of every recorded span called *name*."""
        return [s[2] - s[1] for s in self.spans if s[0] == name]

    def write(self, path, seed: int) -> None:
        """Write every span as JSON (ids are list positions)."""
        doc = {
            "workload": self.workload,
            "seed": seed,
            "spans": [
                {"id": i, "name": s[0], "start_ns": s[1], "end_ns": s[2], "parent": s[3]}
                for i, s in enumerate(self.spans)
            ],
        }
        with open(path, "w") as f:
            json.dump(doc, f)


def self_times(spans: list[dict]) -> dict[int, int]:
    """Span id -> self time in ns: duration minus what its children cover."""
    own = {s["id"]: s["end_ns"] - s["start_ns"] for s in spans}
    for s in spans:
        if s["parent"] >= 0:
            own[s["parent"]] -= s["end_ns"] - s["start_ns"]
    return own
