"""Dynamic race detector: shadow views and per-actor access logs.

The opt-in runtime half of the sanitizer.  When an engine runs with
``sanitize=True`` (or ``REPRO_SANITIZE=1``), every shm-backed array is
wrapped in a :class:`ShadowArray` — an ndarray view subclass that
records each indexed read/write as an :class:`AccessEvent` (actor,
tick, phase, region, first-axis slice, trimmed stack) into that
process's :class:`AccessRecorder`.  Each ``go`` / ``done`` of the tick
barrier is recorded as a matching send/recv marker pair; child ranks ship
their logs back over the control pipe at shutdown, and :mod:`repro.sanitize.analyze` merges
everything, derives vector clocks from the markers, and reports
conflicting unordered pairs.

Recording discipline: only the root view and its *direct* children
(rows, header slices) track — arrays produced further downstream
(ufunc results, ``.copy()``, fancy-index copies) deliberately do not,
so the log captures the shared-memory traffic, not local arithmetic on
private copies.  Whole-array operations that bypass ``__getitem__``
(``np.add.at``, in-place ufuncs on the root) are covered by explicit
:meth:`AccessRecorder.note` calls at the engine's phase boundaries.
Consecutive same-shaped accesses within one (tick, phase) segment
coalesce into a single span-merged event, which keeps log volume
proportional to ticks, not to spike counts.

Overhead contract: when sanitize is off the engines construct no
recorder and no shadow views — the tick path is byte-for-byte the
normal one, which is what ``benchmarks/bench_sanitize_overhead.py``
gates (<= 5%, same style as the obs gate).
"""

from __future__ import annotations

import os
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.sanitize.faults import FaultInjection, resolve_fault

#: Open upper bound used by :meth:`AccessRecorder.note` for
#: whole-region accesses when the extent is unknown.
SPAN_ALL = 1 << 40


def sanitize_enabled(flag: bool | None) -> bool:
    """Resolve an engine's ``sanitize`` kwarg against ``REPRO_SANITIZE``.

    An explicit ``True``/``False`` wins; ``None`` defers to the
    environment (``1``/``true``/``on`` enable).
    """
    if flag is not None:
        return bool(flag)
    return os.environ.get("REPRO_SANITIZE", "").strip().lower() in ("1", "true", "on")


@dataclass
class AccessEvent:
    """One recorded access or barrier marker in an actor's log.

    ``kind`` is ``"R"``/``"W"`` for array accesses (``region`` set,
    ``[lo, hi)`` the touched first-axis span, ``slots`` a bitmask of
    the first-axis indices touched inside it — -1, every bit, unless
    the key named them one by one) or ``"send"``/``"recv"`` for barrier
    markers (``peer`` set).  ``vc`` is stamped by the analyzer.
    Mutable on purpose: fault relabelling and clock stamping happen
    post-merge.
    """

    actor: str
    seq: int
    tick: int
    phase: str
    kind: str
    region: tuple[str, str] | None = None
    lo: int = 0
    hi: int = 0
    stack: str = ""
    peer: str | None = None
    count: int = 1
    slots: int = -1
    vc: tuple = field(default=(), compare=False)

    def overlaps(self, other: "AccessEvent") -> bool:
        """Do the two accesses share a first-axis index?"""
        if self.hi <= other.lo or other.hi <= self.lo:
            return False
        if self.slots < 0 or other.slots < 0:
            named, span = (self, other) if other.slots < 0 else (other, self)
            if named.slots < 0:
                return True
            above = named.slots >> span.lo  # named indices from span.lo up
            return above != 0 and (above & -above).bit_length() <= span.hi - span.lo
        return self.slots & other.slots != 0

    def describe(self) -> str:
        """Human rendering used inside race/phase diagnostics."""
        where = "/".join(self.region) if self.region else (self.peer or "?")
        extra = f" x{self.count}" if self.count > 1 else ""
        return (
            f"{self.actor} {self.kind} {where}[{self.lo}:{self.hi}] "
            f"tick={self.tick} phase={self.phase}{extra} at {self.stack or '<none>'}"
        )


def _stack_summary(skip: int = 3, keep: int = 3) -> str:
    """Innermost *keep* frames below the recorder, as a picklable string."""
    frames = traceback.extract_stack()[:-skip]
    tail = frames[-keep:]
    return " <- ".join(
        f"{Path(f.filename).name}:{f.lineno} in {f.name}" for f in reversed(tail)
    )


class AccessRecorder:
    """Per-process access log for one actor (a rank).

    The engine sets the (tick, phase) context at its phase boundaries;
    shadow views call :meth:`record` on every indexed access.  Barrier
    markers flush the coalescing window so no event ever merges across
    an ordering edge.
    """

    def __init__(self, actor: str, fault: FaultInjection | None = None) -> None:
        self.actor = actor
        self.fault = fault
        self.events: list[AccessEvent] = []
        self.tick = -1
        self.phase = "init"
        self._seq = 0
        self._coalesce: dict[tuple, AccessEvent] = {}

    def set_context(self, tick: int, phase: str) -> None:
        """Enter a new (tick, phase) segment; closes the coalesce window."""
        self.tick = tick
        self.phase = phase
        self._coalesce = {}

    def record(self, region: tuple[str, str], kind: str, lo: int, hi: int,
               slots: int = -1) -> None:
        """Record one ``R``/``W`` access to *region* spanning ``[lo, hi)``."""
        key = (region, kind)
        merged = self._coalesce.get(key)
        if merged is not None:
            merged.lo = min(merged.lo, lo)
            merged.hi = max(merged.hi, hi)
            merged.slots |= slots
            merged.count += 1
            return
        self._seq += 1
        event = AccessEvent(
            actor=self.actor, seq=self._seq, tick=self.tick, phase=self.phase,
            kind=kind, region=region, lo=lo, hi=hi, slots=slots,
            stack=_stack_summary(),
        )
        self.events.append(event)
        self._coalesce[key] = event

    def note(self, region: tuple[str, str], kind: str,
             lo: int = 0, hi: int = SPAN_ALL) -> None:
        """Record a whole-region access performed outside a shadow view."""
        self.record(region, kind, lo, hi)

    def barrier(self, kind: str, peer: str, tick: int) -> None:
        """Record one side of a ``go``/``done`` (``send``/``recv``) with *peer*.

        The ``drop-barrier`` fault elides exactly one ``done`` recv
        marker of the caller — the ordering edge vanishes from the log
        while the simulation (which still took the semaphore) is
        unchanged.
        """
        self._coalesce = {}
        if (
            self.fault is not None
            and self.fault.kind == "drop-barrier"
            and kind == "recv"
            and self.actor == "rank0"
            and peer == f"rank{self.fault.rank}"
            and tick == self.fault.tick
        ):
            return
        self._seq += 1
        self.events.append(AccessEvent(
            actor=self.actor, seq=self._seq, tick=tick, phase=self.phase,
            kind=kind, peer=peer,
        ))


class ShadowArray(np.ndarray):
    """Access-recording view over one shared region.

    Created via :func:`shadow_view`; never allocated directly.  The
    root view records every indexed access and arms its direct children
    (basic-slice views) with the refined first-axis span; everything
    further derived is inert, so private copies and ufunc temporaries
    stay silent.
    """

    def __array_finalize__(self, obj) -> None:
        self._region = getattr(obj, "_region", None)
        self._rec = getattr(obj, "_rec", None)
        self._span = getattr(obj, "_span", (0, 0))
        self._track = False
        self._is_root = False

    def _key_span(self, key) -> tuple[int, int, int]:
        """First-axis span ``[lo, hi)`` and slot mask a subscript key touches.

        Exact for int and basic-slice leading keys; an integer-array
        leading key (the ring's ``[slots, axons]`` scatter) keeps the
        whole span and names its indices in the mask, so a write to
        slots 3 and 9 is not a touch of slot 5; boolean indexing stays
        conservative — the direction that can only over-report overlap,
        never miss it.
        """
        lo, hi = self._span
        if not self._is_root:
            return lo, hi, -1
        lead = key[0] if isinstance(key, tuple) and key else key
        n = self.shape[0] if self.ndim else 1
        if isinstance(lead, (int, np.integer)):
            i = int(lead)
            if i < 0:
                i += n
            return i, i + 1, -1
        if isinstance(lead, slice):
            start, stop, step = lead.indices(n)
            if step > 0 and stop > start:
                return start, stop, -1
        if isinstance(lead, np.ndarray) and lead.dtype.kind in "iu":
            return 0, n, sum(1 << i for i in np.unique(lead % n).tolist())
        return 0, n, -1

    def __getitem__(self, key):
        out = super().__getitem__(key)
        if self._track and self._rec is not None:
            lo, hi, slots = self._key_span(key)
            self._rec.record(self._region, "R", lo, hi, slots)
            if self._is_root and isinstance(out, ShadowArray) and out.base is not None:
                out._region = self._region
                out._rec = self._rec
                out._span = (lo, hi)
                out._track = True
        return out

    def __setitem__(self, key, value) -> None:
        if self._track and self._rec is not None:
            rec = self._rec
            rec.record(self._region, "W", *self._key_span(key))
            # numpy implements some slice assignments by re-entering
            # __getitem__ on self; mute the recorder for the duration so
            # the write doesn't also log a phantom read.
            self._rec = None
            try:
                super().__setitem__(key, value)
            finally:
                self._rec = rec
            return
        super().__setitem__(key, value)


def shadow_view(arr: np.ndarray, region: tuple[str, str],
                recorder: AccessRecorder) -> np.ndarray:
    """Wrap *arr* in a recording :class:`ShadowArray` root view.

    Returns a zero-copy view: same buffer, same dtype, same layout —
    only ``__getitem__``/``__setitem__`` gain the recording hook.
    """
    view = arr.view(ShadowArray)
    view._region = region
    view._rec = recorder
    view._span = (0, view.shape[0] if view.ndim else 1)
    view._track = True
    view._is_root = True
    return view


__all__ = [
    "SPAN_ALL", "AccessEvent", "AccessRecorder", "ShadowArray",
    "shadow_view", "sanitize_enabled", "resolve_fault", "FaultInjection",
]
