"""Fault injection: deliberately tear the protocol to prove detection.

A sanitizer that has only ever seen clean runs is untested tooling.
Each :class:`FaultInjection` kind breaks the tick protocol in one
specific, contained way so the test suite (and the CI ``sanitize`` job)
can assert the dynamic layer actually fires:

``drop-barrier``
    The caller "forgets" one ``done`` edge: its recorder skips the recv
    barrier marker for (*rank*, *tick*).  That rank's tick-*tick*
    writes and the caller's gather reads lose their ordering edge and
    surface as SL210 data races — exactly what deleting the done wait
    from ``step_arrays`` would cause.  The simulation itself is
    untouched (the semaphore is still taken), so results stay
    bit-exact.

``overlap-slices``
    Models a partitioner bug assigning two ranks overlapping slices of
    one ring slab: at merge time, rank *rank*'s accesses to its own
    ``ring`` are relabelled onto rank ``rank - 1``'s region.  Two
    ranks now consume "one" slot in the same tick with no edge
    ordering them -> SL210.

``consumed-slot-write``
    Rank 0, in route of tick *tick*, writes rank *rank*'s slab at slot
    ``tick % DELAY_SLOTS`` — the one slot that rank is consuming, which
    the delay arithmetic can never produce (a real but empty write, so
    value-neutral).  The ring invariant is broken -> SL210.

``out-of-phase-write``
    The engine performs one real (but value-neutral) write outside the
    declared phase for its role: the caller pokes a stats slot during
    inject.
    Phase conformance flags it as SL211.

Faults only ever engage when the caller passes one explicitly (or sets
``REPRO_SANITIZE_FAULT``); they exist to be detected, not to run in
anger.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

#: Recognized fault kinds, in docs order.
FAULT_KINDS = ("drop-barrier", "overlap-slices", "consumed-slot-write", "out-of-phase-write")


@dataclass(frozen=True)
class FaultInjection:
    """One injected protocol fault: *kind* applied at (*rank*, *tick*)."""

    kind: str
    rank: int = 1
    tick: int = 2

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; expected one of {FAULT_KINDS}"
            )


def resolve_fault(spec) -> FaultInjection | None:
    """Normalize a fault spec: object, kind string, or the env default.

    ``None`` falls back to ``REPRO_SANITIZE_FAULT`` (a kind name,
    optionally ``kind:rank:tick``); empty/unset means no fault.
    """
    if spec is None:
        spec = os.environ.get("REPRO_SANITIZE_FAULT", "").strip() or None
    if spec is None or isinstance(spec, FaultInjection):
        return spec
    parts = str(spec).split(":")
    kind = parts[0]
    rank = int(parts[1]) if len(parts) > 1 else 1
    tick = int(parts[2]) if len(parts) > 2 else 2
    return FaultInjection(kind, rank=rank, tick=tick)


def apply_overlap_relabel(events, fault: FaultInjection | None) -> None:
    """Apply ``overlap-slices`` to a merged access log, in place.

    Rank *fault.rank*'s accesses to its own ``ring`` move onto the
    previous rank's region — the access pattern an overlapping
    partition slice would actually produce.
    """
    if fault is None or fault.kind != "overlap-slices":
        return
    src = f"rank{fault.rank}"
    dst = f"rank{max(0, fault.rank - 1)}"
    for ev in events:
        if ev.actor == src and ev.region == (src, "ring"):
            ev.region = (dst, "ring")


__all__ = ["FAULT_KINDS", "FaultInjection", "resolve_fault", "apply_overlap_relabel"]
