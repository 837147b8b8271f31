"""Declarative tick protocol of the shared-memory parallel engines.

The partitioned engine (:mod:`repro.compass.parallel`) and the batched
multi-replica engine (:mod:`repro.compass.batched`) implement the
paper's one-spike-per-tick contract over shared state by hand: a small
set of regions, each written by exactly the actors and phases the wire
format in ``parallel.py``'s module docstring claims, with the per-tick
pipe barrier as the only ordering edge.  This module states that design
as *data* — one :class:`RegionSpec` per region, one :class:`Access`
per (role, phase, kind) the protocol allows — so both sanitizer layers
check the same source of truth:

* the static layer (:mod:`repro.sanitize.static`) extracts actual shm
  array accesses from the engine sources by AST and diffs them against
  this table (codes SL200-SL205);
* the dynamic layer (:mod:`repro.sanitize.dynamic` /
  :mod:`repro.sanitize.analyze`) records real accesses at run time and
  checks phase conformance plus vector-clock ordering against it
  (codes SL210-SL212).

Region names are rank-generic: the runtime keys accesses by an
``(owner, name)`` pair (e.g. ``("rank1", "ring")``) while the spec is
per *name* — every rank's instance of a region obeys the same rules.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.lint.diagnostics import Severity
from repro.lint.source import SourceRuleInfo

#: Every code the sanitizer can emit (static SL20x, dynamic SL21x);
#: rendered alongside SOURCE_CODES in ``repro lint --codes`` and
#: documented in docs/sanitizer.md.
SANITIZE_CODES: dict[str, SourceRuleInfo] = {
    info.code: info
    for info in [
        SourceRuleInfo("SL200", "undeclared-shm-region", Severity.ERROR,
                       "every np.ndarray(..., buffer=shm.buf) binding in the "
                       "engine sources must resolve to a region declared in "
                       "repro.sanitize.protocol"),
        SourceRuleInfo("SL201", "out-of-protocol-access", Severity.ERROR,
                       "this (role, phase, kind) access is not in the declared "
                       "tick protocol; either the code or the RegionSpec table "
                       "is wrong — fix whichever one misstates the design"),
        SourceRuleInfo("SL202", "access-in-barrier-window", Severity.ERROR,
                       "the coordinator must not touch shared regions between "
                       "releasing the workers (send loop) and collecting every "
                       "reply (recv loop); move the access to scatter or gather"),
        SourceRuleInfo("SL203", "worker-access-after-reply", Severity.ERROR,
                       "a worker's reply hands the shared regions back to the "
                       "coordinator; move the access before conn.send(tick)"),
        SourceRuleInfo("SL204", "stale-protocol-accessor", Severity.WARNING,
                       "the protocol declares an access the source no longer "
                       "performs; prune the Access entry so the table stays "
                       "an exact model of the code"),
        SourceRuleInfo("SL205", "missing-barrier-edge", Severity.ERROR,
                       "the tick barrier (send loop + recv loop on the "
                       "coordinator, recv + reply send on the worker) is the "
                       "only ordering edge; the engine source must keep both "
                       "halves"),
        SourceRuleInfo("SL210", "shared-memory-data-race", Severity.ERROR,
                       "two actors touched an overlapping slice of one region "
                       "with no barrier edge ordering them; both stacks are in "
                       "the message — restore the missing happens-before edge"),
        SourceRuleInfo("SL211", "out-of-phase-access", Severity.ERROR,
                       "a recorded access fell outside the phases the protocol "
                       "declares for its (region, role); check the phase "
                       "bracketing around the access site"),
        SourceRuleInfo("SL212", "incomplete-barrier-protocol", Severity.ERROR,
                       "an actor's access log could not be ordered — a recv "
                       "marker waits on a barrier message that was never sent; "
                       "the barrier protocol is torn"),
    ]
}


@dataclass(frozen=True)
class Access:
    """One allowed (role, phase, kind) access to a region.

    *phase* is the coarse static phase the AST checker classifies
    source accesses into (``init``, ``scatter``, ``gather``, ``tick``,
    ``reset``); *dyn_phases* are the fine-grained runtime phases the
    dynamic recorder stamps (``deliver``/``integrate``/``update``/
    ``route`` inside a worker tick, else the coarse phase itself).
    *kind* is ``"r"``, ``"w"``, or ``"rw"``.
    """

    role: str
    phase: str
    kind: str
    dyn_phases: tuple[str, ...] = ()

    def allows_kind(self, kind: str) -> bool:
        """True when this entry permits a read (``R``) / write (``W``)."""
        return kind.lower() in self.kind

    def runtime_phases(self) -> tuple[str, ...]:
        """Phases the dynamic layer accepts for this entry."""
        return self.dyn_phases or (self.phase,)


@dataclass(frozen=True)
class RegionSpec:
    """One shared region: layout plus its full allowed-access set.

    *opaque* regions (the per-rank flight rings) are mediated by their
    own lock-free record format and are excluded from the binding and
    access checks.
    """

    name: str
    scope: str
    dtype: str
    shape: str
    accesses: tuple[Access, ...] = ()
    opaque: bool = False

    def static_allows(self, role: str, phase: str, kind: str) -> bool:
        """Is (role, phase, kind) inside the declared static protocol?"""
        return any(
            a.role == role and a.phase == phase and a.allows_kind(kind)
            for a in self.accesses
        )

    def dynamic_allows(self, role: str, phase: str, kind: str) -> bool:
        """Is (role, runtime-phase, kind) inside the declared protocol?"""
        return any(
            a.role == role and phase in a.runtime_phases() and a.allows_kind(kind)
            for a in self.accesses
        )


@dataclass(frozen=True)
class TickProtocol:
    """The whole protocol for one engine: regions plus barrier shape."""

    engine: str
    regions: dict[str, RegionSpec] = field(default_factory=dict)
    roles: tuple[str, ...] = ()
    barrier: str = ""

    def region(self, name: str) -> RegionSpec | None:
        """Spec for *name*, or None for an undeclared region."""
        return self.regions.get(name)


def _spec(name, scope, dtype, shape, accesses, opaque=False) -> RegionSpec:
    return RegionSpec(name, scope, dtype, shape, tuple(accesses), opaque)


#: The partitioned shared-memory engine.  Mirrors the wire-format table
#: in ``parallel.py``'s module docstring, with the barrier edges made
#: explicit: the coordinator's scatter happens-before every worker's
#: tick (send edge), and every worker's tick happens-before the
#: coordinator's gather (reply edge).
PARALLEL_PROTOCOL = TickProtocol(
    engine="parallel",
    roles=("coordinator", "worker"),
    barrier=(
        "full per-tick barrier: coordinator conn.send(tick) -> worker; "
        "worker conn.send(tick) reply -> coordinator; pipes carry only "
        "tick numbers"
    ),
    regions={
        "ring": _spec(
            "ring", "per-rank", "bool", "(DELAY_SLOTS, n_axons)",
            [
                Access("worker", "tick", "rw", ("deliver", "route")),
                Access("coordinator", "init", "w"),
                Access("coordinator", "scatter", "w"),
                Access("coordinator", "gather", "w"),
                # Checkpointing: the coordinator reads every rank's ring
                # at the inter-tick barrier (snapshot) and rewrites it
                # on restore; workers are parked in conn.recv() both
                # times, so the pipe edge still orders every access.
                Access("coordinator", "other:snapshot", "r", ("snapshot",)),
                Access("coordinator", "other:restore", "w", ("restore",)),
            ],
        ),
        "spikes": _spec(
            "spikes", "per-rank", "int64", "(1 + n_neurons,)",
            [
                Access("worker", "tick", "w", ("route",)),
                Access("coordinator", "init", "w"),
                Access("coordinator", "gather", "r"),
            ],
        ),
        "outbox": _spec(
            "outbox", "per-rank", "int64", "(1 + 3 * n_neurons,)",
            [
                Access("worker", "tick", "w", ("route",)),
                Access("coordinator", "init", "w"),
                Access("coordinator", "gather", "r"),
            ],
        ),
        "stats": _spec(
            "stats", "per-rank", "int64", "(6 + n_cores,)",
            [
                Access("worker", "tick", "rw", ("route",)),
                Access("coordinator", "init", "w"),
                Access("coordinator", "gather", "r"),
            ],
        ),
        "obs": _spec(
            "obs", "per-rank", "int64", "FlightRecorder ring: 6-word head + ROW_DTYPE rows",
            [], opaque=True,
        ),
    },
)

#: The batched engine shares arrays between phases of one process, not
#: between processes — the protocol degenerates to phase bracketing on
#: a single "engine" actor, which is exactly what the out-of-phase
#: fault-injection tests exercise.
BATCHED_PROTOCOL = TickProtocol(
    engine="batched",
    roles=("engine",),
    barrier="single-process; phase order within one pass is the protocol",
    regions={
        "buffers": _spec(
            "buffers", "whole-batch", "bool", "(DELAY_SLOTS, B, n_axons)",
            [
                Access("engine", "init", "w"),
                Access("engine", "tick", "rw", ("deliver",)),
                Access("engine", "tick", "w", ("route",)),
                Access("engine", "reset", "w"),
                Access("engine", "checkpoint", "rw"),
            ],
        ),
        "v": _spec(
            "v", "whole-batch", "int64", "(B, n_neurons)",
            [
                Access("engine", "init", "w"),
                Access("engine", "tick", "rw", ("update",)),
                Access("engine", "reset", "w"),
                Access("engine", "checkpoint", "rw"),
            ],
        ),
    },
)

#: Protocols by engine name.
PROTOCOLS = {
    "parallel": PARALLEL_PROTOCOL,
    "batched": BATCHED_PROTOCOL,
}


def role_of_actor(actor: str) -> str:
    """Protocol role of a runtime actor id (``coord``/``rankN``/``engine``)."""
    if actor == "coord":
        return "coordinator"
    if actor.startswith("rank"):
        return "worker"
    return "engine"


__all__ = [
    "SANITIZE_CODES", "Access", "RegionSpec", "TickProtocol",
    "PARALLEL_PROTOCOL", "BATCHED_PROTOCOL", "PROTOCOLS", "role_of_actor",
]
