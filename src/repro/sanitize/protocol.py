"""Declarative tick protocol of the shared-memory parallel engines.

The partitioned engine (:mod:`repro.compass.parallel`) and the batched
multi-replica engine (:mod:`repro.compass.batched`) implement the
paper's one-spike-per-tick contract over shared state by hand: a small
set of regions, each written by exactly the actors and phases the wire
format in ``parallel.py``'s module docstring claims, with the per-tick
``go`` / ``done`` barrier as the only ordering edge.  This module states that design
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
                       "between releasing the peers (go) and taking every done "
                       "the caller is rank 0 and nothing else; move the access "
                       "to inject or gather"),
        SourceRuleInfo("SL203", "rank-access-after-done", Severity.ERROR,
                       "a rank's done hands its regions back to the caller; "
                       "move the access before done.release()"),
        SourceRuleInfo("SL204", "stale-protocol-accessor", Severity.WARNING,
                       "the protocol declares an access the source no longer "
                       "performs; prune the Access entry so the table stays "
                       "an exact model of the code"),
        SourceRuleInfo("SL205", "missing-barrier-edge", Severity.ERROR,
                       "the tick barrier (go release + done wait in "
                       "step_arrays, go acquire + done release in the rank "
                       "loop) is the only ordering edge; the engine source "
                       "must keep both halves"),
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
    source accesses into (``inject``, ``gather``, ``tick``, ``reset``,
    ``other:<method>``); *dyn_phases* are the fine-grained runtime
    phases the dynamic recorder stamps (``deliver``/``integrate``/
    ``update``/``route`` inside a rank's tick, else the coarse phase
    itself).  *kind* is ``"r"``, ``"w"``, or ``"rw"``.  Role ``peer`` —
    a rank touching another rank's region — exists only at run time:
    the source cannot tell whose slab ``rings[dst]`` is, so statically
    a peer's access is the ``rank`` entry's.
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

    *opaque* regions (the per-rank flight rings, the sync word that is
    the barrier's own payload) are mediated by their own format and are
    excluded from the binding and access checks.  Writes recorded in
    one of *set_phases* only ever store ``True``: two actors setting
    one bit commute, so such a pair is not a race — while the owner's
    clear (another phase) still conflicts with either.
    """

    name: str
    scope: str
    dtype: str
    shape: str
    accesses: tuple[Access, ...] = ()
    opaque: bool = False
    set_phases: tuple[str, ...] = ()

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


def _spec(name, scope, dtype, shape, accesses, opaque=False, set_phases=()) -> RegionSpec:
    return RegionSpec(name, scope, dtype, shape, tuple(accesses), opaque, set_phases)


#: The partitioned shared-memory engine: peer ranks, the caller being
#: rank 0.  Mirrors the wire-format table in ``parallel.py``'s module
#: docstring, with the barrier edges made explicit: the caller's inject
#: happens-before every rank's tick (``go``), and every rank's tick
#: happens-before the caller's gather (``done``).  No edge orders two
#: ranks *within* a tick; what keeps them apart is the ring invariant:
#: delays are 1..MAX_DELAY over DELAY_SLOTS = MAX_DELAY + 1 slots, so a
#: slot set during tick t, ``(t + d) % DELAY_SLOTS``, is never the slot
#: ``t % DELAY_SLOTS`` its owner consumes during tick t — the dynamic
#: layer checks exactly that, slot by slot.
PARALLEL_PROTOCOL = TickProtocol(
    engine="parallel",
    roles=("caller", "rank", "peer"),
    barrier=(
        "per tick and child rank: caller go.release() -> rank; rank "
        "done.release() -> caller; rank 0 runs in the caller between the "
        "two; pipes carry no per-tick traffic"
    ),
    regions={
        "ring": _spec(
            "ring", "per-rank", "bool", "(DELAY_SLOTS, n_axons)",
            [
                Access("rank", "tick", "rw", ("deliver", "route")),
                Access("peer", "tick", "w", ("route",)),
                Access("caller", "inject", "w"),
                # Checkpointing: the caller reads every rank's ring
                # between ticks (snapshot) and rewrites it on restore;
                # every child is parked on go both times, so the last
                # done edge still orders every access.
                Access("caller", "other:snapshot", "r", ("snapshot",)),
                Access("caller", "other:restore", "w", ("restore",)),
            ],
            set_phases=("route",),
        ),
        "spikes": _spec(
            "spikes", "per-rank", "int64", "(1 + n_neurons,)",
            [
                Access("rank", "tick", "w", ("route",)),
                Access("caller", "gather", "r"),
            ],
        ),
        "stats": _spec(
            "stats", "per-rank", "int64", "(7 + n_cores,)",
            [
                Access("rank", "tick", "w", ("route",)),
                Access("caller", "gather", "r"),
            ],
        ),
        "obs": _spec(
            "obs", "per-child-rank", "int64",
            "FlightRecorder ring: 6-word head + ROW_DTYPE rows", [], opaque=True,
        ),
        "sync": _spec("sync", "rank 0", "int64", "(1,)", [], opaque=True),
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


#: Runtime phases of a rank's own tick; any other phase of a ``rankN``
#: actor is rank 0 acting as the caller.
TICK_PHASES = ("deliver", "integrate", "update", "route")


def role_of_actor(actor: str, phase: str = "deliver", owner: str | None = None) -> str:
    """Protocol role of a runtime access by *actor* in *phase* to *owner*'s region.

    ``rankN`` inside its own tick is ``rank`` on its own regions and
    ``peer`` on another rank's; outside a tick it is the caller (only
    rank 0 ever is).  Any other actor is the batched ``engine``.
    """
    if not actor.startswith("rank"):
        return "engine"
    if phase not in TICK_PHASES:
        return "caller"
    return "rank" if owner in (None, actor) else "peer"


__all__ = [
    "SANITIZE_CODES", "Access", "RegionSpec", "TickProtocol",
    "PARALLEL_PROTOCOL", "BATCHED_PROTOCOL", "PROTOCOLS", "role_of_actor",
]
