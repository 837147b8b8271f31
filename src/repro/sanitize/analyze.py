"""Merge access logs, derive vector clocks, report unordered conflicts.

The offline half of the dynamic race detector.  Input: the merged
per-actor :class:`~repro.sanitize.dynamic.AccessEvent` logs from one
run (every rank, or the single batched engine actor).
Output: a :class:`~repro.lint.diagnostics.LintReport` carrying SL21x
diagnostics.

Ordering model — classic message-passing vector clocks:

* each actor's log is totally ordered by its ``seq`` numbers (program
  order);
* every barrier ``send`` marker publishes the sender's clock on the
  channel ``(sender, receiver, tick)``; the matching ``recv`` marker
  joins it into the receiver's clock.  The engines record exactly one
  marker pair per (direction, tick), mirroring the real go / done posts;
* two accesses are ordered iff one's clock is component-wise <= at the
  other's entry for its own actor — otherwise they are concurrent.

A data race (SL210) is a concurrent pair from different actors on one
region sharing a first-axis index, at least one side a write — except
two writes in a phase the region declares set-only, which commute.
Phase conformance (SL211) checks every access against the declarative
:class:`~repro.sanitize.protocol.TickProtocol`.  A ``recv`` marker
whose channel message never appears (a torn barrier — e.g. the rank
died, or the ``drop-barrier`` fault on the *sending* side of an edge)
leaves that actor's remaining log unstampable and is reported as SL212.
"""

from __future__ import annotations

from repro.lint.diagnostics import Diagnostic, LintReport, Location
from repro.sanitize.dynamic import AccessEvent
from repro.sanitize.protocol import SANITIZE_CODES, TickProtocol, role_of_actor

#: Cap on reported findings per code — one torn barrier makes *every*
#: subsequent pair concurrent; the first few localize the tear.
MAX_FINDINGS_PER_CODE = 20


def _diag(code: str, message: str, rank: int | None = None) -> Diagnostic:
    info = SANITIZE_CODES[code]
    return Diagnostic(
        code=code, severity=info.severity, message=message,
        location=Location(rank=rank), hint=info.hint,
    )


def _rank_of(actor: str) -> int | None:
    return int(actor[4:]) if actor.startswith("rank") else None


def stamp_vector_clocks(events: list[AccessEvent]) -> list[AccessEvent]:
    """Stamp ``vc`` on every event; return events left unstampable.

    Replays each actor's log in program order, exchanging clocks at
    send/recv markers.  A recv whose channel message never arrives
    blocks that actor's remaining suffix; those events are returned
    (empty list == the barrier protocol closed cleanly).
    """
    actors = sorted({ev.actor for ev in events})
    index = {actor: i for i, actor in enumerate(actors)}
    queues = {
        actor: sorted(
            (ev for ev in events if ev.actor == actor), key=lambda e: e.seq
        )
        for actor in actors
    }
    clocks = {actor: [0] * len(actors) for actor in actors}
    cursors = dict.fromkeys(actors, 0)
    channels: dict[tuple, list[int]] = {}

    progressed = True
    while progressed:
        progressed = False
        for actor in actors:
            queue, clock = queues[actor], clocks[actor]
            while cursors[actor] < len(queue):
                ev = queue[cursors[actor]]
                if ev.kind == "recv":
                    sent = channels.get((ev.peer, actor, ev.tick))
                    if sent is None:
                        break  # blocked on a message never sent
                    for i, component in enumerate(sent):
                        if component > clock[i]:
                            clock[i] = component
                clock[index[actor]] += 1
                ev.vc = tuple(clock)
                if ev.kind == "send":
                    channels[(actor, ev.peer, ev.tick)] = list(clock)
                cursors[actor] += 1
                progressed = True
    leftover = []
    for actor in actors:
        leftover.extend(queues[actor][cursors[actor]:])
    return leftover


def _ordered(a: AccessEvent, b: AccessEvent, index: dict[str, int]) -> bool:
    """True when *a* happens-before *b* under the stamped clocks."""
    i = index[a.actor]
    return a.vc[i] <= b.vc[i]


def _check_phases(events, protocol: TickProtocol, report: LintReport) -> None:
    """SL211: every access must sit inside its declared (role, phase)."""
    seen: set[tuple] = set()
    emitted = 0
    for ev in events:
        if ev.region is None:
            continue
        spec = protocol.region(ev.region[1])
        if spec is not None and spec.opaque:
            continue
        role = role_of_actor(ev.actor, ev.phase, ev.region[0])
        if spec is not None and spec.dynamic_allows(role, ev.phase, ev.kind):
            continue
        signature = (ev.region[1], role, ev.phase, ev.kind)
        if signature in seen:
            continue
        seen.add(signature)
        if emitted >= MAX_FINDINGS_PER_CODE:
            break
        emitted += 1
        detail = (
            "region is not declared in the protocol"
            if spec is None
            else f"not an allowed phase for role {role!r}"
        )
        report.add(_diag(
            "SL211",
            f"out-of-phase access: {ev.describe()} ({detail})",
            rank=_rank_of(ev.actor),
        ))


def _check_races(events, protocol: TickProtocol, report: LintReport) -> None:
    """SL210: concurrent overlapping access pairs with a write."""
    index = {actor: i for i, actor in enumerate(sorted({e.actor for e in events}))}
    by_region: dict[tuple, list[AccessEvent]] = {}
    for ev in events:
        if ev.region is not None and ev.vc:
            by_region.setdefault(ev.region, []).append(ev)

    seen: set[tuple] = set()
    emitted = 0
    for region, region_events in by_region.items():
        spec = protocol.region(region[1])
        commute = spec.set_phases if spec is not None else ()
        for i, a in enumerate(region_events):
            for b in region_events[i + 1:]:
                if a.actor == b.actor or not a.overlaps(b):
                    continue
                if a.kind != "W" and b.kind != "W":
                    continue
                if a.kind == b.kind and a.phase in commute and b.phase in commute:
                    continue
                if _ordered(a, b, index) or _ordered(b, a, index):
                    continue
                signature = (
                    a.region,
                    tuple(sorted([(a.actor, a.phase, a.kind),
                                  (b.actor, b.phase, b.kind)])),
                )
                if signature in seen:
                    continue
                seen.add(signature)
                if emitted >= MAX_FINDINGS_PER_CODE:
                    return
                emitted += 1
                rank = _rank_of(a.actor)
                if rank is None:
                    rank = _rank_of(b.actor)
                report.add(_diag(
                    "SL210",
                    f"data race on {'/'.join(a.region)}: unordered pair\n"
                    f"    first:  {a.describe()}\n"
                    f"    second: {b.describe()}",
                    rank=rank,
                ))


def analyze_access_log(
    events: list[AccessEvent],
    protocol: TickProtocol,
    subject: str = "sanitize",
) -> LintReport:
    """Full dynamic analysis of one run's merged access log."""
    report = LintReport(subject=subject)
    _check_phases(events, protocol, report)
    leftover = stamp_vector_clocks(events)
    if leftover:
        torn: dict[str, AccessEvent] = {}
        for ev in leftover:
            torn.setdefault(ev.actor, ev)
        for actor, ev in sorted(torn.items()):
            report.add(_diag(
                "SL212",
                f"barrier protocol incomplete: {actor} blocked at "
                f"seq={ev.seq} waiting on "
                f"{ev.peer}->{actor} tick={ev.tick}; "
                f"{sum(1 for e in leftover if e.actor == actor)} event(s) "
                "could not be ordered",
                rank=_rank_of(actor),
            ))
    _check_races([ev for ev in events if ev.vc], protocol, report)
    return report


__all__ = ["analyze_access_log", "stamp_vector_clocks", "MAX_FINDINGS_PER_CODE"]
