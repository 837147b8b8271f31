"""repro.sanitize: shared-memory race detection for the parallel engine.

Two layers over one declarative tick protocol
(:mod:`repro.sanitize.protocol`):

* **static** (:mod:`repro.sanitize.static`) — an AST pass extracts the
  actual shm reads/writes from the engine sources and diffs them
  against the declared (region, role, phase, kind) table; codes
  SL200-SL205.
* **dynamic** (:mod:`repro.sanitize.dynamic` +
  :mod:`repro.sanitize.analyze`) — opt-in (``sanitize=True`` or
  ``REPRO_SANITIZE=1``) shadow views record every access per actor;
  logs merge at close with vector clocks derived from the go / done
  barrier posts, and unordered conflicting pairs are reported with both
  stack contexts; codes SL210-SL212.

Fault injection (:mod:`repro.sanitize.faults`) tears the protocol in
controlled ways — dropped barrier edge, overlapping partition slices,
a write to the slot a peer is consuming, out-of-phase write — so
detection is provable end-to-end: the
``repro sanitize`` CLI and the CI ``sanitize`` job run both the clean
sweep (zero findings required) and the fault runs (findings required).

Everything reports through :class:`repro.lint.diagnostics.LintReport`,
the same machinery as the model checker and source lint.
"""

from repro.sanitize.analyze import analyze_access_log, stamp_vector_clocks
from repro.sanitize.dynamic import (
    AccessEvent,
    AccessRecorder,
    ShadowArray,
    sanitize_enabled,
    shadow_view,
)
from repro.sanitize.faults import (
    FAULT_KINDS,
    FaultInjection,
    apply_overlap_relabel,
    resolve_fault,
)
from repro.sanitize.protocol import (
    PARALLEL_PROTOCOL,
    SANITIZE_CODES,
    Access,
    RegionSpec,
    TickProtocol,
)
from repro.sanitize.static import (
    check_parallel_text,
    check_protocol_sources,
    sweep_buffer_bindings,
)

__all__ = [
    "SANITIZE_CODES",
    "Access",
    "RegionSpec",
    "TickProtocol",
    "PARALLEL_PROTOCOL",
    "AccessEvent",
    "AccessRecorder",
    "ShadowArray",
    "shadow_view",
    "sanitize_enabled",
    "FAULT_KINDS",
    "FaultInjection",
    "resolve_fault",
    "apply_overlap_relabel",
    "analyze_access_log",
    "stamp_vector_clocks",
    "check_parallel_text",
    "check_protocol_sources",
    "sweep_buffer_bindings",
]
