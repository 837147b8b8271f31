"""Flight recorder: the one per-tick telemetry record + crash dumps.

The paper's headline claim is *real-time* operation — a fixed 1 ms tick
budget sustained at scale — so a tick's wall time, its four kernel
phases and its event counts are the one thing the telemetry plane
exists to record.  This module holds that record and nothing derived
from it:

* :class:`FlightRecorder` — a fixed-size ring of per-tick rows
  (:data:`FLIGHT_FIELDS`).  One finished tick is one preallocated row
  write, on the heap for an :class:`~repro.obs.observer.Observer` or
  over a caller's buffer (a parallel worker's shared-memory ``obs``
  segment) — the same class either way.  Beside the window the ring
  keeps cumulative sums of ``wall_ns`` and the four phase columns, so
  totals survive eviction.  Spans, phase seconds, gauges and the
  ``/flight`` payload are all read from the rows at scrape time.
* :func:`write_crash_dump` — a postmortem bundle writer.  When
  ``REPRO_CRASH_DIR`` is set, a failing engine (a
  :class:`~repro.compass.parallel.WorkerFailedError`, an unhandled
  exception in the serving or streaming runtimes) leaves behind a
  directory containing the flight ring, the metric snapshot, the recent
  span trace, and — when the sanitizer was armed — its report, so a
  crashed worker no longer takes its telemetry with it.

Real-time cortical simulation work (Rhodes et al.; Simula et al.)
treats wall-vs-biological time as a first-class measurement; the
recorder's derived quantities follow that convention: the *budget
ratio* is ``tick wall time / 1 ms`` (<= 1 means real time) and the
*real-time factor* is its reciprocal aggregated over the window.
"""

from __future__ import annotations

import json
import os
import struct
import time
import traceback as _traceback

import numpy as np

from repro.core import params
from repro.obs.log import get_logger
from repro.utils.validation import require

log = get_logger("repro.obs.flight")

#: The 1 ms real-time tick budget, in nanoseconds (paper Section II).
BUDGET_NS = int(params.TICK_SECONDS * 1e9)

#: Environment variable naming the crash-dump directory.  Unset (the
#: default) disables postmortem bundles entirely.
CRASH_DIR_ENV = "REPRO_CRASH_DIR"

#: Default ring capacity: at five spans a tick, more ticks than the
#: 65,536-span trace ring it replaced could hold (~13k).
DEFAULT_CAPACITY = 16384

#: Row columns, in storage order.  ``tick`` is the engine's own tick
#: (the pass index on the batched engine); ``begin_ns`` is the tick's
#: ``now_ns`` start and ``*_ns`` otherwise are durations, the four
#: phases contiguous from ``begin_ns`` (all zero where the writer does
#: not time phases); ``spikes`` / ``messages`` are this tick's counts;
#: ``active`` is the gated update set's size (-1 when ungated) and
#: ``active_fraction`` its share of the population (1.0 when ungated);
#: ``queue_depth`` counts staged future input ticks; ``lanes`` is the
#: batch width and ``occupancy`` the served share of it (both 0 off the
#: batched engine).
FLIGHT_FIELDS = (
    "tick",
    "wall_ns",
    "spikes",
    "messages",
    "active_fraction",
    "occupancy",
    "deliver_ns",
    "integrate_ns",
    "update_ns",
    "route_ns",
    "begin_ns",
    "queue_depth",
    "active",
    "lanes",
)

#: One row: int64 throughout (``begin_ns`` round-trips exactly — a
#: float64 loses nanoseconds past 2**53) except the two fractions.
ROW_DTYPE = np.dtype([
    (name, "<f8" if name in ("active_fraction", "occupancy") else "<i8")
    for name in FLIGHT_FIELDS
])

#: The cumulative int64 words ahead of the rows: rows ever written,
#: then the running sums :meth:`FlightRecorder.record` maintains.
_HEAD = ("recorded", "wall_ns", "deliver_ns", "integrate_ns", "update_ns", "route_ns")

# The write path packs straight into the buffer: a third of the cost of
# a numpy structured-row store, and no colder when the tick around it
# has evicted everything (the numpy views are for the readers).
_PACK_ROW = struct.Struct(
    "<" + "".join("d" if ROW_DTYPE[name].kind == "f" else "q" for name in FLIGHT_FIELDS)
)
_PACK_HEAD = struct.Struct(f"<{len(_HEAD)}q")


class FlightRecorder:
    """Fixed-size ring of per-tick telemetry rows plus cumulative sums.

    One :meth:`record` call per tick writes one preallocated row — no
    Python object churn, no growth.  Constructed with *buf* the ring
    lives in the caller's buffer (zero-filled = empty; one writer, any
    number of readers constructed over the same bytes), otherwise on
    the heap.  Reads (:meth:`rows`, :meth:`summary`, :meth:`to_json`,
    :meth:`dump`) reconstruct chronological order from the write
    cursor; a concurrent reader (the telemetry HTTP thread, the
    parallel engine's caller) sees at worst one torn in-flight row,
    never a crash.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY, buf=None) -> None:
        require(capacity >= 1, f"flight capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        if buf is None:
            buf = bytearray(self.nbytes(self.capacity))
        # np.ndarray(buffer=...) over np.frombuffer: the latter keeps a
        # buffer export alive past local teardown, which makes
        # SharedMemory.__del__ raise BufferError at worker exit.
        self._head = np.ndarray(len(_HEAD), dtype=np.int64, buffer=buf)
        self._rows = np.ndarray(
            self.capacity, dtype=ROW_DTYPE, buffer=buf, offset=self._head.nbytes
        )
        self._last_messages = 0

    @staticmethod
    def nbytes(capacity: int) -> int:
        """Bytes a ring of *capacity* rows needs."""
        return 8 * len(_HEAD) + ROW_DTYPE.itemsize * capacity

    def release(self) -> None:
        """Drop the views into the caller's buffer (before segment close)."""
        self._head = np.zeros(len(_HEAD), dtype=np.int64)
        self._rows = np.zeros(0, dtype=ROW_DTYPE)

    @property
    def recorded(self) -> int:
        """Total rows ever written (>= capacity: the oldest were evicted)."""
        return int(self._head[0])

    def __len__(self) -> int:
        return min(self.recorded, self.capacity)

    def _slots(self, begin: int, end: int) -> np.ndarray:
        """Ring positions of rows number *begin* .. *end* - 1, in order."""
        return np.arange(begin, end) % self.capacity

    # -- write (the per-tick hot path) -------------------------------------
    def record(
        self,
        tick: int,
        begin_ns: int,
        end_ns: int,
        spikes: int = 0,
        messages_total: int = 0,
        phases=(0, 0, 0, 0),
        queue_depth: int = 0,
        active: int = -1,
        n_neurons: int = 0,
        lanes: int = 0,
        occupancy: float = 0.0,
    ) -> int:
        """Record one finished tick; return its wall time in ns.

        *begin_ns* / *end_ns* are ``now_ns`` readings and *phases* the
        four phase durations in :data:`~repro.obs.trace.PHASES` order.
        *messages_total* is the engine's cumulative message counter;
        the row stores the per-tick delta (a counter that moved
        backwards — a lane reset, a fresh run — restarts the baseline
        rather than going negative).  *active* of *n_neurons* is the
        gated update set (-1: ungated).
        """
        delta = messages_total - self._last_messages
        if delta < 0:
            delta = messages_total
        self._last_messages = messages_total
        wall_ns = end_ns - begin_ns
        fraction = active / n_neurons if active >= 0 and n_neurons else 1.0
        n, wall, deliver, integrate, update, route = _PACK_HEAD.unpack_from(self._head)
        d, i, u, r = phases
        _PACK_ROW.pack_into(
            self._rows, _PACK_ROW.size * (n % self.capacity),
            tick, wall_ns, spikes, delta, fraction, occupancy, d, i, u, r,
            begin_ns, queue_depth, active, lanes,
        )
        # The cursor moves after the row is whole.
        _PACK_HEAD.pack_into(
            self._head, 0,
            n + 1, wall + wall_ns, deliver + d, integrate + i, update + u, route + r,
        )
        return wall_ns

    def extend(self, other: "FlightRecorder") -> None:
        """Append *other*'s retained rows and add its cumulative sums.

        How the parallel engine adopts a child rank's shared-memory
        ring before the segment goes away: array slices, no per-row
        Python.  Rows *other* had already evicted stay counted in the
        sums, which is what keeps phase totals whole on a run longer
        than the ring.
        """
        rows = other.rows(last=self.capacity)
        head = self._head + other._head
        head[0] = end = self.recorded + rows.size
        self._rows[self._slots(end - rows.size, end)] = rows
        self._head[:] = head

    # -- read ---------------------------------------------------------------
    def totals_ns(self) -> dict:
        """Cumulative ``wall_ns`` and phase nanoseconds since construction."""
        return dict(zip(_HEAD[1:], self._head[1:].tolist()))

    def real_time_factor(self) -> float:
        """Real-time factor over the retained window.

        Biological seconds simulated per wall-clock second: 1.0 means
        the engine is holding the paper's 1 ms tick budget exactly.
        """
        return self.summary()["real_time_factor"]

    def rows(self, last: int | None = None) -> np.ndarray:
        """Retained rows in chronological order, optionally the tail.

        Returns an ``(n,)`` :data:`ROW_DTYPE` copy.
        """
        recorded = self.recorded
        n = min(recorded, self.capacity)
        if last is not None:
            n = min(n, int(last))
        return self._rows[self._slots(recorded - n, recorded)]

    def column(self, name: str, last: int | None = None) -> np.ndarray:
        """One field's values over the retained window."""
        return self.rows(last)[name]

    def summary(self, last: int | None = None) -> dict:
        """Aggregate view of the retained window.

        Well-defined on an empty ring (all zeros / compliant), mirroring
        the StreamReport zero-tick guards: no division ever raises.
        """
        rows = self.rows(last)
        n = rows.size
        if n == 0:
            return {
                "ticks": 0,
                "wall_seconds": 0.0,
                "mean_tick_ms": 0.0,
                "max_tick_ms": 0.0,
                "last_tick_ms": 0.0,
                "budget_ratio_last": 0.0,
                "budget_ratio_max": 0.0,
                "budget_compliance": 1.0,
                "real_time_factor": 0.0,
                "spikes_per_second": 0.0,
                "messages_per_second": 0.0,
                "spikes": 0,
                "messages": 0,
                "active_fraction_mean": 0.0,
                "occupancy_last": 0.0,
            }
        wall = rows["wall_ns"]
        wall_total_s = int(wall.sum()) * 1e-9
        spikes = int(rows["spikes"].sum())
        messages = int(rows["messages"].sum())
        return {
            "ticks": n,
            "wall_seconds": wall_total_s,
            "mean_tick_ms": float(wall.mean()) * 1e-6,
            "max_tick_ms": int(wall.max()) * 1e-6,
            "last_tick_ms": int(wall[-1]) * 1e-6,
            "budget_ratio_last": int(wall[-1]) / BUDGET_NS,
            "budget_ratio_max": int(wall.max()) / BUDGET_NS,
            "budget_compliance": float(np.count_nonzero(wall <= BUDGET_NS)) / n,
            "real_time_factor": (
                (n * params.TICK_SECONDS) / wall_total_s
                if wall_total_s > 0.0 else float("inf")
            ),
            "spikes_per_second": spikes / wall_total_s if wall_total_s else 0.0,
            "messages_per_second": messages / wall_total_s if wall_total_s else 0.0,
            "spikes": spikes,
            "messages": messages,
            "active_fraction_mean": float(rows["active_fraction"].mean()),
            "occupancy_last": float(rows["occupancy"][-1]),
        }

    def to_json(self, last: int | None = None) -> dict:
        """JSON-ready snapshot: schema, rows, summary, ring state."""
        recorded = self.recorded
        return {
            "fields": list(FLIGHT_FIELDS),
            "budget_ns": BUDGET_NS,
            "capacity": self.capacity,
            "recorded": recorded,
            "dropped": max(0, recorded - self.capacity),
            "rows": self.rows(last).tolist(),
            "summary": self.summary(last),
        }

    # -- dump ---------------------------------------------------------------
    def dump(self, directory: str, prefix: str = "flight") -> tuple[str, str]:
        """Write the ring as ``<prefix>.npz`` + ``<prefix>.json``.

        The ``.npz`` holds the chronological rows (a structured array
        under :data:`ROW_DTYPE`) plus the field names; the ``.json``
        holds the summary and ring metadata.  Returns the two paths.
        """
        os.makedirs(directory, exist_ok=True)
        npz_path = os.path.join(directory, f"{prefix}.npz")
        json_path = os.path.join(directory, f"{prefix}.json")
        np.savez_compressed(
            npz_path,
            rows=self.rows(),
            fields=np.array(FLIGHT_FIELDS),
            budget_ns=np.int64(BUDGET_NS),
        )
        doc = self.to_json()
        doc.pop("rows")  # bulk data lives in the .npz
        with open(json_path, "w", encoding="utf-8") as f:
            json.dump(doc, f, indent=2)
            f.write("\n")
        return npz_path, json_path


# -- crash dumps ------------------------------------------------------------

_dump_seq = 0


def crash_dump_dir() -> str | None:
    """The configured crash-dump directory, or None when disabled."""
    return os.environ.get(CRASH_DIR_ENV) or None


def write_crash_dump(
    obs,
    reason: str,
    *,
    detail: str = "",
    exc: BaseException | None = None,
    sanitize_report=None,
    crash_dir: str | None = None,
    checkpoint=None,
) -> str | None:
    """Write a postmortem bundle; return its path (None when disabled).

    The bundle is a directory ``crash-<timestamp>-<pid>-<seq>/`` under
    *crash_dir* (default: ``$REPRO_CRASH_DIR``; unset disables dumps)
    containing:

    * ``manifest.json`` — reason, detail/traceback, timestamps, the
      flight summary;
    * ``flight.npz`` + ``flight.json`` — the flight ring;
    * ``metrics.json`` — the metric registry snapshot;
    * ``trace.json`` — setup spans plus the tick and phase spans read
      from the rows of every rank, as a Chrome trace;
    * ``sanitize.json`` — the sanitizer report, when one was armed;
    * ``checkpoint.npz`` — a restorable engine checkpoint (when the
      caller holds one, e.g. a ``checkpoint_every`` engine/runtime), so
      a crashed run can resume from the last good tick.

    Never raises: a dump failure is logged and swallowed — postmortems
    must not mask the original error.
    """
    global _dump_seq
    crash_dir = crash_dir or crash_dump_dir()
    if crash_dir is None:
        return None
    if exc is not None and getattr(exc, "_crash_dumped", False):
        # Already bundled closer to the failure (e.g. the parallel
        # engine's worker-failure path); don't write a duplicate as the
        # exception propagates through wrapping runtimes.
        return None
    if exc is not None:
        try:
            exc._crash_dumped = True
        except AttributeError:  # exceptions with __slots__
            pass
    try:
        _dump_seq += 1
        stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
        bundle = os.path.join(
            crash_dir, f"crash-{stamp}-{os.getpid()}-{_dump_seq}"
        )
        os.makedirs(bundle, exist_ok=True)
        files = ["manifest.json"]
        manifest: dict = {
            "reason": reason,
            "detail": detail,
            "created": stamp,
            "pid": os.getpid(),
        }
        if exc is not None:
            manifest["exception"] = "".join(
                _traceback.format_exception(type(exc), exc, exc.__traceback__)
            )
        if obs is not None:
            obs.flight.dump(bundle)
            manifest["flight_summary"] = obs.flight.summary()
            obs.write_metrics_json(os.path.join(bundle, "metrics.json"))
            obs.export_chrome_trace(os.path.join(bundle, "trace.json"))
            files += ["flight.npz", "flight.json", "metrics.json", "trace.json"]
            obs.metrics.counter("repro_crash_dumps_total").inc()
        if sanitize_report is not None:
            with open(os.path.join(bundle, "sanitize.json"), "w",
                      encoding="utf-8") as f:
                f.write(sanitize_report.render_json())
                f.write("\n")
            files.append("sanitize.json")
        if checkpoint is not None and hasattr(checkpoint, "save"):
            checkpoint.save(os.path.join(bundle, "checkpoint.npz"))
            files.append("checkpoint.npz")
            manifest["checkpoint_tick"] = int(checkpoint.tick)
        manifest["files"] = files
        with open(os.path.join(bundle, "manifest.json"), "w",
                  encoding="utf-8") as f:
            json.dump(manifest, f, indent=2)
            f.write("\n")
        log.error("obs.crash_dump", path=bundle, reason=reason)
        return bundle
    except OSError as err:  # pragma: no cover - disk-full / perms paths
        log.warning("obs.crash_dump_failed", reason=reason, error=str(err))
        return None
