"""One measured run of one workload, plus the helpers the workloads share.

A workload object (see ``recurrent.py``, ``streaming.py``, ``serving.py``)
provides five steps, called in this order by :func:`measure`:

``generate(seed)``
    build the network ``net`` and the inputs from the seed (outside every
    window);
``setup(tracer) -> dict``
    ``Network`` -> engine ready to tick, several times over, returning the
    median ``setup_s`` and the per-layer set-up numbers;
``run(tracer, n_ops, seconds) -> Run``
    the timed run: at least *n_ops* operations (the fixed work whose
    output is verified), then more until *seconds* have been measured;
    it reads ``peak_rss_mb`` once its solution is complete, before the
    harness builds anything of its own;
``probe(tracer, run, baseline) -> dict``
    traced pass only: layer numbers that need a call or a run of their
    own (*baseline* is the quarter-length untraced run);
``verify(run) -> dict``
    correctness checks, outside every window.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import resource
import statistics
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy import sparse

from repro.compass.compile import compile_network, invalidate
from repro.core import params
from repro.core.record import SpikeRecord
from repro.lint.model import check_network

from . import HERE, spec
from .trace import Tracer, now_ns

#: The paper's real-time budget for one tick.
BUDGET_NS = 1_000_000

#: Counters compared against the goldens.
COUNT_FIELDS = ("spikes", "synaptic_events", "deliveries", "messages")

#: Counters every engine fills the same way (``messages`` depends on the
#: engine's rank granularity, ``active_neuron_updates`` on gating).
LOGICAL_COUNTERS = (
    "ticks", "synaptic_events", "spikes", "deliveries", "neuron_updates",
    "membrane_saturations", "max_core_events_per_tick",
)


@dataclass(frozen=True)
class Scale:
    """Problem sizes; ``FULL`` is what the numbers in the README mean."""

    name: str
    #: Grid side of the 20 Hz x 128 network and of the 200 Hz x 26 one.
    grid_20hz: int
    grid_200hz: int
    ticks_20hz: int
    ticks_200hz: int
    frames: int
    sessions: int
    #: Shortest and longest session, in ticks.
    session_ticks: tuple[int, int]
    twin_ticks: int
    #: Fewest and most timed set-ups per run (see :func:`timed_setup`).
    setups: tuple[int, int]
    #: Ticks discarded before the steady-state window (ring fill: the
    #: first ticks have no spikes in flight).
    warmup: int = 16


FULL = Scale("full", grid_20hz=8, grid_200hz=12, ticks_20hz=616, ticks_200hz=1016,
             frames=200, sessions=256, session_ticks=(30, 120), twin_ticks=30,
             setups=(7, 15))
SMOKE = Scale("smoke", grid_20hz=4, grid_200hz=4, ticks_20hz=40, ticks_200hz=40,
              frames=8, sessions=16, session_ticks=(10, 30), twin_ticks=2,
              setups=(2, 2))


@dataclass
class Run:
    """What one timed run produced."""

    metrics: dict[str, float]
    #: Wall of the fixed work: its simulated time at the calm rate, plus
    #: ``close()``.
    solve_s: float
    #: Steady-state wall per operation with the harness's own work in the
    #: loop included: what trace.overhead_frac compares between passes.
    op_s: float
    attempted: int
    counts: dict[str, int]
    sha256: str
    #: Workload-private data kept for :meth:`verify` (records, sessions).
    keep: dict = field(default_factory=dict)


# -- the host's speed ---------------------------------------------------------

#: Wall of one :func:`probe_ns` on this host when nothing disturbs it.
REF_PROBE_NS = 140_000

#: Percentile that stands for "undisturbed" in a set of samples.
CALM = 10

_PROBE = np.arange(8192, dtype=np.int64)


def probe_ns() -> int:
    """Wall of a fixed piece of numpy work that stays in the core's caches.

    This host is a few cores of a shared machine and its speed moves by
    30 to 70 % for seconds to minutes at a time, with no steal reported;
    the probe slows with it, in step with the program (measured: tick
    over probe stayed within 5 % while both moved by 40 %).  Every
    timing loop takes one probe per operation, outside the timed part,
    and :func:`calm` divides by them.
    """
    t0 = now_ns()
    for _ in range(20):
        (_PROBE * 3 + 1).sum()
    return now_ns() - t0


def host_slowdown() -> float:
    """How much slower than its reference speed the host runs right now."""
    return float(np.percentile([probe_ns() for _ in range(30)], CALM)) / REF_PROBE_NS


def calm(op_ns, ref_ns, q: float = CALM) -> float:
    """The *q*-th percentile of *op_ns* at the host's reference speed, in ns.

    It is the percentile of the samples over the same percentile of the
    probes taken beside them, times ``REF_PROBE_NS``.  With the default
    *q* both read "when undisturbed": a neighbour's burst slows some
    operations and not others, so the lower decile repeats where the
    mean and the median do not, and a slow spell of the whole host moves
    samples and probes alike.  Over ten runs on a bad afternoon the mean
    spread by 13 to 38 % of its median over the workloads, the plain
    lower decile by 7 to 30 %, this by 4 to 10 %.
    """
    return float(np.percentile(op_ns, q) / np.percentile(ref_ns, q)) * REF_PROBE_NS


# -- small shared helpers ---------------------------------------------------

def percentile_ms(wall_ns, q: float) -> float:
    """The *q*-th percentile of nanosecond samples, in milliseconds."""
    return float(np.percentile(np.asarray(wall_ns, dtype=np.float64), q)) * 1e-6


def tick_metrics(wall_ns: list[int], warmup: int) -> dict[str, float]:
    """The ``tick.*`` metrics from per-operation wall samples."""
    steady = np.asarray(wall_ns[warmup:], dtype=np.float64)
    return {
        "tick.ms_p50": percentile_ms(steady, 50),
        "tick.ms_p95": percentile_ms(steady, 95),
        "tick.ms_max": float(steady.max()) * 1e-6,
        "tick.n": int(steady.size),
        "tick.first_ms": wall_ns[0] * 1e-6,
        "tick.over_budget_frac": float(np.mean(steady > BUDGET_NS)),
    }


def steady_metrics(op_wall_ns, op_ticks, events: int, ref_ns) -> dict[str, float]:
    """``rtf``, ``sops`` and ``latency_p50_ms`` of a steady-state window.

    *op_wall_ns* and *op_ticks* give each operation's wall and simulated
    ticks, *ref_ns* the probe taken beside it; *events* is the exact
    synaptic-event count of the window.  ``sops`` is the events over the
    window's wall at the calm rate.
    """
    wall = np.asarray(op_wall_ns, dtype=np.float64)
    ticks = np.asarray(op_ticks, dtype=np.float64)
    rtf = calm(wall / ticks, ref_ns) * 1e-9 / params.TICK_SECONDS
    return {
        "rtf": rtf,
        "sops": events / (rtf * float(ticks.sum()) * params.TICK_SECONDS),
        "latency_p50_ms": calm(wall, ref_ns, 50) * 1e-6,
    }


def peak_rss_mb() -> float:
    """This process's ``ru_maxrss`` in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def artifact_bytes(compiled) -> int:
    """Bytes held by a compiled artifact's arrays, computed from ``nbytes``."""
    total = 0
    for value in vars(compiled).values():
        if isinstance(value, np.ndarray):
            total += value.nbytes
        elif sparse.issparse(value):
            total += value.data.nbytes + value.indices.nbytes + value.indptr.nbytes
    return total


def assemble_record(cores_by_tick: list, neurons_by_tick: list, counters) -> SpikeRecord:
    """The ``SpikeRecord`` of per-tick ``step_arrays()`` outputs, tick 0 first."""
    sizes = [a.size for a in cores_by_tick]
    return SpikeRecord.from_arrays(
        np.repeat(np.arange(len(sizes), dtype=np.int64), sizes),
        np.concatenate(cores_by_tick),
        np.concatenate(neurons_by_tick),
        counters,
    )


def record_digest(records) -> str:
    """SHA-256 over the (ticks, cores, neurons) arrays of *records*, in order."""
    h = hashlib.sha256()
    for record in records:
        for arr in (record.ticks, record.cores, record.neurons):
            h.update(np.ascontiguousarray(arr, dtype="<i8").tobytes())
    return h.hexdigest()


def record_mismatch(want, got, counters: tuple[str, ...] = LOGICAL_COUNTERS) -> str:
    """``ok``, or what differs between two ``SpikeRecord``s and their counters."""
    bad = [n for n in counters
           if getattr(want.counters, n) != getattr(got.counters, n)]
    if not np.array_equal(want.counters.synaptic_events_per_core,
                          got.counters.synaptic_events_per_core):
        bad.append("synaptic_events_per_core")
    if want != got:
        bad.append(f"spikes (first mismatch {want.first_mismatch(got)})")
    return "ok" if not bad else "mismatch: " + ", ".join(bad)


def counts_of(counters) -> dict[str, int]:
    """The golden-checked fields of one ``EventCounters``."""
    return {name: int(getattr(counters, name)) for name in COUNT_FIELDS}


def timed_setup(tracer: Tracer, scale: Scale, network, build_engine) -> dict[str, float]:
    """Median cold set-up of *network*: compile, then ``build_engine()``.

    ``setup_s`` is at the host's reference speed (each repeat over the
    :func:`host_slowdown` read just before it); the per-layer numbers
    are as measured.

    The first build of a process is discarded: its wall is dominated by
    the VM backing fresh pages (about 5 ms per MB here, 2x run to run),
    which says nothing about ``compile_network``.  Every timed build then
    starts from the same state: cache invalidated, old artifact freed.
    *build_engine* takes the network and returns an object with an
    optional ``close()``.
    """
    with tracer.span("compile.first_build") as first:
        compile_network(network)
    totals, compiles, constructs = [], [], []
    # The fewest set-ups, and up to the most while they are cheap: the
    # median of a set-up of a few ms needs the extra repeats.
    fewest, most = scale.setups
    while len(totals) < fewest or (len(totals) < most and sum(totals) < 0.5):
        invalidate(network)
        gc.collect()
        slowdown = host_slowdown()
        with tracer.span("compile.compile_network") as c:
            compile_network(network)
        with tracer.span("engine.construct") as e:
            engine = build_engine(network)
        close = getattr(engine, "close", None)
        if close is not None:
            close()
        del engine, close  # or the next build runs beside this artifact
        compiles.append(c.seconds)
        constructs.append(e.seconds)
        totals.append((c.seconds + e.seconds) / slowdown)
    compiled = compile_network(network)
    with tracer.span("compile.cache_hit") as hit:
        compile_network(network)
    compile_s = statistics.median(compiles)
    stored = int(compiled.weight_matrix.nnz)
    return {
        "setup_s": statistics.median(totals),
        "compile.first_build_s": first.seconds,
        "compile.compile_network_s": compile_s,
        "compile.us_per_synapse": compile_s * 1e6 / max(stored, 1),
        "compile.stored_synapses": stored,
        "compile.artifact_mb": artifact_bytes(compiled) / 2**20,
        "compile.cache_hit_s": hit.seconds,
        "engine.construct_s": statistics.median(constructs),
    }


# -- goldens ----------------------------------------------------------------

def golden_status(workload: str, scale: Scale, seed: int, run: Run) -> str:
    """``verified``, ``unverified_seed``/``_scale``, or a mismatch message."""
    if scale is not FULL:
        return "unverified_scale"
    with open(HERE / "golden.json") as f:
        golden = json.load(f)
    want = golden.get(workload, {}).get(str(seed))
    if want is None:
        return "unverified_seed"
    got = {"ops": run.attempted, **run.counts, "sha256": run.sha256}
    bad = [k for k in want if want[k] != got.get(k)]
    if bad:
        return "mismatch: " + ", ".join(f"{k} {got.get(k)} != {want[k]}" for k in bad)
    return "verified"


# -- the measured run ---------------------------------------------------------

def make_workload(name: str, scale: Scale):
    """The workload object for *name* (each family's imports stay its own)."""
    if name == "stream_saliency":
        from .streaming import Stream

        return Stream(scale)
    if name == "serve_b16":
        from .serving import Serve

        return Serve(scale)
    from .recurrent import Recurrent

    rate_hz, synapses, coupling, grid_side, ticks, engine = {
        "rec20x128": (20.0, 128, "zero", scale.grid_20hz, scale.ticks_20hz, "fast"),
        "rec200x26": (200.0, 26, "balanced", scale.grid_200hz, scale.ticks_200hz, "fast"),
        "rec20x128_par2": (20.0, 128, "zero", scale.grid_20hz, scale.ticks_20hz, "parallel"),
    }[name]
    return Recurrent(scale, rate_hz, synapses, coupling, grid_side, ticks, engine)


def measure(name: str, seed: int, seconds: float, traced: bool, scale: Scale,
            out_dir: Path) -> dict:
    """Run workload *name* once; return the result document.

    Top-level ``phase.*`` spans tile the whole traced window; every call
    into a layer is a child of one of them.
    """
    tracer = Tracer(name, traced)
    workload = make_workload(name, scale)
    with tracer.span("phase.generate") as gen:
        workload.generate(seed)
    with tracer.span("phase.setup"):
        metrics = workload.setup(tracer)
    metrics["apps.build_s"] = gen.seconds
    baseline = None
    if traced:
        # Same run, a quarter as long, untraced, in this process: the
        # base for trace.overhead_frac.
        with tracer.span("phase.baseline"):
            baseline = workload.run(Tracer(name, False), max(workload.n_ops // 4, 2), 0.0)
    with tracer.span("phase.run"):
        run = workload.run(tracer, workload.n_ops, seconds)
    metrics.update(run.metrics)
    metrics["time_to_solution_s"] = metrics["setup_s"] + run.solve_s
    if traced:
        with tracer.span("phase.probe"):
            with tracer.span("lint.check_network") as lint:
                check_network(workload.net, strict=True)
            metrics["lint.check_network_s"] = lint.seconds
            metrics["compile.self_s"] = metrics["compile.compile_network_s"] - lint.seconds
            metrics.update(workload.probe(tracer, run, baseline))
        metrics["trace.overhead_frac"] = run.op_s / baseline.op_s - 1.0
    with tracer.span("phase.verify"):
        checks = workload.verify(run)
        checks["golden"] = golden_status(name, scale, seed, run)
        for must_be_zero in ("fast.replay_mismatch_ticks",
                             "parallel.leaked_shm_segments",
                             "parallel.zombie_children"):
            if metrics.get(must_be_zero):
                checks[must_be_zero] = f"{metrics[must_be_zero]}, must be 0"
    if traced:
        os.makedirs(out_dir, exist_ok=True)
        tracer.write(out_dir / f"trace-{name}.json", seed)

    failures = {k: v for k, v in checks.items()
                if v not in ("ok", "verified", "unverified_seed", "unverified_scale")}
    wanted = spec.PER_LAYER if traced else spec.END_TO_END
    return {
        "workload": name,
        "seed": seed,
        "scale": scale.name,
        "traced": traced,
        "correct": not failures,
        "attempted": run.attempted,
        "failed": run.attempted if failures else 0,
        "checks": checks,
        "counts": run.counts,
        "sha256": run.sha256,
        # A layer this workload does not run reads 0.
        "metrics": {m.name: metrics.get(m.name, 0.0) for m in wanted},
        "tick": {k: v for k, v in metrics.items() if k.startswith("tick.")},
    }
