"""Engine selection: one entry point over every kernel expression.

The paper's central claim is that one neurosynaptic kernel (Listing 1)
admits many expressions — scalar reference, vectorized software,
multi-process, event-driven silicon — that are spike-for-spike
interchangeable.  This module makes that interchangeability an API:
:func:`select_engine` constructs the right simulator for a network and
an ``engine`` name, and ``engine="auto"`` picks the fastest applicable
expression (the sparse FastCompass path, which since the stochastic
extension applies to *every* network) unless the caller asks for
rank-level features only the Compass expression models.

Every returned simulator exposes the common driving surface:
``load_inputs(schedule)``, ``step() -> [(tick, core, neuron)]`` and
``run(n_ticks, inputs) -> SpikeRecord``.
"""

from __future__ import annotations

from repro.compass.compile import CompiledNetwork, compile_network
from repro.core.inputs import InputSchedule
from repro.core.network import Network
from repro.core.record import SpikeRecord
from repro.obs.log import get_logger
from repro.obs.observer import Observer
from repro.utils.validation import require

#: Recognized engine names, in rough speed order for typical workloads.
ENGINES = ("auto", "fast", "batched", "compass", "parallel", "truenorth", "reference")

log = get_logger("repro.engine")


def select_engine(
    network: Network | CompiledNetwork,
    engine: str = "auto",
    *,
    n_ranks: int = 1,
    n_workers: int = 2,
    n_replicas: int = 1,
    replica_seeds=None,
    partition_strategy: str = "load_balanced",
    obs: Observer | None = None,
):
    """Construct a simulator for *network* under the named *engine*.

    ``engine="auto"`` resolves to the fastest applicable sparse
    expression: the batched multi-replica engine when the caller asks
    for more than one replica (``n_replicas > 1``), otherwise the
    single-process FastCompass path.  It never resolves to the
    shared-memory parallel engine — the decision rule that would have
    let it was measured and not met (docs/performance.md, PR 21); ask
    for ``engine="parallel"`` by name (*n_workers* ranks, two unless
    said).  It falls back to the
    rank-partitioned Compass expression only when the caller requests
    rank-level behaviour (``n_ranks > 1``, which the flat engines do
    not model).

    ``engine="batched"`` (or ``n_replicas > 1`` under auto) returns a
    :class:`~repro.compass.batched.BatchedCompassSimulator`, whose
    ``run()`` yields one :class:`~repro.core.record.SpikeRecord` *per
    replica lane*; *replica_seeds* optionally sets per-lane seeds
    (default: every lane at the network's own seed).

    Every engine but the scalar reference kernel shares a pre-built
    :class:`CompiledNetwork` and takes the *obs* observer (see
    :mod:`repro.obs`) for tracing and metrics; the selection decision
    itself is logged on the ``repro.engine`` structured logger (set
    ``REPRO_LOG_LEVEL=INFO`` to see it).
    """
    require(engine in ENGINES, f"unknown engine {engine!r}; expected one of {ENGINES}")
    require(
        n_replicas == 1 or engine in ("auto", "batched"),
        f"n_replicas={n_replicas} requires the batched engine, not {engine!r}",
    )
    requested = engine
    reason = "explicit request"
    if engine == "auto":
        if n_replicas > 1:
            engine = "batched"
            reason = f"{n_replicas} replicas requested"
        elif n_ranks > 1:
            engine = "compass"
            reason = f"rank-level features requested (n_ranks={n_ranks})"
        else:
            engine = "fast"
            reason = "the single-process sparse path applies to every network"
    log.info(
        "engine_selected", engine=engine, requested=requested,
        n_ranks=n_ranks, n_workers=n_workers, reason=reason,
    )

    if engine == "fast":
        from repro.compass.fast import FastCompassSimulator

        return FastCompassSimulator(network, obs=obs)
    if engine == "batched":
        from repro.compass.batched import BatchedCompassSimulator

        return BatchedCompassSimulator(
            network, n_replicas, seeds=replica_seeds, obs=obs,
        )
    if engine == "compass":
        from repro.compass.simulator import CompassSimulator

        return CompassSimulator(
            network, n_ranks=n_ranks,
            partition_strategy=partition_strategy, obs=obs,
        )
    if engine == "parallel":
        from repro.compass.parallel import ParallelCompassSimulator

        return ParallelCompassSimulator(
            network, n_workers=n_workers,
            partition_strategy=partition_strategy, obs=obs,
        )

    if engine == "truenorth":
        from repro.hardware.simulator import TrueNorthSimulator

        return TrueNorthSimulator(network, obs=obs)
    from repro.core.kernel import ReferenceKernel

    return ReferenceKernel(network.network if isinstance(network, CompiledNetwork) else network)


def run_engine(
    network: Network | CompiledNetwork,
    n_ticks: int,
    inputs: InputSchedule | None = None,
    engine: str = "auto",
    **kwargs,
) -> SpikeRecord | list[SpikeRecord]:
    """One-shot: select an engine, run *n_ticks*, return the record.

    The batched engine (``engine="batched"`` or ``n_replicas > 1``)
    returns a *list* of records, one per replica lane; every other
    engine returns a single record.
    """
    return select_engine(network, engine, **kwargs).run(n_ticks, inputs)


__all__ = ["ENGINES", "select_engine", "run_engine", "compile_network", "CompiledNetwork"]
