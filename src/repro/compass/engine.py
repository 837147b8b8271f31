"""Engine selection: one entry point over every kernel expression.

The paper's central claim is that one neurosynaptic kernel (Listing 1)
admits many expressions — scalar reference, vectorized software,
rank-partitioned, event-driven silicon — that are spike-for-spike
interchangeable.  This module makes that interchangeability an API:
:func:`select_engine` constructs the right simulator for a network and
an ``engine`` name, and ``engine="auto"`` picks the fastest applicable
expression (the sparse FastCompass path, which since the stochastic
extension applies to *every* network) unless the caller asks for
rank-level features only the Compass expression models.

Every returned simulator exposes the common driving surface:
``load_inputs(schedule)``, ``step() -> [(tick, core, neuron)]`` and
``run(n_ticks, inputs) -> SpikeRecord``.  :func:`run_engine` is the
only one-shot form; a caller that needs engine-specific arguments (a
B-lane batch, TrueNorth's ``mesh``) or the shared-memory
:class:`~repro.compass.parallel.ParallelCompassSimulator` constructs the
simulator and calls its ``run``.
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
ENGINES = ("auto", "fast", "batched", "compass", "truenorth", "reference")

log = get_logger("repro.engine")


def select_engine(
    network: Network | CompiledNetwork,
    engine: str = "auto",
    *,
    n_ranks: int = 1,
    partition_strategy: str = "load_balanced",
    obs: Observer | None = None,
):
    """Construct a simulator for *network* under the named *engine*.

    ``engine="auto"`` resolves to the single-process FastCompass path,
    which applies to every network.  It falls back to the
    rank-partitioned Compass expression only when the caller requests
    rank-level behaviour (``n_ranks > 1``, which the flat engines do
    not model).  ``"parallel"`` is refused: the shared-memory engine's
    decision rule was measured and not met (docs/performance.md,
    "PR 21"), so nothing selects it by name.

    ``engine="batched"`` returns a one-lane
    :class:`~repro.compass.batched.BatchedCompassSimulator`, whose
    ``run()`` yields a list of one :class:`~repro.core.record.SpikeRecord`;
    an engine of B lanes is constructed directly.

    Every engine but the scalar reference kernel shares a pre-built
    :class:`CompiledNetwork` and takes the *obs* observer (see
    :mod:`repro.obs`) for tracing and metrics; the selection decision
    itself is logged on the ``repro.engine`` structured logger (set
    ``REPRO_LOG_LEVEL=INFO`` to see it).
    """
    require(
        engine != "parallel",
        "engine 'parallel' is not selectable: its decision rule was measured "
        "and not met (docs/performance.md, \"PR 21\"); engine='compass' with "
        "n_ranks models the same rank-level messages in process",
    )
    require(engine in ENGINES, f"unknown engine {engine!r}; expected one of {ENGINES}")
    requested = engine
    reason = "explicit request"
    if engine == "auto":
        if n_ranks > 1:
            engine = "compass"
            reason = f"rank-level features requested (n_ranks={n_ranks})"
        else:
            engine = "fast"
            reason = "the single-process sparse path applies to every network"
    log.info(
        "engine_selected", engine=engine, requested=requested,
        n_ranks=n_ranks, reason=reason,
    )

    if engine == "fast":
        from repro.compass.fast import FastCompassSimulator

        return FastCompassSimulator(network, obs=obs)
    if engine == "batched":
        from repro.compass.batched import BatchedCompassSimulator

        return BatchedCompassSimulator(network, 1, obs=obs)
    if engine == "compass":
        from repro.compass.simulator import CompassSimulator

        return CompassSimulator(
            network, n_ranks=n_ranks,
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

    The batched engine returns a list of one record (its one lane);
    every other engine returns a single record.  A caller that needs
    engine-specific arguments calls the constructor's ``run`` instead.
    """
    return select_engine(network, engine, **kwargs).run(n_ticks, inputs)


__all__ = ["ENGINES", "select_engine", "run_engine", "compile_network", "CompiledNetwork"]
