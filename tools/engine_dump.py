#!/usr/bin/env python
"""Fixed-seed dump of what the single-process engines compute.

Usage::

    python tools/engine_dump.py > dump.txt

Runs a fixed case list — the bundled networks plus two recurrent
operating points; Compass at 1 / 3 ranks and two partition strategies,
TrueNorth plain, on a one-chip mesh and on a two-chip mesh, the sparse engine,
and a three-lane batch on distinct seeds and schedules,
run through or with lane 1 reset mid-run — and prints one line per
case: a SHA-256 over the spike columns (each lane's, on a batch), the
final ``v``, every ``EventCounters`` field (each lane's), the ``SimMPI``
tallies, ``boundary_crossings`` and a multi-chip mesh's per-link traffic,
then the spike count for a human.  ``tools/engine_dump.txt`` is the
golden output and ``tests/unit/test_engine_dump.py`` holds every run to
it, so "byte-identical to the parent" is a tier-1 test.
"""

from __future__ import annotations

import dataclasses
import hashlib
import sys
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.apps.recurrent import probabilistic_recurrent_network  # noqa: E402
from repro.compass.batched import BatchedCompassSimulator, replica_seeds  # noqa: E402
from repro.compass.fast import FastCompassSimulator  # noqa: E402
from repro.compass.simulator import CompassSimulator  # noqa: E402
from repro.core.builders import poisson_inputs  # noqa: E402
from repro.core.chip import ChipGeometry, Placement  # noqa: E402
from repro.core.prng import derive_stream_seed  # noqa: E402
from repro.hardware.simulator import TrueNorthSimulator  # noqa: E402
from repro.lint.examples import BUILTIN_NETWORKS  # noqa: E402
from repro.noc.mesh import MeshNetwork  # noqa: E402

TICKS = 24
INPUT_RATE_HZ = 300.0
INPUT_SEED = 3
LANES = 3
#: The pass before which ``batched/reset`` restarts lane 1.
RESET_AT = 9

NETWORKS = {
    **BUILTIN_NETWORKS,
    "rec100x16": lambda: probabilistic_recurrent_network(
        100.0, 16, grid_side=4, coupling="balanced", seed=7
    ),
    "rec20x128": lambda: probabilistic_recurrent_network(20.0, 128, grid_side=8, seed=7),
}


def _one_chip(network) -> dict:
    """The default placement, on a mesh that just holds it."""
    placement = Placement.default(network.n_cores)
    return {"placement": placement, "mesh": MeshNetwork.spanning(placement)}


def _tiled(network) -> dict:
    """A placement spilling *network* over two small chips, and their board."""
    side = max(1, int(np.ceil(np.sqrt(-(-network.n_cores // 2)))))
    geometry = ChipGeometry(cores_x=side, cores_y=side)
    placement = Placement.grid(network.n_cores, geometry)
    mesh = MeshNetwork.tiled(int(placement.chip_x.max()) + 1, 1, geometry)
    return {"placement": placement, "mesh": mesh}


CASES = {
    "compass/ranks1": lambda net: CompassSimulator(net, 1),
    "compass/ranks3": lambda net: CompassSimulator(net, 3),
    "compass/ranks3-round_robin": lambda net: CompassSimulator(net, 3, "round_robin"),
    "truenorth/plain": lambda net: TrueNorthSimulator(net),
    "truenorth/detailed_noc": lambda net: TrueNorthSimulator(net, **_one_chip(net)),
    "truenorth/chip_array": lambda net: TrueNorthSimulator(net, **_tiled(net)),
    "fast/dense": lambda net: FastCompassSimulator(net),
}
#: The cases also judged by the traffic on their mesh's chip-edge links.
LINK_CASES = ("truenorth/chip_array",)


def run_single(sim, inputs):
    """One engine's run: ``(records, counters)``, one of each."""
    record = sim.run(TICKS, inputs)
    return [record], [sim.counters]


def run_batch(net, reset: bool):
    """Three lanes on ``replica_seeds``, a schedule each; with *reset*, lane 1
    restarts before pass ``RESET_AT`` on a new seed and a new schedule.
    Returns the engine, each lane's record and each lane's counters."""
    sim = BatchedCompassSimulator(net, LANES, seeds=replica_seeds(net.seed, LANES))
    sim.load_inputs([
        poisson_inputs(net, TICKS, INPUT_RATE_HZ, seed=INPUT_SEED + b) for b in range(LANES)
    ])
    records = [sim.run(RESET_AT if reset else TICKS)]
    if reset:
        sim.reset_lane(
            1, seed=derive_stream_seed(net.seed, 7),
            inputs=poisson_inputs(net, TICKS, INPUT_RATE_HZ, seed=INPUT_SEED + 7),
        )
        records.append(sim.run(TICKS - RESET_AT))
    # The lane records of every run, lane by lane, in run order.
    return sim, [r for b in range(LANES) for r in (run[b] for run in records)], [
        sim.lane_counters(b) for b in range(LANES)
    ]


BATCH_CASES = {
    "batched/3lanes": lambda net: run_batch(net, reset=False),
    "batched/reset": lambda net: run_batch(net, reset=True),
}


def digest(sim, records, counters, links: bool = False) -> str:
    """SHA-256 over everything the case is judged by; with *links*, the
    traffic of every chip-edge link of ``sim.mesh`` too."""
    sha = hashlib.sha256()

    def feed(name: str, value) -> None:
        sha.update(name.encode())
        sha.update(np.ascontiguousarray(value, dtype=np.int64).tobytes())

    for record in records:
        for name in ("ticks", "cores", "neurons"):
            feed(name, getattr(record, name))
    feed("v", sim.v)
    for lane in counters:
        for field in dataclasses.fields(lane):
            feed(field.name, getattr(lane, field.name))
    mpi = getattr(sim, "mpi", None)
    if mpi is not None:
        for name in ("messages_sent", "bytes_sent", "sync_steps", "sync_messages", "exchanges"):
            feed(name, getattr(mpi, name))
    feed("boundary_crossings", getattr(sim, "boundary_crossings", 0))
    if links:
        for at in sorted(sim.mesh.links):
            # The four links of a chip, in their fixed construction order.
            feed(f"links{at}", [link.crossed for link in sim.mesh.links[at].values()])
    return sha.hexdigest()


def line(net_name: str, case: str, sim, records, counters) -> str:
    """One case's output line."""
    spikes = sum(record.n_spikes for record in records)
    judged = digest(sim, records, counters, links=case in LINK_CASES)
    return f"{net_name:24s} {case:28s} {judged} spikes={spikes}"


def main() -> int:
    """Run every case on every network; print one digest line each."""
    for net_name, build in NETWORKS.items():
        network = build()
        inputs = poisson_inputs(network, TICKS, INPUT_RATE_HZ, seed=INPUT_SEED)
        for case, construct in CASES.items():
            sim = construct(network)
            records, counters = run_single(sim, inputs)
            print(line(net_name, case, sim, records, counters))
        for case, run in BATCH_CASES.items():
            print(line(net_name, case, *run(network)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
