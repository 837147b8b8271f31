#!/usr/bin/env python
"""Fixed-seed dump of what the single-process engines compute.

Usage::

    python tools/engine_dump.py > dump.txt

Runs a fixed case list — the bundled networks plus two recurrent
operating points; Compass at 1 / 3 ranks and two partition strategies,
TrueNorth plain / ``detailed_noc`` / ``chip_array``, the sparse engine
dense / gated — and prints one line per case: a SHA-256 over the spike
columns, the final ``v``, every ``EventCounters`` field, the ``SimMPI``
tallies, ``boundary_crossings`` and the chip array's per-link traffic,
then the spike count for a human.  "Byte-identical to the parent" is
this script run on two checkouts and a ``diff``.
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
from repro.compass.fast import FastCompassSimulator  # noqa: E402
from repro.compass.simulator import CompassSimulator  # noqa: E402
from repro.core.builders import poisson_inputs  # noqa: E402
from repro.core.chip import ChipGeometry, Placement  # noqa: E402
from repro.hardware.simulator import TrueNorthSimulator  # noqa: E402
from repro.lint.examples import BUILTIN_NETWORKS  # noqa: E402
from repro.noc.multichip import ChipArray  # noqa: E402

TICKS = 24
INPUT_RATE_HZ = 300.0
INPUT_SEED = 3

NETWORKS = {
    **BUILTIN_NETWORKS,
    "rec100x16": lambda: probabilistic_recurrent_network(
        100.0, 16, grid_side=4, coupling="balanced", seed=7
    ),
    "rec20x128": lambda: probabilistic_recurrent_network(20.0, 128, grid_side=8, seed=7),
}


def _tiled(network) -> dict:
    """A placement spilling *network* over two small chips, and their array."""
    side = max(1, int(np.ceil(np.sqrt(-(-network.n_cores // 2)))))
    geometry = ChipGeometry(cores_x=side, cores_y=side)
    placement = Placement.grid(network.n_cores, geometry)
    array = ChipArray(chips_x=int(placement.chip_x.max()) + 1, chips_y=1, geometry=geometry)
    return {"placement": placement, "chip_array": array}


CASES = {
    "compass/ranks1": lambda net: CompassSimulator(net, 1),
    "compass/ranks3": lambda net: CompassSimulator(net, 3),
    "compass/ranks3-round_robin": lambda net: CompassSimulator(net, 3, "round_robin"),
    "truenorth/plain": lambda net: TrueNorthSimulator(net),
    "truenorth/detailed_noc": lambda net: TrueNorthSimulator(net, detailed_noc=True),
    "truenorth/chip_array": lambda net: TrueNorthSimulator(net, **_tiled(net)),
    "fast/dense": lambda net: FastCompassSimulator(net, gated=False),
    "fast/gated": lambda net: FastCompassSimulator(net, gated=True),
}


def digest(sim, record) -> str:
    """SHA-256 over everything the case is judged by."""
    sha = hashlib.sha256()

    def feed(name: str, value) -> None:
        sha.update(name.encode())
        sha.update(np.ascontiguousarray(value, dtype=np.int64).tobytes())

    for name in ("ticks", "cores", "neurons"):
        feed(name, getattr(record, name))
    feed("v", sim.v)
    for field in dataclasses.fields(sim.counters):
        feed(field.name, getattr(sim.counters, field.name))
    mpi = getattr(sim, "mpi", None)
    if mpi is not None:
        for name in ("messages_sent", "bytes_sent", "sync_steps", "sync_messages", "exchanges"):
            feed(name, getattr(mpi, name))
    feed("boundary_crossings", getattr(sim, "boundary_crossings", 0))
    array = getattr(sim, "chip_array", None)
    if array is not None:
        for at in sorted(array.boundaries):
            # The four links of a chip, in their fixed construction order.
            feed(f"links{at}", [link.crossed for link in array.boundaries[at].links.values()])
    return sha.hexdigest()


def main() -> int:
    """Run every case on every network; print one digest line each."""
    for net_name, build in NETWORKS.items():
        network = build()
        inputs = poisson_inputs(network, TICKS, INPUT_RATE_HZ, seed=INPUT_SEED)
        for case, construct in CASES.items():
            sim = construct(network)
            record = sim.run(TICKS, inputs)
            print(f"{net_name:24s} {case:28s} {digest(sim, record)} spikes={record.n_spikes}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
