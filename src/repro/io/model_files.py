"""Network model files: save/load complete networks to a single .npz.

Compass consumes model files describing every core's configuration; the
same role here.  A model file is a compressed :mod:`repro.io.container`
— the one checked container engine checkpoints use too — holding each
core's arrays under prefixed keys plus a small header with network
metadata: portable, and exactly round-trippable (loading a saved
network reproduces identical spikes).
"""

from __future__ import annotations

from dataclasses import fields

from repro.core.network import Core, Network
from repro.io import container

FORMAT_VERSION = 1

_MODEL_FILE = container.ContainerFormat(
    "model", FORMAT_VERSION,
    hint="re-save the network with repro.io.model_files.save_network",
)

_ARRAY_FIELDS = [f.name for f in fields(Core) if f.name != "name"]


def save_network(path, network: Network) -> int:
    """Write *network* to a model file at exactly *path*; return its size."""
    network.validate()
    header = {
        "name": network.name,
        "seed": network.seed,
        "n_cores": network.n_cores,
        "core_names": [core.name for core in network.cores],
    }
    arrays = {
        f"core{idx}/{field_name}": getattr(core, field_name)
        for idx, core in enumerate(network.cores)
        for field_name in _ARRAY_FIELDS
    }
    return container.save(path, container.to_bytes(_MODEL_FILE, header, arrays, compress=True))


def _parse(header: dict, data) -> Network:
    cores = [
        Core(
            name=header["core_names"][idx],
            **{name: data[f"core{idx}/{name}"] for name in _ARRAY_FIELDS},
        )
        for idx in range(header["n_cores"])
    ]
    return Network(cores=cores, seed=int(header["seed"]), name=header["name"])


def load_network(path, validate: bool = True) -> Network:
    """Load a network from a model file (a path or its bytes).

    Malformed files and invalid models both raise
    :class:`~repro.lint.LintError`: anything but a whole model file as
    ``TN601``, architectural violations through the model checker.
    Pass ``validate=False`` to load a known-bad model for offline
    linting (``repro lint`` does this so it can report *all* findings
    instead of failing on the first).
    """
    network = container.load(_MODEL_FILE, path, _parse)
    if validate:
        network.validate()
    return network
