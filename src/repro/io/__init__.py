"""Input/output: AER spike streams, model files, simulator checkpoints."""

from repro.io.aer import (
    AERStream,
    decode_aer,
    encode_aer,
    read_aer_file,
    record_to_aer,
    schedule_from_aer,
    write_aer_file,
)
from repro.io.checkpoint import EngineCheckpoint, model_digest
from repro.io.graph_json import (
    composition_graph,
    network_graph,
    read_graph_json,
    to_networkx,
    write_graph_json,
)
from repro.io.model_files import load_network, save_network

__all__ = [
    "AERStream",
    "decode_aer",
    "encode_aer",
    "read_aer_file",
    "record_to_aer",
    "schedule_from_aer",
    "write_aer_file",
    "EngineCheckpoint",
    "model_digest",
    "composition_graph",
    "network_graph",
    "read_graph_json",
    "to_networkx",
    "write_graph_json",
    "load_network",
    "save_network",
]
