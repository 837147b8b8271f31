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
    "load_network",
    "save_network",
]
