"""Compass: the software expression of the neurosynaptic kernel."""

from repro.compass.compile import (
    CompiledNetwork,
    CompiledPartition,
    PartitionedNetwork,
    compile_network,
    partition_compiled,
)
from repro.compass.engine import ENGINES, run_engine, select_engine
from repro.compass.partition import (
    partition,
    partition_block,
    partition_load_balanced,
    partition_round_robin,
    rank_loads,
)
from repro.compass.batched import (
    BatchedCompassSimulator,
    replica_seeds,
    run_batched_compass,
)
from repro.compass.fast import FastCompassSimulator, run_fast_compass
from repro.compass.parallel import (
    ParallelCompassSimulator,
    run_parallel_compass,
)
from repro.compass.simmpi import SimMPI
from repro.compass.simulator import CompassSimulator, run_compass

__all__ = [
    "ENGINES",
    "CompiledNetwork",
    "CompiledPartition",
    "PartitionedNetwork",
    "compile_network",
    "partition_compiled",
    "select_engine",
    "run_engine",
    "partition",
    "partition_block",
    "partition_load_balanced",
    "partition_round_robin",
    "rank_loads",
    "BatchedCompassSimulator",
    "replica_seeds",
    "run_batched_compass",
    "FastCompassSimulator",
    "run_fast_compass",
    "ParallelCompassSimulator",
    "run_parallel_compass",
    "SimMPI",
    "CompassSimulator",
    "run_compass",
]
