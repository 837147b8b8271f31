"""The repo's benchmark: five paper-defined workloads, timed from outside.

Run as ``python -m benchmarks.layers`` from the repository root; see
``README.md`` in this directory for the workload and metric definitions.
"""

from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
