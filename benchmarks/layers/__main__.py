"""Entry point: ``python -m benchmarks.layers`` from the repository root."""

import sys
from pathlib import Path

# Measure this checkout's program, whatever else is installed: the driver
# runs the command bare, without PYTHONPATH=src.
sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))

from .cli import main, stop_processes  # noqa: E402  (needs the path above)

try:
    code = main()
finally:
    stop_processes()
sys.exit(code)
