"""Where a result file came from: commit, tree state, machine, versions."""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess

import numpy
import scipy

from . import HERE, ROOT


def _git(*args: str) -> str | None:
    """Output of one git command in the repository, or None without git."""
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), *args],
            capture_output=True, text=True, timeout=30, check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def harness_digest() -> str:
    """SHA-256 over this package's sources: which harness measured."""
    h = hashlib.sha256()
    for path in sorted(HERE.glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def provenance() -> dict:
    """Everything needed to say what was measured, where.

    ``dirty`` is the whole tree against HEAD; ``program_dirty`` is the
    measured program alone (``src/``), which is what decides whether the
    numbers describe ``commit``.  Both are None outside a git checkout.
    """
    status = _git("status", "--porcelain")
    program = _git("status", "--porcelain", "--", "src", "pyproject.toml")
    return {
        "commit": _git("rev-parse", "HEAD"),
        "dirty": None if status is None else bool(status),
        "program_dirty": None if program is None else bool(program),
        "harness_sha256": harness_digest(),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }
