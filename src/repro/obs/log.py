"""Structured logging under the ``repro.*`` namespace.

One logging setup for the whole package: every logger hangs off the
``repro`` root, renders ``event key=value ...`` lines (machine-grep-able,
human-readable), writes to stderr, and takes its level from the
``REPRO_LOG_LEVEL`` environment variable (default ``WARNING``, so
library use is silent).  Engines and applications log *decisions* —
which engine was selected and why, what a pipeline estimated — not
per-tick chatter; per-tick data belongs in :mod:`repro.obs.metrics`.
"""

from __future__ import annotations

import logging
import os
import sys

#: Environment variable naming the minimum level (e.g. ``DEBUG``/``INFO``).
LEVEL_ENV = "REPRO_LOG_LEVEL"

_ROOT = "repro"
_configured = False


def _fmt_value(value) -> str:
    """Render one field value; quote anything containing whitespace."""
    text = str(value)
    if any(ch.isspace() for ch in text) or text == "":
        return repr(text)
    return text


def configure(level: str | int | None = None, stream=None, force: bool = False) -> None:
    """Configure the ``repro`` root logger (idempotent unless *force*).

    *level* defaults to ``$REPRO_LOG_LEVEL`` or ``WARNING``; *stream*
    defaults to stderr.  Tests pass ``force=True`` with a capture
    stream to observe output regardless of prior configuration.
    """
    global _configured
    if _configured and not force:
        return
    root = logging.getLogger(_ROOT)
    if level is None:
        level = os.environ.get(LEVEL_ENV, "WARNING").upper()
    root.setLevel(level)
    root.propagate = False
    for handler in list(root.handlers):
        root.removeHandler(handler)
    handler = logging.StreamHandler(stream if stream is not None else sys.stderr)
    handler.setFormatter(
        logging.Formatter("%(asctime)s %(levelname)s %(name)s %(message)s")
    )
    root.addHandler(handler)
    _configured = True


class StructuredLogger:
    """Thin wrapper rendering ``event key=value ...`` messages."""

    __slots__ = ("_logger",)

    def __init__(self, logger: logging.Logger) -> None:
        self._logger = logger

    @property
    def name(self) -> str:
        """The underlying stdlib logger name."""
        return self._logger.name

    def _emit(self, level: int, event: str, fields: dict) -> None:
        if self._logger.isEnabledFor(level):
            parts = [event] + [f"{k}={_fmt_value(v)}" for k, v in fields.items()]
            self._logger.log(level, " ".join(parts))

    def debug(self, event: str, **fields) -> None:
        """Log *event* with structured *fields* at DEBUG."""
        self._emit(logging.DEBUG, event, fields)

    def info(self, event: str, **fields) -> None:
        """Log *event* with structured *fields* at INFO."""
        self._emit(logging.INFO, event, fields)

    def warning(self, event: str, **fields) -> None:
        """Log *event* with structured *fields* at WARNING."""
        self._emit(logging.WARNING, event, fields)

    def error(self, event: str, **fields) -> None:
        """Log *event* with structured *fields* at ERROR."""
        self._emit(logging.ERROR, event, fields)


def get_logger(name: str = _ROOT) -> StructuredLogger:
    """Structured logger for *name* (must live in the ``repro`` namespace)."""
    if name != _ROOT and not name.startswith(_ROOT + "."):
        raise ValueError(f"logger name must be under the {_ROOT!r} namespace: {name!r}")
    configure()
    return StructuredLogger(logging.getLogger(name))
