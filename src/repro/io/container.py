"""The one checked ``.npz`` container model files and checkpoints share.

A container is named arrays plus a JSON ``__header__`` member carrying
the format's ``format_version``, with no pickle anywhere.  This module
owns what :mod:`repro.io.model_files` and :mod:`repro.io.checkpoint`
have in common — the header, the version check, the
``allow_pickle=False`` read from a path or bytes, every kind of damage
as one ``TN601`` naming the file, and the temporary-and-rename write —
so each format keeps only its own layout.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import zipfile
import zlib
from dataclasses import dataclass

import numpy as np

from repro.lint.diagnostics import Diagnostic, LintError, Severity

#: What reading a damaged container raises, from ``np.load`` down to a
#: member's CRC check and a layout's parse: a cut or bit-flipped zip
#: (zipfile raises RuntimeError or NotImplementedError when the flip
#: lands in a flag or method field), a pickle or other foreign file, a
#: missing member or header entry, an undecodable or mistyped header.
_DAMAGE = (
    LookupError, ValueError, TypeError, OSError, EOFError, RuntimeError,
    zipfile.BadZipFile, zlib.error,
)


@dataclass(frozen=True)
class ContainerFormat:
    """One on-disk format: its name, its version, how to re-create it."""

    name: str
    version: int
    hint: str

    def error(self, message: str) -> LintError:
        """A TN601 failure to read this format as a LintError."""
        diagnostic = Diagnostic(code="TN601", severity=Severity.ERROR,
                                message=message, hint=self.hint)
        return LintError([diagnostic], subject=f"{self.name} file")


def to_bytes(fmt: ContainerFormat, header: dict, arrays: dict,
             compress: bool = False) -> bytes:
    """The container holding *arrays* and *header*, versioned by *fmt*."""
    header = json.dumps({"format_version": fmt.version, **header}).encode("utf-8")
    buf = io.BytesIO()
    (np.savez_compressed if compress else np.savez)(
        buf, **arrays, __header__=np.frombuffer(header, dtype=np.uint8)
    )
    return buf.getvalue()


def save(path, blob: bytes) -> int:
    """Write *blob* to exactly *path*; return the byte count.

    The bytes go to a sibling temporary name that is renamed over
    *path* once complete, so an interrupted write leaves neither a
    truncated file nor the temporary behind.
    """
    path = os.fspath(path)
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    partial = f"{path}.partial-{os.getpid()}"
    try:
        with open(partial, "wb") as f:
            f.write(blob)
        os.replace(partial, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(partial)
        raise
    return len(blob)


def load(fmt: ContainerFormat, source, parse):
    """Read a *fmt* container from a path or bytes; ``parse(header, members)``.

    A path goes to ``np.load`` as is, so a chip-scale model file is not
    copied into memory first.  *parse* sees a header whose version is
    checked; what it raises on a missing or malformed member is damage
    too, so anything but a whole container is one ``TN601``.
    """
    where = f"{fmt.name} data" if isinstance(source, bytes) else os.fspath(source)
    try:
        data = np.load(io.BytesIO(source) if isinstance(source, bytes) else source,
                       allow_pickle=False)
        if not isinstance(data, np.lib.npyio.NpzFile):
            raise fmt.error(f"{where} is not a {fmt.name} file (not a zip)")
        with data:
            if "__header__" not in data:
                raise fmt.error(f"{where} is not a repro {fmt.name} file (missing header)")
            header = json.loads(data["__header__"].tobytes().decode("utf-8"))
            if not isinstance(header, dict):
                raise fmt.error(f"{where}: the {fmt.name} header is not a JSON object")
            if header.get("format_version") != fmt.version:
                raise fmt.error(
                    f"{where}: unsupported {fmt.name} format version "
                    f"{header.get('format_version')} (this build reads "
                    f"version {fmt.version})"
                )
            return parse(header, data)
    except LintError:
        raise
    except _DAMAGE as err:
        raise fmt.error(
            f"{where} is not a whole {fmt.name} file ({type(err).__name__}: {err})"
        ) from err
