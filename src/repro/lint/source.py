"""Determinism source lint: AST checks over the repo's own code.

The kernel's bit-identity guarantee — identical spikes from every
expression for identical (network, seed, inputs) — only holds if the
*source* obeys a handful of repo invariants that no runtime test can
enforce exhaustively.  This module checks them statically with ``SL###``
codes:

* ``SL101`` — the stdlib :mod:`random` module is banned (global hidden
  state; not counter-based);
* ``SL102`` — ``np.random.default_rng()`` without an explicit seed is
  banned everywhere (OS-entropy seeding breaks reproducibility);
* ``SL103`` — even seeded ``default_rng`` calls must go through the
  :func:`repro.utils.rng.seeded_rng` helper so seeding discipline has
  one auditable home;
* ``SL104`` — wall-clock reads (``time.time``, ``perf_counter``, ...)
  are banned inside ``core/``, ``compass/`` and ``hardware/`` tick paths (profiling
  hooks carry an explicit pragma);
* ``SL105`` — every ``multiprocessing.shared_memory`` ``create=True``
  must be paired with ``.close()`` and ``.unlink()`` calls in the same
  class, or segments leak across runs; additionally, a class holding an
  ``np.ndarray(..., buffer=...)`` view in an attribute must reassign
  that attribute somewhere (a release path), or the lingering buffer
  export makes segment close raise ``BufferError`` — the FlightRecorder /
  ParallelCompassSimulator discipline;
* ``SL106`` — float literals must not enter arithmetic in the integer
  kernel modules (``core/kernel.py``, ``core/prng.py``,
  ``compass/fast.py``); the datapath is integer-exact.

Suppression: a finding on a line containing ``# repro-lint: allow=CODE``
(comma-separated codes allowed) is skipped — the pragma doubles as an
in-source audit trail of every sanctioned exception.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

from repro.lint.diagnostics import Diagnostic, LintReport, Location, Severity


@dataclass(frozen=True)
class SourceRuleInfo:
    """Registry entry for one source-lint code."""

    code: str
    title: str
    severity: Severity
    hint: str


#: Every code the source lint can emit (rendered in docs/lint.md).
SOURCE_CODES: dict[str, SourceRuleInfo] = {
    info.code: info
    for info in [
        SourceRuleInfo("SL100", "syntax-error", Severity.ERROR,
                       "the file does not parse; fix the syntax error first"),
        SourceRuleInfo("SL101", "stdlib-random-banned", Severity.ERROR,
                       "use the counter-based repro.core.prng draws, or "
                       "repro.utils.rng.seeded_rng for numpy sampling"),
        SourceRuleInfo("SL102", "unseeded-default-rng", Severity.ERROR,
                       "pass an explicit integer seed; unseeded generators "
                       "pull OS entropy and break run-to-run reproducibility"),
        SourceRuleInfo("SL103", "inline-default-rng", Severity.ERROR,
                       "construct generators via repro.utils.rng.seeded_rng "
                       "so every seeding site is centrally auditable"),
        SourceRuleInfo("SL104", "wall-clock-in-tick-path", Severity.ERROR,
                       "tick-path code must be a pure function of (network, "
                       "seed, inputs); hoist timing to the caller or mark a "
                       "sanctioned hook with '# repro-lint: allow=SL104'"),
        SourceRuleInfo("SL105", "shm-create-without-cleanup", Severity.ERROR,
                       "pair every SharedMemory(create=True) with .close() "
                       "and .unlink() in the same class to avoid leaking "
                       "segments across runs; reassign buffer-view "
                       "attributes at release time so no buffer export "
                       "outlives the segment"),
        SourceRuleInfo("SL106", "float-in-integer-kernel", Severity.ERROR,
                       "the membrane datapath is integer-exact; keep float "
                       "literals out of kernel arithmetic"),
    ]
}

#: Modules (repo-relative to the ``repro`` package) where even seeded
#: ``default_rng`` construction is allowed — the helper's own home.
DEFAULT_RNG_ALLOW = {"utils/rng.py"}

#: Package sub-trees whose modules are tick paths (SL104 applies).
TICK_PATH_PREFIXES = ("core/", "compass/", "hardware/")

#: Integer-kernel modules (SL106 applies).
INT_KERNEL_MODULES = {
    "core/kernel.py",
    "core/prng.py",
    "compass/fast.py",
    "compass/batched.py",
}

#: Wall-clock callables banned in tick paths.
_WALL_CLOCK = {
    "time.time", "time.perf_counter", "time.perf_counter_ns",
    "time.monotonic", "time.monotonic_ns", "time.process_time",
    "datetime.datetime.now", "datetime.datetime.utcnow",
}
_WALL_CLOCK_BARE = {name.split(".")[-1] for name in _WALL_CLOCK}

_PRAGMA = re.compile(r"#\s*repro-lint:\s*allow=([A-Z0-9, ]+)")

_ARITH_OPS = (ast.BinOp, ast.AugAssign, ast.Compare)


def module_rel_path(path: str | Path) -> str:
    """Path of *path* relative to the ``repro`` package root.

    Files outside the package (tools, tests) return their name; rules
    scoped to package sub-trees simply never match them.
    """
    parts = Path(path).parts
    for i in range(len(parts) - 1, -1, -1):
        if parts[i] == "repro":
            return "/".join(parts[i + 1:])
    return Path(path).name


def _dotted(node: ast.AST) -> str | None:
    """Dotted name of an attribute/name chain, or None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _is_none(node: ast.AST) -> bool:
    return isinstance(node, ast.Constant) and node.value is None


class _SourceVisitor(ast.NodeVisitor):
    """Single-pass collector for all SL rules over one module."""

    def __init__(self, rel_path: str) -> None:
        self.rel = rel_path
        self.findings: list[tuple[str, str, int]] = []  # (code, message, line)
        self.in_tick_path = rel_path.startswith(TICK_PATH_PREFIXES)
        self.in_int_kernel = rel_path in INT_KERNEL_MODULES
        self.rng_allowed = rel_path in DEFAULT_RNG_ALLOW
        self._time_imports: set[str] = set()  # names bound from `from time import ...`

    def _add(self, code: str, message: str, line: int) -> None:
        self.findings.append((code, message, line))

    # -- SL101: stdlib random ---------------------------------------------
    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            if alias.name == "random" or alias.name.startswith("random."):
                self._add("SL101", "import of the stdlib 'random' module", node.lineno)
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module == "random":
            self._add("SL101", "import from the stdlib 'random' module", node.lineno)
        if node.module == "time":
            self._time_imports.update(alias.asname or alias.name for alias in node.names)
        self.generic_visit(node)

    # -- SL102/SL103/SL104: calls -----------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        dotted = _dotted(node.func)
        leaf = dotted.split(".")[-1] if dotted else None

        if leaf == "default_rng":
            unseeded = (not node.args and not node.keywords) or (
                len(node.args) == 1 and _is_none(node.args[0])
            )
            if unseeded:
                self._add("SL102", "np.random.default_rng() without an explicit seed",
                          node.lineno)
            elif not self.rng_allowed:
                self._add("SL103",
                          "direct np.random.default_rng(...) call outside "
                          "repro.utils.rng", node.lineno)

        if self.in_tick_path and dotted:
            bare_clock = dotted in self._time_imports and dotted in _WALL_CLOCK_BARE
            if dotted in _WALL_CLOCK or bare_clock:
                self._add("SL104", f"wall-clock call {dotted}() in a tick-path module",
                          node.lineno)

        self.generic_visit(node)

    # -- SL105: shared-memory lifecycle -----------------------------------
    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        creates: list[int] = []
        closed = unlinked = False
        for sub in ast.walk(node):
            if isinstance(sub, ast.Call):
                dotted = _dotted(sub.func) or ""
                if dotted.split(".")[-1] == "SharedMemory" and any(
                    kw.arg == "create" and isinstance(kw.value, ast.Constant)
                    and kw.value.value is True
                    for kw in sub.keywords
                ):
                    creates.append(sub.lineno)
                if isinstance(sub.func, ast.Attribute):
                    if sub.func.attr == "close":
                        closed = True
                    if sub.func.attr == "unlink":
                        unlinked = True
        if creates and not (closed and unlinked):
            missing = " and ".join(
                name for name, seen in (("close()", closed), ("unlink()", unlinked))
                if not seen
            )
            self._add("SL105",
                      f"class {node.name} creates shared memory but never "
                      f"calls {missing}", creates[0])
        self._check_buffer_views(node)
        self.generic_visit(node)

    def _check_buffer_views(self, node: ast.ClassDef) -> None:
        """SL105, view half: held ``buffer=`` views need a release path.

        A class that stows an ``np.ndarray(..., buffer=...)`` view in an
        attribute (directly, or by appending a view-holding local to an
        attribute list) keeps a live export of the underlying buffer; if
        no method ever *reassigns* that attribute, the export outlives
        the segment and ``SharedMemory.close()`` raises ``BufferError``.
        View-ness propagates through wrapper calls taking a view local
        as a positional argument (``shadow_view(ring, ...)``).
        """
        assigns = [sub for sub in ast.walk(node) if isinstance(sub, ast.Assign)]
        view_locals: set[str] = set()

        def _is_view_expr(expr: ast.AST) -> bool:
            if isinstance(expr, ast.Call):
                if any(kw.arg == "buffer" for kw in expr.keywords):
                    return True
                return any(
                    isinstance(arg, ast.Name) and arg.id in view_locals
                    for arg in expr.args
                )
            return isinstance(expr, ast.Name) and expr.id in view_locals

        changed = True
        while changed:
            changed = False
            for assign in assigns:
                if not _is_view_expr(assign.value):
                    continue
                for target in assign.targets:
                    if isinstance(target, ast.Name) and target.id not in view_locals:
                        view_locals.add(target.id)
                        changed = True

        view_attrs: dict[str, int] = {}  # attr -> first holding line
        rebound_attrs: set[str] = set()
        for assign in assigns:
            holds_view = _is_view_expr(assign.value)
            for target in assign.targets:
                elts = target.elts if isinstance(target, ast.Tuple) else [target]
                for elt in elts:
                    if not (
                        isinstance(elt, ast.Attribute)
                        and isinstance(elt.value, ast.Name)
                        and elt.value.id == "self"
                    ):
                        continue
                    if holds_view and not isinstance(target, ast.Tuple):
                        view_attrs.setdefault(elt.attr, assign.lineno)
                    else:
                        rebound_attrs.add(elt.attr)
        for sub in ast.walk(node):
            if not (
                isinstance(sub, ast.Call)
                and isinstance(sub.func, ast.Attribute)
                and sub.func.attr == "append"
            ):
                continue
            holder = sub.func.value
            if (
                isinstance(holder, ast.Attribute)
                and isinstance(holder.value, ast.Name)
                and holder.value.id == "self"
                and any(
                    isinstance(arg, ast.Name) and arg.id in view_locals
                    for arg in sub.args
                )
            ):
                view_attrs.setdefault(holder.attr, sub.lineno)

        for attr, line in sorted(view_attrs.items(), key=lambda kv: kv[1]):
            if attr not in rebound_attrs:
                self._add("SL105",
                          f"class {node.name} holds buffer view "
                          f"self.{attr} but never reassigns it; add a "
                          f"release path dropping the view before the "
                          f"segment closes", line)

    # -- SL106: float literals in integer-kernel arithmetic ----------------
    def _check_float_operands(self, *operands: ast.AST) -> None:
        for op in operands:
            if isinstance(op, ast.UnaryOp):
                op = op.operand
            if isinstance(op, ast.Constant) and isinstance(op.value, float):
                self._add("SL106",
                          f"float literal {op.value!r} in integer-kernel "
                          f"arithmetic", op.lineno)

    def visit_BinOp(self, node: ast.BinOp) -> None:
        if self.in_int_kernel:
            self._check_float_operands(node.left, node.right)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        if self.in_int_kernel:
            self._check_float_operands(node.value)
        self.generic_visit(node)

    def visit_Compare(self, node: ast.Compare) -> None:
        if self.in_int_kernel:
            self._check_float_operands(node.left, *node.comparators)
        self.generic_visit(node)


def _allowed_codes(line_text: str) -> set[str]:
    """Codes suppressed by a ``# repro-lint: allow=...`` pragma on a line."""
    match = _PRAGMA.search(line_text)
    if not match:
        return set()
    return {code.strip() for code in match.group(1).split(",") if code.strip()}


def lint_source_text(text: str, path: str | Path) -> Iterator[Diagnostic]:
    """Lint one module's source *text*; *path* scopes path-based rules."""
    rel = module_rel_path(path)
    try:
        tree = ast.parse(text, filename=str(path))
    except SyntaxError as exc:
        yield Diagnostic(
            code="SL100", severity=Severity.ERROR,
            message=f"syntax error: {exc.msg}",
            location=Location(path=str(path), line=exc.lineno or 0),
        )
        return
    visitor = _SourceVisitor(rel)
    visitor.visit(tree)
    lines = text.splitlines()
    for code, message, line in sorted(visitor.findings, key=lambda f: (f[2], f[0])):
        line_text = lines[line - 1] if 0 < line <= len(lines) else ""
        if code in _allowed_codes(line_text):
            continue
        info = SOURCE_CODES[code]
        yield Diagnostic(
            code=code, severity=info.severity, message=message,
            location=Location(path=str(path), line=line), hint=info.hint,
        )


def lint_file(path: str | Path) -> list[Diagnostic]:
    """Lint one source file."""
    text = Path(path).read_text(encoding="utf-8")
    return list(lint_source_text(text, path))


def lint_paths(paths) -> LintReport:
    """Lint files and directories (recursing into ``*.py``)."""
    report = LintReport(subject="source")
    for path in paths:
        path = Path(path)
        files = sorted(path.rglob("*.py")) if path.is_dir() else [path]
        for file in files:
            report.extend(lint_file(file))
    return report
