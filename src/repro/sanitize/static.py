"""Static tick-protocol checker: AST diff of engine sources vs protocol.

Parses :mod:`repro.compass.parallel` and extracts what the code
*actually does* with the shared regions — which names bind
``np.ndarray(..., buffer=shm.buf)`` views, which subscript reads and
writes hit them, and where each access sits relative to the tick
barrier (the coordinator's send loop / recv loop, the worker's
``conn.recv()`` / reply ``conn.send(tick)``).  The result is diffed
against the declarative :data:`~repro.sanitize.protocol.PARALLEL_PROTOCOL`:

* SL200 — a buffer-backed view binding that does not resolve to a
  declared region;
* SL201 — an access outside the declared (role, phase, kind) set;
* SL202 — a coordinator access inside the barrier window (between
  releasing the workers and collecting every reply);
* SL203 — a worker access after its reply send (the region is the
  coordinator's again);
* SL204 — a declared access the source never performs (stale table);
* SL205 — a missing barrier edge (send/recv loop or worker recv/reply
  gone from the source).

Resolution is deliberately syntactic and conservative: view-ness
propagates through direct aliasing (``row = ring[slot]``), through the
known wrapper :func:`~repro.sanitize.dynamic.shadow_view`, and through
the coordinator's ``self._attr.append(view)`` pattern.  Anything the
extractor cannot resolve is reported rather than ignored.  Findings
honour the same ``# repro-lint: allow=CODE`` pragma as the source lint,
so sanctioned exceptions (the fault-injection write) stay auditable
in-source.

The batched engine is single-process — its phase protocol is enforced
by the dynamic layer; here it only gets the SL200 binding sweep, along
with ``obs/flight.py`` and ``runtime/serving.py``.
"""

from __future__ import annotations

import ast
from pathlib import Path

from repro.lint.diagnostics import Diagnostic, LintReport, Location, Severity
from repro.lint.source import _allowed_codes
from repro.sanitize.protocol import PARALLEL_PROTOCOL, SANITIZE_CODES, TickProtocol

#: Call names that return a view of their first argument unchanged.
VIEW_WRAPPERS = {"shadow_view"}


def _preorder(node: ast.AST):
    """Source-order traversal (ast.walk is breadth-first)."""
    yield node
    for child in ast.iter_child_nodes(node):
        yield from _preorder(child)


def _leaf(func: ast.AST) -> str | None:
    """Trailing name of a call target (``np.ndarray`` -> ``ndarray``)."""
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return None


def _buffer_kw(call: ast.Call) -> ast.AST | None:
    for kw in call.keywords:
        if kw.arg == "buffer":
            return kw.value
    return None


def _const_subscript_key(node: ast.AST) -> str | None:
    """String key of ``name["key"]``-style subscripts."""
    if isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Constant):
        if isinstance(node.slice.value, str):
            return node.slice.value
    return None


def _self_attr(node: ast.AST) -> str | None:
    """Attribute name of a ``self.X`` expression."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _max_lineno(node: ast.AST) -> int:
    return max(
        (n.lineno for n in ast.walk(node) if hasattr(n, "lineno")),
        default=node.lineno,
    )


class _Findings:
    """Finding accumulator plus the observed-access set for SL204."""

    def __init__(self) -> None:
        self.items: list[tuple[str, str, int]] = []  # (code, message, line)
        self.observed: set[tuple[str, str, str, str]] = set()

    def add(self, code: str, message: str, line: int) -> None:
        self.items.append((code, message, line))

    def observe(self, region: str, role: str, phase: str, kind: str) -> None:
        self.observed.add((region, role, phase, kind.lower()))


def _access_kind(node: ast.Subscript) -> str:
    return "W" if isinstance(node.ctx, (ast.Store, ast.Del)) else "R"


def _check_access(
    region: str, role: str, phase: str, kind: str, line: int,
    protocol: TickProtocol, out: _Findings,
) -> None:
    """Record one observed access and diff it against the protocol."""
    out.observe(region, role, phase, kind)
    spec = protocol.region(region)
    if spec is None or spec.opaque:
        return
    if phase == "barrier-window":
        out.add("SL202",
                f"coordinator {kind} access to {region!r} inside the "
                "barrier window (between worker release and reply "
                "collection)", line)
        return
    if phase == "after-reply":
        out.add("SL203",
                f"worker {kind} access to {region!r} after the barrier "
                "reply", line)
        return
    if not spec.static_allows(role, phase, kind):
        out.add("SL201",
                f"{role} {kind} access to {region!r} in phase {phase!r} "
                "is outside the declared protocol", line)


class _Scope:
    """View/alias bindings for one function scope."""

    def __init__(self) -> None:
        self.shm_vars: dict[str, str] = {}  # local -> region (SharedMemory handle)
        self.views: dict[str, str] = {}     # local -> region (ndarray view/alias)

    def resolve_buffer(self, node: ast.AST) -> str | None:
        """Region of a ``buffer=...`` argument, or None if unresolvable."""
        if isinstance(node, ast.Attribute) and node.attr == "buf":
            owner = node.value
            if isinstance(owner, ast.Name):
                return self.shm_vars.get(owner.id)
            key = _const_subscript_key(owner)
            if key is not None:
                return key
        return None


def _bind_scope(
    scope_node: ast.AST, scope: _Scope, attr_map: dict[str, str],
    protocol: TickProtocol, out: _Findings, path_label: str,
) -> None:
    """Pass 1: collect view bindings and aliases, flag SL200 on the way."""
    for node in _preorder(scope_node):
        if not (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)):
            # self._attr.append(view): the coordinator's retention pattern.
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "append"
                and node.args
                and isinstance(node.args[0], ast.Name)
                and node.args[0].id in scope.views
            ):
                attr = _self_attr(node.func.value)
                if attr is not None:
                    attr_map[attr] = scope.views[node.args[0].id]
            continue
        target = node.targets[0].id
        value = node.value
        if isinstance(value, ast.IfExp):
            value = value.body
        if isinstance(value, ast.Call):
            leaf = _leaf(value.func)
            if leaf == "_attach" and value.args:
                key = _const_subscript_key(value.args[0])
                if key is not None:
                    scope.shm_vars[target] = key
                continue
            if leaf == "ndarray":
                buffer = _buffer_kw(value)
                if buffer is None:
                    continue
                region = scope.resolve_buffer(buffer)
                if region is None:
                    out.add("SL200",
                            "np.ndarray buffer binding does not resolve to "
                            f"a shared region in {path_label}", value.lineno)
                elif protocol.region(region) is None:
                    out.add("SL200",
                            f"buffer binding to undeclared region {region!r}",
                            value.lineno)
                else:
                    scope.views[target] = region
                continue
            if leaf in VIEW_WRAPPERS and value.args:
                first = value.args[0]
                if isinstance(first, ast.Name) and first.id in scope.views:
                    scope.views[target] = scope.views[first.id]
                continue
        if isinstance(value, ast.Subscript):
            region, _ = _resolve_subscript(value, scope, attr_map)
            if region is not None:
                scope.views[target] = region


def _resolve_subscript(
    node: ast.Subscript, scope: _Scope, attr_map: dict[str, str],
) -> tuple[str | None, bool]:
    """(region, is-data-access) of a subscript chain, else (None, False).

    A one-level subscript of a ``self._attr`` *list* of views (e.g.
    ``self._stats[rank]``) selects a view without touching shared data;
    only deeper chains — or any subscript of a view-typed local — are
    data accesses.
    """
    depth = 0
    cur: ast.AST = node
    while isinstance(cur, ast.Subscript):
        depth += 1
        cur = cur.value
    if isinstance(cur, ast.Name) and cur.id in scope.views:
        return scope.views[cur.id], True
    attr = _self_attr(cur)
    if attr is not None and attr in attr_map:
        return attr_map[attr], depth >= 2
    return None, False


def _collect_accesses(
    scope_node: ast.AST, scope: _Scope, attr_map: dict[str, str],
    phase_of, role: str, protocol: TickProtocol, out: _Findings,
) -> None:
    """Pass 2: diff every resolvable subscript against the protocol."""
    seen: set[tuple] = set()
    for node in _preorder(scope_node):
        if not isinstance(node, ast.Subscript):
            continue
        region, is_access = _resolve_subscript(node, scope, attr_map)
        if region is None or not is_access:
            continue
        kind = _access_kind(node)
        phase = phase_of(node.lineno)
        key = (region, kind, phase, node.lineno)
        if key in seen:
            continue
        seen.add(key)
        _check_access(region, role, phase, kind, node.lineno, protocol, out)


def _check_worker(
    worker: ast.FunctionDef, protocol: TickProtocol, out: _Findings,
) -> None:
    loop = next(
        (n for n in _preorder(worker) if isinstance(n, ast.While)), None
    )
    if loop is None:
        out.add("SL205", "_worker_main has no tick loop", worker.lineno)
        return
    recv_line = reply_line = None
    for node in _preorder(loop):
        if not isinstance(node, ast.Call):
            continue
        leaf = _leaf(node.func)
        if leaf == "recv" and recv_line is None:
            recv_line = node.lineno
        if (
            leaf == "send"
            and len(node.args) == 1
            and isinstance(node.args[0], ast.Name)
            and node.args[0].id == "tick"
        ):
            reply_line = node.lineno
    if recv_line is None:
        out.add("SL205", "worker tick loop never receives the barrier tick",
                loop.lineno)
    if reply_line is None:
        out.add("SL205", "worker tick loop never sends the barrier reply",
                loop.lineno)

    scope = _Scope()
    _bind_scope(worker, scope, {}, protocol, out, "_worker_main")
    loop_end = _max_lineno(loop)

    def phase_of(line: int) -> str:
        if loop.lineno <= line <= loop_end:
            if reply_line is not None and line > reply_line:
                return "after-reply"
            return "tick"
        return "setup"

    _collect_accesses(worker, scope, {}, phase_of, "worker", protocol, out)


def _check_coordinator(
    cls: ast.ClassDef, protocol: TickProtocol, out: _Findings,
) -> None:
    methods = {
        n.name: n for n in cls.body if isinstance(n, ast.FunctionDef)
    }
    spawn = methods.get("_spawn")
    step = methods.get("step_arrays")
    if spawn is None or step is None:
        out.add("SL205",
                "coordinator is missing _spawn or step_arrays", cls.lineno)
        return

    attr_map: dict[str, str] = {}
    spawn_scope = _Scope()
    _bind_scope(spawn, spawn_scope, attr_map, protocol, out, "_spawn")
    _collect_accesses(
        spawn, spawn_scope, attr_map, lambda line: "init",
        "coordinator", protocol, out,
    )

    send_loop = recv_loop = None
    for stmt in step.body:
        for node in _preorder(stmt):
            if not isinstance(node, ast.Call):
                continue
            leaf = _leaf(node.func)
            if leaf == "send" and send_loop is None and isinstance(stmt, ast.For):
                send_loop = stmt
            if leaf in ("recv", "_barrier_recv") and isinstance(stmt, ast.For):
                if recv_loop is None and stmt is not send_loop:
                    recv_loop = stmt
    if send_loop is None:
        out.add("SL205", "step_arrays has no worker-release send loop",
                step.lineno)
    if recv_loop is None:
        out.add("SL205", "step_arrays has no barrier reply-collection loop",
                step.lineno)

    if send_loop is not None and recv_loop is not None:
        window = (send_loop.lineno, _max_lineno(recv_loop))

        def phase_of(line: int) -> str:
            if line < window[0]:
                return "scatter"
            if line <= window[1]:
                return "barrier-window"
            return "gather"
    else:
        def phase_of(line: int) -> str:
            return "scatter"

    step_scope = _Scope()
    _bind_scope(step, step_scope, attr_map, protocol, out, "step_arrays")
    _collect_accesses(
        step, step_scope, attr_map, phase_of, "coordinator", protocol, out,
    )

    for name, method in methods.items():
        if name in ("_spawn", "step_arrays"):
            continue
        other_scope = _Scope()
        _bind_scope(method, other_scope, attr_map, protocol, out, name)
        _collect_accesses(
            method, other_scope, attr_map,
            lambda line, name=name: f"other:{name}",
            "coordinator", protocol, out,
        )


def _check_stale(protocol: TickProtocol, out: _Findings) -> None:
    """SL204: declared accesses the source never performs."""
    for spec in protocol.regions.values():
        if spec.opaque:
            continue
        for access in spec.accesses:
            for letter in access.kind:
                if (spec.name, access.role, access.phase, letter) not in out.observed:
                    out.add("SL204",
                            f"protocol declares {access.role} {letter.upper()} "
                            f"access to {spec.name!r} in phase "
                            f"{access.phase!r} but the source never performs "
                            "it", 1)


def check_parallel_text(
    text: str, path: str | Path = "parallel.py",
    protocol: TickProtocol = PARALLEL_PROTOCOL,
) -> LintReport:
    """Check one parallel-engine source text against *protocol*."""
    report = LintReport(subject="sanitize-static")
    try:
        tree = ast.parse(text, filename=str(path))
    except SyntaxError as exc:
        report.add(Diagnostic(
            code="SL100", severity=Severity.ERROR,
            message=f"syntax error: {exc.msg}",
            location=Location(path=str(path), line=exc.lineno or 0),
        ))
        return report

    out = _Findings()
    worker = next(
        (n for n in tree.body
         if isinstance(n, ast.FunctionDef) and n.name == "_worker_main"),
        None,
    )
    cls = next(
        (n for n in tree.body
         if isinstance(n, ast.ClassDef) and n.name == "ParallelCompassSimulator"),
        None,
    )
    if worker is None:
        out.add("SL205", "engine source has no _worker_main", 1)
    else:
        _check_worker(worker, protocol, out)
    if cls is None:
        out.add("SL205", "engine source has no ParallelCompassSimulator", 1)
    else:
        _check_coordinator(cls, protocol, out)
    _check_stale(protocol, out)

    _emit(out, text, path, report)
    return report


def sweep_buffer_bindings(text: str, path: str | Path) -> LintReport:
    """SL200 sweep: shm-buffer ndarray bindings outside the known engine.

    Only ``buffer=<expr>.buf`` bindings count — a real shared-memory
    buffer export.  (FlightRecorder's ``buffer=buf`` over an opaque
    caller buffer is mediation, not a region binding.)
    """
    report = LintReport(subject="sanitize-static")
    try:
        tree = ast.parse(text, filename=str(path))
    except SyntaxError:
        return report  # the source lint owns SL100
    out = _Findings()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and _leaf(node.func) == "ndarray":
            buffer = _buffer_kw(node)
            if (
                buffer is not None
                and isinstance(buffer, ast.Attribute)
                and buffer.attr == "buf"
            ):
                out.add("SL200",
                        "shared-memory buffer view bound outside the "
                        "declared engine protocol", node.lineno)
    _emit(out, text, path, report)
    return report


def _emit(out: _Findings, text: str, path: str | Path, report: LintReport) -> None:
    """Render raw findings into diagnostics, honouring allow pragmas."""
    lines = text.splitlines()
    for code, message, line in sorted(out.items, key=lambda f: (f[2], f[0])):
        line_text = lines[line - 1] if 0 < line <= len(lines) else ""
        if code in _allowed_codes(line_text):
            continue
        info = SANITIZE_CODES[code]
        report.add(Diagnostic(
            code=code, severity=info.severity, message=message,
            location=Location(path=str(path), line=line), hint=info.hint,
        ))


def check_protocol_sources(extra_paths=()) -> LintReport:
    """Check the installed engine sources against the declared protocol.

    The parallel engine gets the full extraction; the batched engine,
    the flight ring, and the serving runtime get the SL200 binding
    sweep (their sharing is in-process and dynamically enforced).
    """
    import repro.compass.batched as batched_mod
    import repro.compass.parallel as parallel_mod
    import repro.obs.flight as flight_mod
    import repro.runtime.serving as serving_mod

    parallel_path = Path(parallel_mod.__file__)
    report = check_parallel_text(
        parallel_path.read_text(encoding="utf-8"), parallel_path
    )
    sweep = [
        Path(batched_mod.__file__),
        Path(flight_mod.__file__),
        Path(serving_mod.__file__),
        *map(Path, extra_paths),
    ]
    for path in sweep:
        report.extend(sweep_buffer_bindings(path.read_text(encoding="utf-8"), path))
    return report


__all__ = [
    "check_parallel_text", "check_protocol_sources", "sweep_buffer_bindings",
]
