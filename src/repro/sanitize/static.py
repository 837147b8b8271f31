"""Static tick-protocol checker: AST diff of engine sources vs protocol.

Parses :mod:`repro.compass.parallel` and extracts what the code
*actually does* with the shared regions — which names bind
``np.ndarray(..., buffer=shm["region"].buf)`` views, which subscript
reads and writes hit them, and where each access sits relative to the
tick barrier (the caller's ``_release`` / ``_await_done`` in
``step_arrays``, a child rank's ``go`` acquire / ``done.release()`` in
``_rank_main``).  The result is diffed against the declarative
:data:`~repro.sanitize.protocol.PARALLEL_PROTOCOL`:

* SL200 — a buffer-backed view binding that does not resolve to a
  declared region;
* SL201 — an access outside the declared (role, phase, kind) set;
* SL202 — a caller access inside the barrier window (between releasing
  the peers and taking every ``done``), where the caller is rank 0 and
  nothing else;
* SL203 — a child rank's access after its ``done`` (the region is the
  caller's again);
* SL204 — a declared access the source never performs (stale table);
* SL205 — a missing barrier edge (release / await gone from
  ``step_arrays``, acquire / release gone from the rank loop).

Resolution is deliberately syntactic and conservative.  Views are born
in ``_region_views`` (one ``np.ndarray`` binding per region, collected
into per-region lists) and live as the attributes a
``... = _region_views(...)`` unpacking names — ``rings`` / ``spikes`` /
``stats`` on whichever object; from there view-ness propagates through
direct aliasing (``row = ring[slot]``, tuple assignments, a ``for`` over
``zip`` of view lists) and the known wrapper
:func:`~repro.sanitize.dynamic.shadow_view`.  Whose slab ``rings[dst]``
is cannot be told from the source, so a peer's access is checked as the
``rank`` role here and as ``peer`` by the dynamic layer.  Findings
honour the same ``# repro-lint: allow=CODE`` pragma as the source lint,
so sanctioned exceptions (the fault-injection writes) stay auditable
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
#: The function every region view is bound in.
BINDER = "_region_views"


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


def _calls(node: ast.AST, *leaves: str):
    """Calls under *node* whose target's trailing name is one of *leaves*."""
    return [n for n in _preorder(node)
            if isinstance(n, ast.Call) and _leaf(n.func) in leaves]


def _shm_buffer_key(call: ast.Call) -> tuple[bool, str | None]:
    """(binds a ``<expr>.buf`` buffer, its ``["region"]`` key if constant)."""
    buffer = next((kw.value for kw in call.keywords if kw.arg == "buffer"), None)
    if not (isinstance(buffer, ast.Attribute) and buffer.attr == "buf"):
        return False, None
    owner = buffer.value
    if (isinstance(owner, ast.Subscript) and isinstance(owner.slice, ast.Constant)
            and isinstance(owner.slice.value, str)):
        return True, owner.slice.value
    return True, None


def _max_lineno(node: ast.AST) -> int:
    return max((n.lineno for n in ast.walk(node) if hasattr(n, "lineno")),
               default=node.lineno)


def _elts(node: ast.AST) -> list[ast.AST]:
    return list(node.elts) if isinstance(node, ast.Tuple) else [node]


class _Findings:
    """Finding accumulator plus the observed-access set for SL204."""

    def __init__(self) -> None:
        self.items: list[tuple[str, str, int]] = []  # (code, message, line)
        self.observed: set[tuple[str, str, str, str]] = set()

    def add(self, code: str, message: str, line: int) -> None:
        self.items.append((code, message, line))


def _bind_views(tree: ast.Module, protocol: TickProtocol, out: _Findings) -> dict[str, str]:
    """SL200 over every shm binding; return ``{view-list attribute: region}``.

    The map is read off the binder: which region each of its returned
    lists collects, then which attributes a ``= _region_views(...)``
    unpacking gives them to.
    """
    for call in _calls(tree, "ndarray"):
        binds, key = _shm_buffer_key(call)
        if binds and key is None:
            out.add("SL200", "np.ndarray buffer binding does not resolve to a "
                    "shared region", call.lineno)
        elif binds and protocol.region(key) is None:
            out.add("SL200", f"buffer binding to undeclared region {key!r}", call.lineno)

    binder = next((n for n in tree.body
                   if isinstance(n, ast.FunctionDef) and n.name == BINDER), None)
    if binder is None:
        out.add("SL200", f"engine source has no {BINDER}", 1)
        return {}
    local: dict[str, str] = {}  # binder local (view or list of views) -> region
    returned: list[str | None] = []
    for node in _preorder(binder):
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
            call, target = node.value, node.targets[0]
            if not isinstance(target, ast.Name):
                continue
            if _leaf(call.func) == "ndarray":
                key = _shm_buffer_key(call)[1]
                if key is not None:
                    local[target.id] = key
            elif (_leaf(call.func) in VIEW_WRAPPERS and call.args
                  and isinstance(call.args[0], ast.Name) and call.args[0].id in local):
                local[target.id] = local[call.args[0].id]
        elif (isinstance(node, ast.Call) and _leaf(node.func) == "append" and node.args
              and isinstance(node.args[0], ast.Name) and node.args[0].id in local
              and isinstance(node.func.value, ast.Name)):
            local[node.func.value.id] = local[node.args[0].id]
        elif isinstance(node, ast.Return) and node.value is not None:
            returned = [local.get(e.id) if isinstance(e, ast.Name) else None
                        for e in _elts(node.value)]
    attrs: dict[str, str] = {}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
                and _leaf(node.value.func) == BINDER):
            for target, region in zip(_elts(node.targets[0]), returned):
                if isinstance(target, ast.Attribute) and region is not None:
                    attrs[target.attr] = region
    return attrs


class _Scope:
    """One function's accesses, resolved through *attrs* and local aliases."""

    def __init__(self, attrs: dict[str, str]) -> None:
        self.attrs = attrs
        self.views: dict[str, str] = {}  # local alias -> region

    def resolve(self, node: ast.AST) -> tuple[str | None, bool]:
        """(region, touches shared data) of an expression, else (None, False).

        A one-level subscript of a view *list* (``self.stats[rank]``)
        selects a view without touching shared data; a deeper chain, or
        any subscript of a view-typed local, is a data access.
        """
        depth = 0
        while isinstance(node, ast.Subscript):
            depth += 1
            node = node.value
        if isinstance(node, ast.Name) and node.id in self.views:
            return self.views[node.id], depth >= 1
        if isinstance(node, ast.Attribute) and node.attr in self.attrs:
            return self.attrs[node.attr], depth >= 2
        return None, False

    def bind(self, fn: ast.AST) -> None:
        """Collect the local names that alias a view (or a list of them)."""
        for node in _preorder(fn):
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                pairs = zip(_elts(node.targets[0]), _elts(node.value))
            elif (isinstance(node, ast.For) and isinstance(node.iter, ast.Call)
                  and _leaf(node.iter.func) == "zip"):
                pairs = zip(_elts(node.target), node.iter.args)
            else:
                continue
            for target, value in pairs:
                region = self.resolve(value)[0]
                if isinstance(target, ast.Name) and region is not None:
                    self.views[target.id] = region

    def check(self, fn: ast.AST, role: str, phase_of, protocol, out: _Findings) -> None:
        """Diff every resolvable subscript under *fn* against the protocol."""
        self.bind(fn)
        seen: set[tuple] = set()
        for node in _preorder(fn):
            if not isinstance(node, ast.Subscript):
                continue
            region, is_access = self.resolve(node)
            spec = protocol.region(region) if is_access else None
            if spec is None or spec.opaque:
                continue
            kind = "W" if isinstance(node.ctx, (ast.Store, ast.Del)) else "R"
            phase = phase_of(node.lineno)
            if (region, kind, node.lineno) in seen:
                continue
            seen.add((region, kind, node.lineno))
            out.observed.add((region, role, phase, kind.lower()))
            if phase == "barrier-window":
                out.add("SL202", f"caller {kind} access to {region!r} inside the "
                        "barrier window (between go and done)", node.lineno)
            elif phase == "after-done":
                out.add("SL203", f"rank {kind} access to {region!r} after its "
                        "done", node.lineno)
            elif not spec.static_allows(role, phase, kind):
                out.add("SL201", f"{role} {kind} access to {region!r} in phase "
                        f"{phase!r} is outside the declared protocol", node.lineno)


def _check_rank_loop(fn: ast.FunctionDef, attrs, protocol, out: _Findings) -> None:
    """The child rank's loop: both barrier halves, nothing after ``done``."""
    loop = next((n for n in _preorder(fn) if isinstance(n, ast.While)), None)
    if loop is None:
        out.add("SL205", f"{fn.name} has no tick loop", fn.lineno)
        return
    if not _calls(loop, "acquire", "_spin"):
        out.add("SL205", "rank loop never takes go", loop.lineno)
    done = [c.lineno for c in _calls(loop, "release")
            if isinstance(c.func, ast.Attribute) and _leaf(c.func.value) == "done"]
    if not done:
        out.add("SL205", "rank loop never posts done", loop.lineno)
    last, end = max(done, default=_max_lineno(loop)), _max_lineno(loop)

    def phase_of(line: int) -> str:
        if not loop.lineno <= line <= end:
            return "setup"
        return "after-done" if line > last else "tick"

    _Scope(attrs).check(fn, "rank", phase_of, protocol, out)


def _check_caller(cls: ast.ClassDef, attrs, protocol, out: _Findings) -> None:
    """The simulator: inject | barrier window | gather in ``step_arrays``."""
    methods = {n.name: n for n in cls.body if isinstance(n, ast.FunctionDef)}
    step = methods.get("step_arrays")
    if step is None:
        out.add("SL205", f"{cls.name} has no step_arrays", cls.lineno)
        return
    release = [c.lineno for c in _calls(step, "_release")]
    wait = [_max_lineno(s) for s in step.body if _calls(s, "_await_done")]
    if not release:
        out.add("SL205", "step_arrays never releases the peers (go)", step.lineno)
    if not wait:
        out.add("SL205", "step_arrays never waits for the peers (done)", step.lineno)
    window = (min(release), max(wait)) if release and wait else None

    def step_phase(line: int) -> str:
        if window is None or line < window[0]:
            return "inject"
        return "barrier-window" if line <= window[1] else "gather"

    for name, method in methods.items():
        phase_of = step_phase if method is step else (lambda line, n=name: f"other:{n}")
        _Scope(attrs).check(method, "caller", phase_of, protocol, out)


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
    attrs = _bind_views(tree, protocol, out)
    top = {n.name: n for n in tree.body if isinstance(n, (ast.FunctionDef, ast.ClassDef))}
    for name, check in (("_rank_main", _check_rank_loop),
                        ("ParallelCompassSimulator", _check_caller)):
        if name in top:
            check(top[name], attrs, protocol, out)
        else:
            out.add("SL205", f"engine source has no {name}", 1)
    if "_Rank" in top:
        for method in top["_Rank"].body:
            if isinstance(method, ast.FunctionDef):
                phase = "tick" if method.name == "tick" else "setup"
                _Scope(attrs).check(method, "rank", lambda line, p=phase: p, protocol, out)
    # SL204: declared accesses the source never performs (``peer``
    # entries are the dynamic layer's: see the module docstring).
    for spec in protocol.regions.values():
        for access in () if spec.opaque else spec.accesses:
            for letter in access.kind:
                if access.role != "peer" and (
                        spec.name, access.role, access.phase, letter) not in out.observed:
                    out.add("SL204", f"protocol declares {access.role} {letter.upper()} "
                            f"access to {spec.name!r} in phase {access.phase!r} but "
                            "the source never performs it", 1)
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
    for call in _calls(tree, "ndarray"):
        if _shm_buffer_key(call)[0]:
            out.add("SL200", "shared-memory buffer view bound outside the "
                    "declared engine protocol", call.lineno)
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
