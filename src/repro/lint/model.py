"""Static model checker: one front door for network validation.

:func:`lint_network` runs every model rule (:mod:`repro.lint.rules`)
over a :class:`~repro.core.network.Network` (or the network behind a
:class:`~repro.compass.compile.CompiledNetwork`) and returns a
:class:`~repro.lint.diagnostics.LintReport`.  :func:`check_network` is
the fail-fast form used by ``compass.compile()`` — and, through
``Network.validate()`` / ``Core.validate()``, by every other engine and
I/O path — so a bad model raises one exception type
(:class:`~repro.lint.diagnostics.LintError`) with stable diagnostic
codes before any simulator state is built.

Rule ordering matters: value-range, routing, overflow, and PRNG rules
assume structurally sound arrays, so cores with TN0xx findings are
excluded from the later passes instead of crashing them.
"""

from __future__ import annotations

import numpy as np

from repro.lint import rules
from repro.lint.diagnostics import LintReport, Severity


def _as_network(network):
    """Accept a Network, CompiledNetwork, or CompiledPartition-like."""
    inner = getattr(network, "network", None)
    return inner if inner is not None else network


def lint_core(core, core_id: int | None = None) -> LintReport:
    """Lint one core in isolation (structure, ranges, geometry, PRNG)."""
    report = LintReport(subject=f"core {core_id}" if core_id is not None else "core")
    structural = list(rules.check_core_structure(core, core_id))
    report.extend(structural)
    if any(d.severity >= Severity.ERROR for d in structural):
        return report
    report.extend(rules.check_core_ranges(core, core_id))
    report.extend(rules.check_core_geometry(core, core_id))
    report.extend(rules.check_prng_coordinates(core, core_id))
    return report


def lint_network(network) -> LintReport:
    """Run the full model-rule suite; never raises on a bad model."""
    network = _as_network(network)
    name = getattr(network, "name", "") or "network"
    report = LintReport(subject=name)

    cores = getattr(network, "cores", None)
    if not cores:
        report.add(rules._diag("TN003", "network must contain at least one core"))
        return report

    sound = True
    for core_id, core in enumerate(cores):
        core_report = lint_core(core, core_id)
        report.extend(core_report.diagnostics)
        sound = sound and core_report.ok

    # Network-wide rules need every core structurally sound.
    if sound:
        report.extend(rules.check_network_routing(network))
        report.extend(rules.check_membrane_overflow(network))
    return report


def lint_partition_map(n_cores: int, rank_of_core: np.ndarray,
                       n_ranks: int) -> LintReport:
    """Lint a partition rank map against a network's core count."""
    report = LintReport(subject=f"partition over {n_cores} cores")
    report.extend(rules.check_partition_map(n_cores, rank_of_core, n_ranks))
    return report


def check_network(network, strict: bool = True) -> LintReport:
    """Lint *network* and raise :class:`LintError` on findings.

    With ``strict=True`` (the compile-time hook) any ERROR-severity
    finding raises; warnings are returned in the report for the caller
    to surface.  With ``strict=False`` the report is returned without
    raising regardless of content.
    """
    report = lint_network(network)
    if strict:
        report.raise_for(Severity.ERROR)
    return report


def check_core(core, core_id: int | None = None, strict: bool = True) -> LintReport:
    """Lint one core and raise :class:`LintError` on errors."""
    report = lint_core(core, core_id)
    if strict:
        report.raise_for(Severity.ERROR)
    return report


def check_partition_map(n_cores: int, rank_of_core: np.ndarray, n_ranks: int,
                        strict: bool = True) -> LintReport:
    """Lint a rank map and raise :class:`LintError` on coverage errors."""
    report = lint_partition_map(n_cores, rank_of_core, n_ranks)
    if strict:
        report.raise_for(Severity.ERROR)
    return report


def lint_replica_seeds(seeds, stochastic: bool = True) -> LintReport:
    """Lint a batched engine's per-lane seed vector (TN401, batched form)."""
    report = LintReport(subject=f"replica seeds over {len(seeds)} lanes")
    report.extend(rules.check_replica_seeds(seeds, stochastic))
    return report


def check_replica_seeds(seeds, stochastic: bool = True,
                        strict: bool = True) -> LintReport:
    """Lint replica seeds; duplicate-seed findings are warnings, so the
    strict form raises only if a future rule escalates to ERROR."""
    report = lint_replica_seeds(seeds, stochastic)
    if strict:
        report.raise_for(Severity.ERROR)
    return report
