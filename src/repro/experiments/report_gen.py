"""EXPERIMENTS.md's tables, generated.

``python -m repro report --output EXPERIMENTS.md`` rewrites every table
between its ``<!-- report:KEY -->`` and ``<!-- /report -->`` markers and
leaves the prose around them as written; on a path that does not exist
yet it writes every table under its own heading, markers included, and
without ``--output`` it prints that document.

Each row ends in two cells: how it was made and the command that
prints its numbers.  A ``modelled`` row comes from the calibrated
models and reproduces to the digit anywhere; an ``executed`` row comes
from a run of the simulator and is stamped with the commit and host
that ran it.
"""

from __future__ import annotations

import os
import platform
import re
import subprocess
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from repro.analysis.report import render_markdown_table
from repro.core import params
from repro.experiments import (
    ablation_energy,
    equivalence,
    fig5,
    fig6,
    fig7,
    fig8,
    future_systems,
    voltage,
)

#: The command of a row that only this report prints.
REPORT = "python -m repro report"

_BLOCK = re.compile(r"<!-- report:(\S+) -->\n.*?<!-- /report -->", re.S)


@dataclass(frozen=True)
class Table:
    """One table of the record: its marker key, heading and row sources.

    *modelled* and *executed* each return rows whose last cell is the
    command that prints them; the executed ones run the simulator.
    """

    key: str
    title: str
    headers: tuple[str, ...]
    modelled: Callable[[], list[list]] = list
    executed: Callable[[], list[list]] = list


def _row(row: list, source: str) -> list:
    *cells, command = row
    return [*cells, source, f"`{command}`"]


def modelled_rows(table: Table) -> list[list]:
    """*table*'s modelled rows as rendered, source and command included."""
    return [_row(row, "modelled") for row in table.modelled()]


def render_table(table: Table) -> str:
    """*table* in markdown: its modelled rows, then its executed ones."""
    rows = modelled_rows(table)
    executed = table.executed()
    if executed:
        stamp = f"executed @ {_commit()} on {_host()}"
        rows += [_row(row, stamp) for row in executed]
    return render_markdown_table([*table.headers, "source", "command"], rows)


def _commit() -> str:
    """HEAD's short hash, ``+dirty`` when ``src/`` differs from it."""
    def git(*args):
        try:
            done = subprocess.run(["git", *args], capture_output=True, text=True,
                                  timeout=30, cwd=Path(__file__).parent, check=False)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    head = git("rev-parse", "--short", "HEAD")
    if head is None:
        return "unknown commit"
    return head + ("+dirty" if git("status", "--porcelain", "--", "../..") else "")


def _host() -> str:
    """The CPU model and the number of CPUs."""
    model = platform.machine() or "unknown CPU"
    try:
        with open("/proc/cpuinfo") as f:
            model = next(
                (line.split(":", 1)[1].strip() for line in f if line.startswith("model name")),
                model,
            )
    except OSError:
        pass
    return f"{model}, {os.cpu_count()} CPUs"


# -- TAB1 ----------------------------------------------------------------------
def _tab1() -> list[list]:
    from repro.hardware.energy import EnergyModel
    from repro.hardware.power import measure_power

    h = fig5.headline_points()
    model = EnergyModel()
    counts = model.workload_counts_per_tick(20.0, 128.0)
    active = model.active_energy_per_tick_j(
        counts["synaptic_events"], counts["neuron_updates"], counts["spikes"], counts["hops"],
    )
    truth = active * params.REAL_TIME_HZ + model.passive_power_w
    adc = measure_power(active, model.passive_power_w, 1000).mean_power_w
    return [
        ["total power, 20 Hz x 128 syn, real time", "65 mW",
         f"{h['power_mw_20hz_128syn']:.1f} mW", "python -m repro headline"],
        ["GSOPS/W, same point, real time", "46",
         f"{h['gsops_per_watt_real_time']:.1f}", "python -m repro headline"],
        ["GSOPS/W, same network at ~5x", "81",
         f"{h['gsops_per_watt_5x']:.1f}", "python -m repro headline"],
        ["GSOPS/W, 200 Hz x 256 syn", ">400",
         f"{h['gsops_per_watt_200hz_256syn']:.0f}", "python -m repro headline"],
        ["power density", "~20 mW/cm^2",
         f"{h['power_density_mw_per_cm2']:.1f} mW/cm^2", "python -m repro headline"],
        ["active energy, 20 Hz x 128 syn", "~10 pJ per synaptic event",
         f"{active * 1e6:.1f} uJ/tick = "
         f"{active / counts['synaptic_events'] * 1e12:.1f} pJ per event", REPORT],
        ["ADC measurement pipeline error", "3 % calibration",
         f"{abs(adc - truth) / truth * 100:.2f} % vs model truth", REPORT],
    ]


# -- FIG5 ----------------------------------------------------------------------
def _monotone(grid, rows: str, cols: str) -> str:
    moves = [name for name, ok in ((rows, grid.monotone_rows()), (cols, grid.monotone_cols()))
             if ok]
    return "monotone in " + " and ".join(moves) if moves else "not monotone"


def _fig5() -> list[list]:
    from repro.hardware.timing import TimingModel

    a, b, c = fig5.fig5a_gsops(), fig5.fig5b_max_frequency(), fig5.fig5c_frequency_vs_voltage()
    d, e = fig5.fig5d_energy_per_tick(), fig5.fig5e_efficiency()
    f = fig5.fig5f_efficiency_vs_voltage()
    v_lo, v_hi = c.rows[0], c.rows[-1]
    worst = TimingModel(fig5.FIG5_VOLTAGE).max_frequency_for_workload_khz(1000.0, 256.0)
    return [
        ["(a) GSOPS vs (rate, syn)", "grows with both axes, peak at 200 Hz x 256 syn",
         f"{_monotone(a, 'rate', 'synapses')}; peak {a.max:.1f} GSOPS at "
         f"{a.rows[-1]:g} Hz x {a.cols[-1]:g} syn", "python -m repro fig5 a"],
        ["(b) max tick freq vs (rate, syn)", ">1 kHz when load is light",
         f"{b.corner(False, False):.2f} kHz light-load ceiling; {b.corner(True, True):.2f} kHz "
         f"at {b.rows[-1]:g} Hz x {b.cols[-1]:g}; {worst:.2f} kHz at 1 kHz firing x 256 syn",
         "python -m repro fig5 b"],
        ["(c) max tick freq vs (V, syn)", "speed increases with voltage",
         f"{'monotone' if c.monotone_rows() else 'not monotone'} in V: "
         f"{c.corner(False, False):.1f} kHz @{v_lo:.2f} V -> {c.corner(True, False):.1f} kHz "
         f"@{v_hi:.2f} V ({c.cols[0]:g} active syn, {fig5.FIG5C_RATE_HZ:g} Hz)",
         "python -m repro fig5 c"],
        ["(d) energy/tick vs (rate, syn)", "highest at high rate+density",
         f"{_monotone(d, 'rate', 'synapses')}; {d.corner(False, False):.1f} uJ light corner -> "
         f"{d.corner(True, True):.1f} uJ at {d.rows[-1]:g} Hz x {d.cols[-1]:g}",
         "python -m repro fig5 d"],
        ["(e) GSOPS/W vs (rate, syn)", "large fraction >100; >400 upper right",
         f"{(e.values > 100).mean() * 100:.0f} % of grid >100; {e.corner(True, True):.0f} "
         "at upper-right corner", "python -m repro fig5 e"],
        ["(f) GSOPS/W vs (V, syn)", "maximized at low voltage",
         f"{'decreasing' if f.monotone_rows(increasing=False) else 'not decreasing'} in V: "
         f"{f.corner(False, True):.0f} @{v_lo:.2f} V vs {f.corner(True, True):.0f} "
         f"@{v_hi:.2f} V ({f.cols[-1]:g} syn, {fig5.FIG5C_RATE_HZ:g} Hz)",
         "python -m repro fig5 f"],
    ]


def _fig5_executed() -> list[list]:
    r = fig5.empirical_validation()
    syn, want = r["measured_syn_events_per_tick"], r["analytic_syn_events_per_tick"]
    return [[
        "cross-check: a scaled recurrent network simulated on TrueNorth",
        f"{r['target_rate_hz']:g} Hz target rate",
        f"{syn:.0f} SOPs/tick vs {want:.0f} analytic ({(syn / want - 1) * 100:+.0f} %); "
        f"{r['measured_rate_hz']:.1f} Hz", "python -m repro characterize",
    ]]


# -- FIG6 / FIG7 / FIG8 ------------------------------------------------------------
_FIG6_PAPER = {
    "speedup_bgq": ("(a) speedup vs 32-host BG/Q", "~1 order of magnitude", "x"),
    "energy_bgq": ("(b) energy vs BG/Q", "~5 orders", ""),
    "speedup_x86": ("(c) speedup vs dual x86", "2-3 orders", "x"),
    "energy_x86": ("(d) energy vs x86", "~5 orders", ""),
}


def _fig6() -> list[list]:
    rows = []
    for name, s in fig6.fig6_summary().items():
        panel, paper, unit = _FIG6_PAPER[name]
        measured = (f"{s['min']:.3g}{unit} - {s['max']:.3g}{unit} "
                    f"({s['orders_min']:.1f}-{s['orders_max']:.1f} orders)")
        rows.append([panel, paper, measured, "python -m repro fig6"])
    return rows


def _fig7() -> list[list]:
    return [
        [p.app, p.platform, f"{p.speedup:.1f}", f"{p.power_improvement:.2g}",
         f"{p.energy_improvement:.2g}", "python -m repro fig7"]
        for p in fig7.fig7_points()
    ]


def _neovision():
    from repro.apps.neovision import NeovisionSystem

    system = NeovisionSystem(height=32, width=48, seed=0)
    system.train(n_scenes=16)
    return system


def _fig7_executed() -> list[list]:
    from repro.apps.neovision import precision_recall

    precision, recall = precision_recall(_neovision(), n_scenes=5)
    return [["Neovision What/Where, precision / recall", "0.85 / 0.80 (Neovision2 Tower)",
             f"{precision:.2f} / {recall:.2f} (synthetic scenes)",
             "python examples/neovision_detection.py"]]


def _fig8() -> list[list]:
    s = fig8.fig8_summary()
    bgq = fig8.fig8_bgq_points()
    slowest = max(bgq, key=lambda p: p.time_per_tick_s)
    x86 = fig8.fig8_x86_points()
    x86_monotone = all(a.time_per_tick_s > b.time_per_tick_s for a, b in zip(x86, x86[1:]))
    lo, hi = s["power_range_w"]
    return [
        ["best point", '32 hosts, "12x slower than real-time"',
         f"{s['best_hosts']} hosts x {s['best_threads']} threads, "
         f"{s['best_slowdown_vs_real_time']:.1f}x slower", "python -m repro fig8"],
        ["slowest point", "~0.15 s/tick at 1 host",
         f"{slowest.time_per_tick_s:.3f} s/tick ({slowest.hosts} host x {slowest.threads} "
         "threads)", "python -m repro fig8"],
        ["power-efficiency", "a single host is the most power-efficient but slowest; "
         "32 hosts is the fastest but requires more power",
         f"most-efficient = {s['most_efficient_hosts']} host; fastest = {s['best_hosts']} "
         f"hosts; power {lo:,.0f} W -> {hi:,.0f} W", "python -m repro fig8"],
        ["x86 reference", "1 host, 4-12 threads",
         f"{'monotone' if x86_monotone else 'not monotone'} over "
         f"{x86[0].threads}-{x86[-1].threads} threads", REPORT],
    ]


# -- extension apps ------------------------------------------------------------
_RESETS = {
    params.RESET_TO_VALUE: "reset to value",
    params.RESET_LINEAR: "linear reset",
    params.RESET_NONE: "no reset",
}


def tick_path(compiled) -> set[str]:
    """The branches of the tick kernels that artifact *compiled* selects.

    What ``update_plan`` fixes for ``update_neurons`` — each stochastic
    draw over every neuron or a subset, leak reversal, the shared reset
    mode — and whether ``integrate_deliveries`` draws stochastic
    synapses.
    """
    plan = compiled.update_plan

    def draw(name, spec):
        if spec is None:
            return f"deterministic {name}"
        return f"{name} draw over {'every neuron' if isinstance(spec[1], slice) else 'a subset'}"

    return {
        draw("leak", plan.leak_draw),
        draw("threshold", plan.threshold_draw),
        "leak reversal" if plan.any_reversal else "no leak reversal",
        _RESETS.get(plan.reset_mode, "per-neuron reset modes"),
        "stochastic synapses" if compiled.any_stoch_synapse else "deterministic synapses",
    }


def _reference_paths() -> set[str]:
    """Every branch a Fig. 7 app or a harness workload takes.

    The apps at ``repro lint --builtin`` scale plus Neovision's What
    network; the harness's recurrent workloads (``rec20x128``,
    ``rec200x26``) at grid side 2 and ``serve_b16``'s network: a path
    depends on the neurons' parameters, not on the network's size.
    """
    from repro.apps.recurrent import probabilistic_recurrent_network
    from repro.compass.compile import compile_network
    from repro.core.builders import random_network
    from repro.lint.examples import BUILTIN_NETWORKS

    networks = [BUILTIN_NETWORKS[name]() for name in ("haar", "lbp", "saliency", "saccade")]
    system = _neovision()
    networks += [
        system._where.compiled.network,
        system._what.network,
        probabilistic_recurrent_network(20.0, 128, grid_side=2, seed=1),
        probabilistic_recurrent_network(200.0, 26, grid_side=2, coupling="balanced", seed=1),
        random_network(n_cores=16, n_axons=64, n_neurons=64, connectivity=0.3,
                       stochastic=True, seed=1),
    ]
    return set().union(*(tick_path(compile_network(net)) for net in networks))


def _rbm() -> tuple[object, float]:
    """An RBM sampler with one hidden unit per drive 0..3, sampled 1,200
    times: the composition, and the largest gap between a unit's sampled
    fire rate and the analytic piecewise-linear sigmoid."""
    from repro.corelets.library.rbm import (
        compile_sampler,
        firing_probability,
        rbm_sampling_layer,
        sample_hidden,
    )

    weights = np.triu(np.ones((4, 4), dtype=np.int64), 1)  # column j: j positive inputs
    compiled = compile_sampler(rbm_sampling_layer(weights, gain=48, bias=16))
    rates = sample_hidden(compiled, np.ones(4, dtype=bool), n_samples=1200).mean(axis=0)
    expected = [firing_probability(j, gain=48, bias=16) for j in range(4)]
    return compiled, float(np.abs(rates - expected).max())


def _extensions_executed() -> list[list]:
    from repro.compass.compile import compile_network

    sampler, gap = _rbm()
    alone = sorted(tick_path(compile_network(sampler.network)) - _reference_paths())
    return [[
        "RBM sampling (stochastic threshold)", "; ".join(alone) or "none",
        f"sampled fire rates within {gap:.3f} of the piecewise-linear sigmoid (1,200 samples)",
        "kept" if alone else "fails rule (b)", REPORT,
    ]]


# -- EQ1 / EQ2 / TAB2 / ablations ----------------------------------------------------
def _eq1_executed() -> list[list]:
    suites = {
        "single-core": equivalence.single_core_regressions(),
        "multi-core": equivalence.multi_core_regressions(),
        "recurrent": equivalence.recurrent_network_regressions(),
    }
    return [
        [name, r.n_regressions, r.total_spikes_compared, r.n_mismatches,
         "python -m repro equivalence"]
        for name, r in suites.items()
    ]


def _eq2() -> list[list]:
    wc = equivalence.regression_wall_clock()
    return [
        ["TrueNorth, 100M ticks @1 kHz", "27.7 h", f"{wc['truenorth_hours']:.1f} h", REPORT],
        ["x86 (2x X7350, 8 threads)", "~74 days", f"{wc['x86_legacy_days']:.1f} days", REPORT],
    ]


def _tab2() -> list[list]:
    board = future_systems.BoardModel()
    human = future_systems.human_scale_system()
    rack_only = future_systems.human1pct_energy_ratio(
        {**future_systems.BGP_HUMAN1PCT_SCALE, "facility_overhead": 1.0})
    return [
        ["16-chip board array power @1.0 V", "2.5 W", f"{board.array_power_w():.2f} W", REPORT],
        ["16-chip board total power", "7.2 W", f"{board.total_power_w():.2f} W", REPORT],
        ["board capacity", "16M neurons / 4B synapses",
         f"{board.n_neurons:,} neurons / {board.n_synapses:,} synapses", REPORT],
        ["rat-scale energy-to-solution vs 32-rack BG/L", "6,400x",
         f"{future_systems.rat_scale_energy_ratio():,.0f}x", "python -m repro future"],
        ["1%-human-scale vs 16-rack BG/P", "128,000x",
         f"{future_systems.human1pct_energy_ratio():,.0f}x with the BG/P facility overhead; "
         f"{rack_only:,.0f}x on rack power alone", "python -m repro future"],
        ["human-scale system", "96 racks, 100T synapses, ~4 kW/rack",
         f"{human['racks']} racks, {human['n_synapses']:.3g} synapses, "
         f"{human['power_w'] / 1e3:,.0f} kW", REPORT],
    ]


def _ablations() -> list[list]:
    from repro.apps.workloads import ANCHOR_A, ANCHOR_C, characterization_workload
    from repro.experiments.multichip import full_scale_link_load
    from repro.noc.congestion import congestion_margin

    sparse, dense = (ablation_energy.event_driven_vs_always_on(r, k)
                     for r, k in ((5.0, 32.0), (200.0, 256.0)))
    routing = max(ablation_energy.energy_breakdown(r, k)["spike_routing_fraction"]
                  for r, k in ((5.0, 32.0), (20.0, 128.0), (200.0, 256.0)))
    volts = voltage.voltage_study([ANCHOR_A])[0]
    heavy = congestion_margin(characterization_workload(200.0, 256.0))
    uniform = full_scale_link_load(ANCHOR_C, 4, 4)
    local = full_scale_link_load(ANCHOR_C, 4, 4, long_range_fraction=0.05)
    return [
        ["event-driven synapses (`bench_ablation_energy.py`)",
         f"synaptic term {sparse['synaptic_advantage']:,.0f}x smaller at 5 Hz x 32 syn, "
         f"{dense['synaptic_advantage']:.1f}x at 200 Hz x 256; routing at most "
         f"{routing * 100:.1f} % of the energy", REPORT],
        ["voltage operating points (`bench_voltage_study.py`)",
         f"20 Hz x 128 syn closes timing at {volts['optimal_voltage']:.2f} V, "
         f"{volts['saving_vs_max'] * 100:.0f} % energy saved vs 1.05 V", REPORT],
        ["router congestion (`bench_ablation_congestion.py`)",
         f"uniform traffic at 200 Hz x 256 syn: {heavy['uniform_utilization'] * 100:.0f} % "
         f"router utilization, stretch {heavy['uniform_stretch']:.1f}x; all-to-one: stretch "
         f"{heavy['hotspot_stretch']:.1f}x", REPORT],
        ["multichip locality (`bench_multichip_scaling.py`)",
         f"uniform 200 Hz traffic on a 4x4 board: link utilization "
         f"{uniform['link_utilization']:.1f}x capacity; 5 % long-range: "
         f"{local['link_utilization'] * 100:.0f} % of capacity", REPORT],
    ]


TABLES = (
    Table("tab1", "TAB1: headline operating points", ("metric", "paper", "measured"), _tab1),
    Table("fig5", "FIG5: TrueNorth characterization",
          ("panel", "paper observation", "measured"), _fig5, _fig5_executed),
    Table("fig6", "FIG6: vs Compass on BG/Q and x86",
          ("panel", "paper", "measured (min-max over sweep)"), _fig6),
    Table("fig7", "FIG7: five vision applications",
          ("application", "platform", "speedup", "x power", "x energy"), _fig7),
    Table("fig7-accuracy", "FIG7: functional accuracy", ("system", "paper", "measured"),
          executed=_fig7_executed),
    Table("extensions", "Extension apps", ("application", "kernel path no Fig. 7 app or "
          "harness workload takes", "result", "verdict"), executed=_extensions_executed),
    Table("fig8", "FIG8: BG/Q strong scaling, Neovision", ("observation", "paper", "measured"),
          _fig8),
    Table("eq1", "EQ1: one-to-one equivalence",
          ("suite", "regressions", "spikes compared", "mismatches"), executed=_eq1_executed),
    Table("eq2", "EQ2: regression wall clock", ("target", "paper", "measured"), _eq2),
    Table("tab2", "TAB2: future systems", ("projection", "paper", "measured"), _tab2),
    Table("ablations", "Ablations", ("study", "measured"), _ablations),
)
_BY_KEY = {table.key: table for table in TABLES}


def _block(table: Table) -> str:
    return f"<!-- report:{table.key} -->\n{render_table(table)}\n<!-- /report -->"


def generate_report() -> str:
    """Every table under its own heading, each between its markers."""
    sections = ["# Experiment tables", "", f"Written by `{REPORT}`.", ""]
    for table in TABLES:
        sections += [f"## {table.title}", "", _block(table), ""]
    return "\n".join(sections)


def fill_record(text: str) -> str:
    """*text* with the table between each pair of markers regenerated.

    Everything outside the markers is returned as it was.  A marker
    naming no table raises ``ValueError``.
    """
    unknown = [key for key in _BLOCK.findall(text) if key not in _BY_KEY]
    if unknown:
        raise ValueError(f"no report table named {unknown[0]!r}")
    return _BLOCK.sub(lambda m: _block(_BY_KEY[m.group(1)]), text)
