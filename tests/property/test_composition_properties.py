"""Property-based tests on corelet composition semantics.

Random chains of relays joined by delayed wires, and splitters, must
obey exact latency arithmetic and preserve spike content — the algebra
application authors rely on when composing pipelines.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.compass.engine import run_engine
from repro.compass.simulator import CompassSimulator
from repro.core.inputs import InputSchedule
from repro.corelets.corelet import Composition
from repro.corelets.library.basic import relay, splitter


def build_chain(wire_delays, width=4, seed=0):
    """Relays joined by wires of *wire_delays*; returns (compiled, total latency)."""
    comp = Composition(name="chain", seed=seed)
    stages = [relay(width, name=f"stage{i}") for i in range(len(wire_delays) + 1)]
    for a, b, d in zip(stages, stages[1:], wire_delays):
        comp.connect(a.outputs["out"], b.inputs["in"], delay=d)
    comp.export_input("in", stages[0].inputs["in"])
    comp.export_output("out", stages[-1].outputs["out"])
    # latency: a relay spikes on its input's tick; each wire adds its delay
    return comp.compile(), sum(wire_delays)


class TestChainLatency:
    @given(
        wire_delays=st.lists(st.integers(1, 15), min_size=0, max_size=4),
        line=st.integers(0, 3),
        start=st.integers(0, 5),
    )
    @settings(max_examples=30, deadline=None)
    def test_exact_end_to_end_latency(self, wire_delays, line, start):
        compiled, latency = build_chain(wire_delays)
        ins = InputSchedule()
        pin = compiled.inputs["in"][line]
        ins.add(start, pin.core, pin.index)
        horizon = start + latency + 2
        rec = run_engine(compiled.network, horizon, ins, engine="truenorth")
        out = {(p.core, p.index): i for i, p in enumerate(compiled.outputs["out"])}
        hits = [(t, out[(c, n)]) for t, c, n in rec.as_tuples() if (c, n) in out]
        assert hits == [(start + latency, line)]

    @given(
        wire_delays=st.lists(st.integers(1, 15), min_size=0, max_size=3),
        events=st.lists(
            st.tuples(st.integers(0, 8), st.integers(0, 3)),
            min_size=1, max_size=8, unique=True,
        ),
    )
    @settings(max_examples=25, deadline=None)
    def test_chain_preserves_spike_content(self, wire_delays, events):
        # every injected (tick, line) appears at the output shifted by the
        # chain latency, and nothing else appears
        compiled, latency = build_chain(wire_delays)
        ins = InputSchedule()
        pins = compiled.inputs["in"]
        for t, line in events:
            ins.add(t, pins[line].core, pins[line].index)
        horizon = max(t for t, _ in events) + latency + 2
        rec = run_engine(compiled.network, horizon, ins, engine="truenorth")
        out = {(p.core, p.index): i for i, p in enumerate(compiled.outputs["out"])}
        hits = sorted(
            (t, out[(c, n)]) for t, c, n in rec.as_tuples() if (c, n) in out
        )
        assert hits == sorted((t + latency, line) for t, line in events)


class TestSplitterAlgebra:
    @given(
        ways=st.integers(1, 6),
        n=st.integers(1, 12),
        line=st.integers(0, 11),
    )
    @settings(max_examples=30, deadline=None)
    def test_split_copies_are_identical(self, ways, n, line):
        if line >= n:
            return
        comp = Composition(seed=1)
        sp = splitter(n, ways)
        comp.add(sp)
        comp.export_input("in", sp.inputs["in"])
        for w in range(ways):
            comp.export_output(f"out{w}", sp.outputs[f"out{w}"])
        compiled = comp.compile()
        ins = InputSchedule()
        pin = compiled.inputs["in"][line]
        ins.add(0, pin.core, pin.index)
        rec = run_engine(compiled.network, 2, ins, engine="truenorth")
        for w in range(ways):
            p = compiled.outputs[f"out{w}"][line]
            assert (0, p.core, p.index) in rec.as_tuples()
        assert rec.n_spikes == ways

    @given(depth=st.integers(1, 4), seed=st.integers(0, 1000))
    @settings(max_examples=15, deadline=None)
    def test_relay_towers_equivalent_across_expressions(self, depth, seed):
        comp = Composition(seed=seed)
        stages = [relay(4, name=f"r{i}") for i in range(depth)]
        for a, b in zip(stages[:-1], stages[1:]):
            comp.connect(a.outputs["out"], b.inputs["in"])
        comp.export_input("in", stages[0].inputs["in"])
        comp.export_output("out", stages[-1].outputs["out"])
        compiled = comp.compile()
        rng = np.random.default_rng(seed)
        ins = InputSchedule()
        pins = compiled.inputs["in"]
        for t in range(6):
            for line in range(4):
                if rng.random() < 0.5:
                    ins.add(t, pins[line].core, pins[line].index)
        horizon = 6 + depth + 1
        compass = CompassSimulator(compiled.network, n_ranks=2).run(horizon, ins)
        assert run_engine(compiled.network, horizon, ins, engine="truenorth") == compass
