"""Tests for the Corelet Programming Environment (repro.corelets)."""

import numpy as np
import pytest

from repro.compass.engine import run_engine
from repro.core.inputs import InputSchedule
from repro.corelets.corelet import Composition
from repro.corelets.library.basic import relay, splitter


def drive_and_collect(compiled, events, n_ticks, output="out"):
    """Inject events on the exported input; return output spike tuples."""
    ins = InputSchedule()
    pins = compiled.inputs["in"]
    for tick, line in events:
        ins.add(tick, pins[line].core, pins[line].index)
    rec = run_engine(compiled.network, n_ticks, ins, engine="truenorth")
    out_pins = {(p.core, p.index): line for line, p in enumerate(compiled.outputs[output])}
    return sorted(
        (t, out_pins[(c, n)])
        for t, c, n in rec.as_tuples()
        if (c, n) in out_pins
    )


class TestSplitter:
    def test_two_way_duplication(self):
        comp = Composition(seed=0)
        sp = splitter(4, 2)
        comp.add(sp)
        comp.export_input("in", sp.inputs["in"])
        comp.export_output("out0", sp.outputs["out0"])
        comp.export_output("out1", sp.outputs["out1"])
        compiled = comp.compile()

        ins = InputSchedule()
        pin = compiled.inputs["in"][2]
        ins.add(0, pin.core, pin.index)
        rec = run_engine(compiled.network, 2, ins, engine="truenorth")
        spikes = set(rec.as_tuples())
        p0 = compiled.outputs["out0"][2]
        p1 = compiled.outputs["out1"][2]
        assert (0, p0.core, p0.index) in spikes
        assert (0, p1.core, p1.index) in spikes
        assert len(spikes) == 2

    def test_chunks_across_cores(self):
        sp = splitter(100, 4, core_size=64)  # 16 inputs per core
        assert sp.n_cores == 7  # ceil(100/16)
        assert len(sp.inputs["in"]) == 100
        assert all(len(sp.outputs[f"out{w}"]) == 100 for w in range(4))

    def test_rejects_too_many_ways(self):
        with pytest.raises(ValueError):
            splitter(4, 300)


class TestRelay:
    def test_one_tick_latency_identity(self):
        comp = Composition(seed=0)
        r = relay(8)
        comp.add(r)
        comp.export_input("in", r.inputs["in"])
        comp.export_output("out", r.outputs["out"])
        compiled = comp.compile()
        got = drive_and_collect(compiled, [(0, 3), (2, 5)], 4)
        assert got == [(0, 3), (2, 5)]


class TestComposition:
    def test_chain_two_corelets(self):
        comp = Composition(seed=0)
        a = relay(4, name="a")
        b = relay(4, name="b")
        comp.connect(a.outputs["out"], b.inputs["in"], delay=2)
        comp.export_input("in", a.inputs["in"])
        comp.export_output("out", b.outputs["out"])
        compiled = comp.compile()
        got = drive_and_collect(compiled, [(0, 1)], 6)
        # a fires at t=0, delivery at t=2, b fires at t=2
        assert got == [(2, 1)]

    def test_fanout_requires_splitter(self):
        comp = Composition()
        a = relay(2, name="a")
        b = relay(2, name="b")
        c = relay(2, name="c")
        comp.connect(a.outputs["out"], b.inputs["in"])
        comp.connect(a.outputs["out"], c.inputs["in"])
        with pytest.raises(ValueError, match="splitter"):
            comp.compile()

    def test_width_mismatch_rejected(self):
        comp = Composition()
        a = relay(4, name="a")
        b = relay(8, name="b")
        with pytest.raises(ValueError, match="width"):
            comp.connect(a.outputs["out"], b.inputs["in"])

    def test_connector_slice(self):
        a = relay(8, name="a")
        b = relay(4, name="b")
        comp = Composition()
        comp.connect(a.outputs["out"].slice(0, 4), b.inputs["in"])
        comp.export_input("in", a.inputs["in"])
        comp.export_output("out", b.outputs["out"])
        compiled = comp.compile()
        got = drive_and_collect(compiled, [(0, 2), (0, 6)], 4)
        # line 2 forwards through b; line 6 was not connected onward
        assert got == [(1, 2)]

    def test_compile_does_not_mutate_corelets(self):
        a = relay(4, name="a")
        before = a.cores[0].target_core.copy()
        comp = Composition()
        b = relay(4, name="b")
        comp.connect(a.outputs["out"], b.inputs["in"])
        comp.compile()
        assert np.array_equal(a.cores[0].target_core, before)

    def test_recompile_identical(self):
        comp = Composition(seed=3)
        a = relay(4, name="a")
        b = relay(4, name="b")
        comp.connect(a.outputs["out"], b.inputs["in"])
        comp.export_input("in", a.inputs["in"])
        comp.export_output("out", b.outputs["out"])
        c1 = comp.compile()
        c2 = comp.compile()
        ins = InputSchedule.from_events([(0, c1.inputs["in"][0].core, c1.inputs["in"][0].index)])
        want = run_engine(c1.network, 5, ins, engine="truenorth")
        assert run_engine(c2.network, 5, ins, engine="truenorth") == want

    def test_duplicate_connector_name_rejected(self):
        a = relay(4, name="a")
        with pytest.raises(ValueError):
            a.input_connector("in", [(0, 0)])
