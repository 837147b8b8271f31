"""Property-based round-trip tests for the I/O and configuration layers."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.builders import poisson_inputs, random_network
from repro.hardware.config import config_stream, decode_core, encode_core, parse_config_stream
from repro.io.aer import AERStream, decode_aer, encode_aer
from repro.compass.simulator import CompassSimulator
from repro.io.checkpoint import (
    EngineCheckpoint,
)
from repro.lint.diagnostics import LintError
from repro.core.record import SpikeRecord
from repro.hardware.simulator import TrueNorthSimulator


@st.composite
def aer_events(draw):
    n = draw(st.integers(0, 50))
    return [
        (
            draw(st.integers(0, 10_000)),
            draw(st.integers(0, 4_095)),
            draw(st.integers(0, 255)),
        )
        for _ in range(n)
    ]


class TestAERProperties:
    @given(events=aer_events())
    @settings(max_examples=40, deadline=None)
    def test_encode_decode_roundtrip(self, events):
        stream = AERStream.from_events(events)
        assert decode_aer(encode_aer(stream)) == stream

    @given(events=aer_events(), start=st.integers(0, 5000), span=st.integers(1, 5000))
    @settings(max_examples=40, deadline=None)
    def test_window_partition(self, events, start, span):
        stream = AERStream.from_events(events)
        inside = stream.window(start, start + span)
        before = stream.window(0, start)
        after = stream.window(start + span, 10_001)
        assert inside.n_events + before.n_events + after.n_events == stream.n_events

    @given(events=aer_events(), dt=st.integers(0, 1000))
    @settings(max_examples=40, deadline=None)
    def test_shift_preserves_structure(self, events, dt):
        stream = AERStream.from_events(events)
        shifted = stream.shifted(dt)
        assert shifted.n_events == stream.n_events
        if stream.n_events:
            assert np.array_equal(shifted.ticks - dt, stream.ticks)


class TestConfigProperties:
    @given(
        seed=st.integers(0, 2**31),
        size=st.sampled_from([4, 8, 16]),
        stochastic=st.booleans(),
    )
    @settings(max_examples=25, deadline=None)
    def test_core_roundtrip(self, seed, size, stochastic):
        net = random_network(
            n_cores=1, n_axons=size, n_neurons=size, stochastic=stochastic, seed=seed
        )
        core = net.cores[0]
        decoded = decode_core(encode_core(core))
        from dataclasses import fields

        for f in fields(core):
            if f.name == "name":
                continue
            assert np.array_equal(getattr(core, f.name), getattr(decoded, f.name))

    @given(seed=st.integers(0, 2**31), n_cores=st.integers(1, 4))
    @settings(max_examples=20, deadline=None)
    def test_stream_roundtrip(self, seed, n_cores):
        net = random_network(n_cores=n_cores, n_axons=6, n_neurons=6, seed=seed)
        cores = parse_config_stream(config_stream(net.cores))
        assert len(cores) == n_cores
        for a, b in zip(net.cores, cores):
            assert np.array_equal(a.crossbar, b.crossbar)
            assert np.array_equal(a.weights, b.weights)


class TestCheckpointProperties:
    @given(
        sim_cls=st.sampled_from([TrueNorthSimulator, CompassSimulator]),
        seed=st.integers(0, 2**31),
        split=st.integers(1, 19),
    )
    @settings(max_examples=30, deadline=None)
    def test_resume_bit_exact_at_any_split(self, sim_cls, seed, split):
        net = random_network(n_cores=2, n_axons=8, n_neurons=8,
                             stochastic=True, seed=seed)
        ins = poisson_inputs(net, 20, 400.0, seed=seed + 1)

        full = sim_cls(net)
        full.load_inputs(ins)
        full_events = []
        for _ in range(20):
            full_events.extend(full.step())

        part = sim_cls(net)
        part.load_inputs(ins)
        events = []
        for _ in range(split):
            events.extend(part.step())
        ckpt = part.snapshot()
        resumed = sim_cls(net)
        resumed.restore(ckpt)
        for _ in range(20 - split):
            events.extend(resumed.step())

        assert SpikeRecord.from_events(events) == SpikeRecord.from_events(full_events)

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_damaged_bytes_never_escape_as_anything_but_tn601(self, data):
        # Cut the container anywhere, or flip any one byte: the reader
        # returns a checkpoint (the damage hit nothing it reads) or
        # raises the TN601 LintError — no other exception type.
        net = random_network(n_cores=2, n_axons=8, n_neurons=8, seed=5)
        sim = TrueNorthSimulator(net)
        sim.load_inputs(poisson_inputs(net, 6, 400.0, seed=6))
        for _ in range(4):
            sim.step()
        blob = sim.snapshot().to_bytes()
        at = data.draw(st.integers(0, len(blob) - 1))
        if data.draw(st.booleans()):
            bad = blob[:at]
        else:
            bad = blob[:at] + bytes([blob[at] ^ data.draw(st.integers(1, 255))]) \
                + blob[at + 1:]
        try:
            EngineCheckpoint.from_bytes(bad)
        except LintError as err:
            assert err.codes == ["TN601"]
