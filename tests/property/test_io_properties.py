"""Property-based round-trip tests for the I/O layer."""

from hypothesis import given, settings, strategies as st

from repro.core.builders import poisson_inputs, random_network
from repro.io.aer import AERStream, decode_aer, encode_aer
from repro.io.checkpoint import (
    EngineCheckpoint,
)
from repro.lint.diagnostics import LintError
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


class TestCheckpointProperties:
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
