"""Tests for AER streams, model files, and checkpoints (repro.io)."""

import struct

import numpy as np
import pytest

from repro.compass.engine import run_engine
from repro.compass.simulator import CompassSimulator
from repro.core.builders import poisson_inputs, random_network
from repro.core.inputs import InputSchedule
from repro.hardware.simulator import TrueNorthSimulator
from repro.io.aer import (
    AERStream,
    aer_from_schedule,
    decode_aer,
    encode_aer,
    read_aer_file,
    record_to_aer,
    schedule_from_aer,
    write_aer_file,
)
from repro.io.checkpoint import (
    EngineCheckpoint,
    load_checkpoint,
    model_digest,
)
from repro.io.model_files import load_network, save_network
from repro.lint.diagnostics import LintError


class TestAER:
    def test_roundtrip(self):
        stream = AERStream.from_events([(3, 1, 7), (0, 0, 2), (3, 1, 6)])
        again = decode_aer(encode_aer(stream))
        assert again == stream
        assert again.n_events == 3

    def test_empty_stream(self):
        s = decode_aer(encode_aer(AERStream()))
        assert s.n_events == 0

    def test_file_roundtrip(self, tmp_path):
        stream = AERStream.from_events([(5, 2, 9), (1, 0, 0)])
        path = tmp_path / "spikes.aer"
        write_aer_file(path, stream)
        assert read_aer_file(path) == stream

    def test_bad_magic_rejected(self):
        with pytest.raises(ValueError):
            decode_aer(b"NOPE" + b"\x00" * 16)

    def test_truncated_rejected(self):
        data = encode_aer(AERStream.from_events([(1, 1, 1)]))
        with pytest.raises(ValueError):
            decode_aer(data[:-4])

    def test_bytes_are_the_per_event_struct_encoding(self):
        # The format as the word-at-a-time encoder wrote it (kept here
        # as the reference), and one file's bytes as the parent of the
        # array encoder produced them.
        def reference(stream):
            out = b"AER1" + struct.pack("<Q", stream.n_events)
            for event in stream.as_tuples():
                out += struct.pack("<QII", *event)
            return out

        edge = AERStream.from_events(
            [(3, 1, 7), (0, 0, 2), (3, 1, 6), (2**40, 2**32 - 1, 2**32 - 1)]
        )
        assert encode_aer(edge).hex() == (
            "414552310400000000000000"
            "00000000000000000000000002000000"
            "03000000000000000100000006000000"
            "03000000000000000100000007000000"
            "0000000000010000ffffffffffffffff"
        )
        rng = np.random.default_rng(4)
        unsorted = AERStream(  # encoded in stored order, decoded sorted
            rng.integers(0, 500, 300), rng.integers(0, 64, 300), rng.integers(0, 256, 300)
        )
        for stream in (edge, unsorted, AERStream()):
            data = encode_aer(stream)
            assert data == reference(stream)
            assert decode_aer(data) == AERStream.from_events(stream.as_tuples())
            assert encode_aer(decode_aer(data)) == reference(decode_aer(data))

    @pytest.mark.parametrize(
        "event", [(-1, 1, 1), (1, -1, 1), (1, 1, -1), (1, 2**32, 1), (1, 1, 2**32)]
    )
    def test_values_outside_their_field_rejected(self, event):
        with pytest.raises(ValueError, match="non-negative and fit"):
            encode_aer(AERStream(*(np.array([v]) for v in event)))

    def test_damaged_bytes_only_ever_raise_value_error(self):
        stream = AERStream.from_events([(3, 1, 7), (0, 0, 2), (2**62, 5, 6)])
        data = encode_aer(stream)
        for cut in range(len(data)):
            with pytest.raises(ValueError):
                decode_aer(data[:cut])
        rng = np.random.default_rng(9)
        for _ in range(300):
            damaged = bytearray(data + rng.bytes(int(rng.integers(0, 5))))
            for at in rng.integers(0, len(data), int(rng.integers(1, 4))):
                damaged[at] = int(rng.integers(0, 256))
            try:
                again = decode_aer(bytes(damaged))
            except ValueError:
                continue
            assert again.n_events <= stream.n_events  # a reading of the bytes it was given
            assert again == AERStream.from_events(again.as_tuples())

    def test_window_and_shift(self):
        stream = AERStream.from_events([(0, 0, 0), (5, 0, 1), (9, 0, 2)])
        assert stream.window(1, 9).as_tuples() == [(5, 0, 1)]
        shifted = stream.shifted(10)
        assert shifted.as_tuples()[0] == (10, 0, 0)
        with pytest.raises(ValueError):
            stream.shifted(-1)

    def test_merge_ordered(self):
        a = AERStream.from_events([(0, 0, 0), (4, 0, 0)])
        b = AERStream.from_events([(2, 1, 1)])
        merged = a.merge(b)
        assert merged.as_tuples() == [(0, 0, 0), (2, 1, 1), (4, 0, 0)]

    def test_schedule_conversions(self):
        ins = InputSchedule.from_events([(0, 0, 1), (2, 1, 3)])
        stream = aer_from_schedule(ins)
        back = schedule_from_aer(stream)
        assert list(back) == list(ins) == stream.as_tuples()
        assert back == ins

    def test_record_capture_and_replay(self):
        # Capture one network's output as AER, replay it as another
        # network's input — the chip-to-chip streaming pattern.
        net = random_network(n_cores=2, connectivity=0.5, seed=3)
        ins = poisson_inputs(net, 10, 500.0, seed=1)
        rec = run_engine(net, 10, ins, engine="truenorth")
        out_stream = record_to_aer(rec)
        assert out_stream.n_events == rec.n_spikes
        replay = schedule_from_aer(out_stream.window(0, 10))
        assert replay.n_events <= out_stream.n_events


class TestModelFiles:
    def test_roundtrip_behaviour(self, tmp_path):
        net = random_network(n_cores=3, stochastic=True, seed=11)
        path = tmp_path / "model.npz"
        save_network(path, net)
        loaded = load_network(path)
        assert loaded.n_cores == 3 and loaded.seed == net.seed
        ins = poisson_inputs(net, 15, 300.0, seed=2)
        want = run_engine(net, 15, ins, engine="truenorth")
        assert run_engine(loaded, 15, ins, engine="truenorth") == want

    def test_core_names_preserved(self, tmp_path):
        net = random_network(n_cores=2, seed=1)
        net.cores[0].name = "alpha"
        path = tmp_path / "m.npz"
        save_network(path, net)
        assert load_network(path).cores[0].name == "alpha"

    def test_rejects_foreign_npz(self, tmp_path):
        path = tmp_path / "foreign.npz"
        np.savez(path, junk=np.zeros(3))
        with pytest.raises(ValueError):
            load_network(path)

    def test_invalid_network_not_saved(self, tmp_path):
        from repro.core.network import Core, Network

        bad = Network(cores=[Core.build(n_axons=2, n_neurons=2, target_core=9)])
        with pytest.raises(ValueError):
            save_network(tmp_path / "bad.npz", bad)


def assert_counters_equal(got, want) -> None:
    """Every EventCounters field equal, the per-core array included."""
    from dataclasses import fields

    for f in fields(want):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if isinstance(b, np.ndarray):
            np.testing.assert_array_equal(a, b, err_msg=f.name)
        else:
            assert a == b, f"{f.name}: {a} != {b}"


def _rewrite_members(blob: bytes, edit) -> bytes:
    """Re-zip a checkpoint container after *edit* changed its members."""
    import io

    with np.load(io.BytesIO(blob)) as data:
        members = {name: data[name] for name in data.files}
    edit(members)
    buf = io.BytesIO()
    np.savez(buf, **members)
    return buf.getvalue()


def _flip_byte(blob: bytes) -> bytes:
    at = len(blob) // 2
    return blob[:at] + bytes([blob[at] ^ 0xFF]) + blob[at + 1:]


#: Ways a checkpoint container gets damaged; each must read as TN601.
DAMAGED = {
    "cut-in-half": lambda blob: blob[: len(blob) // 2],
    "short-by-10": lambda blob: blob[:-10],
    "flipped-byte": _flip_byte,
    "empty": lambda blob: b"",
    "v-member-missing": lambda blob: _rewrite_members(
        blob, lambda m: m.pop("v")
    ),
    "header-undecodable": lambda blob: _rewrite_members(
        blob, lambda m: m.update(__header__=np.full(8, 0xFF, dtype=np.uint8))
    ),
    "ring-disagrees-with-n_axons": lambda blob: _rewrite_members(
        blob, lambda m: m.update(ring_packed=m["ring_packed"][:, :-1])
    ),
}


class TestCheckpoint:
    def test_checkpoint_serialization(self):
        net = random_network(n_cores=2, seed=3)
        sim = TrueNorthSimulator(net)
        sim.load_inputs(poisson_inputs(net, 10, 400.0, seed=1))
        for _ in range(5):
            sim.step()
        ckpt = sim.snapshot()
        again = EngineCheckpoint.from_bytes(ckpt.to_bytes())
        assert again.tick == ckpt.tick
        assert np.array_equal(again.v, sim.v)
        assert np.array_equal(again.ring, ckpt.ring)
        assert sorted(again.pending) == sorted(ckpt.pending)
        assert all(
            np.array_equal(again.pending[t], ckpt.pending[t]) for t in ckpt.pending
        )

    def test_core_count_mismatch_rejected(self):
        a = random_network(n_cores=2, seed=1)
        b = random_network(n_cores=3, seed=1)
        ckpt = TrueNorthSimulator(a).snapshot()
        with pytest.raises(ValueError):
            TrueNorthSimulator(b).restore(ckpt)
        # Without a digest to tell the models apart, the size check does.
        ckpt.model_digest = ""
        with pytest.raises(LintError, match="TN602"):
            TrueNorthSimulator(b).restore(ckpt)

    def test_snapshot_is_deep(self):
        net = random_network(n_cores=1, seed=2)
        sim = TrueNorthSimulator(net)
        ckpt = sim.snapshot()
        sim.v[:] = 999
        sim.buffers[:] = True
        assert not np.array_equal(sim.v, ckpt.v)
        assert not ckpt.ring.any()

    @pytest.mark.parametrize("sim_cls", [TrueNorthSimulator, CompassSimulator])
    def test_methods_are_the_functions(self, sim_cls):
        # sim.snapshot()/restore() on Compass and TrueNorth are the fast
        # engine's: the same checkpoint as the flat engine's at the same
        # point, and a restore that holds the state it took.
        from repro.compass.fast import FastCompassSimulator

        net = random_network(n_cores=3, stochastic=True, seed=21)
        ins = poisson_inputs(net, 12, 300.0, seed=5)
        sim, fast = sim_cls(net), FastCompassSimulator(net)
        for engine in (sim, fast):
            engine.load_inputs(ins)
            for _ in range(7):
                engine.step()
        a, b = sim.snapshot(), fast.snapshot()
        # What travels is expression-specific accounting, not state.
        a.counters.hops = a.counters.messages = b.counters.messages = 0
        assert a.to_bytes() == b.to_bytes()
        other = sim_cls(net)
        other.restore(sim.snapshot())
        assert other.tick == sim.tick
        assert sorted(other._inputs[0]) == sorted(sim._inputs[0])
        np.testing.assert_array_equal(other.v, sim.v)
        np.testing.assert_array_equal(other.buffers, sim.buffers)


class TestCheckpointIdentity:
    def test_digest_mismatch_rejected(self):
        # Same core count, different weights: the digest check (not the
        # shape check) must catch it, with the TN602 diagnostic.
        a = random_network(n_cores=2, seed=1)
        b = random_network(n_cores=2, seed=2)
        ckpt = TrueNorthSimulator(a).snapshot()
        with pytest.raises(LintError, match="TN602"):
            TrueNorthSimulator(b).restore(ckpt)

    def test_network_name_mismatch_rejected(self):
        from repro.core.network import Network

        net = random_network(n_cores=2, seed=7)
        net.name = "alpha"
        renamed = Network(cores=net.cores, seed=net.seed, name="beta")
        ckpt = TrueNorthSimulator(net).snapshot()
        # Same digest (names are not part of the model identity hash),
        # different declared name: previously silently accepted.
        assert model_digest(net) == model_digest(renamed)
        with pytest.raises(LintError, match="TN602"):
            TrueNorthSimulator(renamed).restore(ckpt)

    def test_matching_name_and_digest_accepted(self):
        net = random_network(n_cores=2, seed=7)
        net.name = "alpha"
        sim = TrueNorthSimulator(net)
        sim.load_inputs(poisson_inputs(net, 10, 300.0, seed=1))
        for _ in range(4):
            sim.step()
        TrueNorthSimulator(net).restore(sim.snapshot())


class TestCheckpointContainer:
    def test_bytes_are_versioned_npz_not_pickle(self):
        net = random_network(n_cores=2, seed=3)
        sim = TrueNorthSimulator(net)
        blob = sim.snapshot().to_bytes()
        assert blob[:2] == b"PK"  # zip container (npz), not a pickle
        assert not blob.startswith(b"\x80")

    def test_v0_pickle_blob_rejected_loudly(self):
        import pickle

        blob = pickle.dumps({"tick": 3, "membranes": []})
        with pytest.raises(LintError, match="TN601"):
            EngineCheckpoint.from_bytes(blob)

    def test_v0_pickle_file_rejected(self, tmp_path):
        import pickle

        path = tmp_path / "old.ckpt"
        path.write_bytes(pickle.dumps({"tick": 3}))
        with pytest.raises(LintError, match="TN601"):
            load_checkpoint(path)

    def test_garbage_bytes_rejected(self):
        with pytest.raises(LintError, match="TN601"):
            EngineCheckpoint.from_bytes(b"not a checkpoint at all")

    def test_counters_round_trip(self):
        net = random_network(n_cores=2, seed=3)
        sim = TrueNorthSimulator(net)
        sim.load_inputs(poisson_inputs(net, 10, 500.0, seed=1))
        for _ in range(6):
            sim.step()
        ckpt = sim.snapshot()
        again = EngineCheckpoint.from_bytes(ckpt.to_bytes())
        assert again.counters is not None
        assert_counters_equal(again.counters, sim.counters)

    def test_legacy_kind_container_refused(self, tmp_path):
        # The per-core container kind is gone: a file carrying its header
        # is refused like a v0 pickle, by every reader.
        import io
        import json

        header = {"format_version": 1, "kind": "legacy", "n_cores": 1, "tick": 0}
        buf = io.BytesIO()
        np.savez_compressed(
            buf, mem0=np.zeros(4, dtype=np.int64),
            __header__=np.frombuffer(json.dumps(header).encode(), dtype=np.uint8),
        )
        path = tmp_path / "legacy.npz"
        path.write_bytes(buf.getvalue())
        for read in (load_checkpoint, EngineCheckpoint.load):
            with pytest.raises(LintError, match="TN601.*legacy"):
                read(path)
        with pytest.raises(LintError, match="TN601"):
            EngineCheckpoint.from_bytes(buf.getvalue())

    def test_file_round_trip(self, tmp_path):
        net = random_network(n_cores=2, seed=3)
        sim = TrueNorthSimulator(net)
        path = tmp_path / "tn.npz"
        sim.snapshot().save(path)
        loaded = load_checkpoint(path)
        assert isinstance(loaded, EngineCheckpoint)
        assert loaded.v.size == net.n_neurons
        assert loaded.model_digest == model_digest(net)

    @pytest.mark.parametrize("damage", sorted(DAMAGED))
    def test_damaged_container_is_tn601_on_every_reader(self, damage, tmp_path):
        net = random_network(n_cores=2, seed=3)
        sim = TrueNorthSimulator(net)
        sim.load_inputs(poisson_inputs(net, 10, 500.0, seed=1))
        for _ in range(4):
            sim.step()
        blob = DAMAGED[damage](sim.snapshot().to_bytes())
        path = tmp_path / "bad.npz"
        path.write_bytes(blob)
        with pytest.raises(LintError, match="TN601"):
            EngineCheckpoint.from_bytes(blob)
        with pytest.raises(LintError, match="TN601"):
            EngineCheckpoint.load(path)
        with pytest.raises(LintError, match="TN601"):
            load_checkpoint(path)

    def test_interrupted_save_leaves_nothing_behind(self, tmp_path, monkeypatch):
        import builtins

        import repro.io.checkpoint as module

        class CutShort:
            """A file whose write dies half way, as a killed process would."""

            def __init__(self, f):
                self.f = f

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.f.close()

            def write(self, data):
                self.f.write(data[: len(data) // 2])
                raise OSError("disk went away")

        monkeypatch.setattr(
            module, "open",
            lambda path, mode="r": CutShort(builtins.open(path, mode)),
            raising=False,
        )
        ckpt = TrueNorthSimulator(random_network(n_cores=2, seed=3)).snapshot()
        with pytest.raises(OSError, match="disk went away"):
            ckpt.save(tmp_path / "ckpt-20.npz")
        assert list(tmp_path.iterdir()) == []
        monkeypatch.undo()
        n_bytes = ckpt.save(tmp_path / "ckpt-20.npz")
        assert [p.name for p in tmp_path.iterdir()] == ["ckpt-20.npz"]
        assert (tmp_path / "ckpt-20.npz").stat().st_size == n_bytes

    def test_describe_is_json_friendly(self):
        import json

        net = random_network(n_cores=2, seed=3)
        ckpt = TrueNorthSimulator(net).snapshot()
        json.dumps(ckpt.describe())
