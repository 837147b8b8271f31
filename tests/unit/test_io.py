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
from repro.io.checkpoint import EngineCheckpoint, model_digest
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
        replay = schedule_from_aer(out_stream)
        assert replay.n_events == out_stream.n_events


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

    def test_path_without_suffix_round_trips(self, tmp_path):
        # The file is written at exactly the given path: no ".npz" is
        # appended behind the caller's back.
        net = random_network(n_cores=2, seed=1)
        save_network(tmp_path / "model", net)
        assert [p.name for p in tmp_path.iterdir()] == ["model"]
        loaded = load_network(tmp_path / "model")
        assert model_digest(loaded) == model_digest(net)
        assert load_network((tmp_path / "model").read_bytes()).name == net.name


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
    """Re-zip a container after *edit* changed its members."""
    import io

    with np.load(io.BytesIO(blob)) as data:
        members = {name: data[name] for name in data.files}
    edit(members)
    buf = io.BytesIO()
    np.savez(buf, **members)
    return buf.getvalue()


def _flip_byte(blob: bytes, at: int | None = None) -> bytes:
    at = len(blob) // 2 if at is None else at
    return blob[:at] + bytes([blob[at] ^ 0xFF]) + blob[at + 1:]


def _flip_data_byte(blob: bytes) -> bytes:
    """Flip a byte in the middle of the largest member's stored data."""
    import io
    import zipfile

    with zipfile.ZipFile(io.BytesIO(blob)) as z:
        info = max(z.infolist(), key=lambda i: i.compress_size)
    local = info.header_offset
    name_len = int.from_bytes(blob[local + 26:local + 28], "little")
    extra_len = int.from_bytes(blob[local + 28:local + 30], "little")
    data = local + 30 + name_len + extra_len
    return _flip_byte(blob, data + info.compress_size // 2)


def _rewrite_header(blob: bytes, **changes) -> bytes:
    """Re-zip a container with *changes* made to its JSON header."""
    import json

    def edit(members):
        header = json.loads(members["__header__"].tobytes())
        header.update(changes)
        members["__header__"] = np.frombuffer(json.dumps(header).encode(), dtype=np.uint8)

    return _rewrite_members(blob, edit)


def _foreign_pickle(blob: bytes) -> bytes:
    import pickle

    return pickle.dumps({"tick": 3})


def _foreign_npy(blob: bytes) -> bytes:
    import io

    buf = io.BytesIO()
    np.save(buf, np.zeros(3))
    return buf.getvalue()


#: Ways any container gets damaged, model file or checkpoint alike;
#: each must read as TN601.
DAMAGED = {
    "cut-in-half": lambda blob: blob[: len(blob) // 2],
    "short-by-10": lambda blob: blob[:-10],
    "flipped-data-byte": _flip_data_byte,
    "empty": lambda blob: b"",
    "header-undecodable": lambda blob: _rewrite_members(
        blob, lambda m: m.update(__header__=np.full(8, 0xFF, dtype=np.uint8))
    ),
    "header-missing": lambda blob: _rewrite_members(
        blob, lambda m: m.pop("__header__")
    ),
    "header-not-an-object": lambda blob: _rewrite_members(
        blob, lambda m: m.update(__header__=np.frombuffer(b"[1]", dtype=np.uint8))
    ),
    "format-version-7": lambda blob: _rewrite_header(blob, format_version=7),
    "foreign-pickle": _foreign_pickle,
    "foreign-npy": _foreign_npy,
}

#: The checkpoint layout's own damage on top of :data:`DAMAGED`.  (The
#: middle of a model file is a zip header field no reader uses, so a
#: flip there is not damage.)
CHECKPOINT_DAMAGED = {
    **DAMAGED,
    "flipped-byte": _flip_byte,
    "v-member-missing": lambda blob: _rewrite_members(
        blob, lambda m: m.pop("v")
    ),
    "ring-disagrees-with-n_axons": lambda blob: _rewrite_members(
        blob, lambda m: m.update(ring_packed=m["ring_packed"][:, :-1])
    ),
}

#: The model-file layout's own damage on top of :data:`DAMAGED`.
MODEL_DAMAGED = {
    **DAMAGED,
    "core-member-missing": lambda blob: _rewrite_members(
        blob, lambda m: m.pop("core1/threshold")
    ),
    "n_cores-beyond-the-cores": lambda blob: _rewrite_header(blob, n_cores=3),
    "core_names-short": lambda blob: _rewrite_header(blob, core_names=["a"]),
    "n_cores-not-a-number": lambda blob: _rewrite_header(blob, n_cores="two"),
}


def model_file_bytes(tmp_path) -> bytes:
    """The bytes of a whole two-core model file."""
    path = tmp_path / "whole.npz"
    save_network(path, random_network(n_cores=2, seed=3))
    return path.read_bytes()


class TestModelFileContainer:
    @pytest.mark.parametrize("damage", sorted(MODEL_DAMAGED))
    def test_damaged_model_file_is_tn601_on_every_reader(self, damage, tmp_path):
        blob = MODEL_DAMAGED[damage](model_file_bytes(tmp_path))
        path = tmp_path / "bad.npz"
        path.write_bytes(blob)
        for source in (blob, path):
            with pytest.raises(LintError, match="TN601"):
                load_network(source, validate=False)

    @pytest.mark.parametrize("damage", sorted(MODEL_DAMAGED))
    def test_damaged_model_file_is_a_diagnostic_on_the_cli(
        self, damage, tmp_path, capsys,
    ):
        from repro.cli import main as cli_main

        path = tmp_path / "bad.npz"
        path.write_bytes(MODEL_DAMAGED[damage](model_file_bytes(tmp_path)))
        capsys.readouterr()
        for argv in (["lint", str(path)], ["run", str(path), "--ticks", "2"]):
            assert cli_main(argv) == 1, argv
            err = capsys.readouterr().err
            assert "TN601" in err and "Traceback" not in err, argv


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
            EngineCheckpoint.load(path)

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
        with pytest.raises(LintError, match="TN601.*legacy"):
            EngineCheckpoint.load(path)
        with pytest.raises(LintError, match="TN601"):
            EngineCheckpoint.from_bytes(buf.getvalue())

    def test_file_round_trip(self, tmp_path):
        net = random_network(n_cores=2, seed=3)
        sim = TrueNorthSimulator(net)
        path = tmp_path / "tn.npz"
        sim.snapshot().save(path)
        loaded = EngineCheckpoint.load(path)
        assert isinstance(loaded, EngineCheckpoint)
        assert loaded.v.size == net.n_neurons
        assert loaded.model_digest == model_digest(net)

    @pytest.mark.parametrize("damage", sorted(CHECKPOINT_DAMAGED))
    def test_damaged_container_is_tn601_on_every_reader(self, damage, tmp_path):
        net = random_network(n_cores=2, seed=3)
        sim = TrueNorthSimulator(net)
        sim.load_inputs(poisson_inputs(net, 10, 500.0, seed=1))
        for _ in range(4):
            sim.step()
        blob = CHECKPOINT_DAMAGED[damage](sim.snapshot().to_bytes())
        path = tmp_path / "bad.npz"
        path.write_bytes(blob)
        with pytest.raises(LintError, match="TN601"):
            EngineCheckpoint.from_bytes(blob)
        with pytest.raises(LintError, match="TN601"):
            EngineCheckpoint.load(path)

    @pytest.mark.parametrize("kind", ["checkpoint", "model"])
    def test_interrupted_save_leaves_nothing_behind(self, kind, tmp_path, monkeypatch):
        import builtins

        import repro.io.container as module

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
        net = random_network(n_cores=2, seed=3)
        save, read = {
            "checkpoint": (TrueNorthSimulator(net).snapshot().save, EngineCheckpoint.load),
            "model": (lambda path: save_network(path, net), load_network),
        }[kind]
        path = tmp_path / "ckpt-20.npz"
        with pytest.raises(OSError, match="disk went away"):
            save(path)
        assert list(tmp_path.iterdir()) == []
        monkeypatch.undo()
        n_bytes = save(path)
        assert [p.name for p in tmp_path.iterdir()] == ["ckpt-20.npz"]
        assert path.stat().st_size == n_bytes
        read(path)  # whole: the reader raises TN601 on anything less

    def test_describe_is_json_friendly(self):
        import json

        net = random_network(n_cores=2, seed=3)
        ckpt = TrueNorthSimulator(net).snapshot()
        json.dumps(ckpt.describe())
