"""Engine-agnostic snapshot/restore: the checkpoint plane around the engines.

That a checkpoint taken at any tick on any engine resumes bit-exactly on
any other is the differential oracle's ``snapshot_restore`` rule
(``tests/property/test_oracle.py``).  Here: files, identity and size
validation, the control pipe, streaming checkpoints and the CLI.
"""

import hashlib
import json
import os
import signal
import socket
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.compass.batched import BatchedCompassSimulator
from repro.compass.compile import compile_network
from repro.compass.fast import FastCompassSimulator
from repro.compass.parallel import ParallelCompassSimulator
from repro.compass.compile import invalidate
from repro.compass.simulator import CompassSimulator
from repro.core.builders import poisson_inputs, random_network
from repro.core.record import SpikeRecord
from repro.hardware.simulator import TrueNorthSimulator
from repro.io.checkpoint import EngineCheckpoint, model_digest
from repro.lint.examples import BUILTIN_NETWORKS
from repro.lint.diagnostics import LintError

TICKS = 30
SPLIT = 13

# Counter fields identical across engines.  `hops`/`messages` are
# expression-dependent (mesh accounting and rank granularity), so
# cross-engine checks compare this logical subset; same-engine resume
# compares every field.
LOGICAL = (
    "ticks", "synaptic_events", "spikes", "deliveries", "neuron_updates",
    "membrane_saturations", "max_core_events_per_tick",
)


# The whole-network expressions, by matrix name.  Parallel pools are
# closed by the tests that build them.
ENGINES = {
    "fast": lambda net: FastCompassSimulator(compile_network(net)),
    "compass": CompassSimulator,
    "truenorth": TrueNorthSimulator,
    "parallel": lambda net: ParallelCompassSimulator(net, n_workers=2),
}


def close(*sims) -> None:
    for sim in sims:
        if hasattr(sim, "close"):
            sim.close()


def small_net(seed=9, stochastic=True, n_cores=3):
    return random_network(
        n_cores=n_cores, n_axons=10, n_neurons=10, connectivity=0.5,
        stochastic=stochastic, seed=seed,
    )


def assert_counters_equal(got, want) -> None:
    for f in fields(want):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if isinstance(b, np.ndarray):
            np.testing.assert_array_equal(a, b, err_msg=f.name)
        else:
            assert a == b, f"{f.name}: {a} != {b}"


def assert_logical_counters_equal(got, want) -> None:
    for name in LOGICAL:
        assert getattr(got, name) == getattr(want, name), name
    np.testing.assert_array_equal(
        got.synaptic_events_per_core, want.synaptic_events_per_core
    )


def drive(sim, n_ticks):
    """Step *sim* n_ticks, collecting (tick, core, neuron) spike events."""
    events = []
    step_arrays = getattr(sim, "step_arrays", None)  # all but ReferenceKernel
    for _ in range(n_ticks):
        if step_arrays is not None:
            tick, cores, neurons = step_arrays()
            events.extend(
                (tick, int(cc), int(nn)) for cc, nn in zip(cores, neurons)
            )
        else:
            events.extend(sim.step())
    return events


def reference_run(net, ins, n_ticks=TICKS):
    """Uninterrupted fast-engine run: the bit-exactness baseline."""
    sim = FastCompassSimulator(compile_network(net))
    sim.load_inputs(ins)
    events = drive(sim, n_ticks)
    return sim, events


def checkpoint_at(net, ins, split=SPLIT):
    """Run the fast engine to *split* ticks; return (checkpoint, events)."""
    sim = FastCompassSimulator(compile_network(net))
    sim.load_inputs(ins)
    head = drive(sim, split)
    return sim.snapshot(), head


class TestSameEngineResume:
    def test_fast_resume_through_bytes_and_file(self, tmp_path):
        net = small_net(seed=4)
        ins = poisson_inputs(net, TICKS, 500.0, seed=7)
        full_sim, full_events = reference_run(net, ins)
        ckpt, head = checkpoint_at(net, ins)

        again = EngineCheckpoint.from_bytes(ckpt.to_bytes())
        path = tmp_path / "mid.npz"
        n_bytes = again.save(path)
        assert n_bytes > 0 and path.stat().st_size == n_bytes
        loaded = EngineCheckpoint.load(path, net)

        resumed = FastCompassSimulator(compile_network(net))
        resumed.restore(loaded)
        tail = drive(resumed, TICKS - SPLIT)
        assert SpikeRecord.from_events(head + tail) == SpikeRecord.from_events(
            full_events
        )
        np.testing.assert_array_equal(resumed.v, full_sim.v)
        assert_counters_equal(resumed.counters, full_sim.counters)

    def test_load_validates_identity(self, tmp_path):
        net = small_net(seed=4)
        other = small_net(seed=5)
        ckpt, _ = checkpoint_at(net, poisson_inputs(net, TICKS, 300.0, seed=1))
        path = tmp_path / "c.npz"
        ckpt.save(path)
        with pytest.raises(LintError, match="TN602"):
            EngineCheckpoint.load(path, other)
        # load without a network skips validation, by design.
        assert EngineCheckpoint.load(path).model_digest == model_digest(net)

    def test_snapshot_after_invalidate_carries_the_rebuilt_digest(self):
        # The digest memo lives and dies with the compiled artifact: a
        # network mutated, invalidated and rebuilt stamps its *new*
        # digest, restores into itself, and is refused by the old model.
        net = small_net(seed=4)
        before = small_net(seed=4)
        FastCompassSimulator(compile_network(net)).snapshot()  # memo filled
        net.cores[0].threshold[:] += 1
        invalidate(net)
        sim = FastCompassSimulator(compile_network(net))
        drive(sim, 3)
        ckpt = sim.snapshot()
        assert ckpt.model_digest == model_digest(net) != model_digest(before)
        FastCompassSimulator(compile_network(net)).restore(ckpt)
        with pytest.raises(LintError, match="TN602"):
            FastCompassSimulator(compile_network(before)).restore(ckpt)

    @pytest.mark.parametrize("engine", sorted(ENGINES) + ["batched"])
    def test_wrong_size_state_refused_without_a_digest(self, engine):
        # check_identity skips an empty digest, so the size check is the
        # only thing between a mis-sized v and the engine's state.
        net = small_net(seed=4)
        ckpt, _ = checkpoint_at(net, poisson_inputs(net, TICKS, 300.0, seed=1))
        ckpt.model_digest = ""
        ckpt.v = ckpt.v[:-1]
        if engine == "batched":
            sim = BatchedCompassSimulator(compile_network(net), 2)
            restore = lambda c: sim.restore_lane(1, c)  # noqa: E731
        else:
            sim = ENGINES[engine](net)
            restore = sim.restore
        try:
            with pytest.raises(LintError, match="TN602"):
                restore(ckpt)
            wide = EngineCheckpoint.from_bytes(ckpt.to_bytes())
            wide.v = np.append(ckpt.v, 0)
            wide.ring = wide.ring[:, :-1]
            with pytest.raises(LintError, match="TN602"):
                restore(wide)
        finally:
            close(sim)

    def test_restore_rejects_foreign_seed(self):
        net = small_net(seed=4)
        ckpt, _ = checkpoint_at(net, poisson_inputs(net, TICKS, 300.0, seed=1))
        ckpt2 = EngineCheckpoint.from_bytes(ckpt.to_bytes())
        ckpt2.seed = ckpt.seed + 1
        with pytest.raises(ValueError):
            FastCompassSimulator(compile_network(net)).restore(ckpt2)

    def test_parallel_restore_of_a_vector_beyond_the_socket_buffer(self):
        # A child's membrane slice travels by pipe.  With the send buffer
        # shrunk far below it (the default only holds ~26k neurons), the
        # caller's send completes only if the child is already in recv.
        net = random_network(
            n_cores=8, n_axons=16, n_neurons=256, connectivity=0.2, seed=9,
        )
        ins = poisson_inputs(net, TICKS, 400.0, seed=3)
        full_sim, full_events = reference_run(net, ins)
        ckpt, head = checkpoint_at(net, ins)

        def hung(signum, frame):
            raise AssertionError("restore() blocked on the control pipe")

        resumed = ParallelCompassSimulator(net, n_workers=2)
        previous = signal.signal(signal.SIGALRM, hung)
        try:
            resumed.snapshot()  # spawn the pool
            sock = socket.socket(fileno=os.dup(resumed._conns[0].fileno()))
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 1)  # the minimum
            sock.close()
            signal.alarm(30)
            resumed.restore(ckpt)
            signal.alarm(0)
            tail = drive(resumed, TICKS - SPLIT)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
            resumed.close()
        assert SpikeRecord.from_events(head + tail) == SpikeRecord.from_events(
            full_events
        )
        assert_logical_counters_equal(resumed.counters, full_sim.counters)


class TestWireFormat:
    """Membranes are int32 in the engine and int64 in a checkpoint, whose
    bytes are those the engine wrote while it held int64 membranes."""

    #: sha256 of ``snapshot().to_bytes()`` at tick 40 of :meth:`_engine`'s
    #: run, recorded from the int64-membrane engine.
    TICK_40_SHA256 = "a7cc01cd6373635f8d83519e1739c3df3d20d9b3cfff50cbab45b6d4984d2c2f"
    #: That engine's checkpoint of the same run at tick 20.
    TICK_20_FILE = Path(__file__).parent / "data" / "recurrent-stochastic-tick20.npz"

    @staticmethod
    def _engine():
        net = BUILTIN_NETWORKS["recurrent-stochastic"]()
        sim = FastCompassSimulator(net)
        sim.load_inputs(poisson_inputs(net, 40, 300.0, seed=2))
        return net, sim

    def test_int32_in_the_engine_int64_on_the_wire(self):
        _, sim = self._engine()
        drive(sim, 40)
        ckpt = sim.snapshot()
        assert sim.v.dtype == np.int32 and ckpt.v.dtype == np.int64
        np.testing.assert_array_equal(ckpt.v, sim.v)
        blob = ckpt.to_bytes()
        assert hashlib.sha256(blob).hexdigest() == self.TICK_40_SHA256
        assert EngineCheckpoint.from_bytes(blob).v.dtype == np.int64

    def test_an_int64_engines_checkpoint_resumes_bit_exactly(self):
        net, sim = self._engine()
        head = drive(sim, 20)
        resumed = FastCompassSimulator(net)
        resumed.restore(EngineCheckpoint.load(self.TICK_20_FILE, net))
        assert resumed.v.dtype == np.int32
        assert drive(resumed, 20) == drive(sim, 20) and head
        assert hashlib.sha256(resumed.snapshot().to_bytes()).hexdigest() == self.TICK_40_SHA256


class TestCheckpointCLI:
    @pytest.mark.parametrize("model, split, total", [
        ("recurrent-deterministic", 10, 30),
        ("recurrent-stochastic", 20, 40),
    ], ids=["10", "20"])  # the resume tick
    def test_simulate_checkpoint_resume_round_trip(
        self, tmp_path, capsys, model, split, total
    ):
        a, b = tmp_path / "a", tmp_path / "b"
        a.mkdir(), b.mkdir()
        rc = cli_main([
            "simulate", model, "--ticks", str(total),
            "--checkpoint-every", str(split), "--checkpoint-dir", str(a),
        ])
        assert rc == 0
        assert sorted(p.name for p in a.iterdir()) == [
            f"ckpt-{tick}.npz" for tick in range(split, total + 1, split)
        ]
        # Resume from tick *split* (the `run` alias exercises the same
        # path); the final checkpoint must be bit-identical to the
        # uninterrupted run's, and `checkpoint inspect` reads it.
        rc = cli_main([
            "run", model, "--ticks", str(total), "--resume", str(a / f"ckpt-{split}.npz"),
            "--checkpoint-every", str(total), "--checkpoint-dir", str(b),
        ])
        assert rc == 0
        assert cli_main(["checkpoint", "inspect", str(a / f"ckpt-{total}.npz")]) == 0
        full = EngineCheckpoint.load(a / f"ckpt-{total}.npz")
        resumed = EngineCheckpoint.load(b / f"ckpt-{total}.npz")
        assert resumed.tick == full.tick == total
        np.testing.assert_array_equal(resumed.v, full.v)
        np.testing.assert_array_equal(resumed.ring, full.ring)
        assert_counters_equal(resumed.counters, full.counters)
        capsys.readouterr()

    def test_truenorth_checkpoint_resumes_on_fast_through_files(
        self, tmp_path, capsys
    ):
        a, b = tmp_path / "a", tmp_path / "b"
        model = "recurrent-stochastic"
        assert cli_main([
            "run", model, "--expression", "fast", "--ticks", "40",
            "--checkpoint-every", "40", "--checkpoint-dir", str(a),
        ]) == 0
        assert cli_main([
            "run", model, "--expression", "truenorth", "--ticks", "20",
            "--checkpoint-every", "20", "--checkpoint-dir", str(b),
        ]) == 0
        assert cli_main([
            "run", model, "--expression", "fast", "--ticks", "40",
            "--resume", str(b / "ckpt-20.npz"),
            "--checkpoint-every", "40", "--checkpoint-dir", str(b),
        ]) == 0
        full = EngineCheckpoint.load(a / "ckpt-40.npz")
        resumed = EngineCheckpoint.load(b / "ckpt-40.npz")
        np.testing.assert_array_equal(resumed.v, full.v)
        np.testing.assert_array_equal(resumed.ring, full.ring)
        capsys.readouterr()

    @pytest.mark.parametrize("keep", [lambda n: n // 2, lambda n: 700],
                             ids=["half", "700-bytes"])
    def test_damaged_file_is_a_diagnostic_not_a_traceback(self, tmp_path, capsys, keep):
        net = small_net(seed=4)
        ckpt, _ = checkpoint_at(net, poisson_inputs(net, TICKS, 300.0, seed=1))
        whole = ckpt.to_bytes()
        kept = keep(len(whole))
        assert kept < len(whole)
        cut = tmp_path / "cut.npz"
        cut.write_bytes(whole[:kept])
        assert cli_main(["checkpoint", "inspect", str(cut)]) == 1
        captured = capsys.readouterr()
        assert "TN601" in captured.err and captured.out == ""
        assert "Traceback" not in captured.err
        rc = cli_main([
            "run", "recurrent-deterministic", "--ticks", "30",
            "--resume", str(cut),
        ])
        assert rc == 1
        assert "TN601" in capsys.readouterr().err

    def test_checkpoint_inspect(self, tmp_path, capsys):
        net = small_net(seed=4)
        ckpt, _ = checkpoint_at(net, poisson_inputs(net, TICKS, 300.0, seed=1))
        path = tmp_path / "c.npz"
        ckpt.save(path)
        assert cli_main(["checkpoint", "inspect", str(path)]) == 0
        out = capsys.readouterr().out
        assert "tick" in out and str(SPLIT) in out
        assert cli_main(["checkpoint", "inspect", str(path), "--json"]) == 0
        info = json.loads(capsys.readouterr().out)
        assert info["tick"] == SPLIT
        assert info["model_digest"] == model_digest(net)
