"""Engine-agnostic snapshot/restore: the checkpoint plane across engines.

The tentpole invariant: a checkpoint captured at ANY mid-run tick on
ANY engine restores — on the same engine or a different one — to a
simulator whose remaining run is bit-identical to the uninterrupted
one: same spikes, same membranes, same event counters.  Counter-based
PRNG makes this possible; these tests make it enforced.
"""

import json
import os
import signal
import socket
from dataclasses import fields

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.compass.batched import BatchedCompassSimulator
from repro.compass.compile import compile_network
from repro.compass.fast import FastCompassSimulator
from repro.compass.parallel import ParallelCompassSimulator, WorkerFailedError
from repro.compass.compile import invalidate
from repro.compass.simulator import CompassSimulator
from repro.core import params
from repro.core.builders import poisson_inputs, random_network
from repro.core.record import SpikeRecord
from repro.hardware.simulator import TrueNorthSimulator
from repro.io.checkpoint import EngineCheckpoint, load_checkpoint, model_digest
from repro.lint.diagnostics import LintError
from repro.obs import Observer
from repro.obs.flight import write_crash_dump
from repro.runtime.serving import ModelServer
from repro.runtime.streaming import SceneSource, StreamingRuntime

TICKS = 30
SPLIT = 13

# Counter fields identical across engines.  `hops`/`messages` are
# expression-dependent (mesh accounting and rank granularity) and
# `active_neuron_updates` depends on gating, so cross-engine checks
# compare this logical subset; same-engine resume compares every field.
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
    @pytest.mark.parametrize("gated", [True, False])
    def test_fast_resume_bit_exact(self, gated):
        net = small_net()
        ins = poisson_inputs(net, TICKS, 400.0, seed=3)
        full_sim, full_events = reference_run(net, ins)

        sim = FastCompassSimulator(compile_network(net), gated=gated)
        sim.load_inputs(ins)
        head = drive(sim, SPLIT)
        ckpt = sim.snapshot()

        resumed = FastCompassSimulator(compile_network(net), gated=gated)
        resumed.restore(ckpt)
        tail = drive(resumed, TICKS - SPLIT)
        assert SpikeRecord.from_events(head + tail) == SpikeRecord.from_events(
            full_events
        )
        np.testing.assert_array_equal(resumed.v, full_sim.v)
        assert_counters_equal(resumed.counters, full_sim.counters)

    @pytest.mark.parametrize("engine", sorted(ENGINES))
    def test_every_expression_resumes_with_every_counter(self, engine):
        # Same expression on both sides of the split: every counter
        # field, the expression-dependent ones included, must match the
        # uninterrupted run of that expression, through the container.
        net = small_net(n_cores=4)
        ins = poisson_inputs(net, TICKS, 400.0, seed=3)
        full, first, resumed = (ENGINES[engine](net) for _ in range(3))
        try:
            full.load_inputs(ins)
            full_events = drive(full, TICKS)
            first.load_inputs(ins)
            head = drive(first, SPLIT)
            resumed.restore(
                EngineCheckpoint.from_bytes(first.snapshot().to_bytes())
            )
            tail = drive(resumed, TICKS - SPLIT)
            assert SpikeRecord.from_events(head + tail) == \
                SpikeRecord.from_events(full_events)
            np.testing.assert_array_equal(
                resumed.snapshot().v, full.snapshot().v
            )
            assert_counters_equal(resumed.counters, full.counters)
        finally:
            close(full, first, resumed)

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
        # load_checkpoint without a network skips validation, by design.
        assert load_checkpoint(path).model_digest == model_digest(net)

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
            wide = ckpt.copy()
            wide.v = np.append(ckpt.v, 0)
            wide.ring = wide.ring[:, :-1]
            with pytest.raises(LintError, match="TN602"):
                restore(wide)
        finally:
            close(sim)

    def test_restore_rejects_foreign_seed(self):
        net = small_net(seed=4)
        ckpt, _ = checkpoint_at(net, poisson_inputs(net, TICKS, 300.0, seed=1))
        ckpt2 = ckpt.copy()
        ckpt2.seed = ckpt.seed + 1
        with pytest.raises(ValueError):
            FastCompassSimulator(compile_network(net)).restore(ckpt2)

    def test_parallel_resume_into_different_worker_count(self):
        net = small_net(n_cores=4)
        ins = poisson_inputs(net, TICKS, 400.0, seed=3)
        _, full_events = reference_run(net, ins)

        first = ParallelCompassSimulator(net, n_workers=2)
        second = ParallelCompassSimulator(net, n_workers=3)
        try:
            first.load_inputs(ins)
            head = drive(first, SPLIT)
            ckpt = first.snapshot()
            # The checkpoint is in global coordinates: a pool with a
            # DIFFERENT partitioning restores it bit-exactly.
            second.restore(ckpt)
            tail = drive(second, TICKS - SPLIT)
        finally:
            first.close()
            second.close()
        assert SpikeRecord.from_events(head + tail) == SpikeRecord.from_events(
            full_events
        )

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


class TestCrossEngineRestore:
    @pytest.mark.parametrize("src, dst", [
        ("truenorth", "fast"), ("fast", "truenorth"),
        ("truenorth", "parallel"), ("truenorth", "compass"),
        ("compass", "truenorth"), ("compass", "fast"),
        ("parallel", "truenorth"),
    ])
    def test_cross_expression_matrix(self, src, dst):
        # The hardware expression speaks the one checkpoint too: a state
        # captured on it resumes on every software expression and back.
        net = small_net(n_cores=4)
        ins = poisson_inputs(net, TICKS, 400.0, seed=3)
        full_sim, full_events = reference_run(net, ins)
        first, resumed = ENGINES[src](net), ENGINES[dst](net)
        try:
            first.load_inputs(ins)
            head = drive(first, SPLIT)
            resumed.restore(first.snapshot())
            tail = drive(resumed, TICKS - SPLIT)
            assert SpikeRecord.from_events(head + tail) == \
                SpikeRecord.from_events(full_events)
            np.testing.assert_array_equal(resumed.snapshot().v, full_sim.v)
            assert_logical_counters_equal(resumed.counters, full_sim.counters)
        finally:
            close(first, resumed)

    def test_saturation_tally_is_identical_across_expressions(self):
        # core/counters.py calls membrane_saturations "identical across
        # expressions"; before the shared per-core tick TrueNorth never
        # booked it.  Two neurons per core are driven onto the rails: one
        # leaks down to MEMBRANE_MIN under a floor too low to catch it,
        # one starts above every threshold and never resets.
        net = small_net(n_cores=3)
        for core in net.cores:
            core.initial_v[:2] = params.MEMBRANE_MIN + 7, params.MEMBRANE_MAX - 7
            core.leak[:2] = -3, 3
            core.stoch_leak[:2] = core.leak_reversal[:2] = False
            core.neg_threshold[0] = -params.MEMBRANE_MIN
            core.reset_mode[1] = params.RESET_NONE
        ins = poisson_inputs(net, TICKS, 400.0, seed=3)
        sims = {name: ENGINES[name](net) for name in ("fast", "compass", "truenorth")}
        for sim in sims.values():
            sim.run(TICKS, ins)
        assert sims["fast"].counters.membrane_saturations > TICKS
        for name in ("compass", "truenorth"):
            assert_logical_counters_equal(sims[name].counters, sims["fast"].counters)
            np.testing.assert_array_equal(sims[name].v, sims["fast"].v)

    def test_truenorth_to_batched_lane(self):
        net = small_net()
        ins = poisson_inputs(net, TICKS, 400.0, seed=3)
        full_sim, full_events = reference_run(net, ins)
        chip = TrueNorthSimulator(net)
        chip.load_inputs(ins)
        head = drive(chip, SPLIT)

        batched = BatchedCompassSimulator(compile_network(net), 3)
        batched.restore_lane(2, chip.snapshot())
        tail = []
        for _ in range(TICKS - SPLIT):
            tail.extend((t, c, nn) for b, t, c, nn in batched.step() if b == 2)
        assert SpikeRecord.from_events(head + tail) == SpikeRecord.from_events(
            full_events
        )
        np.testing.assert_array_equal(batched.v[2], full_sim.v)
        assert_logical_counters_equal(batched.lane_counters(2), full_sim.counters)
        # The mesh hops the chip counted ride along in the lane's tally.
        assert batched.lane_counters(2).hops == chip.counters.hops

    def test_fast_to_batched_lane(self):
        net = small_net()
        ins = poisson_inputs(net, TICKS, 400.0, seed=3)
        full_sim, full_events = reference_run(net, ins)
        ckpt, head = checkpoint_at(net, ins)

        batched = BatchedCompassSimulator(compile_network(net), 3)
        batched.restore_lane(1, ckpt)
        events = []
        for _ in range(TICKS - SPLIT):
            events.extend(
                (t, c, nn) for b, t, c, nn in batched.step() if b == 1
            )
        assert SpikeRecord.from_events(head + events) == SpikeRecord.from_events(
            full_events
        )
        np.testing.assert_array_equal(batched.v[1], full_sim.v)
        assert_logical_counters_equal(
            batched.lane_counters(1), full_sim.counters
        )

    def test_batched_lane_to_fast(self):
        net = small_net()
        ins = poisson_inputs(net, TICKS, 400.0, seed=3)
        full_sim, full_events = reference_run(net, ins)

        batched = BatchedCompassSimulator(
            compile_network(net), 2, seeds=[net.seed, net.seed + 1]
        )
        batched.load_inputs(ins, lane=0)
        head = []
        for _ in range(SPLIT):
            head.extend(
                (t, c, nn) for b, t, c, nn in batched.step() if b == 0
            )
        ckpt = batched.snapshot_lane(0)

        resumed = FastCompassSimulator(compile_network(net))
        resumed.restore(ckpt)
        tail = drive(resumed, TICKS - SPLIT)
        assert SpikeRecord.from_events(head + tail) == SpikeRecord.from_events(
            full_events
        )
        np.testing.assert_array_equal(resumed.v, full_sim.v)

    def test_parallel_to_fast_and_back(self):
        net = small_net(n_cores=4)
        ins = poisson_inputs(net, TICKS, 400.0, seed=3)
        full_sim, full_events = reference_run(net, ins)

        par = ParallelCompassSimulator(net, n_workers=2)
        try:
            par.load_inputs(ins)
            head = drive(par, SPLIT)
            ckpt = par.snapshot()
        finally:
            par.close()

        fast = FastCompassSimulator(compile_network(net))
        fast.restore(ckpt)
        tail = drive(fast, TICKS - SPLIT)
        assert SpikeRecord.from_events(head + tail) == SpikeRecord.from_events(
            full_events
        )
        np.testing.assert_array_equal(fast.v, full_sim.v)

        # And the other direction: fast -> parallel.
        ckpt2, head2 = checkpoint_at(net, ins)
        par2 = ParallelCompassSimulator(net, n_workers=3)
        try:
            par2.restore(ckpt2)
            tail2 = drive(par2, TICKS - SPLIT)
        finally:
            par2.close()
        assert SpikeRecord.from_events(head2 + tail2) == SpikeRecord.from_events(
            full_events
        )

    def test_whole_batch_snapshot_round_trip(self):
        net = small_net()
        ins = poisson_inputs(net, TICKS, 400.0, seed=3)
        compiled = compile_network(net)
        a = BatchedCompassSimulator(compiled, 2, seeds=[7, 8])
        a.load_inputs(ins)
        for _ in range(SPLIT):
            a.step()
        ckpts = a.snapshot()
        assert len(ckpts) == 2

        b = BatchedCompassSimulator(compiled, 2, seeds=[0, 0])
        b.restore(ckpts)
        for _ in range(TICKS - SPLIT):
            assert a.step() == b.step()
        np.testing.assert_array_equal(a.v, b.v)


class TestCrashDumpCheckpoint:
    def test_bundle_carries_restorable_checkpoint(self, tmp_path):
        net = small_net(seed=4)
        ckpt, _ = checkpoint_at(net, poisson_inputs(net, TICKS, 300.0, seed=1))
        bundle = write_crash_dump(
            None, "unit", crash_dir=str(tmp_path), checkpoint=ckpt
        )
        with open(os.path.join(bundle, "manifest.json")) as fh:
            manifest = json.load(fh)
        assert "checkpoint.npz" in manifest["files"]
        assert manifest["checkpoint_tick"] == SPLIT
        loaded = EngineCheckpoint.load(
            os.path.join(bundle, "checkpoint.npz"), net
        )
        np.testing.assert_array_equal(loaded.v, ckpt.v)

    def test_killed_worker_leaves_resumable_checkpoint(
        self, tmp_path, monkeypatch
    ):
        # The acceptance-criterion path: kill a parallel worker mid-run;
        # the crash bundle's checkpoint resumes — bit-identical to the
        # uninterrupted run — on a fresh engine.
        monkeypatch.setenv("REPRO_CRASH_DIR", str(tmp_path))
        net = small_net(n_cores=4, seed=41)
        ins = poisson_inputs(net, TICKS, 400.0, seed=3)
        full_sim, full_events = reference_run(net, ins)

        sim = ParallelCompassSimulator(
            net, n_workers=2, obs=Observer(), checkpoint_every=5
        )
        try:
            sim.load_inputs(ins)
            head = drive(sim, SPLIT)  # periodic checkpoints at 5 and 10
            assert sim.last_checkpoint is not None
            assert sim.last_checkpoint.tick == 10
            sim._procs[0].kill()
            sim._procs[0].join(timeout=5)
            with pytest.raises(WorkerFailedError):
                for _ in range(3):
                    sim.step_arrays()
        finally:
            sim.close()

        bundles = [p for p in tmp_path.iterdir() if p.name.startswith("crash-")]
        assert len(bundles) == 1
        manifest = json.loads((bundles[0] / "manifest.json").read_text())
        assert "checkpoint.npz" in manifest["files"]
        assert manifest["checkpoint_tick"] == 10

        resumed = FastCompassSimulator(compile_network(net))
        resumed.restore(EngineCheckpoint.load(bundles[0] / "checkpoint.npz", net))
        tail = drive(resumed, TICKS - 10)
        assert SpikeRecord.from_events(head[: _n_until(head, 10)] + tail) == \
            SpikeRecord.from_events(full_events)
        np.testing.assert_array_equal(resumed.v, full_sim.v)


def _n_until(events, tick):
    """Number of leading *events* with tick < *tick* (events are ordered)."""
    return sum(1 for t, _, _ in events if t < tick)


class TestServingPreemption:
    def test_preempted_session_is_bit_identical(self):
        net = small_net()
        ins = poisson_inputs(net, 20, 300.0, seed=2)

        ref = ModelServer(net, n_lanes=2)
        baseline = ref.submit(ins, 20)
        ref.run()

        server = ModelServer(net, n_lanes=2)
        session = server.submit(ins, 20)
        for _ in range(7):
            server.step()
        out = server.preempt(session.session_id)
        assert out is session
        assert session.lane is None and session.preemptions == 1
        assert not session.done
        server.run()
        assert session.done
        assert session.record == baseline.record

    def test_preempt_to_disk_and_resume(self, tmp_path):
        net = small_net()
        ins = poisson_inputs(net, 20, 300.0, seed=2)

        ref = ModelServer(net, n_lanes=1)
        baseline = ref.submit(ins, 20)
        ref.run()

        obs = Observer()
        server = ModelServer(net, n_lanes=1, obs=obs,
                             checkpoint_dir=str(tmp_path))
        session = server.submit(ins, 20)
        for _ in range(5):
            server.step()
        server.preempt(session.session_id)
        path = tmp_path / f"{session.session_id}.npz"
        assert path.exists()
        assert session._checkpoint is None  # spilled to disk, not memory
        loaded = load_checkpoint(path)
        assert loaded.tick == 5
        assert obs.metrics.counter("repro_checkpoints_total").value() == 1
        assert obs.metrics.counter("repro_checkpoint_bytes_total").value() > 0
        server.run()
        assert session.done and session.record == baseline.record

    def test_preempt_unknown_session_rejected(self):
        server = ModelServer(small_net(), n_lanes=1)
        with pytest.raises(ValueError):
            server.preempt("no-such-session")


class TestStreamingCheckpoints:
    def _runtime(self, tmp_path, obs):
        from repro.apps.video import generate_scene
        from repro.corelets.corelet import Composition
        from repro.corelets.library.basic import relay

        comp = Composition(seed=0)
        r = relay(12 * 20)
        comp.add(r)
        comp.export_input("in", r.inputs["in"])
        comp.export_output("out", r.outputs["out"])
        compiled = comp.compile()
        scene = generate_scene(12, 20, n_frames=3, seed=2)
        runtime = StreamingRuntime(
            compiled.network,
            compiled.inputs["in"],
            ticks_per_frame=5,
            obs=obs,
            checkpoint_every=4,
            checkpoint_dir=str(tmp_path),
        )
        return runtime, scene

    def test_periodic_checkpoints_written(self, tmp_path):
        obs = Observer()
        runtime, scene = self._runtime(tmp_path, obs)
        runtime.run(SceneSource(scene))
        # 3 frames x 5 ticks + 2 drain ticks = 17 ticks -> every 4.
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == ["ckpt-12.npz", "ckpt-16.npz", "ckpt-4.npz", "ckpt-8.npz"]
        assert runtime.last_checkpoint is not None
        assert runtime.last_checkpoint.tick == 16
        assert obs.metrics.counter("repro_checkpoints_total").value() == 4
        assert obs.metrics.counter("repro_checkpoint_bytes_total").value() > 0
        loaded = load_checkpoint(tmp_path / "ckpt-16.npz")
        assert loaded.tick == 16


class TestCheckpointCLI:
    def test_simulate_checkpoint_resume_round_trip(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        a.mkdir(), b.mkdir()
        model = "recurrent-deterministic"
        rc = cli_main([
            "simulate", model, "--ticks", "30",
            "--checkpoint-every", "10", "--checkpoint-dir", str(a),
        ])
        assert rc == 0
        assert sorted(p.name for p in a.iterdir()) == [
            "ckpt-10.npz", "ckpt-20.npz", "ckpt-30.npz",
        ]
        # Resume from tick 10 (the `run` alias exercises the same path);
        # the final checkpoint must be bit-identical to the
        # uninterrupted run's.
        rc = cli_main([
            "run", model, "--ticks", "30", "--resume", str(a / "ckpt-10.npz"),
            "--checkpoint-every", "30", "--checkpoint-dir", str(b),
        ])
        assert rc == 0
        full = load_checkpoint(a / "ckpt-30.npz")
        resumed = load_checkpoint(b / "ckpt-30.npz")
        assert resumed.tick == full.tick == 30
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
        full = load_checkpoint(a / "ckpt-40.npz")
        resumed = load_checkpoint(b / "ckpt-40.npz")
        np.testing.assert_array_equal(resumed.v, full.v)
        np.testing.assert_array_equal(resumed.ring, full.ring)
        capsys.readouterr()

    def test_damaged_file_is_a_diagnostic_not_a_traceback(self, tmp_path, capsys):
        net = small_net(seed=4)
        ckpt, _ = checkpoint_at(net, poisson_inputs(net, TICKS, 300.0, seed=1))
        whole = ckpt.to_bytes()
        cut = tmp_path / "cut.npz"
        cut.write_bytes(whole[: len(whole) // 2])
        assert cli_main(["checkpoint", "inspect", str(cut)]) == 1
        captured = capsys.readouterr()
        assert "TN601" in captured.err and captured.out == ""
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
