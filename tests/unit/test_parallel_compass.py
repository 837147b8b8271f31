"""Tests for the shared-memory partitioned ParallelCompass expression."""

import numpy as np
import pytest

from repro.compass import fast
from repro.compass.parallel import (
    _STOP,
    ParallelCompassSimulator,
    auto_workers,
    run_parallel_compass,
)
from repro.compass.simulator import run_compass
from repro.core.builders import poisson_inputs, random_network
from repro.core.kernel import run_kernel


class TestParallelCompass:
    @pytest.mark.parametrize("n_workers", [1, 2, 4])
    def test_matches_reference_kernel(self, n_workers):
        net = random_network(
            n_cores=5, n_axons=10, n_neurons=10, stochastic=True, seed=37
        )
        ins = poisson_inputs(net, 15, 300.0, seed=4)
        ref = run_kernel(net, 15, ins)
        got = run_parallel_compass(net, 15, ins, n_workers=n_workers)
        assert got.first_mismatch(ref) is None

    def test_counters_match_in_process_compass(self):
        # Same partitioning, same rank granularity: every counter —
        # including the cross-rank message tally — must agree with the
        # in-process Compass expression.
        net = random_network(n_cores=4, connectivity=0.5, seed=21)
        ins = poisson_inputs(net, 12, 400.0, seed=2)
        serial = run_compass(net, 12, ins, n_ranks=2)
        parallel = run_parallel_compass(net, 12, ins, n_workers=2)
        assert parallel == serial
        for field in ("synaptic_events", "spikes", "deliveries",
                      "neuron_updates", "messages"):
            assert getattr(parallel.counters, field) == getattr(
                serial.counters, field
            ), field
        assert np.array_equal(
            parallel.counters.synaptic_events_per_core,
            serial.counters.synaptic_events_per_core,
        )

    def test_cross_worker_messages_counted(self):
        net = random_network(n_cores=6, connectivity=0.6, seed=5)
        ins = poisson_inputs(net, 8, 600.0, seed=1)
        sim = ParallelCompassSimulator(net, n_workers=3)
        rec = sim.run(8, ins)
        assert rec.counters.messages > 0

    def test_close_is_idempotent_and_step_after_close_fails(self):
        net = random_network(n_cores=2, seed=1)
        sim = ParallelCompassSimulator(net, n_workers=2)
        sim.step()
        sim.close()
        sim.close()
        with pytest.raises(RuntimeError, match="closed"):
            sim.step()

    def test_far_future_inputs_not_aliased_into_ring_buffer(self):
        # Regression: external inputs beyond DELAY_SLOTS ticks ahead must
        # not wrap into the 16-slot ring slab early.
        from repro.core.inputs import InputSchedule

        net = random_network(n_cores=2, n_axons=8, n_neurons=8, seed=3)
        ins = InputSchedule.from_events(
            [(0, 0, 1), (16, 0, 2), (33, 1, 3), (40, 0, 4)]
        )
        ref = run_kernel(net, 45, ins)
        got = run_parallel_compass(net, 45, ins, n_workers=2)
        assert got.first_mismatch(ref) is None

    def test_inputs_stage_through_the_shared_cache(self):
        # Nothing is cached (the name is older than that): every load is
        # one gather.  A schedule may be run again, and two schedules
        # staged for one tick merge as on the fast engine.
        net = random_network(n_cores=4, connectivity=0.5, seed=12)
        ins = poisson_inputs(net, 12, 500.0, seed=4)
        more = poisson_inputs(net, 12, 500.0, seed=5)
        sim = ParallelCompassSimulator(net, n_workers=2)
        first = sim.run(12, ins)
        assert sim.run(12, ins) == first

        single = fast.FastCompassSimulator(net)
        for engine in (sim, single):
            engine.load_inputs(ins)
            engine.load_inputs(more)
        got, want = sim.run(12), single.run(12)
        assert got == want
        assert got.counters.deliveries > first.counters.deliveries

    def test_workers_shut_down_after_run(self):
        net = random_network(n_cores=2, seed=2)
        sim = ParallelCompassSimulator(net, n_workers=2)
        sim.run(5)
        assert all(not p.is_alive() for p in sim._procs)

    def test_close_drains_workers_mid_protocol(self):
        # If step_arrays() dies between scatter and gather, workers still
        # owe a tick reply; close() must drain it so join cannot deadlock.
        net = random_network(n_cores=4, connectivity=0.6, seed=6)
        sim = ParallelCompassSimulator(net, n_workers=2)
        sim.step()  # spawn the pool
        for rank, conn in enumerate(sim._conns):
            conn.send(sim.tick)
            sim._awaiting[rank] = True
        sim.close()  # must not hang
        assert all(not p.is_alive() for p in sim._procs)


class TestSharedMemoryLifecycle:
    def test_bulk_data_lives_in_shared_memory(self):
        # The wire format is shared segments, not pickled pipe payloads:
        # every per-rank region must be attachable by name while live.
        from multiprocessing import shared_memory

        net = random_network(n_cores=4, connectivity=0.6, seed=7)
        ins = poisson_inputs(net, 10, 500.0, seed=3)
        sim = ParallelCompassSimulator(net, n_workers=2)
        try:
            sim.load_inputs(ins)
            for _ in range(10):
                sim.step()
            assert len(sim._shms) == 2
            for shms in sim._shms:
                assert set(shms) == {"ring", "spikes", "outbox", "stats"}
                for shm in shms.values():
                    probe = shared_memory.SharedMemory(name=shm.name)
                    probe.close()
        finally:
            sim.close()

    def test_close_unlinks_every_segment(self):
        from multiprocessing import shared_memory

        net = random_network(n_cores=4, connectivity=0.6, seed=8)
        sim = ParallelCompassSimulator(net, n_workers=2)
        sim.step()
        names = [shm.name for shms in sim._shms for shm in shms.values()]
        assert len(names) == 8
        sim.close()
        for name in names:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)

    def test_pipes_carry_only_tick_numbers(self):
        # The control channel is a barrier, not a data plane: workers
        # echo the bare tick int (and accept the stop sentinel).
        net = random_network(n_cores=2, seed=9)
        sim = ParallelCompassSimulator(net, n_workers=2)
        try:
            sim.step()
            assert _STOP < 0
            for conn in sim._conns:
                conn.send(sim.tick)
            for conn in sim._conns:
                assert conn.recv() == sim.tick
        finally:
            sim.close()


class TestRerun:
    def test_run_twice_is_bit_identical(self):
        # run() closes the pool, but the partitioned artifact is kept:
        # a second run() re-spawns workers and replays identically.
        net = random_network(n_cores=4, connectivity=0.5, stochastic=True, seed=13)
        ins = poisson_inputs(net, 12, 400.0, seed=6)
        sim = ParallelCompassSimulator(net, n_workers=2)
        first = sim.run(12, ins)
        second = sim.run(12, poisson_inputs(net, 12, 400.0, seed=6))
        assert first == second
        assert first.counters.spikes == second.counters.spikes
        assert all(not p.is_alive() for p in sim._procs)

    def test_run_after_explicit_close(self):
        net = random_network(n_cores=3, seed=14)
        ins = poisson_inputs(net, 8, 500.0, seed=7)
        ref = run_kernel(net, 8, ins)
        sim = ParallelCompassSimulator(net, n_workers=2)
        sim.step()
        sim.close()
        rec = sim.run(8, poisson_inputs(net, 8, 500.0, seed=7))
        assert rec.first_mismatch(ref) is None

    def test_step_after_close_error_names_the_remedy(self):
        net = random_network(n_cores=2, seed=15)
        sim = ParallelCompassSimulator(net, n_workers=2)
        sim.run(3)
        with pytest.raises(RuntimeError, match="run\\(\\)"):
            sim.step_arrays()


class TestAutoWorkers:
    def test_small_networks_stay_single_process(self):
        net = random_network(n_cores=4, seed=16)
        assert auto_workers(net) == 1

    def test_threshold_is_above_every_size_two_workers_lost_at(self):
        # docs/performance.md, PR 19: 0.5x at 16,384 neurons (the layer
        # benchmark's own operating point) and 0.6x at 65,536.
        from repro.compass import parallel as par

        assert par.AUTO_MIN_NEURONS > 65_536

    def test_auto_spans_cpus_above_threshold(self, monkeypatch):
        from repro.compass import parallel as par

        monkeypatch.setattr(par, "_usable_cpus", lambda: 8)
        monkeypatch.setattr(par, "AUTO_MIN_NEURONS", 16)
        net = random_network(n_cores=6, n_neurons=8, seed=17)
        assert auto_workers(net) == min(par.AUTO_MAX_WORKERS, 8, 6)

    def test_single_cpu_host_never_goes_parallel(self, monkeypatch):
        from repro.compass import parallel as par

        monkeypatch.setattr(par, "_usable_cpus", lambda: 1)
        monkeypatch.setattr(par, "AUTO_MIN_NEURONS", 1)
        net = random_network(n_cores=6, seed=18)
        assert auto_workers(net) == 1

    def test_constructor_accepts_auto(self):
        net = random_network(n_cores=3, seed=19)
        sim = ParallelCompassSimulator(net, n_workers="auto")
        try:
            assert sim.n_workers == auto_workers(net)
        finally:
            sim.close()

    def test_rejects_bad_worker_count(self):
        net = random_network(n_cores=2, seed=20)
        with pytest.raises(ValueError):
            ParallelCompassSimulator(net, n_workers=0)


class TestWorkerFailure:
    """A dead rank must surface as WorkerFailedError, not a barrier hang."""

    @staticmethod
    def _fork_only():
        import multiprocessing as mp

        if "fork" not in mp.get_all_start_methods():
            pytest.skip("fault injection via monkeypatch needs fork start method")

    def test_worker_exception_raises_and_unlinks(self, monkeypatch):
        self._fork_only()
        from multiprocessing import shared_memory

        from repro.compass import parallel as par

        def _boom(*args, **kwargs):
            raise RuntimeError("injected worker fault")

        # Fork inherits the patched module (the worker's TickState
        # reaches the kernels through repro.compass.fast), so every
        # worker raises on its first neuron update.
        monkeypatch.setattr(fast, "update_neurons", _boom)
        net = random_network(n_cores=4, connectivity=0.6, seed=31)
        sim = ParallelCompassSimulator(net, n_workers=2)
        sim._spawn()
        names = [shm.name for shms in sim._shms for shm in shms.values()]
        with pytest.raises(par.WorkerFailedError, match="rank"):
            sim.step()
        assert sim._closed
        assert sim._shms == []
        for name in names:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)
        assert all(not p.is_alive() for p in sim._procs)

    def test_error_carries_worker_traceback(self, monkeypatch):
        self._fork_only()
        from repro.compass import parallel as par

        def _boom(*args, **kwargs):
            raise ValueError("distinctive-worker-detail")

        monkeypatch.setattr(fast, "integrate_deliveries", _boom)
        monkeypatch.setattr(fast, "integrate_deliveries_gated", _boom)
        net = random_network(n_cores=4, connectivity=0.6, seed=32)
        ins = poisson_inputs(net, 4, 800.0, seed=1)
        sim = ParallelCompassSimulator(net, n_workers=2)
        sim.load_inputs(ins)
        with pytest.raises(par.WorkerFailedError) as err:
            for _ in range(4):
                sim.step()
        assert "distinctive-worker-detail" in str(err.value)
        assert err.value.rank in (0, 1)

    def test_killed_worker_does_not_hang(self):
        net = random_network(n_cores=4, connectivity=0.6, seed=33)
        sim = ParallelCompassSimulator(net, n_workers=2)
        sim.step()  # spawn + one clean barrier round-trip
        sim._procs[0].kill()
        sim._procs[0].join(timeout=5)
        from repro.compass.parallel import WorkerFailedError

        with pytest.raises(WorkerFailedError, match="died|closed"):
            for _ in range(3):
                sim.step()
        assert sim._closed and sim._shms == []

    def test_stopped_worker_is_a_bounded_structured_error(self, tmp_path, monkeypatch):
        """A live-but-hung rank: no reply within the deadline, then a
        full cleanup — every process reaped, every segment unlinked, and
        a crash bundle whose checkpoint resumes on a fast engine."""
        import json
        import os
        import signal
        import time
        from multiprocessing import shared_memory

        from repro.compass import parallel as par
        from repro.compass.fast import FastCompassSimulator
        from repro.io.checkpoint import EngineCheckpoint
        from repro.obs import Observer

        monkeypatch.setattr(par, "REPLY_DEADLINE_S", 1.0)
        monkeypatch.setenv("REPRO_CRASH_DIR", str(tmp_path))
        net = random_network(n_cores=4, connectivity=0.6, stochastic=True, seed=35)
        ins = poisson_inputs(net, 12, 500.0, seed=3)
        sim = ParallelCompassSimulator(
            net, n_workers=2, obs=Observer(), checkpoint_every=2
        )
        sim.load_inputs(ins)
        for _ in range(5):
            sim.step()
        names = [shm.name for shms in sim._shms for shm in shms.values()]
        procs = list(sim._procs)
        os.kill(procs[0].pid, signal.SIGSTOP)
        began = time.monotonic()
        try:
            with pytest.raises(par.WorkerFailedError, match="no reply within 1 s") as err:
                sim.step()
        finally:
            for proc in procs:  # never leave a stopped process behind
                if proc.is_alive():
                    proc.kill()
        assert time.monotonic() - began < 15.0
        assert err.value.rank == 0
        assert sim._closed and sim._shms == []
        for proc in procs:
            assert not proc.is_alive() and proc.exitcode is not None
        for name in names:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)

        (bundle,) = [p for p in tmp_path.iterdir() if p.name.startswith("crash-")]
        manifest = json.loads((bundle / "manifest.json").read_text())
        assert manifest["reason"] == "worker_failed rank=0"
        assert manifest["checkpoint_tick"] == 4
        with np.load(bundle / "flight.npz") as data:
            assert data["rows"]["tick"].tolist() == [0, 1, 2, 3, 4]
        resumed = FastCompassSimulator(net)
        resumed.restore(EngineCheckpoint.load(str(bundle / "checkpoint.npz"), net))
        whole = FastCompassSimulator(net)
        whole.load_inputs(ins)
        for _ in range(4):
            whole.step()
        for _ in range(8):
            assert resumed.step() == whole.step()

    def test_failure_emits_structured_log_event(self, monkeypatch):
        self._fork_only()
        import io

        from repro.compass import parallel as par
        from repro.obs.log import configure

        def _boom(*args, **kwargs):
            raise RuntimeError("logged fault")

        monkeypatch.setattr(fast, "update_neurons", _boom)
        stream = io.StringIO()
        configure(level="ERROR", stream=stream, force=True)
        try:
            net = random_network(n_cores=4, connectivity=0.6, seed=34)
            sim = ParallelCompassSimulator(net, n_workers=2)
            with pytest.raises(par.WorkerFailedError):
                sim.step()
        finally:
            configure(force=True)
        out = stream.getvalue()
        assert "parallel.worker_failed" in out
        assert "rank=" in out and "tick=" in out
