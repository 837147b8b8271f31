"""Tests for the peer-rank shared-memory ParallelCompass expression."""

import numpy as np
import pytest

from repro.compass import fast
from repro.compass.engine import run_engine
from repro.compass.parallel import ParallelCompassSimulator
from repro.compass.simulator import CompassSimulator
from repro.core.builders import poisson_inputs, random_network


class TestParallelCompass:
    def test_counters_match_in_process_compass(self):
        # Same partitioning, same rank granularity: every counter —
        # including the cross-rank message tally — must agree with the
        # in-process Compass expression.
        net = random_network(n_cores=4, connectivity=0.5, seed=21)
        ins = poisson_inputs(net, 12, 400.0, seed=2)
        serial = CompassSimulator(net, n_ranks=2).run(12, ins)
        parallel = ParallelCompassSimulator(net).run(12, ins)
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
        # If step_arrays() dies between go and done, the peers are inside
        # a tick whose done nobody will take; close() must still stop
        # them, so join cannot deadlock.
        net = random_network(n_cores=4, connectivity=0.6, seed=6)
        sim = ParallelCompassSimulator(net, n_workers=3)
        sim.step()  # spawn the pool
        sim._release(sim.tick)
        sim.close()  # must not hang
        assert len(sim._procs) == 2
        assert all(p.exitcode == 0 for p in sim._procs)

    def test_rank_zero_runs_in_the_calling_process(self):
        # N ranks are the caller plus N - 1 children: nobody coordinates.
        import multiprocessing as mp

        net = random_network(n_cores=6, connectivity=0.6, seed=6)
        before = set(mp.active_children())
        sim = ParallelCompassSimulator(net, n_workers=3)
        try:
            sim.step()
            assert set(sim._procs) == set(mp.active_children()) - before
            assert len(sim._procs) == 2
            assert all(proc.is_alive() for proc in sim._procs)
        finally:
            sim.close()
        assert not any(proc.is_alive() for proc in sim._procs)


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
            assert [set(shms) for shms in sim._shms] == [
                {"ring", "spikes", "stats", "sync"},  # rank 0 holds the sync word
                {"ring", "spikes", "stats"},
            ]
            for shms in sim._shms:
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
        assert len(names) == 7
        sim.close()
        for name in names:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)

    def test_pipes_carry_no_per_tick_traffic(self, monkeypatch):
        # The barrier is the go / done semaphores; a pipe moves only
        # between-tick control: here, the one snapshot round trip.
        from multiprocessing.connection import Connection

        net = random_network(n_cores=4, connectivity=0.6, seed=9)
        sim = ParallelCompassSimulator(net, n_workers=2)
        try:
            sim.load_inputs(poisson_inputs(net, 20, 500.0, seed=2))
            sim.step()  # spawn
            sent = []
            send = Connection.send
            monkeypatch.setattr(
                Connection, "send", lambda conn, obj: (sent.append(obj), send(conn, obj))[1]
            )
            for _ in range(20):
                sim.step()
            assert sent == [] and not any(conn.poll() for conn in sim._conns)
            sim.snapshot()
            assert len(sent) == 1  # the request; the reply is sent in the child
        finally:
            monkeypatch.undo()
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
        ref = run_engine(net, 8, ins, engine="reference")
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
    """There is no automatic rank count: ``engine="auto"`` never selects
    this engine (docs/performance.md, PR 21: the decision rule was NOT
    MET — two ranks 2.0x at 262,144 neurons but 1.8x the RSS against a
    1.5x bound), and asked for by name it runs the constructor's two
    ranks unless told otherwise."""

    def test_small_networks_stay_single_process(self):
        from repro.compass.engine import select_engine

        net = random_network(n_cores=4, seed=16)
        assert isinstance(select_engine(net, "auto"), fast.FastCompassSimulator)

    def test_threshold_is_above_every_size_two_workers_lost_at(self):
        # No threshold is left to tune, and rank-level requests go to Compass.
        from repro.compass import parallel as par
        from repro.compass.engine import select_engine

        assert not hasattr(par, "AUTO_MIN_NEURONS")
        net = random_network(n_cores=6, n_neurons=8, seed=17)
        for n_ranks in (1, 3):
            sim = select_engine(net, "auto", n_ranks=n_ranks)
            assert not isinstance(sim, ParallelCompassSimulator)

    def test_single_cpu_host_never_goes_parallel(self, monkeypatch):
        # Whatever the host offers, "auto" does not look at it.
        from repro.compass.engine import select_engine

        monkeypatch.setattr("os.cpu_count", lambda: 64)
        net = random_network(n_cores=6, seed=18)
        assert isinstance(select_engine(net, "auto"), fast.FastCompassSimulator)

    def test_engine_parallel_without_a_count_is_two_ranks(self):
        net = random_network(n_cores=3, seed=19)
        sim = ParallelCompassSimulator(net)
        assert sim.n_workers == 2
        sim.run(3)
        assert len(sim._procs) == 1  # rank 0 is the caller
        with pytest.raises(ValueError, match="positive integer"):
            ParallelCompassSimulator(net, n_workers="auto")

    def test_rejects_bad_worker_count(self):
        net = random_network(n_cores=2, seed=20)
        with pytest.raises(ValueError):
            ParallelCompassSimulator(net, n_workers=0)


class TestWorkerFailure:
    """A dead rank must surface as WorkerFailedError, not a barrier hang.

    ``_procs[0]`` is rank 1's process: rank 0 is the test's own.
    """

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

        # Fork inherits the patched module (a rank's TickState reaches
        # the kernels through repro.compass.fast), so every rank — the
        # caller's own rank 0 first — raises on its first neuron update.
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

        monkeypatch.setattr(fast, "_integrate", _boom)
        net = random_network(n_cores=4, connectivity=0.6, seed=32)
        ins = poisson_inputs(net, 4, 800.0, seed=1)
        sim = ParallelCompassSimulator(net, n_workers=2)
        sim.load_inputs(ins)
        with pytest.raises(par.WorkerFailedError) as err:
            for _ in range(4):
                sim.step()
        assert "distinctive-worker-detail" in str(err.value)
        assert err.value.rank in (0, 1)

    @pytest.mark.parametrize("phase", ["integrate", "update", "route"])
    def test_child_failure_in_each_phase_is_bounded(self, phase, monkeypatch):
        """Only rank 1 fails, while the caller is busy being rank 0: the
        child's traceback still surfaces, well inside the deadline."""
        self._fork_only()
        import os
        import time

        from repro.compass import parallel as par

        caller = os.getpid()
        real = {"integrate": fast.TickState.integrate, "update": fast.TickState.update}

        def _integrate(st, *args):
            if phase == "integrate" and os.getpid() != caller:
                raise ValueError("child-only-fault in integrate")
            return real["integrate"](st, *args)

        def _update(st, *args):
            if phase == "update" and os.getpid() != caller:
                raise ValueError("child-only-fault in update")
            out = real["update"](st, *args)
            if phase == "route" and os.getpid() != caller:
                return np.array([10**9]), np.array([0, 1])  # no such neuron: route's gather raises
            return out

        monkeypatch.setattr(fast.TickState, "integrate", _integrate)
        monkeypatch.setattr(fast.TickState, "update", _update)
        net = random_network(n_cores=4, connectivity=0.6, seed=36)
        sim = ParallelCompassSimulator(net, n_workers=3)
        sim.load_inputs(poisson_inputs(net, 4, 800.0, seed=1))
        began = time.monotonic()
        with pytest.raises(par.WorkerFailedError) as err:
            sim.step()
        assert time.monotonic() - began < 10.0 < par.REPLY_DEADLINE_S
        assert err.value.rank in (1, 2)
        assert "Traceback" in str(err.value)
        assert ("IndexError" if phase == "route" else f"fault in {phase}") in str(err.value)
        assert sim._closed and sim._shms == []
        assert all(p.exitcode is not None for p in sim._procs)

    def test_rank_killed_while_the_caller_computes(self):
        net = random_network(n_cores=4, connectivity=0.6, seed=33)
        sim = ParallelCompassSimulator(net, n_workers=2)
        sim.step()
        tick = sim._rank0.tick

        def _kill_then_tick(t):
            sim._procs[0].kill()
            return tick(t)

        sim._rank0.tick = _kill_then_tick
        from repro.compass.parallel import WorkerFailedError

        with pytest.raises(WorkerFailedError, match="died|closed") as err:
            sim.step()
        assert err.value.rank == 1
        assert sim._closed and sim._shms == []
        assert sim._procs[0].exitcode is not None

    def test_children_of_a_dead_caller_exit_on_their_own(self, tmp_path):
        """No pipe EOF wakes a rank parked on ``go``: the wait times out
        and finds a new parent pid.  Nothing survives the caller — no
        process, and (the resource tracker's doing) no segment."""
        import os
        import subprocess
        import sys
        import time

        script = (
            "import os, signal\n"
            "from repro.compass.parallel import ParallelCompassSimulator\n"
            "from repro.core.builders import random_network\n"
            "sim = ParallelCompassSimulator(random_network(n_cores=4, seed=3), n_workers=3)\n"
            "sim.step()\n"
            "print(*[p.pid for p in sim._procs], flush=True)\n"
            "print(*[s.name for d in sim._shms for s in d.values()], flush=True)\n"
            "os.kill(os.getpid(), signal.SIGKILL)\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        out = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True,
            timeout=120,
        )
        pids, names = (line.split() for line in out.stdout.splitlines()[:2])
        assert len(pids) == 2 and len(names) == 10

        def _running(pid):
            try:
                with open(f"/proc/{pid}/stat") as f:
                    return f.read().rsplit(")", 1)[1].split()[0] != "Z"
            except OSError:
                return False

        deadline = time.monotonic() + 20.0
        while time.monotonic() < deadline and (
            any(_running(pid) for pid in pids)
            or any(os.path.exists(f"/dev/shm/{name.lstrip('/')}") for name in names)
        ):
            time.sleep(0.1)
        assert not any(_running(pid) for pid in pids)
        assert not any(os.path.exists(f"/dev/shm/{name.lstrip('/')}") for name in names)

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
        nothing written under ``$REPRO_CRASH_DIR``."""
        import os
        import signal
        import time
        from multiprocessing import shared_memory

        from repro.compass import parallel as par

        monkeypatch.setattr(par, "REPLY_DEADLINE_S", 1.0)
        monkeypatch.setenv("REPRO_CRASH_DIR", str(tmp_path))
        net = random_network(n_cores=4, connectivity=0.6, stochastic=True, seed=35)
        ins = poisson_inputs(net, 12, 500.0, seed=3)
        sim = ParallelCompassSimulator(net, n_workers=2)
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
        assert err.value.rank == 1
        assert sim._closed and sim._shms == []
        for proc in procs:
            assert not proc.is_alive() and proc.exitcode is not None
        for name in names:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)
        assert list(tmp_path.iterdir()) == []  # the error is the whole report

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
