"""Unit tests for the model-serving runtime."""

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.compass.fast import FastCompassSimulator
from repro.core.builders import poisson_inputs, random_network
from repro.core.network import Network
from repro.core.prng import derive_stream_seed
from repro.obs import Observer
from repro.runtime.serving import (
    CompiledModelCache,
    ModelServer,
    Session,
    model_digest,
)


def small_net(stochastic=True, seed=5):
    return random_network(
        n_cores=3, n_axons=12, n_neurons=12, stochastic=stochastic, seed=seed
    )


class TestModelDigest:
    def test_equal_models_share_digest(self):
        net = small_net()
        clone = Network(cores=net.cores, seed=net.seed, name="renamed")
        assert model_digest(net) == model_digest(clone)

    def test_seed_changes_digest(self):
        net = small_net()
        reseeded = Network(cores=net.cores, seed=net.seed + 1, name=net.name)
        assert model_digest(net) != model_digest(reseeded)

    def test_weight_changes_digest(self):
        a, b = small_net(), small_net()
        b.cores[0].weights[0, 0] += 1
        assert model_digest(a) != model_digest(b)

    def test_compiled_artifact_digests_as_its_network(self):
        from repro.compass.compile import compile_network

        net = small_net()
        assert model_digest(compile_network(net)) == model_digest(net)


class TestCompiledModelCache:
    def test_hit_returns_same_artifact(self):
        cache = CompiledModelCache()
        net = small_net()
        first = cache.get(net)
        again = cache.get(Network(cores=net.cores, seed=net.seed))
        assert again is first
        assert cache.info() == {"size": 1, "capacity": 8, "hits": 1, "misses": 1}

    def test_lru_eviction(self):
        cache = CompiledModelCache(capacity=2)
        nets = [small_net(seed=s) for s in (1, 2, 3)]
        cache.get(nets[0])
        cache.get(nets[1])
        cache.get(nets[2])  # evicts nets[0]
        assert len(cache) == 2
        cache.get(nets[0])  # gone from the LRU: a miss again
        assert cache.misses == 4 and cache.hits == 0

    def test_recently_used_survives(self):
        cache = CompiledModelCache(capacity=2)
        nets = [small_net(seed=s) for s in (1, 2, 3)]
        a = cache.get(nets[0])
        cache.get(nets[1])
        cache.get(nets[0])  # refresh lane 0
        cache.get(nets[2])  # evicts nets[1], not nets[0]
        assert cache.get(nets[0]) is a
        assert cache.hits == 2

    def test_capacity_validated(self):
        with pytest.raises(ValueError, match="capacity"):
            CompiledModelCache(capacity=0)


class TestModelServer:
    def test_sessions_bit_identical_to_standalone(self):
        net = small_net()
        server = ModelServer(net, n_lanes=2)
        schedules = [poisson_inputs(net, 15, 300.0, seed=20 + i) for i in range(5)]
        submitted = [server.submit(s, 15) for s in schedules]
        done = server.run()
        assert len(done) == 5
        for session, sched in zip(submitted, schedules):
            ref = FastCompassSimulator(
                Network(cores=net.cores, seed=session.seed)
            ).run(15, sched)
            assert session.done
            assert np.array_equal(session.record.ticks, ref.ticks)
            assert np.array_equal(session.record.cores, ref.cores)
            assert np.array_equal(session.record.neurons, ref.neurons)
            assert session.record.counters.spikes == ref.counters.spikes

    def test_default_seeds_are_derived_streams(self):
        net = small_net(seed=11)
        server = ModelServer(net, n_lanes=1)
        a = server.submit(None, 5)
        b = server.submit(None, 5)
        assert a.seed == derive_stream_seed(11, 0) == 11
        assert b.seed == derive_stream_seed(11, 1)
        assert a.seed != b.seed

    def test_queueing_beyond_lanes(self):
        net = small_net()
        server = ModelServer(net, n_lanes=2)
        sessions = [server.submit(None, 4 + i) for i in range(5)]
        stats = server.stats()
        assert stats["active"] == 2 and stats["pending"] == 3
        server.run()
        assert all(s.done for s in sessions)
        assert server.stats()["completed"] == 5
        assert server.occupancy == 0.0

    def test_session_result_order_independent_of_scheduling(self):
        # The same session served on a busy server and on an idle one
        # yields the same record: admission resets the lane to tick 0.
        net = small_net()
        sched = poisson_inputs(net, 10, 400.0, seed=9)
        busy = ModelServer(net, n_lanes=1)
        for _ in range(3):
            busy.submit(None, 7)
        target_busy = busy.submit(sched, 10, seed=77)
        busy.run()
        idle = ModelServer(net, n_lanes=4)
        target_idle = idle.submit(sched, 10, seed=77)
        idle.run()
        assert target_busy.record == target_idle.record

    def test_step_without_sessions_is_noop(self):
        server = ModelServer(small_net(), n_lanes=2)
        assert server.step() == 0

    def test_max_passes_stops_early(self):
        net = small_net()
        server = ModelServer(net, n_lanes=1)
        session = server.submit(None, 50)
        done = server.run(max_passes=10)
        assert done == [] and session.ticks_done == 10

    def test_invalid_arguments(self):
        net = small_net()
        with pytest.raises(ValueError, match="n_lanes"):
            ModelServer(net, n_lanes=0)
        server = ModelServer(net, n_lanes=1)
        with pytest.raises(ValueError, match="n_ticks"):
            server.submit(None, 0)

    def test_live_session_id_is_refused_until_it_finalizes(self):
        # Two live sessions under one id would share preempt()'s lookup
        # and the <session_id>.npz checkpoint file.
        server = ModelServer(small_net(), n_lanes=1)
        active = server.submit(None, 3, session_id="job")
        pending = server.submit(None, 3, session_id="queued")
        for taken in ("job", "queued"):
            with pytest.raises(ValueError, match="already pending or active"):
                server.submit(None, 3, session_id=taken)
        assert server.stats()["pending"] == 1  # the refusals queued nothing
        server.run()
        assert active.done and pending.done
        again = server.submit(None, 2, session_id="job")
        server.run()
        assert again.done and again.record is not active.record

    def test_default_ids_step_past_ids_in_use(self):
        server = ModelServer(small_net(), n_lanes=2)
        explicit = server.submit(None, 4, session_id="session-1")
        ids = [server.submit(None, 4).session_id for _ in range(4)]
        assert len({explicit.session_id, *ids}) == 5
        server.run()
        assert server.stats()["completed"] == 5

    def test_stats_and_occupancy_safe_before_first_step(self):
        # Zero-pass guard (mirrors the StreamReport zero-tick guard): a
        # freshly constructed server must answer every stats scrape.
        server = ModelServer(small_net(), n_lanes=4)
        assert server.occupancy == 0.0
        stats = server.stats()
        assert stats["passes"] == 0
        assert stats["occupancy"] == 0.0
        assert stats["wall_seconds"] == 0.0
        assert stats["mean_pass_seconds"] == 0.0
        assert stats["lane_ticks_per_second"] == 0.0
        assert stats["real_time_factor"] == 0.0
        # ...including with sessions queued but not yet stepped
        server.submit(None, 5)
        stats = server.stats()
        assert stats["active"] == 1 and stats["passes"] == 0
        assert stats["real_time_factor"] == 0.0

    def test_stats_rates_populate_after_run(self):
        net = small_net()
        server = ModelServer(net, n_lanes=2)
        server.submit(poisson_inputs(net, 10, 300.0, seed=1), 10)
        server.run()
        stats = server.stats()
        assert stats["passes"] == 10
        assert stats["wall_seconds"] > 0.0
        assert stats["mean_pass_seconds"] > 0.0
        assert stats["lane_ticks_per_second"] > 0.0
        assert stats["real_time_factor"] > 0.0

    def test_session_slo_timestamps_and_histograms(self):
        net = small_net()
        obs = Observer()
        server = ModelServer(net, n_lanes=1, obs=obs)
        first = server.submit(None, 5)
        queued = server.submit(None, 5)  # waits for the single lane
        assert first.submitted_ns > 0 and first.admitted_ns >= first.submitted_ns
        assert queued.admitted_ns == 0 and queued.wait_seconds == 0.0
        server.run()
        assert queued.admitted_ns >= first.finalized_ns
        assert queued.wait_seconds > 0.0
        assert first.latency_seconds >= first.wait_seconds
        snap = obs.metrics.snapshot()
        assert snap["repro_session_wait_seconds"]["count"] == 2
        assert snap["repro_session_latency_seconds"]["count"] == 2

    def test_serving_metrics_published(self):
        net = small_net()
        obs = Observer()
        cache = CompiledModelCache()
        server = ModelServer(net, n_lanes=2, cache=cache, obs=obs)
        server.submit(None, 5)
        server.submit(None, 5)
        server.submit(None, 5)
        snap = obs.metrics.snapshot()
        assert snap["repro_batch_occupancy"] == 1.0
        assert snap["repro_sessions_total"] == 3
        server.run()
        snap = obs.metrics.snapshot()
        assert snap["repro_batch_occupancy"] == 0.0
        assert snap["repro_sessions_completed_total"] == 3
        assert snap["repro_compile_cache_misses_total"] == 1


class TestServeCli:
    def test_serve_command_end_to_end(self, capsys, tmp_path):
        metrics = tmp_path / "metrics.json"
        rc = cli_main([
            "serve", "recurrent-stochastic",
            "--sessions", "5", "--lanes", "2", "--ticks", "20",
            "--metrics-out", str(metrics),
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "sessions completed" in out and "5" in out
        assert metrics.exists()
