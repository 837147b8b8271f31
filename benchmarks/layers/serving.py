"""The serve_b16 workload: a closed loop of clients on ``ModelServer``."""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.compass.batched import BatchedCompassSimulator, replica_seeds
from repro.compass.fast import FastCompassSimulator
from repro.core import params
from repro.core.builders import poisson_inputs, random_network
from repro.core.network import Network
from repro.runtime.serving import ModelServer

from .measure import (
    COUNT_FIELDS,
    LOGICAL_COUNTERS,
    Run,
    Scale,
    calm,
    peak_rss_mb,
    percentile_ms,
    probe_ns,
    record_digest,
    record_mismatch,
    steady_metrics,
    tick_metrics,
    timed_setup,
)
from .trace import Tracer, now_ns

LANES = 16
#: Each client has one session outstanding and submits its next when that
#: one finalizes, so ``CLIENTS - LANES`` sessions are always queued.
CLIENTS = 32
INPUT_RATE_HZ = 50.0

#: Sessions replayed on a standalone engine by the correctness check.
REPLAYED_SESSIONS = 8


class Serve:
    """16 cores x 64 stochastic neurons served on 16 lanes."""

    def __init__(self, scale: Scale) -> None:
        self.scale = scale
        self.n_ops = scale.sessions

    def generate(self, seed: int) -> None:
        self.net = random_network(
            n_cores=16, n_axons=64, n_neurons=64, connectivity=0.3,
            stochastic=True, seed=seed,
        )
        rng = np.random.default_rng(seed)
        shortest, longest = self.scale.session_ticks
        self.lengths = rng.integers(shortest, longest + 1, size=self.scale.sessions)
        self.schedules = [
            poisson_inputs(self.net, int(n), INPUT_RATE_HZ, seed=seed * 100_003 + i)
            for i, n in enumerate(self.lengths)
        ]

    def setup(self, tracer: Tracer) -> dict[str, float]:
        return timed_setup(
            tracer, self.scale, self.net, lambda net: ModelServer(net, n_lanes=LANES))

    def run(self, tracer: Tracer, n_sessions: int, seconds: float) -> Run:
        server = ModelServer(self.net, n_lanes=LANES)
        tracer.wrap(server.engine, "step_arrays", "batched.step_arrays")
        tracer.wrap(server.engine, "reset_lane", "batched.reset_lane")
        sessions, submit_s = [], []

        def submit() -> None:
            spec = len(sessions) % n_sessions
            # A fresh shell around the same events: the staged-input cache
            # rides on the schedule object, and every session must stage.
            schedule = replace(self.schedules[spec])
            with tracer.span("serving.submit") as w:
                sessions.append(server.submit(schedule, int(self.lengths[spec])))
            submit_s.append(w.seconds)

        step_ns: list[int] = []  # inside server.step()
        pass_ns: list[int] = []  # the whole pass, the clients' submits included
        busy_lanes: list[int] = []
        ref_ns: list[int] = []  # the host-speed probe beside each pass
        first_done = 0  # sessions[:first_done] are all done
        solve_lane_ticks = 0
        solved_rss_mb = 0.0
        start = now_ns()
        for _ in range(min(CLIENTS, n_sessions)):
            submit()
        entered = start
        while server.occupancy:
            busy_lanes.append(round(server.occupancy * LANES))
            t0 = now_ns()
            finished = server.step()
            t1 = now_ns()
            tracer.add("serving.step", t0, t1)
            step_ns.append(t1 - t0)
            for _ in range(finished):
                if len(sessions) < n_sessions or t1 - start < seconds * 1e9:
                    submit()
            while first_done < n_sessions and sessions[first_done].done:
                first_done += 1
                solve_lane_ticks = sum(busy_lanes)
                # Later sessions only fill the window; their records would
                # make the peak grow with the window's length.
                solved_rss_mb = peak_rss_mb()
            pass_ns.append(now_ns() - entered)
            ref_ns.append(probe_ns())
            entered = now_ns()
        server.close()

        latency_ns = [s.latency_seconds * 1e9 for s in sessions]
        metrics = tick_metrics(step_ns, min(self.scale.warmup, len(step_ns) - 1))
        # Sessions restart their lane, so there is no ring-fill phase to
        # discard: the window is the whole closed-loop run.
        metrics.update(steady_metrics(
            pass_ns, busy_lanes,
            sum(s.record.counters.synaptic_events for s in sessions), ref_ns))
        metrics.update({
            "peak_rss_mb": solved_rss_mb,
            # A session's latency is queueing plus its own length in
            # passes: the median over the sessions, at the median probe.
            "latency_p50_ms": calm(latency_ns, ref_ns, 50) * 1e-6,
            "latency.p95_ms": percentile_ms(latency_ns, 95),
            "serving.submit_ms_p50": float(np.median(submit_s)) * 1e3,
            "serving.step_ms_p50": percentile_ms(step_ns, 50),
            "serving.step_ms_p95": percentile_ms(step_ns, 95),
            "serving.passes": server.engine.passes,
            "serving.occupancy_mean": sum(busy_lanes) / (len(busy_lanes) * LANES),
            "serving.wait_s_p50": float(np.median([s.wait_seconds for s in sessions])),
            "record.n_spikes": sum(s.record.n_spikes for s in sessions[:n_sessions]),
        })
        verified = sessions[:n_sessions]
        return Run(
            metrics=metrics,
            solve_s=metrics["rtf"] * solve_lane_ticks * params.TICK_SECONDS,
            op_s=calm(pass_ns, ref_ns) * 1e-9,
            attempted=n_sessions,
            counts={name: sum(int(getattr(s.record.counters, name)) for s in verified)
                    for name in COUNT_FIELDS},
            sha256=record_digest(s.record for s in verified),
            keep={"sessions": verified},
        )

    def probe(self, tracer: Tracer, run: Run, baseline: Run) -> dict[str, float]:
        # The same 16 lanes with no server around them: serving.step_ms_p50
        # minus this is what admission and demux cost per pass.
        engine = BatchedCompassSimulator(
            self.net, LANES, seeds=replica_seeds(self.net.seed, LANES))
        engine.load_inputs([replace(s) for s in self.schedules[:LANES]])
        step_ns = []
        for _ in range(max(self.scale.session_ticks)):
            t0 = now_ns()
            engine.step_arrays()
            t1 = now_ns()
            tracer.add("batched.step_arrays", t0, t1)
            step_ns.append(t1 - t0)
        return {"batched.step_arrays_ms_p50": percentile_ms(step_ns, 50)}

    def verify(self, run: Run) -> dict[str, str]:
        """Sampled sessions again on a standalone fast engine."""
        sessions = run.keep["sessions"]
        picks = np.unique(np.linspace(0, len(sessions) - 1, REPLAYED_SESSIONS).astype(int))
        bad = []
        for i in picks:
            session = sessions[i]
            alone = FastCompassSimulator(
                Network(cores=self.net.cores, seed=session.seed)
            ).run(session.n_ticks, self.schedules[i])
            verdict = record_mismatch(alone, session.record, LOGICAL_COUNTERS + ("messages",))
            if verdict != "ok":
                bad.append(f"session {i}: {verdict}")
        return {"standalone_replay": "ok" if not bad else "; ".join(bad)}
