"""Sanitizer tests: protocol tables, shadow views, the vector-clock
analyzer, static mutation fixtures, dynamic clean sweeps over every
builtin network, and fault-injection detection."""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

import repro.compass.parallel as parallel_mod
from repro.cli import main as cli_main
from repro.compass.parallel import ParallelCompassSimulator
from repro.core.builders import poisson_inputs
from repro.lint.diagnostics import Severity
from repro.lint.examples import BUILTIN_NETWORKS
from repro.sanitize import (
    PARALLEL_PROTOCOL,
    SANITIZE_CODES,
    Access,
    AccessEvent,
    AccessRecorder,
    FaultInjection,
    analyze_access_log,
    apply_overlap_relabel,
    check_parallel_text,
    check_protocol_sources,
    resolve_fault,
    sanitize_enabled,
    shadow_view,
    stamp_vector_clocks,
    sweep_buffer_bindings,
)
from repro.sanitize.protocol import TickProtocol, role_of_actor

PARALLEL_SOURCE = Path(parallel_mod.__file__).read_text(encoding="utf-8")


def _network(name: str = "recurrent-stochastic"):
    return BUILTIN_NETWORKS[name]()


def _ev(actor, seq, kind, region=None, lo=0, hi=0, tick=0, phase="init", peer=None):
    return AccessEvent(
        actor=actor, seq=seq, tick=tick, phase=phase, kind=kind,
        region=region, lo=lo, hi=hi, peer=peer,
    )


class TestProtocolTables:
    def test_code_registry(self):
        expected = {
            "SL200", "SL201", "SL202", "SL203", "SL204", "SL205",
            "SL210", "SL211", "SL212",
        }
        assert set(SANITIZE_CODES) == expected
        for code, info in SANITIZE_CODES.items():
            assert info.hint, code
            want = Severity.WARNING if code == "SL204" else Severity.ERROR
            assert info.severity is want, code

    def test_parallel_regions(self):
        assert set(PARALLEL_PROTOCOL.regions) == {"ring", "spikes", "stats", "sync"}
        assert PARALLEL_PROTOCOL.roles == ("caller", "rank", "peer")
        assert PARALLEL_PROTOCOL.region("sync").opaque
        assert PARALLEL_PROTOCOL.region("ring").set_phases == ("route",)
        assert PARALLEL_PROTOCOL.region("missing") is None

    def test_static_allows(self):
        ring = PARALLEL_PROTOCOL.region("ring")
        assert ring.static_allows("rank", "tick", "R")
        assert ring.static_allows("rank", "tick", "w")
        assert ring.static_allows("caller", "inject", "W")
        assert not ring.static_allows("caller", "inject", "R")
        assert not ring.static_allows("caller", "gather", "W")
        assert not ring.static_allows("rank", "setup", "W")
        stats = PARALLEL_PROTOCOL.region("stats")
        assert stats.static_allows("caller", "gather", "R")
        assert not stats.static_allows("caller", "gather", "W")

    def test_dynamic_allows_uses_runtime_phases(self):
        # A rank's static "tick" phase splits into deliver/route at
        # runtime; the static label itself is not a runtime phase.  A
        # peer may only set deliveries, and only in route.
        ring = PARALLEL_PROTOCOL.region("ring")
        assert ring.dynamic_allows("rank", "deliver", "R")
        assert ring.dynamic_allows("rank", "route", "W")
        assert not ring.dynamic_allows("rank", "tick", "W")
        assert ring.dynamic_allows("peer", "route", "W")
        assert not ring.dynamic_allows("peer", "route", "R")
        assert not ring.dynamic_allows("peer", "deliver", "W")
        assert not PARALLEL_PROTOCOL.region("spikes").dynamic_allows("peer", "route", "W")

    def test_role_of_actor(self):
        assert role_of_actor("rank0", "route", "rank0") == "rank"
        assert role_of_actor("rank12", "deliver", "rank12") == "rank"
        assert role_of_actor("rank0", "route", "rank1") == "peer"
        # Outside a tick, rank 0 is the caller — on any rank's region.
        assert role_of_actor("rank0", "gather", "rank1") == "caller"
        assert role_of_actor("rank0", "inject", "rank0") == "caller"

    def test_sanitize_enabled(self, monkeypatch):
        assert sanitize_enabled(True)
        assert not sanitize_enabled(False)
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        assert not sanitize_enabled(None)
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        assert sanitize_enabled(None)
        # An explicit False beats the environment.
        assert not sanitize_enabled(False)

    def test_resolve_fault(self):
        assert resolve_fault(None) is None
        fault = resolve_fault("drop-barrier:2:5")
        assert fault == FaultInjection("drop-barrier", rank=2, tick=5)
        assert resolve_fault(fault) is fault
        with pytest.raises(ValueError):
            resolve_fault("melt-the-bus")


class TestShadowArray:
    def _fresh(self, n=8):
        rec = AccessRecorder("coord")
        rec.set_context(0, "scatter")
        base = np.zeros((n, 4), dtype=np.int64)
        return rec, shadow_view(base, ("rank0", "ring"), rec)

    def test_zero_copy_view(self):
        base = np.arange(8, dtype=np.int64)
        rec = AccessRecorder("coord")
        view = shadow_view(base, ("rank0", "spikes"), rec)
        view[3] = 99
        assert base[3] == 99

    def test_int_key_span_is_exact(self):
        rec, arr = self._fresh()
        arr[2]
        (event,) = rec.events
        assert (event.kind, event.lo, event.hi) == ("R", 2, 3)
        rec.set_context(0, "gather")
        arr[-1]
        assert (rec.events[-1].lo, rec.events[-1].hi) == (7, 8)

    def test_slice_key_span_is_exact(self):
        rec, arr = self._fresh()
        arr[1:5]
        (event,) = rec.events
        assert (event.lo, event.hi) == (1, 5)

    def test_fancy_index_is_conservative(self):
        rec, arr = self._fresh()
        arr[np.array([0, 6])]
        (event,) = rec.events
        assert (event.lo, event.hi) == (0, 8)

    def test_integer_array_key_names_its_slots(self):
        # The ring's [slots, axons] scatter: the span stays whole, the
        # mask says which first-axis indices were touched.
        rec, arr = self._fresh()
        arr[np.array([1, 6, 6]), np.array([0, 1, 2])] = 1
        (event,) = rec.events
        assert (event.kind, event.lo, event.hi, event.slots) == ("W", 0, 8, 0b1000010)
        arr[np.array([3]), np.array([0])] = 1  # coalesces: masks OR
        assert rec.events[-1].slots == 0b1001010 and rec.events[-1].count == 2
        read = _ev("rank1", 1, "R", ("rank0", "ring"), 2, 3)
        assert not event.overlaps(read) and not read.overlaps(event)
        assert event.overlaps(_ev("rank1", 1, "R", ("rank0", "ring"), 2, 4))
        assert event.overlaps(_ev("rank1", 1, "R", ("rank0", "ring"), 0, 8))

    def test_setitem_records_write_without_phantom_read(self):
        # numpy re-enters __getitem__ during some slice assignments;
        # the recorder must be muted for the duration (regression).
        rec, arr = self._fresh()
        arr[0:3] = 7
        (event,) = rec.events
        assert (event.kind, event.lo, event.hi) == ("W", 0, 3)
        arr[:, 0] = np.arange(8)
        assert [e.kind for e in rec.events] == ["W"]

    def test_direct_child_tracks_with_refined_span(self):
        rec, arr = self._fresh()
        row = arr[5]
        rec.set_context(0, "gather")
        row[0] = 1
        event = rec.events[-1]
        assert (event.kind, event.lo, event.hi) == ("W", 5, 6)

    def test_copies_and_ufunc_results_are_inert(self):
        rec, arr = self._fresh()
        private = arr.copy()
        private[0] = 1
        (arr + 1)[0]
        assert rec.events == []  # nothing above touched shared memory

    def test_coalescing_merges_within_segment(self):
        rec, arr = self._fresh()
        arr[0]
        arr[6]
        (event,) = rec.events
        assert (event.lo, event.hi, event.count) == (0, 7, 2)
        rec.barrier("send", "rank0", 0)
        arr[1]
        assert rec.events[-1].count == 1  # barrier closed the window


class TestAnalyzer:
    def test_ordered_pair_is_clean(self):
        events = [
            _ev("rank0", 1, "W", ("rank1", "ring"), 0, 1, phase="inject"),
            _ev("rank0", 2, "send", peer="rank1", tick=0),
            _ev("rank1", 1, "recv", peer="rank0", tick=0),
            _ev("rank1", 2, "R", ("rank1", "ring"), 0, 1, tick=0, phase="deliver"),
        ]
        report = analyze_access_log(events, PARALLEL_PROTOCOL)
        assert len(report) == 0, report.render_text()

    def test_unordered_overlapping_writes_race(self):
        events = [
            _ev("rank0", 1, "R", ("rank1", "spikes"), 0, 4, phase="gather"),
            _ev("rank1", 1, "W", ("rank1", "spikes"), 2, 6, tick=0, phase="route"),
        ]
        report = analyze_access_log(events, PARALLEL_PROTOCOL)
        assert report.codes() == ["SL210"]

    def test_disjoint_spans_do_not_race(self):
        events = [
            _ev("rank0", 1, "R", ("rank1", "spikes"), 0, 2, phase="gather"),
            _ev("rank1", 1, "W", ("rank1", "spikes"), 2, 6, tick=0, phase="route"),
        ]
        assert len(analyze_access_log(events, PARALLEL_PROTOCOL)) == 0

    def test_ring_invariant_is_checked_slot_by_slot(self):
        # Tick 5: the owner consumes slot 5 while a peer, with no edge
        # between them, sets deliveries for ticks 6 and 20 (slot 4).
        def log(peer_slots):
            peer = _ev("rank0", 1, "W", ("rank1", "ring"), 0, 16, tick=5, phase="route")
            peer.slots = sum(1 << slot for slot in peer_slots)
            return [
                peer,
                _ev("rank1", 1, "R", ("rank1", "ring"), 5, 6, tick=5, phase="deliver"),
                _ev("rank1", 2, "W", ("rank1", "ring"), 5, 6, tick=5, phase="deliver"),
            ]

        assert len(analyze_access_log(log([6, 4]), PARALLEL_PROTOCOL)) == 0
        report = analyze_access_log(log([6, 5]), PARALLEL_PROTOCOL)
        assert report.codes() == ["SL210", "SL210"], report.render_text()

    def test_concurrent_sets_of_one_slot_commute(self):
        # Owner and peer both set deliveries in slot 7 during route: the
        # ring declares route set-only, so W/W there is no race — but
        # the same pair of writes to spikes (no set phase) is.
        def pair(name):
            return [
                _ev("rank0", 1, "W", ("rank1", name), 7, 8, tick=5, phase="route"),
                _ev("rank1", 1, "W", ("rank1", name), 7, 8, tick=5, phase="route"),
            ]

        assert len(analyze_access_log(pair("ring"), PARALLEL_PROTOCOL)) == 0
        assert "SL210" in analyze_access_log(pair("spikes"), PARALLEL_PROTOCOL).codes()

    def test_concurrent_reads_do_not_race(self):
        events = [
            _ev("rank0", 1, "R", ("rank0", "ring"), 0, 4, tick=0, phase="deliver"),
            _ev("rank1", 1, "R", ("rank1", "ring"), 0, 4, tick=0, phase="deliver"),
            _ev("rank0", 2, "R", ("rank1", "stats"), 0, 4, phase="gather"),
        ]
        assert len(analyze_access_log(events, PARALLEL_PROTOCOL)) == 0

    def test_out_of_phase_access(self):
        events = [_ev("rank1", 1, "W", ("rank1", "stats"), 0, 2, tick=0, phase="update")]
        report = analyze_access_log(events, PARALLEL_PROTOCOL)
        assert report.codes() == ["SL211"]

    def test_peer_touching_more_than_a_ring_is_out_of_phase(self):
        events = [_ev("rank0", 1, "W", ("rank1", "spikes"), 0, 2, tick=0, phase="route")]
        report = analyze_access_log(events, PARALLEL_PROTOCOL)
        assert report.codes() == ["SL211"]
        assert "'peer'" in report.render_text()

    def test_undeclared_region_is_out_of_phase(self):
        events = [_ev("rank1", 1, "W", ("rank1", "rogue"), 0, 2, tick=0, phase="update")]
        report = analyze_access_log(events, PARALLEL_PROTOCOL)
        assert report.codes() == ["SL211"]
        assert "not declared" in report.render_text()

    def test_torn_barrier_reports_sl212(self):
        events = [
            _ev("rank1", 1, "recv", peer="rank0", tick=3),
            _ev("rank1", 2, "W", ("rank1", "spikes"), 0, 4, tick=3, phase="route"),
        ]
        report = analyze_access_log(events, PARALLEL_PROTOCOL)
        assert "SL212" in report.codes()
        assert "rank1" in report.render_text()

    def test_stamp_vector_clocks_orders_across_channel(self):
        a = _ev("rank0", 1, "send", peer="rank1", tick=0)
        b = _ev("rank1", 1, "recv", peer="rank0", tick=0)
        c = _ev("rank1", 2, "W", ("rank1", "spikes"), 0, 1, tick=0, phase="route")
        leftover = stamp_vector_clocks([a, b, c])
        assert leftover == []
        caller_i = 0  # actors sort as ["rank0", "rank1"]
        assert c.vc[caller_i] >= a.vc[caller_i]

    def test_stamp_vector_clocks_returns_blocked_suffix(self):
        blocked = _ev("rank1", 1, "recv", peer="rank0", tick=9)
        tail = _ev("rank1", 2, "R", ("rank1", "ring"), 0, 1, tick=9, phase="deliver")
        leftover = stamp_vector_clocks([blocked, tail])
        assert leftover == [blocked, tail]

    def test_overlap_relabel_moves_rank_events(self):
        mine = _ev("rank1", 1, "W", ("rank1", "ring"), 0, 4, phase="deliver")
        other = _ev("rank1", 2, "W", ("rank1", "spikes"), 0, 4, phase="route")
        theirs = _ev("rank0", 1, "W", ("rank1", "ring"), 0, 4, phase="route")
        apply_overlap_relabel(
            [mine, other, theirs], FaultInjection("overlap-slices", rank=1)
        )
        assert mine.region == ("rank0", "ring")
        assert other.region == ("rank1", "spikes")  # only ring is relabelled
        assert theirs.region == ("rank1", "ring")  # and only the owner's accesses


class TestStaticChecker:
    """check_parallel_text over the real source plus textual mutations."""

    def _codes(self, text, protocol=PARALLEL_PROTOCOL):
        return check_parallel_text(text, protocol=protocol).codes()

    def _mutate(self, anchor: str, replacement: str) -> str:
        assert anchor in PARALLEL_SOURCE, f"mutation anchor drifted: {anchor!r}"
        return PARALLEL_SOURCE.replace(anchor, replacement, 1)

    def test_real_source_is_clean(self):
        report = check_parallel_text(PARALLEL_SOURCE, Path(parallel_mod.__file__))
        assert len(report) == 0, report.render_text()

    def test_all_protocol_sources_are_clean(self):
        report = check_protocol_sources()
        assert len(report) == 0, report.render_text()

    GATHER = "            per_core = stats[_ST_N:]\n"
    AWAIT = (
        "        for rank in range(1, self.n_workers):\n"
        "            self._await_done(rank)\n"
    )

    def test_undeclared_buffer_binding_sl200(self):
        mutated = self._mutate('buffer=shm["stats"].buf', 'buffer=shm["rogue"].buf')
        assert "SL200" in self._codes(mutated)

    def test_out_of_protocol_access_sl201(self):
        mutated = self._mutate(self.GATHER, self.GATHER + "            stats[0] = 99\n")
        codes = self._codes(mutated)
        assert "SL201" in codes, codes

    def test_access_in_barrier_window_sl202(self):
        mutated = self._mutate(
            self.AWAIT, "        rank0.rings[1][0, 0] = True\n" + self.AWAIT
        )
        codes = self._codes(mutated)
        assert "SL202" in codes, codes

    def test_worker_access_after_reply_sl203(self):
        anchor = "            done.release()\n    except Exception:"
        mutated = self._mutate(
            anchor,
            "            done.release()\n"
            "            me.rings[rank][0, 0] = False\n"
            "    except Exception:",
        )
        codes = self._codes(mutated)
        assert "SL203" in codes, codes

    def test_missing_barrier_edge_sl205(self):
        for half in (
            self.AWAIT,
            "        self._release(tick)\n",
            "            done.release()\n",
            "            while not (_spin(go) or go.acquire(timeout=_POLL_S)):\n"
            "                if os.getppid() != parent_pid:\n"
            "                    return\n",
        ):
            assert "SL205" in self._codes(self._mutate(half, "")), half

    def test_stale_protocol_accessor_sl204(self):
        # A declared access the source never performs is a WARNING, so
        # the report stays clean at the default ERROR threshold.
        stats = PARALLEL_PROTOCOL.region("stats")
        phantom = dataclasses.replace(
            stats, accesses=stats.accesses + (Access("caller", "teardown", "r"),)
        )
        regions = dict(PARALLEL_PROTOCOL.regions)
        regions["stats"] = phantom
        protocol = TickProtocol(
            engine=PARALLEL_PROTOCOL.engine, regions=regions,
            roles=PARALLEL_PROTOCOL.roles, barrier=PARALLEL_PROTOCOL.barrier,
        )
        report = check_parallel_text(PARALLEL_SOURCE, protocol=protocol)
        assert report.codes() == ["SL204"]
        assert report.clean(Severity.ERROR)
        assert not report.clean(Severity.WARNING)

    def test_allow_pragma_suppresses(self):
        dirty = self._mutate(self.GATHER, self.GATHER + "            stats[0] = 99\n")
        clean = self._mutate(
            self.GATHER,
            self.GATHER + "            stats[0] = 99  # repro-lint: allow=SL201\n",
        )
        assert "SL201" in self._codes(dirty)
        assert "SL201" not in self._codes(clean)

    def test_sweep_flags_shm_buffer_bindings(self):
        text = (
            "import numpy as np\n"
            "arr = np.ndarray(8, dtype=np.int64, buffer=shm.buf)\n"
        )
        assert sweep_buffer_bindings(text, "rogue.py").codes() == ["SL200"]
        # Mediated (non-shm) buffers are not region bindings.
        mediated = "import numpy as np\narr = np.ndarray(8, buffer=buf)\n"
        assert len(sweep_buffer_bindings(mediated, "strip.py")) == 0


class TestDynamicCleanSweep:
    """Every builtin network runs clean under the sanitizer (satellite c)."""

    @pytest.mark.parametrize("name", sorted(BUILTIN_NETWORKS))
    def test_parallel_engine_clean(self, name):
        network = _network(name)
        inputs = poisson_inputs(network, 4, 200.0, seed=1)
        sim = ParallelCompassSimulator(network, n_workers=2, sanitize=True)
        sim.run(4, inputs)
        report = sim.sanitize_report
        assert report is not None
        assert len(report) == 0, report.render_text()

    def test_disabled_mode_builds_no_report(self):
        network = _network()
        sim = ParallelCompassSimulator(network, n_workers=2, sanitize=False)
        sim.run(2)
        assert sim.sanitize_report is None


class TestFaultDetection:
    """Each injected protocol tear must be caught (acceptance gate)."""

    def _parallel_report(self, fault):
        network = _network()
        inputs = poisson_inputs(network, 6, 200.0, seed=1)
        sim = ParallelCompassSimulator(
            network, n_workers=2, sanitize=True, sanitize_fault=fault
        )
        sim.run(6, inputs)
        assert sim.sanitize_report is not None
        return sim.sanitize_report

    def test_drop_barrier_detected(self):
        report = self._parallel_report(FaultInjection("drop-barrier", rank=1, tick=2))
        assert "SL210" in report.codes(), report.render_text()

    def test_overlap_slices_detected(self):
        report = self._parallel_report(FaultInjection("overlap-slices", rank=1))
        assert "SL210" in report.codes(), report.render_text()

    def test_consumed_slot_write_detected(self):
        # The one slot of a peer's slab the delay arithmetic can never
        # reach; every other finding-free run proves the mask is exact.
        report = self._parallel_report(FaultInjection("consumed-slot-write", rank=1))
        assert report.codes() == ["SL210", "SL210"], report.render_text()
        assert "rank1/ring" in report.render_text()

    def test_out_of_phase_write_detected_on_parallel(self):
        report = self._parallel_report(FaultInjection("out-of-phase-write", tick=2))
        assert report.codes() == ["SL211"], report.render_text()


class TestCli:
    def test_static_only_strict_passes(self):
        assert cli_main(["sanitize", "--static-only", "--strict"]) == 0

    def test_dynamic_builtin_single_model(self):
        code = cli_main(["sanitize", "haar", "--dynamic-only", "--ticks", "3"])
        assert code == 0

    def test_expect_findings_inverts_exit(self):
        argv = [
            "sanitize", "recurrent-stochastic", "--dynamic-only", "--ticks", "4",
            "--fault", "out-of-phase-write:1:2",
        ]
        assert cli_main(argv + ["--expect-findings"]) == 0
        assert cli_main(argv) == 1

    def test_json_output(self, capsys):
        assert cli_main(["sanitize", "--static-only", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["diagnostics"] == []
