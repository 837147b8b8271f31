"""Unit tests for the repro.obs telemetry layer.

Covers the metric registry, its collectors and its exporters (with a
golden-file style Prometheus snapshot), the trace buffer's merged read
side, the flight ring over a caller's buffer, the observer
enable/disable semantics, the structured logger, and the
EventCounters.merge edge cases the obs layer leans on.
"""

import io
import json
import logging

import pytest

import repro.obs as obs_package
from repro.core.counters import EventCounters
from repro.obs import (
    CATALOGUE,
    EVENT_METRICS,
    PHASES,
    MetricsRegistry,
    FlightRecorder,
    Observer,
    TraceBuffer,
    active_observer,
    configure,
    get_logger,
)


class TestMetricsRegistry:
    def test_counter_inc_and_value(self):
        reg = MetricsRegistry()
        c = reg.counter("repro_spikes_total")
        c.inc()
        c.inc(41)
        assert c.value() == 42

    def test_labels_are_independent_samples(self):
        reg = MetricsRegistry()
        c = reg.counter("repro_phase_seconds_total")
        c.inc(1.5, phase="deliver")
        c.inc(0.5, phase="route")
        c.inc(0.5, phase="deliver")
        assert c.value(phase="deliver") == 2.0
        assert c.value(phase="route") == 0.5
        assert c.value(phase="update") == 0

    def test_gauge_set(self):
        reg = MetricsRegistry()
        g = reg.gauge("repro_queue_depth")
        g.set(7)
        g.set(3)
        assert g.value() == 3

    def test_collectors_run_before_every_export(self):
        reg = MetricsRegistry()
        source = {"depth": 2}
        calls = []

        def collect():
            calls.append(1)
            reg.gauge("repro_queue_depth").set(source["depth"])

        reg.add_collector(collect)
        assert calls == []  # nothing runs until someone scrapes
        assert reg.snapshot()["repro_queue_depth"] == 2
        source["depth"] = 5
        assert "repro_queue_depth 5" in reg.to_prometheus()
        assert json.loads(reg.to_json())["repro_queue_depth"] == 5
        assert len(calls) == 3

    def test_kind_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("repro_ticks_total")
        with pytest.raises(ValueError, match="already registered"):
            reg.gauge("repro_ticks_total")

    def test_catalogue_help_attached(self):
        reg = MetricsRegistry()
        assert "firings" in reg.counter("repro_spikes_total").help

    def test_histogram_buckets_cumulative(self):
        reg = MetricsRegistry()
        h = reg.histogram("repro_tick_seconds", buckets=(0.1, 1.0))
        for v in (0.05, 0.5, 0.5, 5.0):
            h.observe(v)
        snap = reg.snapshot()["repro_tick_seconds"]
        assert snap["buckets"] == {"0.1": 1, "1.0": 3, "+Inf": 4}
        assert snap["count"] == 4
        assert snap["sum"] == pytest.approx(6.05)

    def test_snapshot_deterministic_across_registries(self):
        def build():
            reg = MetricsRegistry()
            reg.counter("repro_spikes_total").inc(9)
            reg.gauge("repro_queue_depth").set(2)
            reg.counter("repro_phase_seconds_total").inc(1, phase="route")
            return reg

        assert build().snapshot() == build().snapshot()
        assert build().to_json() == build().to_json()


class TestExporters:
    @pytest.fixture()
    def registry(self):
        reg = MetricsRegistry()
        reg.counter("repro_ticks_total").inc(5)
        reg.counter("repro_spikes_total").inc(12)
        c = reg.counter("repro_phase_seconds_total")
        c.inc(0.25, phase="deliver")
        c.inc(0.75, phase="route")
        reg.gauge("repro_queue_depth").set(3)
        h = reg.histogram("repro_tick_seconds", buckets=(0.1, 1.0))
        h.observe(0.05)
        h.observe(0.5)
        return reg

    def test_prometheus_golden(self, registry):
        expected = "\n".join([
            "# HELP repro_ticks_total Simulation ticks completed.",
            "# TYPE repro_ticks_total counter",
            "repro_ticks_total 5",
            "# HELP repro_spikes_total Neuron firings.",
            "# TYPE repro_spikes_total counter",
            "repro_spikes_total 12",
            "# HELP repro_phase_seconds_total Wall-clock seconds spent "
            "per tick phase (label: phase).",
            "# TYPE repro_phase_seconds_total counter",
            'repro_phase_seconds_total{phase="deliver"} 0.25',
            'repro_phase_seconds_total{phase="route"} 0.75',
            "# HELP repro_queue_depth Staged future input-event ticks "
            "awaiting injection.",
            "# TYPE repro_queue_depth gauge",
            "repro_queue_depth 3",
            "# HELP repro_tick_seconds Wall-clock seconds per simulated tick.",
            "# TYPE repro_tick_seconds histogram",
            'repro_tick_seconds_bucket{le="0.1"} 1',
            'repro_tick_seconds_bucket{le="1.0"} 2',
            'repro_tick_seconds_bucket{le="+Inf"} 2',
            "repro_tick_seconds_sum 0.55",
            "repro_tick_seconds_count 2",
            "",
        ])
        assert registry.to_prometheus() == expected

    def test_json_golden(self, registry):
        doc = json.loads(registry.to_json())
        assert doc["repro_ticks_total"] == 5
        assert doc['repro_phase_seconds_total{phase="route"}'] == 0.75
        assert doc["repro_tick_seconds"]["count"] == 2


class TestExporterHardening:
    def test_help_and_label_value_escaping_golden(self):
        reg = MetricsRegistry()
        c = reg.counter("repro_paths_total",
                        help='Back\\slash,\nnewline, and "quotes".')
        c.inc(2, path="C:\\tmp", note='line1\nline2 "x"')
        expected = "\n".join([
            '# HELP repro_paths_total Back\\\\slash,\\nnewline, '
            'and "quotes".',
            "# TYPE repro_paths_total counter",
            'repro_paths_total{note="line1\\nline2 \\"x\\"",'
            'path="C:\\\\tmp"} 2',
            "",
        ])
        assert reg.to_prometheus() == expected

    def test_counter_total_suffix_normalized(self):
        reg = MetricsRegistry()
        reg.counter("repro_custom_events", help="Custom counter.").inc(3)
        text = reg.to_prometheus()
        assert "# HELP repro_custom_events_total Custom counter." in text
        assert "# TYPE repro_custom_events_total counter" in text
        assert "repro_custom_events_total 3" in text
        assert "repro_custom_events 3" not in text
        # the JSON snapshot keeps the registered name (stable API)
        assert reg.snapshot()["repro_custom_events"] == 3

    def test_suffix_untouched_for_gauges_and_histograms(self):
        reg = MetricsRegistry()
        reg.gauge("repro_depth").set(4)
        reg.histogram("repro_lag", buckets=(1.0,)).observe(0.5)
        text = reg.to_prometheus()
        assert "repro_depth 4" in text
        assert "repro_depth_total" not in text
        assert "repro_lag_bucket" in text
        assert "repro_lag_total" not in text

    def test_catalogue_counters_all_carry_total(self):
        for name, (kind, _) in CATALOGUE.items():
            if kind == "counter":
                assert name.endswith("_total"), name

    def test_concurrent_label_insertion_survives_export(self):
        # items() hands back copies, so a scrape racing engine writes
        # never dies on "dictionary changed size during iteration".
        reg = MetricsRegistry()
        family = reg.counter("repro_phase_seconds_total")
        family.inc(1, phase="deliver")
        for key, _ in family.items():
            family.inc(1, phase=f"new-{key}")
        assert "repro_phase_seconds_total" in reg.to_prometheus()


class TestPublishCounters:
    """The event counters reach the registry through the observer's
    collector: bound once, read at every scrape."""

    def test_maps_every_event_metric(self):
        c = EventCounters(ticks=3, synaptic_events=100, spikes=10,
                          deliveries=20, neuron_updates=96, hops=4,
                          messages=7, membrane_saturations=2,
                          max_core_events_per_tick=55,
                          active_neuron_updates=90)
        obs = Observer()
        obs.bind_counters(lambda: c)
        snap = obs.metrics.snapshot()
        for name, attr in EVENT_METRICS.items():
            assert snap[name] == getattr(c, attr)
        assert snap["repro_active_neuron_updates_total"] == 90

    def test_idempotent_republication(self):
        holder = {"c": EventCounters(spikes=10)}
        obs = Observer()
        obs.bind_counters(lambda: holder["c"])
        assert obs.metrics.snapshot()["repro_spikes_total"] == 10
        holder["c"].spikes = 11
        assert obs.metrics.snapshot()["repro_spikes_total"] == 11
        holder["c"] = EventCounters(spikes=4)  # a restore() rebinds them
        assert obs.metrics.snapshot()["repro_spikes_total"] == 4

    def test_unbound_observer_leaves_pushed_values_alone(self):
        obs = Observer()
        obs.metrics.counter("repro_ticks_total").inc(7)
        assert obs.metrics.snapshot()["repro_ticks_total"] == 7


class TestEventCountersMerge:
    def test_merge_empty_is_identity(self):
        c = EventCounters(ticks=5, synaptic_events=10, spikes=3, messages=2)
        c.ensure_cores(2)
        c.synaptic_events_per_core[:] = (6, 4)
        c.merge(EventCounters())
        assert (c.ticks, c.synaptic_events, c.spikes, c.messages) == (5, 10, 3, 2)
        assert c.synaptic_events_per_core.tolist() == [6, 4]

    def test_merge_into_empty(self):
        c = EventCounters(ticks=5, spikes=3, membrane_saturations=1)
        c.ensure_cores(2)
        c.synaptic_events_per_core[:] = (6, 4)
        empty = EventCounters()
        empty.merge(c)
        assert empty.ticks == 5
        assert empty.spikes == 3
        assert empty.membrane_saturations == 1
        assert empty.synaptic_events_per_core.tolist() == [6, 4]

    def test_self_merge_doubles_additive_keeps_maxima(self):
        c = EventCounters(ticks=5, synaptic_events=10, spikes=3,
                          max_core_events_per_tick=9)
        c.ensure_cores(2)
        c.synaptic_events_per_core[:] = (6, 4)
        c.merge(c)
        assert c.ticks == 5  # shared tick count, not additive
        assert c.synaptic_events == 20
        assert c.spikes == 6
        assert c.max_core_events_per_tick == 9
        assert c.synaptic_events_per_core.tolist() == [12, 8]

    def test_mismatched_core_counts_grow_and_sum(self):
        small = EventCounters()
        small.ensure_cores(2)
        small.synaptic_events_per_core[:] = (1, 2)
        big = EventCounters()
        big.ensure_cores(4)
        big.synaptic_events_per_core[:] = (10, 20, 30, 40)

        grown = EventCounters()
        grown.ensure_cores(2)
        grown.synaptic_events_per_core[:] = (1, 2)
        grown.merge(big)
        assert grown.synaptic_events_per_core.tolist() == [11, 22, 30, 40]

        big.merge(small)
        assert big.synaptic_events_per_core.tolist() == [11, 22, 30, 40]

    def test_ticks_take_maximum(self):
        a = EventCounters(ticks=7)
        a.merge(EventCounters(ticks=3))
        assert a.ticks == 7
        a.merge(EventCounters(ticks=12))
        assert a.ticks == 12


class TestTraceBuffer:
    def test_spans_merge_in_tick_order(self):
        buf = TraceBuffer()
        # Rank rows append independently; spans() interleaves by tick.
        buf.add("deliver", 100, 110, tid=1, attrs={"tick": 1})
        buf.add("deliver", 90, 95, tid=2, attrs={"tick": 0})
        buf.add("compile", 0, 50, tid=0)
        buf.add("deliver", 80, 85, tid=1, attrs={"tick": 0})
        ordered = [(s.name, s.tick, s.tid) for s in buf.spans()]
        assert ordered == [
            ("compile", None, 0),
            ("deliver", 0, 1),
            ("deliver", 0, 2),
            ("deliver", 1, 1),
        ]

    def test_ring_overflow_drops_oldest(self):
        buf = TraceBuffer(capacity=3)
        for i in range(5):
            buf.add("tick", i, i + 1, attrs={"tick": i})
        assert len(buf) == 3
        assert buf.dropped == 2
        assert [s.tick for s in buf.spans()] == [2, 3, 4]

    def test_chrome_trace_events_structure(self):
        buf = TraceBuffer()
        buf.add("compile", 2_000, 5_000, tid=0)
        buf.add("deliver", 5_000, 6_000, tid=1, attrs={"tick": 0})
        events = buf.chrome_trace_events()
        meta = [e for e in events if e["ph"] == "M"]
        complete = [e for e in events if e["ph"] == "X"]
        assert {m["args"]["name"] for m in meta} == {"rank0", "rank1"}
        first = complete[0]
        assert first["ts"] == 0.0  # rebased to the earliest span
        assert first["dur"] == 3.0  # ns -> us
        assert complete[1]["args"] == {"tick": 0}

    def test_reads_merge_stored_spans_with_row_spans(self):
        coord, worker = FlightRecorder(4), FlightRecorder(4)
        buf = TraceBuffer(rings={0: coord, 1: worker})
        buf.add("spawn", 0, 40, tid=0, attrs={"workers": 1})
        coord.record(0, 100, 200)                           # untimed phases
        worker.record(0, 110, 190, phases=(10, 20, 30, 20))
        coord.record(3, 300, 420, lanes=2)                  # a batch pass
        assert len(buf) == 1  # only the spawn span is stored
        assert buf.tids() == [0, 1]
        got = [(s.name, s.tid, s.begin_ns, s.end_ns, s.attrs) for s in buf.spans()]
        assert got == [
            ("spawn", 0, 0, 40, {"workers": 1}),
            ("batch_pass", 0, 300, 420, {"pass": 3, "lanes": 2}),
            ("tick", 0, 100, 200, {"tick": 0}),
            ("deliver", 1, 110, 120, {"tick": 0}),
            ("tick", 1, 110, 190, {"tick": 0}),
            ("integrate", 1, 120, 140, {"tick": 0}),
            ("update", 1, 140, 170, {"tick": 0}),
            ("route", 1, 170, 190, {"tick": 0}),
        ]
        events = buf.chrome_trace_events()
        assert [e["tid"] for e in events if e["ph"] == "M"] == [0, 1]

    def test_export_chrome_writes_document(self, tmp_path):
        buf = TraceBuffer()
        buf.add("tick", 0, 1000, attrs={"tick": 0})
        out = tmp_path / "trace.json"
        n = buf.export_chrome(str(out))
        doc = json.loads(out.read_text())
        assert len(doc["traceEvents"]) == n
        assert doc["displayTimeUnit"] == "ms"


class TestRingOverCallerBuffer:
    """What a parallel worker writes into its ``obs`` segment: the
    flight ring constructed over the caller's bytes."""

    def test_roundtrip(self):
        buf = bytearray(FlightRecorder.nbytes(8))
        ring = FlightRecorder(8, buf)
        ring.record(0, 100, 120, spikes=2, phases=(10, 4, 5, 1))
        ring.record(1, 130, 140)
        assert ring.recorded == 2
        rows = ring.rows()
        assert rows["begin_ns"].tolist() == [100, 130]
        assert rows["wall_ns"].tolist() == [20, 10]
        assert rows["deliver_ns"].tolist() == [10, 0]

    def test_ring_overwrite_keeps_newest(self):
        ring = FlightRecorder(4, bytearray(FlightRecorder.nbytes(4)))
        for i in range(6):
            ring.record(i, i * 10, i * 10 + 5, phases=(1, 1, 2, 1))
        assert ring.recorded == 6
        assert ring.column("tick").tolist() == [2, 3, 4, 5]
        assert ring.totals_ns()["update_ns"] == 12  # sums keep all six

    def test_drain_into_trace(self):
        ring = FlightRecorder(8, bytearray(FlightRecorder.nbytes(8)))
        ring.record(3, 50, 60, phases=(2, 3, 4, 1))
        obs = Observer()
        obs.adopt(2, ring)
        ring.release()  # the adopted copy is the observer's own
        assert obs.trace.tids() == [2]
        got = {(s.name, s.tick, s.tid) for s in obs.trace.spans()}
        assert ("integrate", 3, 2) in got and ("tick", 3, 2) in got
        assert obs.phase_seconds()["update"] == pytest.approx(4e-9)

    def test_reader_attaches_without_reset(self):
        buf = bytearray(FlightRecorder.nbytes(4))
        writer = FlightRecorder(4, buf)
        reader = FlightRecorder(4, buf)  # zero-filled = empty, no reset step
        assert len(reader) == 0
        writer.record(1, 0, 9, phases=(0, 0, 9, 0))
        assert reader.rows().tolist() == writer.rows().tolist()
        assert reader.totals_ns()["update_ns"] == 9


class TestObserver:
    def test_span_records_into_trace(self):
        obs = Observer()
        with obs.span("compile", cores=4):
            pass
        (span,) = obs.trace.spans()
        assert span.name == "compile"
        assert span.attrs == {"cores": 4}
        assert span.end_ns >= span.begin_ns

    def test_disabled_observer_is_noop(self):
        obs = Observer(enabled=False)
        assert active_observer(obs) is None
        with obs.span("compile"):
            pass
        assert len(obs.trace) == 0

    def test_disabled_observer_phase_seconds_empty_never_raises(self):
        seconds = Observer(enabled=False).phase_seconds()
        assert set(seconds) == set(PHASES)
        assert all(v == 0.0 for v in seconds.values())

    def test_disabled_observer_event_snapshot_empty_never_raises(self):
        snap = Observer(enabled=False).event_snapshot()
        assert set(snap) == set(EVENT_METRICS)
        assert all(v == 0 for v in snap.values())

    def test_module_switch_silences_all(self):
        """``Observer.enabled`` is the one switch (the module-level one
        is gone): flipping it silences an attached observer in place."""
        obs = Observer()
        assert active_observer(obs) is obs
        obs.enabled = False
        assert active_observer(obs) is None
        with obs.span("compile"):
            pass
        assert len(obs.trace) == 0
        obs.enabled = True
        assert active_observer(obs) is obs
        assert not hasattr(obs_package, "set_enabled")

    def test_phase_seconds_reports_the_four_canonical_phases(self):
        obs = Observer()
        obs.tick(0, 0, 1_500_000_000, 0, 0, (1_000_000_000, 0, 0, 500_000_000))
        seconds = obs.phase_seconds()
        assert set(seconds) == set(PHASES)
        assert seconds["deliver"] == pytest.approx(1.0)
        assert seconds["route"] == pytest.approx(0.5)
        assert seconds["integrate"] == seconds["update"] == 0.0
        prom = obs.metrics.to_prometheus()
        assert 'repro_phase_seconds_total{phase="deliver"} 1.0' in prom
        assert 'phase="update"' not in prom  # untimed phases publish nothing

    def test_tick_phases_synthesizes_contiguous_spans(self):
        obs = Observer()
        obs.tick(4, 1000, 1040, 0, 0, (10, 0, 0, 20))
        spans = {s.name: s for s in obs.trace.spans()}
        assert spans["deliver"].begin_ns == 1000
        assert spans["deliver"].end_ns == spans["route"].begin_ns == 1010
        assert spans["route"].end_ns == 1030
        assert (spans["tick"].begin_ns, spans["tick"].end_ns) == (1000, 1040)
        assert spans["tick"].tick == 4
        hist = obs.metrics.snapshot()["repro_tick_seconds"]
        assert hist["count"] == 1

    def test_event_snapshot_covers_catalogue_subset(self):
        obs = Observer()
        obs.bind_counters(lambda: EventCounters(ticks=2, spikes=5))
        snap = obs.event_snapshot()
        assert set(snap) == set(EVENT_METRICS)
        assert snap["repro_spikes_total"] == 5

    def test_write_metrics_json(self, tmp_path):
        obs = Observer()
        obs.bind_counters(lambda: EventCounters(spikes=5))
        path = tmp_path / "metrics.json"
        obs.write_metrics_json(str(path))
        assert json.loads(path.read_text())["repro_spikes_total"] == 5


class TestStructuredLog:
    @pytest.fixture()
    def capture(self):
        stream = io.StringIO()
        configure(level=logging.DEBUG, stream=stream, force=True)
        yield stream
        configure(force=True)  # restore env-driven defaults

    def test_event_key_value_rendering(self, capture):
        log = get_logger("repro.test")
        log.info("engine_selected", engine="fast", n_workers=4)
        line = capture.getvalue().strip()
        assert line.endswith("engine_selected engine=fast n_workers=4")
        assert "INFO" in line and "repro.test" in line

    def test_values_with_whitespace_are_quoted(self, capture):
        get_logger("repro.test").info("note", reason="too many cores")
        assert "reason='too many cores'" in capture.getvalue()

    def test_level_filters(self, capture):
        configure(level=logging.WARNING, stream=capture, force=True)
        log = get_logger("repro.test")
        log.info("hidden")
        log.warning("shown")
        text = capture.getvalue()
        assert "hidden" not in text
        assert "shown" in text

    def test_level_from_environment(self, monkeypatch):
        stream = io.StringIO()
        monkeypatch.setenv("REPRO_LOG_LEVEL", "DEBUG")
        configure(stream=stream, force=True)
        try:
            get_logger("repro.test").debug("fine_grained", x=1)
            assert "fine_grained x=1" in stream.getvalue()
        finally:
            monkeypatch.undo()
            configure(force=True)

    def test_level_from_environment_filters_below(self, monkeypatch):
        stream = io.StringIO()
        monkeypatch.setenv("REPRO_LOG_LEVEL", "ERROR")
        configure(stream=stream, force=True)
        try:
            log = get_logger("repro.test")
            log.warning("suppressed_by_env")
            log.error("surfaced_by_env")
            text = stream.getvalue()
            assert "suppressed_by_env" not in text
            assert "surfaced_by_env" in text
        finally:
            monkeypatch.undo()
            configure(force=True)

    def test_logger_namespace_enforced(self):
        with pytest.raises(ValueError, match="namespace"):
            get_logger("other.package")
