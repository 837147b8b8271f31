"""Tests for SpikeRecord, InputSchedule, and EventCounters."""

import numpy as np

from repro.core.counters import EventCounters
from repro.core.events import canonical_events, event_tuples
from repro.core.inputs import InputSchedule
from repro.core.record import SpikeRecord


class TestSpikeRecord:
    def test_from_events_sorts(self):
        rec = SpikeRecord.from_events([(2, 0, 1), (0, 1, 0), (2, 0, 0)])
        assert rec.as_tuples() == [(0, 1, 0), (2, 0, 0), (2, 0, 1)]

    def test_equality(self):
        a = SpikeRecord.from_events([(0, 0, 0), (1, 1, 1)])
        b = SpikeRecord.from_events([(1, 1, 1), (0, 0, 0)])
        assert a == b

    def test_inequality(self):
        a = SpikeRecord.from_events([(0, 0, 0)])
        b = SpikeRecord.from_events([(0, 0, 1)])
        assert a != b

    def test_first_mismatch(self):
        a = SpikeRecord.from_events([(0, 0, 0), (3, 0, 0)])
        b = SpikeRecord.from_events([(0, 0, 0), (2, 0, 0)])
        assert a.first_mismatch(b) == (2, 0, 0)
        assert a.first_mismatch(a) is None

    def test_spikes_at(self):
        rec = SpikeRecord.from_events([(1, 0, 3), (1, 2, 5), (2, 0, 0)])
        assert rec.spikes_at(1) == [(0, 3), (2, 5)]
        assert rec.spikes_at(9) == []

    def test_for_core(self):
        rec = SpikeRecord.from_events([(1, 0, 3), (1, 2, 5), (2, 0, 0)])
        sub = rec.for_core(0)
        assert sub.n_spikes == 2
        assert sub.as_tuples() == [(1, 0, 3), (2, 0, 0)]

    def test_rate(self):
        rec = SpikeRecord.from_events([(t, 0, 0) for t in range(10)])
        # 10 spikes over 1 neuron x 100 ticks x 1ms = 100 Hz
        assert rec.rate_hz(n_neurons=1, n_ticks=100) == 100.0

    def test_empty_record(self):
        rec = SpikeRecord.from_events([])
        assert rec.n_spikes == 0
        assert rec.rate_hz(10, 10) == 0.0


class TestInputSchedule:
    def test_merge_duplicates(self):
        s = InputSchedule.from_events([(0, 0, 1), (0, 0, 1), (0, 0, 2)])
        assert s.n_events == 2
        assert s.events_at(0) == [(0, 1), (0, 2)]

    def test_iteration_sorted(self):
        s = InputSchedule.from_events([(3, 1, 0), (0, 0, 5), (3, 0, 9)])
        assert list(s) == [(0, 0, 5), (3, 0, 9), (3, 1, 0)]

    def test_last_tick(self):
        s = InputSchedule.from_events([(4, 0, 0), (9, 0, 0)])
        assert s.last_tick == 9
        assert InputSchedule().last_tick == -1

    def test_add_frame(self):
        s = InputSchedule()
        s.add_frame(2, 1, np.array([1, 0, 1, 1], dtype=bool))
        assert s.events_at(2) == [(1, 0), (1, 2), (1, 3)]


    def test_add_frame_is_one_bulk_append(self):
        s = InputSchedule()
        s.add_frame(2, 1, np.array([1, 0, 1, 1], dtype=bool))
        s.add_frame(2, 1, np.zeros(4, dtype=bool))
        assert len(s._appended) == 1  # the empty frame buffers nothing
        assert s.n_events == 3 and not s._appended

    def test_holds_columns_and_nothing_else(self):
        s = InputSchedule.from_events([(3, 1, 0), (0, 0, 5), (3, 1, 0)])
        s.add(1, 1, 1)
        assert s.n_events == 3
        held = vars(s)
        assert sorted(held) == ["_appended", "_axons", "_cores", "_ticks"]
        assert held["_appended"] == []
        assert all(held[k].dtype == np.int64 and held[k].shape == (3,)
                   for k in ("_ticks", "_cores", "_axons"))

    def test_caller_arrays_are_copied_in(self):
        axons = np.array([4, 2])
        s = InputSchedule()
        s.add_events(0, 0, axons)
        axons[:] = 7
        assert list(s) == [(0, 0, 2), (0, 0, 4)]


class TestEventColumns:
    def test_ordered_input_is_taken_as_it_is(self):
        cols = tuple(np.array(c) for c in ([0, 0, 2], [0, 1, 0], [5, 5, 1]))
        for merge in (False, True):
            out = canonical_events(*cols, merge=merge)
            assert all(a is b for a, b in zip(out, cols))

    def test_repeats_sort_only_when_merging(self):
        cols = tuple(np.array(c) for c in ([0, 0, 0], [1, 1, 2], [3, 3, 0]))
        kept = canonical_events(*cols)
        assert all(a is b for a, b in zip(kept, cols))
        merged = canonical_events(*cols, merge=True)
        assert [c.tolist() for c in merged] == [[0, 0], [1, 2], [3, 0]]

    def test_unordered_and_unkeyable_input_is_sorted(self):
        events = [(2, 0, 1), (0, 1, 0), (2, 0, 1), (2**62, 3, 0), (0, -1, 4)]
        out = canonical_events(*np.array(events).T, merge=True)
        assert event_tuples(*out) == sorted(set(events))

    def test_event_tuples_are_python_ints(self):
        cores, neurons = np.array([1, 0, 2]), np.array([5, 6, 7], dtype=np.int32)
        want = [(9, 1, 5), (9, 0, 6), (9, 2, 7)]
        for tick in (9, np.int64(9)):
            got = event_tuples(tick, cores, neurons)
            assert got == want
            assert all(type(v) is int for row in got for v in row)
        assert event_tuples(np.array([0, 1, 0]), np.array([9, 9, 9]), cores, neurons) == [
            (0, 9, 1, 5), (1, 9, 0, 6), (0, 9, 2, 7)
        ]
        assert event_tuples(3, cores[:0], neurons[:0]) == []


class TestEventCounters:
    def test_core_tick_recording(self):
        c = EventCounters()
        c.ensure_cores(3)
        c.record_core_tick(0, 10)
        c.record_core_tick(1, 25)
        c.record_core_tick(0, 5)
        assert c.synaptic_events == 40
        assert c.max_core_events_per_tick == 25
        assert c.synaptic_events_per_core.tolist() == [15, 25, 0]

    def test_mean_firing_rate(self):
        c = EventCounters(ticks=100, spikes=200, neuron_updates=100 * 10)
        # 10 neurons, 200 spikes / (10 x 100 ticks) = 0.2/tick = 200 Hz
        assert abs(c.mean_firing_rate_hz - 200.0) < 1e-9

    def test_mean_active_synapses(self):
        c = EventCounters(spikes=10, synaptic_events=1280)
        assert c.mean_active_synapses == 128.0

    def test_merge(self):
        a = EventCounters(synaptic_events=5, spikes=2, max_core_events_per_tick=7)
        b = EventCounters(synaptic_events=3, spikes=1, max_core_events_per_tick=9)
        a.merge(b)
        assert a.synaptic_events == 8 and a.spikes == 3
        assert a.max_core_events_per_tick == 9

    def test_empty_rates(self):
        c = EventCounters()
        assert c.mean_firing_rate_hz == 0.0
        assert c.mean_active_synapses == 0.0
        assert c.sops_per_tick() == 0.0
