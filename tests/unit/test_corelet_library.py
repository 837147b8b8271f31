"""Tests for the corelet library (filters, competition, classification)."""

import numpy as np
import pytest

from repro.compass.engine import run_engine
from repro.core.inputs import InputSchedule
from repro.corelets.corelet import Composition
from repro.corelets.library.basic import splitter
from repro.corelets.library.classify import (
    classify_rates,
    histogram,
    ternary_classifier,
    train_ternary,
)
from repro.corelets.library.competition import inhibition_of_return, winner_take_all
from repro.corelets.library.filters import (
    center_surround_kernel,
    haar_kernels,
    signed_filter,
)


def build_single(corelet, outputs=("out",)):
    comp = Composition(seed=0)
    comp.add(corelet)
    for name, conn in corelet.inputs.items():
        comp.export_input(name, conn)
    for name in outputs:
        comp.export_output(name, corelet.outputs[name])
    return comp.compile()


def out_rates(compiled, rec, name="out"):
    pins = compiled.outputs[name]
    index = {(p.core, p.index): i for i, p in enumerate(pins)}
    rates = np.zeros(len(pins))
    for t, c, n in rec.as_tuples():
        if (c, n) in index:
            rates[index[(c, n)]] += 1
    return rates


def drive_lines(compiled, line_ticks, input_name="in"):
    ins = InputSchedule()
    pins = compiled.inputs[input_name]
    for tick, line in line_ticks:
        ins.add(tick, pins[line].core, pins[line].index)
    return ins


class TestWinnerTakeAll:
    def test_strongest_input_wins(self):
        n = 8
        compiled = build_single(winner_take_all(n))
        ins = InputSchedule()
        pins = compiled.inputs["in"]
        # line 3 gets input every tick; line 5 every 4th tick.
        for t in range(40):
            ins.add(t, pins[3].core, pins[3].index)
            if t % 4 == 0:
                ins.add(t, pins[5].core, pins[5].index)
        rec = run_engine(compiled.network, 40, ins, engine="truenorth")
        rates = out_rates(compiled, rec)
        assert rates[3] == rates.max() and rates[3] > 0
        assert rates[3] > 2 * rates[5]
        silent = [r for i, r in enumerate(rates) if i not in (3, 5)]
        assert max(silent, default=0) == 0

    def test_size_limit(self):
        with pytest.raises(ValueError):
            winner_take_all(200)


class TestInhibitionOfReturn:
    def test_refractory_after_spike(self):
        compiled = build_single(inhibition_of_return(4, suppression=240, recovery=16))
        # constant drive on line 1
        ins = drive_lines(compiled, [(t, 1) for t in range(60)])
        rec = run_engine(compiled.network, 60, ins, engine="truenorth")
        pins = compiled.outputs["out"]
        p1 = pins[1]
        fire_ticks = sorted(t for t, c, n in rec.as_tuples() if (c, n) == (p1.core, p1.index))
        assert len(fire_ticks) >= 2
        gaps = np.diff(fire_ticks)
        # suppression 240 recovering 16/tick + gain 64/tick drive: the
        # channel must stay silent for several ticks after each spike.
        assert gaps.min() >= 3

    def test_channels_independent(self):
        compiled = build_single(inhibition_of_return(4))
        ins = drive_lines(compiled, [(t, 0) for t in range(30)] + [(t, 2) for t in range(30)])
        rec = run_engine(compiled.network, 30, ins, engine="truenorth")
        rates = out_rates(compiled, rec)
        assert rates[0] > 0 and rates[2] > 0
        assert rates[1] == 0 and rates[3] == 0


class TestSignedFilter:
    def test_matched_pattern_fires_most(self):
        kernel = np.array([[1], [1], [-1], [-1]])
        filt = signed_filter(kernel, gain=32, threshold=64)
        comp = Composition(seed=0)
        sp = splitter(4, 2, name="sp")
        comp.connect(sp.outputs["out0"], filt.inputs["in+"])
        comp.connect(sp.outputs["out1"], filt.inputs["in-"])
        comp.export_input("in", sp.inputs["in"])
        comp.export_output("out", filt.outputs["out"])
        compiled = comp.compile()

        # matched stimulus: lines 0,1 active
        ins = drive_lines(compiled, [(t, l) for t in range(30) for l in (0, 1)])
        rec = run_engine(compiled.network, 30, ins, engine="truenorth")
        matched = out_rates(compiled, rec)[0]

        # anti-matched: lines 2,3 active
        ins2 = drive_lines(compiled, [(t, l) for t in range(30) for l in (2, 3)])
        rec2 = run_engine(compiled.network, 30, ins2, engine="truenorth")
        anti = out_rates(compiled, rec2)[0]
        assert matched > 0
        assert anti == 0

    def test_kernel_validation(self):
        with pytest.raises(ValueError):
            signed_filter(np.array([[2], [0]]))
        with pytest.raises(ValueError):
            signed_filter(np.ones((200, 1)))

    def test_haar_kernels_shape_and_balance(self):
        k = haar_kernels(4)
        assert k.shape == (16, 5)
        # every Haar feature is zero-mean (balanced +/-)
        assert np.abs(k.sum(axis=0)).max() == 0

    def test_center_surround(self):
        k = center_surround_kernel(4)
        assert k.shape == (16, 1)
        assert (k == 1).sum() == 4  # 2x2 center


class TestHistogram:
    def test_counts_events_per_bin(self):
        bins = np.array([0, 0, 1, 1, 1, 2, 2, 2])
        compiled = build_single(histogram(bins, 3, count_per_spike=2))
        # 10 events into bin 1 (lines 2,3 for 5 ticks) -> 5 output spikes
        ins = drive_lines(compiled, [(t, l) for t in range(5) for l in (2, 3)])
        rec = run_engine(compiled.network, 8, ins, engine="truenorth")
        rates = out_rates(compiled, rec)
        assert rates[1] == 5
        assert rates[0] == 0 and rates[2] == 0

    def test_linear_reset_preserves_remainder(self):
        bins = np.zeros(1, dtype=np.int64)
        compiled = build_single(histogram(bins, 1, count_per_spike=2))
        # 3 events -> 1 spike with remainder 1; a 4th event -> second spike
        ins = drive_lines(
            compiled, [(0, 0), (1, 0), (2, 0), (3, 0)]
        )
        rec = run_engine(compiled.network, 6, ins, engine="truenorth")
        assert out_rates(compiled, rec)[0] == 2

    def test_bad_bins_rejected(self):
        with pytest.raises(ValueError):
            histogram(np.array([0, 5]), 3)


class TestTernaryClassifier:
    def test_train_and_classify_separable(self):
        rng = np.random.default_rng(0)
        n_features, n_classes = 16, 3
        prototypes = rng.random((n_classes, n_features)) > 0.5
        X, y = [], []
        for k in range(n_classes):
            for _ in range(40):
                noise = rng.random(n_features) < 0.08
                X.append(np.logical_xor(prototypes[k], noise).astype(float))
                y.append(k)
        X, y = np.asarray(X), np.asarray(y)
        w = train_ternary(X, y, n_classes, epochs=60, seed=1)
        assert w.shape == (n_features, n_classes)
        assert set(np.unique(w)).issubset({-1, 0, 1})
        scores = X @ w
        acc = (scores.argmax(axis=1) == y).mean()
        assert acc > 0.9

    def test_spiking_classifier_agrees_with_linear_scores(self):
        rng = np.random.default_rng(3)
        n_features, n_classes = 8, 2
        w = np.zeros((n_features, n_classes), dtype=np.int64)
        w[:4, 0] = 1
        w[4:, 1] = 1
        clf = ternary_classifier(w, gain=32, threshold=64)
        comp = Composition(seed=0)
        sp = splitter(n_features, 2, name="sp")
        comp.connect(sp.outputs["out0"], clf.inputs["in+"])
        comp.connect(sp.outputs["out1"], clf.inputs["in-"])
        comp.export_input("in", sp.inputs["in"])
        comp.export_output("out", clf.outputs["out"])
        compiled = comp.compile()

        # stimulus strongly matching class 0
        ins = drive_lines(
            compiled, [(t, l) for t in range(30) for l in range(4) if rng.random() < 0.9]
        )
        rec = run_engine(compiled.network, 30, ins, engine="truenorth")
        rates = out_rates(compiled, rec)
        assert classify_rates(rates) == 0
