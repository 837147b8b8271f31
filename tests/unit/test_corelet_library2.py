"""Tests for the RBM sampling corelet."""

import numpy as np
import pytest

from repro.corelets.library.rbm import (
    compile_sampler,
    firing_probability,
    rbm_sampling_layer,
    sample_hidden,
)


class TestRBM:
    def test_sampling_statistics_match_analytic(self):
        # one hidden unit per drive level: weights columns with 0..3
        # positive visible connections
        n_visible = 4
        weights = np.zeros((n_visible, 4), dtype=np.int64)
        for j in range(4):
            weights[:j, j] = 1
        layer = rbm_sampling_layer(weights, gain=48, bias=16)
        compiled = compile_sampler(layer)
        visible = np.ones(n_visible, dtype=bool)
        samples = sample_hidden(compiled, visible, n_samples=1200)
        rates = samples.mean(axis=0)
        for j in range(4):
            expected = firing_probability(j, gain=48, bias=16)
            assert rates[j] == pytest.approx(expected, abs=0.06)

    def test_negative_drive_never_fires(self):
        weights = np.full((4, 2), -1, dtype=np.int64)
        layer = rbm_sampling_layer(weights, gain=48, bias=16)
        compiled = compile_sampler(layer)
        samples = sample_hidden(compiled, np.ones(4, dtype=bool), n_samples=100)
        assert samples.sum() == 0

    def test_samples_are_independent_across_presentations(self):
        # With P ~ 0.5, runs of identical outcomes must not dominate
        # (carryover between presentations would produce streaks).
        weights = np.zeros((2, 1), dtype=np.int64)
        weights[0, 0] = 1
        layer = rbm_sampling_layer(weights, gain=48, bias=64)
        compiled = compile_sampler(layer)
        visible = np.array([True, False])
        samples = sample_hidden(compiled, visible, n_samples=400)[:, 0]
        p = samples.mean()
        assert 0.3 < p < 0.6
        flips = np.abs(np.diff(samples.astype(int))).mean()
        assert flips > 0.3  # plenty of alternation

    def test_ternary_weights_enforced(self):
        with pytest.raises(ValueError):
            rbm_sampling_layer(np.full((2, 2), 3))
