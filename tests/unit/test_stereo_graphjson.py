"""Tests for the stereo app."""

import numpy as np
import pytest

from repro.apps.stereo import (
    build_stereo_pipeline,
    estimate_scene_disparity,
    stereo_pair_inputs,
)


class TestStereo:
    @pytest.fixture(scope="class")
    def pipeline(self):
        return build_stereo_pipeline(16, (0, 1, 2, 3))

    @pytest.fixture(scope="class")
    def pattern(self):
        rng = np.random.default_rng(2)
        return (rng.random(16) < 0.4).astype(float)

    @pytest.mark.parametrize("true_d", [0, 1, 2, 3])
    def test_recovers_true_disparity(self, pipeline, pattern, true_d):
        _, estimated = estimate_scene_disparity(pipeline, pattern, true_d)
        assert estimated == true_d

    def test_matched_bank_dominates(self, pipeline, pattern):
        rec, _ = estimate_scene_disparity(pipeline, pattern, 2)
        energies = pipeline.disparity_energies(rec)
        matched = energies[2]
        others = [v for d, v in energies.items() if d != 2]
        assert matched > 1.5 * max(others)

    def test_pattern_width_validated(self, pipeline):
        with pytest.raises(ValueError):
            stereo_pair_inputs(pipeline, np.ones(5), 1)

    def test_disparity_range_validated(self):
        with pytest.raises(ValueError):
            build_stereo_pipeline(4, (0, 5))
