"""Tests for the counter-based PRNG (repro.core.prng)."""

import numpy as np
import pytest

from repro.core import prng


def draw(bits, seed, purpose, core, tick, units):
    """*bits*-bit draws for *units* of one core, by the tick's own routine."""
    units = np.asarray(units)
    sites = prng.draw_sites(np.full(units.size, core), units)
    return prng.draw_staged(seed, purpose, tick, sites, bits)


class TestDeterminism:
    def test_same_coordinates_same_draws(self):
        a = draw(8, 42, prng.PURPOSE_SYNAPSE, 3, 17, np.arange(64))
        b = draw(8, 42, prng.PURPOSE_SYNAPSE, 3, 17, np.arange(64))
        assert np.array_equal(a, b)

    def test_scalar_matches_vector(self):
        units = np.arange(32)
        vec = draw(8, 7, prng.PURPOSE_LEAK, 5, 9, units)
        for u in units:
            assert prng.draw_u8_scalar(7, prng.PURPOSE_LEAK, 5, 9, int(u)) == vec[u]

    def test_scalar_u16_matches_vector(self):
        units = np.arange(16)
        vec = prng.draw_u16(7, prng.PURPOSE_THRESHOLD, 2, 3, units)
        for u in units:
            assert prng.draw_u16_scalar(7, prng.PURPOSE_THRESHOLD, 2, 3, int(u)) == vec[u]

    def test_order_independence(self):
        units = np.arange(100)
        shuffled = units[::-1].copy()
        a = draw(8, 1, prng.PURPOSE_SYNAPSE, 0, 0, units)
        b = draw(8, 1, prng.PURPOSE_SYNAPSE, 0, 0, shuffled)
        assert np.array_equal(a, b[::-1])


class TestIndependenceAcrossCoordinates:
    @pytest.mark.parametrize(
        "kwargs_a, kwargs_b",
        [
            (dict(seed=1), dict(seed=2)),
            (dict(tick=0), dict(tick=1)),
            (dict(core=0), dict(core=1)),
            (dict(purpose=prng.PURPOSE_SYNAPSE), dict(purpose=prng.PURPOSE_LEAK)),
        ],
    )
    def test_streams_differ(self, kwargs_a, kwargs_b):
        base = dict(seed=0, purpose=prng.PURPOSE_SYNAPSE, core=0, tick=0)
        a = draw(32, **{**base, **kwargs_a}, units=np.arange(256))
        b = draw(32, **{**base, **kwargs_b}, units=np.arange(256))
        assert not np.array_equal(a, b)


class TestUniformity:
    def test_u8_mean_and_range(self):
        d = draw(8, 0, prng.PURPOSE_SYNAPSE, 0, 0, np.arange(200_000))
        assert 0 <= d.min() and d.max() <= 255
        assert abs(d.mean() - 127.5) < 1.0

    def test_u16_range(self):
        d = prng.draw_u16(0, prng.PURPOSE_THRESHOLD, 0, 0, np.arange(100_000))
        assert 0 <= d.min() and d.max() <= 65535
        assert abs(d.mean() - 32767.5) < 300

    def test_u8_bucket_uniformity(self):
        d = draw(8, 3, prng.PURPOSE_LEAK, 1, 1, np.arange(256_000))
        counts = np.bincount(d, minlength=256)
        # each bucket expects 1000; allow 5 sigma (~sqrt(1000)*5)
        assert np.all(np.abs(counts - 1000) < 160)

    def test_no_unit_correlation(self):
        d = draw(8, 0, prng.PURPOSE_SYNAPSE, 0, 0, np.arange(65536))
        # adjacent-unit draws should be uncorrelated
        x = d[:-1].astype(float) - d.mean()
        y = d[1:].astype(float) - d.mean()
        r = (x * y).mean() / (x.std() * y.std())
        assert abs(r) < 0.02


class TestSynapseUnit:
    def test_scalar(self):
        assert prng.synapse_unit(3, 7) == 3 * 256 + 7

    def test_vectorized(self):
        axons = np.array([[0], [1]])
        neurons = np.array([[0, 1]])
        units = prng.synapse_unit(axons, neurons)
        assert units.shape == (2, 2)
        assert units[1, 1] == 257

    def test_unique_within_core(self):
        axons = np.repeat(np.arange(256), 256)
        neurons = np.tile(np.arange(256), 256)
        units = prng.synapse_unit(axons, neurons)
        assert len(np.unique(units)) == 256 * 256
