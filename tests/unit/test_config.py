"""Tests for core configuration bitstreams (repro.hardware.config)."""

import numpy as np
import pytest

from repro.compass.engine import run_engine
from repro.core.builders import poisson_inputs, random_network
from repro.core.network import Network
from repro.hardware.config import (
    NEURON_WORD_BITS,
    CoreImage,
    config_stream,
    core_config_bits,
    decode_core,
    encode_core,
    parse_config_stream,
)


def core_equal(a, b):
    from dataclasses import fields

    for f in fields(a):
        if f.name == "name":
            continue
        va, vb = getattr(a, f.name), getattr(b, f.name)
        if not np.array_equal(va, vb):
            return False
    return True


class TestEncodeDecode:
    def test_roundtrip_random_core(self):
        net = random_network(n_cores=1, n_axons=16, n_neurons=16,
                             stochastic=True, seed=5)
        core = net.cores[0]
        decoded = decode_core(encode_core(core))
        assert core_equal(core, decoded)

    def test_roundtrip_full_size_core(self):
        net = random_network(n_cores=1, n_axons=256, n_neurons=256, seed=2)
        core = net.cores[0]
        decoded = decode_core(encode_core(core))
        assert core_equal(core, decoded)

    def test_output_target_roundtrips(self):
        from repro.core.network import Core, OUTPUT_TARGET

        core = Core.build(n_axons=4, n_neurons=4, target_core=OUTPUT_TARGET)
        decoded = decode_core(encode_core(core))
        assert (decoded.target_core == OUTPUT_TARGET).all()

    def test_extreme_values_roundtrip(self):
        from repro.core import params
        from repro.core.network import Core

        core = Core.build(
            n_axons=2, n_neurons=2,
            weights=np.array([[params.WEIGHT_MIN] * 4, [params.WEIGHT_MAX] * 4]),
            leak=np.array([params.LEAK_MIN, params.LEAK_MAX]),
            threshold=params.THRESHOLD_MAX,
            threshold_mask=params.THRESHOLD_MASK_MAX,
            reset_value=np.array([params.MEMBRANE_MIN, params.MEMBRANE_MAX]),
            initial_v=np.array([params.MEMBRANE_MIN, params.MEMBRANE_MAX]),
            neg_threshold=-params.MEMBRANE_MIN,
            delay=15,
        )
        decoded = decode_core(encode_core(core))
        assert core_equal(core, decoded)

    def test_bit_count(self):
        assert core_config_bits(256, 256) == 256 * 256 + 256 * 2 + 256 * NEURON_WORD_BITS

    def test_bytes_roundtrip(self):
        net = random_network(n_cores=1, n_axons=8, n_neurons=8, seed=9)
        image = encode_core(net.cores[0])
        again = CoreImage.from_bytes(image.to_bytes(), 8, 8)
        assert np.array_equal(image.bits, again.bits)


class TestConfigStream:
    def test_stream_roundtrip_preserves_behaviour(self):
        net = random_network(n_cores=3, n_axons=12, n_neurons=12,
                             stochastic=True, seed=7)
        stream = config_stream(net.cores)
        cores = parse_config_stream(stream)
        net2 = Network(cores=cores, seed=net.seed)
        ins = poisson_inputs(net, 20, 300.0, seed=3)
        want = run_engine(net, 20, ins, engine="truenorth")
        assert run_engine(net2, 20, ins, engine="truenorth") == want

    def test_stream_size(self):
        net = random_network(n_cores=2, n_axons=8, n_neurons=8, seed=1)
        stream = config_stream(net.cores)
        per_core = 8 + (core_config_bits(8, 8) + 7) // 8
        assert len(stream) == 2 * per_core

    def test_truncated_stream_rejected(self):
        net = random_network(n_cores=1, n_axons=8, n_neurons=8, seed=1)
        stream = config_stream(net.cores)
        with pytest.raises(ValueError):
            parse_config_stream(stream[:-3])
        with pytest.raises(ValueError):
            parse_config_stream(stream + b"\x01\x02")

    def test_full_chip_image_size_scale(self):
        # A full 256x256 core packs into ~10.5 KB; 4,096 cores ~ 43 MB --
        # the right order for a real chip's configuration state.
        bits = core_config_bits(256, 256)
        assert 70_000 <= bits <= 120_000
