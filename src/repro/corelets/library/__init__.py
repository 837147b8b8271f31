"""The corelet library: reusable building blocks for applications."""

from repro.corelets.library.basic import relay, splitter
from repro.corelets.library.convolution import ConvLayer, conv2d
from repro.corelets.library.rbm import (
    compile_sampler,
    firing_probability,
    rbm_sampling_layer,
    sample_hidden,
)
from repro.corelets.library.reservoir import liquid_reservoir, reservoir_state_features
from repro.corelets.library.temporal import coincidence, compose_reichardt, delay_chain
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

__all__ = [
    "ConvLayer",
    "conv2d",
    "compile_sampler",
    "firing_probability",
    "rbm_sampling_layer",
    "sample_hidden",
    "liquid_reservoir",
    "reservoir_state_features",
    "coincidence",
    "compose_reichardt",
    "delay_chain",
    "relay",
    "splitter",
    "classify_rates",
    "histogram",
    "ternary_classifier",
    "train_ternary",
    "inhibition_of_return",
    "winner_take_all",
    "center_surround_kernel",
    "haar_kernels",
    "signed_filter",
]
