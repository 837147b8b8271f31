"""The corelet library: reusable building blocks for applications."""

from repro.corelets.library.basic import relay, splitter
from repro.corelets.library.rbm import (
    compile_sampler,
    firing_probability,
    rbm_sampling_layer,
    sample_hidden,
)
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
    "compile_sampler",
    "firing_probability",
    "rbm_sampling_layer",
    "sample_hidden",
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
