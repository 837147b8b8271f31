"""Registry of the bundled example/app networks, for lint sweeps.

One place that knows how to build every network the repo ships —
the application pipelines at their documented test scales, the
characterization networks, and a corelet-composition example.  Used by:

* ``python -m repro lint --builtin`` (the CI gate over shipped models);
* the test sweep asserting every bundled builder lints clean under
  ``strict`` (no errors *and* no warnings).

Builders are zero-argument callables returning a
:class:`~repro.core.network.Network`, so registration stays lazy: a
builder only runs when its network is actually linted.
"""

from __future__ import annotations

from typing import Callable

from repro.core.network import Network


def _recurrent_deterministic() -> Network:
    from repro.apps.recurrent import probabilistic_recurrent_network

    return probabilistic_recurrent_network(
        100.0, 16, grid_side=2, neurons_per_core=32
    )


def _recurrent_stochastic() -> Network:
    from repro.apps.recurrent import probabilistic_recurrent_network

    return probabilistic_recurrent_network(
        100.0, 16, grid_side=2, neurons_per_core=32, coupling="balanced"
    )


def _haar() -> Network:
    from repro.apps.haar import build_haar_pipeline

    return build_haar_pipeline(16, 16, 4).compiled.network


def _lbp() -> Network:
    from repro.apps.lbp import build_lbp_pipeline

    return build_lbp_pipeline(8, 8, patch=8).compiled.network


def _saliency() -> Network:
    from repro.apps.saliency import build_saliency_pipeline

    return build_saliency_pipeline(16, 16, 4).compiled.network


def _saccade() -> Network:
    from repro.apps.saccade import build_saccade_pipeline

    return build_saccade_pipeline(8).compiled.network


def _rbm_sampler() -> Network:
    from repro.corelets.library.rbm import compile_sampler, rbm_sampling_layer
    from repro.utils.rng import seeded_rng

    weights = seeded_rng(0).integers(-1, 2, size=(8, 16))
    return compile_sampler(rbm_sampling_layer(weights)).network


#: name -> zero-argument builder for every bundled network.
BUILTIN_NETWORKS: dict[str, Callable[[], Network]] = {
    "recurrent-deterministic": _recurrent_deterministic,
    "recurrent-stochastic": _recurrent_stochastic,
    "haar": _haar,
    "lbp": _lbp,
    "saliency": _saliency,
    "saccade": _saccade,
    "rbm-sampler": _rbm_sampler,
}


def builtin_networks() -> dict[str, Network]:
    """Build and return every registered bundled network."""
    return {name: build() for name, build in BUILTIN_NETWORKS.items()}
