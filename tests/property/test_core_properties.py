"""Property-based tests on core data structures and models."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core import params, prng
from repro.core.chip import ChipGeometry, Placement
from repro.compass.compile import compile_network
from repro.compass.fast import update_neurons
from repro.core.network import Core, Network
from repro.core.workload import WorkloadDescriptor
from repro.hardware.energy import EnergyModel
from repro.hardware.timing import TimingModel
from repro.noc.mesh import MeshNetwork


class TestPRNGProperties:
    @given(
        seed=st.integers(0, 2**63), purpose=st.integers(0, 2**31),
        core=st.integers(0, 2**20), tick=st.integers(0, 2**20),
    )
    @settings(max_examples=50, deadline=None)
    def test_range_and_determinism(self, seed, purpose, core, tick):
        sites = prng.draw_sites(np.full(64, core), np.arange(64))
        a = prng.draw_staged(seed, purpose, tick, sites, 8)
        b = prng.draw_staged(seed, purpose, tick, sites, 8)
        assert np.array_equal(a, b)
        assert a.min() >= 0 and a.max() <= 255

    @given(st.integers(0, 2**62))
    @settings(max_examples=50, deadline=None)
    def test_u16_contains_u8_range(self, seed):
        d = prng.draw_u16(seed, 1, 2, 3, np.arange(32))
        assert d.min() >= 0 and d.max() <= 65535


class TestStagedDrawEqualsScalarChain:
    """``draw_staged`` (per-core stages, gathered) against the reference kernel's scalar draws."""

    PURPOSES = (prng.PURPOSE_SYNAPSE, prng.PURPOSE_LEAK, prng.PURPOSE_THRESHOLD)
    MAX_UNIT = prng.synapse_unit(255, 255)

    @staticmethod
    def _check(seed, purpose, tick, cores, units, scratch=None):
        sites = prng.draw_sites(np.asarray(cores), np.asarray(units))
        for bits, scalar in ((8, prng.draw_u8_scalar), (16, prng.draw_u16_scalar)):
            got = prng.draw_staged(seed, purpose, tick, sites, bits, scratch)
            assert got.dtype == np.int64 and got.shape == (len(cores),)
            want = [scalar(seed, purpose, c, tick, u) for c, u in zip(cores, units)]
            assert got.tolist() == want

    @given(
        seed=st.integers(0, 2**64 - 1), purpose=st.sampled_from(PURPOSES),
        tick=st.integers(0, 2**48 - 1),
        # Non-contiguous global core ids, as a partition's slice holds them.
        sites=st.lists(
            st.tuples(st.sampled_from([0, 3, 4, 77, 143, 4095]), st.integers(0, MAX_UNIT)),
            max_size=24,
        ),
        buffered=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_any_coordinates(self, seed, purpose, tick, sites, buffered):
        cores, units = [c for c, _ in sites], [u for _, u in sites]
        scratch = np.empty((2, 32), dtype=np.uint64) if buffered else None
        self._check(seed, purpose, tick, cores, units, scratch)

    @given(seed=st.integers(0, 2**63), lane=st.integers(1, 64), tick=st.integers(0, 2**20))
    @settings(max_examples=25, deadline=None)
    def test_a_derived_stream_seed_lane(self, seed, lane, tick):
        derived = prng.derive_stream_seed(seed, lane)
        self._check(derived, prng.PURPOSE_LEAK, tick, [1, 1, 0, 5], [0, 255, 7, self.MAX_UNIT])

    def test_an_empty_unit_list(self):
        self._check(9, prng.PURPOSE_THRESHOLD, 4, [], [])


class TestMembraneProperties:
    @given(st.lists(st.integers(-(2**40), 2**40), min_size=1, max_size=64))
    @settings(max_examples=50, deadline=None)
    def test_clamp_always_in_range(self, values):
        n = len(values)
        core = Core.build(
            n_axons=n, n_neurons=n, threshold=params.THRESHOLD_MAX,
            reset_mode=params.RESET_NONE, neg_threshold=-params.MEMBRANE_MIN,
        )
        c = compile_network(Network(cores=[core]))
        v, _ = update_neurons(c, 0, 0, np.zeros(n, dtype=np.int64), np.asarray(values))
        assert v.tolist() == np.clip(values, params.MEMBRANE_MIN, params.MEMBRANE_MAX).tolist()
        assert v.min() >= params.MEMBRANE_MIN
        assert v.max() <= params.MEMBRANE_MAX

    @given(
        syn=st.lists(st.integers(-(2**30), 2**30), min_size=4, max_size=4),
        threshold=st.integers(1, 1000),
        leak=st.integers(-64, 63),
        reset_mode=st.integers(0, 2),
        tick=st.integers(0, 100),
    )
    @settings(max_examples=60, deadline=None)
    def test_membrane_stays_bounded(self, syn, threshold, leak, reset_mode, tick):
        core = Core.build(
            n_axons=4, n_neurons=4, threshold=threshold, leak=leak,
            reset_mode=reset_mode, neg_threshold=100,
        )
        c = compile_network(Network(cores=[core]))
        v, spiked = update_neurons(
            c, 0, tick, np.zeros(4, dtype=np.int64), np.asarray(syn, dtype=np.int64)
        )
        assert v.min() >= params.MEMBRANE_MIN and v.max() <= params.MEMBRANE_MAX
        assert spiked.dtype == bool


class TestMeshProperties:
    @given(
        src=st.tuples(st.integers(0, 15), st.integers(0, 15)),
        dst=st.tuples(st.integers(0, 15), st.integers(0, 15)),
    )
    @settings(max_examples=60, deadline=None)
    def test_route_reaches_destination_with_manhattan_hops(self, src, dst):
        mesh = MeshNetwork(16, 16)
        path = mesh.route(src, dst)
        assert path[0] == src and path[-1] == dst
        manhattan = abs(dst[0] - src[0]) + abs(dst[1] - src[1])
        assert len(path) - 1 == manhattan
        # each step moves exactly one hop
        for a, b in zip(path[:-1], path[1:]):
            assert abs(a[0] - b[0]) + abs(a[1] - b[1]) == 1

    @given(
        src=st.tuples(st.integers(0, 9), st.integers(0, 9)),
        dst=st.tuples(st.integers(0, 9), st.integers(0, 9)),
        defect=st.tuples(st.integers(1, 8), st.integers(1, 8)),
    )
    @settings(max_examples=60, deadline=None)
    def test_defect_detour_properties(self, src, dst, defect):
        if defect in (src, dst):
            return
        mesh = MeshNetwork(10, 10)
        mesh.disable(*defect)
        path = mesh.route(src, dst)
        assert defect not in path
        assert path[-1] == dst
        manhattan = abs(dst[0] - src[0]) + abs(dst[1] - src[1])
        assert len(path) - 1 in (manhattan, manhattan + 2)


class TestPlacementProperties:
    @given(n=st.integers(1, 200), side_x=st.integers(2, 16), side_y=st.integers(2, 16))
    @settings(max_examples=40, deadline=None)
    def test_grid_placement_unique_slots(self, n, side_x, side_y):
        p = Placement.grid(n, ChipGeometry(cores_x=side_x, cores_y=side_y))
        assert p.n_cores == n
        slots = set(
            zip(p.chip_x.tolist(), p.chip_y.tolist(), p.x.tolist(), p.y.tolist())
        )
        assert len(slots) == n

    @given(
        n=st.integers(2, 50),
        a=st.integers(0, 49), b=st.integers(0, 49),
    )
    @settings(max_examples=40, deadline=None)
    def test_hops_triangle_inequality(self, n, a, b):
        if a >= n or b >= n:
            return
        p = Placement.grid(n, ChipGeometry(cores_x=8, cores_y=8))
        mid = np.arange(0, n, max(1, n // 5))
        a, b = np.full(mid.size, a), np.full(mid.size, b)
        for direct, via_a, via_b in zip(
            p.route_lengths(a, b), p.route_lengths(a, mid), p.route_lengths(mid, b)
        ):  # hops, then chip crossings
            assert (direct <= via_a + via_b).all()


class TestModelProperties:
    @given(
        rate=st.floats(0.0, 200.0), syn=st.floats(0.0, 256.0),
        v=st.floats(0.70, 1.05),
    )
    @settings(max_examples=60, deadline=None)
    def test_energy_positive_and_monotone_in_frequency(self, rate, syn, v):
        m = EnergyModel(voltage=v)
        slow = m.energy_per_tick_for_workload(rate, syn, tick_frequency_hz=1000.0)
        fast = m.energy_per_tick_for_workload(rate, syn, tick_frequency_hz=5000.0)
        assert 0 < fast <= slow  # passive amortization

    @given(rate=st.floats(0.0, 200.0), syn=st.floats(0.0, 256.0), v=st.floats(0.70, 1.05))
    @settings(max_examples=60, deadline=None)
    def test_timing_positive(self, rate, syn, v):
        t = TimingModel(voltage=v)
        f = t.max_frequency_for_workload_khz(rate, syn)
        assert f > 0

    @given(
        neurons=st.integers(1, 2**20), cores=st.integers(1, 4096),
        rate=st.floats(0.0, 200.0), syn=st.floats(0.0, 256.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_workload_sops_consistency(self, neurons, cores, rate, syn):
        w = WorkloadDescriptor("w", neurons, cores, rate, syn)
        assert w.sops == (w.syn_events_per_tick * 1000.0) or abs(
            w.sops - w.syn_events_per_tick * 1000.0
        ) < 1e-6 * max(1.0, w.sops)
