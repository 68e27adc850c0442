import json

import numpy as np
import pytest
from scipy.linalg import block_diag

from ssalign import (
    SystemConfig,
    build_relay_processor,
    channel_from_json,
    channel_to_json,
    complex_gaussian,
    construct,
    deactivate_relay_antennas,
    execute_plan,
    numerical_rank,
    sample_channel_set,
)
from ssalign.channel import complex_to_pairs
from ssalign.errors import InvalidDeactivation


class TestSystemConfig:
    def test_rejects_two_users(self):
        with pytest.raises(ValueError):
            SystemConfig(m=2, n=2, k=2)

    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            SystemConfig(m=0, n=2, k=3)
        with pytest.raises(ValueError):
            SystemConfig(m=1, n=2, k=3, extension=0)


class TestSampling:
    def test_shapes(self):
        ch = sample_channel_set(SystemConfig(m=2, n=3, k=3, seed=7))
        assert len(ch.uplink) == 3 and len(ch.downlink) == 3
        assert all(h.shape == (3, 2) for h in ch.uplink)
        assert all(g.shape == (2, 3) for g in ch.downlink)
        assert ch.active_relay == 3

    def test_seed_determinism(self):
        cfg = SystemConfig(m=2, n=3, k=3, seed=7)
        a = sample_channel_set(cfg)
        b = sample_channel_set(cfg)
        for x, y in zip(a.uplink + a.downlink, b.uplink + b.downlink):
            assert np.array_equal(x, y)

    def test_seeds_differ(self):
        a = sample_channel_set(SystemConfig(m=2, n=3, k=3, seed=7))
        b = sample_channel_set(SystemConfig(m=2, n=3, k=3, seed=8))
        assert not np.allclose(a.uplink[0], b.uplink[0])

    def test_extension_block_structure(self):
        ch = sample_channel_set(SystemConfig(m=2, n=5, k=3, extension=2, seed=1))
        h = ch.uplink[0]
        assert h.shape == (10, 4)
        # Off-diagonal blocks exactly zero, diagonal blocks independent.
        assert np.all(h[:5, 2:] == 0) and np.all(h[5:, :2] == 0)
        assert not np.allclose(h[:5, :2], h[5:, 2:])

    def test_generic_full_rank(self):
        # Sampled channels are full rank in at least 999 of 1000 draws.
        failures = 0
        for seed in range(1000):
            ch = sample_channel_set(SystemConfig(m=3, n=4, k=3, seed=seed))
            for h in ch.uplink:
                if numerical_rank(h) != 3:
                    failures += 1
        assert failures <= 1


def philox(key):
    return np.random.Generator(np.random.Philox(key=key))


def reference_block(rng, rows, cols):
    re = rng.standard_normal((rows, cols))
    im = rng.standard_normal((rows, cols))
    return (re + 1j * im) / np.sqrt(2.0)


class TestComplexGaussian:
    def test_block_diagonal_draw_order(self):
        ref = philox(3)
        want = block_diag(*[reference_block(ref, 4, 2) for _ in range(3)])
        assert np.array_equal(complex_gaussian(philox(3), 4, 2, extension=3), want)

    def test_channel_draw_order(self):
        # Uplink matrices for users 0..K-1, then downlink matrices.
        ch = sample_channel_set(SystemConfig(m=2, n=3, k=3, extension=2, seed=9))
        ref = philox(9)
        for h in ch.uplink:
            assert np.array_equal(h, block_diag(*[reference_block(ref, 3, 2) for _ in range(2)]))
        for g in ch.downlink:
            assert np.array_equal(g, block_diag(*[reference_block(ref, 2, 3) for _ in range(2)]))

    def test_unit_direction(self):
        ref = philox(4)
        want = (ref.standard_normal(6) + 1j * ref.standard_normal(6)) / np.sqrt(2.0)
        v = complex_gaussian(philox(4), 6, 1)[:, 0]
        assert np.array_equal(v / np.linalg.norm(v), want / np.linalg.norm(want))


class TestDeactivation:
    def test_noop(self):
        ch = sample_channel_set(SystemConfig(m=2, n=3, k=3, seed=7))
        out = deactivate_relay_antennas(ch, 3)
        assert out.active_relay == 3
        assert np.array_equal(out.uplink[0], ch.uplink[0])

    def test_prefix_truncation(self):
        # K=4 with N=12 cut to 7 rows targets the ratio 7/12 corner.
        ch = sample_channel_set(SystemConfig(m=7, n=12, k=4, seed=3))
        out = deactivate_relay_antennas(ch, 7)
        assert out.active_relay == 7
        assert np.array_equal(out.uplink[0], ch.uplink[0][:7, :])
        assert np.array_equal(out.downlink[0], ch.downlink[0][:, :7])

    def test_zero_rejected(self):
        ch = sample_channel_set(SystemConfig(m=2, n=3, k=3, seed=7))
        with pytest.raises(InvalidDeactivation):
            deactivate_relay_antennas(ch, 0)

    def test_expansion_rejected(self):
        ch = sample_channel_set(SystemConfig(m=2, n=3, k=3, seed=7))
        with pytest.raises(InvalidDeactivation):
            deactivate_relay_antennas(ch, 4)

    def test_extended_spreads_across_slots(self):
        # 14 -> 12 over 7 slots: later slots lose first, none goes dark.
        ch = sample_channel_set(SystemConfig(m=1, n=2, k=4, extension=7, seed=3))
        out = deactivate_relay_antennas(ch, 12)
        assert out.slot_rows == (2, 2, 2, 2, 2, 1, 1)
        # Every transmit column still reaches the relay.
        for h in out.uplink:
            assert all(np.linalg.norm(h[:, c]) > 0 for c in range(h.shape[1]))

    def test_uniform_when_divisible(self):
        ch = sample_channel_set(SystemConfig(m=7, n=14, k=4, extension=2, seed=3))
        out = deactivate_relay_antennas(ch, 24)
        assert out.slot_rows == (12, 12)

    def test_repeated_deactivation_composes(self):
        ch = sample_channel_set(SystemConfig(m=2, n=4, k=3, extension=3, seed=9))
        once = deactivate_relay_antennas(ch, 9)
        twice = deactivate_relay_antennas(once, 7)
        assert twice.active_relay == 7
        assert sum(twice.slot_rows) == 7


class TestJson:
    def test_round_trip(self):
        ch = sample_channel_set(SystemConfig(m=2, n=3, k=3, seed=5))
        doc = json.loads(json.dumps(channel_to_json(ch)))
        back = channel_from_json(doc)
        assert back.m == 2 and back.n == 3 and back.k == 3 and back.extension == 1
        for x, y in zip(ch.uplink + ch.downlink, back.uplink + back.downlink):
            assert np.array_equal(x, y)

    def test_schema_keys(self):
        ch = sample_channel_set(SystemConfig(m=2, n=3, k=3, seed=5))
        doc = channel_to_json(ch)
        assert set(doc) == {"m", "n", "k", "ext", "seed", "uplink", "downlink"}
        assert doc["seed"] == 5
        assert doc["uplink"][0][0][0] == [ch.uplink[0][0, 0].real, ch.uplink[0][0, 0].imag]

    def test_round_trip_deactivated_extended(self):
        ch = sample_channel_set(SystemConfig(m=1, n=2, k=4, extension=7, seed=3))
        ch = deactivate_relay_antennas(ch, 12)
        back = channel_from_json(channel_to_json(ch))
        assert back.slot_rows == ch.slot_rows
        for x, y in zip(ch.uplink, back.uplink):
            assert np.array_equal(x, y)

    def test_document_without_seed_loads(self):
        ch = sample_channel_set(SystemConfig(m=2, n=3, k=3, seed=5))
        doc = channel_to_json(ch)
        del doc["seed"]
        assert channel_from_json(doc).seed is None
        assert channel_from_json(channel_to_json(ch)).seed == 5

    def test_complex_to_pairs_matches_entrywise_floats(self):
        m = complex_gaussian(np.random.Generator(np.random.Philox(key=1)), 3, 4)
        m[0, 0], m[1, 2] = complex(-0.0, 0.0), complex(0.5, -0.0)
        for a in (m, m[1], m[:, :0], m[1, :0]):
            if a.ndim == 1:
                want = [[float(z.real), float(z.imag)] for z in a]
            else:
                want = [[[float(z.real), float(z.imag)] for z in row] for row in a]
            # repr tells -0.0 from 0.0 and a Python float from a numpy scalar.
            assert repr(complex_to_pairs(a)) == repr(want)

    def test_replayed_build_is_bit_identical(self):
        # The seed in the document keys the unit and downlink RNG substreams,
        # so replaying the channels reproduces the random directions.
        built = construct(1, 3, 3, 5)
        back = channel_from_json(json.loads(json.dumps(channel_to_json(built.channels))))
        units = execute_plan(built.plan, back)
        processor = build_relay_processor(units, back)
        assert len(units) == len(built.units)
        for got, want in zip(units, built.units):
            assert got.pairs == want.pairs
            assert np.array_equal(got.beamformers, want.beamformers)
        assert np.array_equal(processor.forward_matrix, built.processor.forward_matrix)
