import base64
import hashlib
import json
import struct
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays
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
    sample_channel_set,
)
from ssalign.channel import ChannelSet, array_from_json, array_to_json, derived_rng, slot_product
from ssalign.errors import InvalidDeactivation, ShapeMismatch
from ssalign import lemmas
from ssalign.lemmas import check_direct_sum, check_intersection, check_stacked_rank

from reference import dense, numerical_rank


class TestSystemConfig:
    def test_rejects_two_users(self):
        with pytest.raises(ValueError):
            SystemConfig(m=2, n=2, k=2)

    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            SystemConfig(m=0, n=2, k=3)
        with pytest.raises(ValueError):
            SystemConfig(m=1, n=2, k=3, extension=0)

    def test_numpy_integers_become_plain_ints(self):
        # A numpy seed must not reach the channel document: json cannot encode it.
        cfg = SystemConfig(np.int64(2), 5, 3, extension=np.int32(1), seed=np.uint64(7))
        assert [type(v) for v in (cfg.m, cfg.n, cfg.k, cfg.extension, cfg.seed)] == [int] * 5
        want = json.dumps(channel_to_json(sample_channel_set(SystemConfig(2, 5, 3, seed=7))))
        assert json.dumps(channel_to_json(sample_channel_set(cfg))) == want
        ch = construct(3, 5, 3, np.int64(3)).channels
        assert type(ch.seed) is int
        json.dumps(channel_to_json(ch))

    def test_non_integer_counts_are_rejected(self):
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            SystemConfig(2.5, 5, 3)


class TestSampling:
    def test_shapes(self):
        ch = sample_channel_set(SystemConfig(m=2, n=3, k=3, seed=7))
        assert ch.uplink.shape == (3, 1, 3, 2) and ch.downlink.shape == (3, 1, 2, 3)
        assert ch.extension == 1 and ch.active_relay == 3

    def test_seed_determinism(self):
        cfg = SystemConfig(m=2, n=3, k=3, seed=7)
        a = sample_channel_set(cfg)
        b = sample_channel_set(cfg)
        assert np.array_equal(a.uplink, b.uplink) and np.array_equal(a.downlink, b.downlink)

    def test_seeds_differ(self):
        a = sample_channel_set(SystemConfig(m=2, n=3, k=3, seed=7))
        b = sample_channel_set(SystemConfig(m=2, n=3, k=3, seed=8))
        assert not np.allclose(a.uplink[0], b.uplink[0])

    def test_extension_block_structure(self):
        ch = sample_channel_set(SystemConfig(m=2, n=5, k=3, extension=2, seed=1))
        # One block per slot, no off-diagonal blocks stored; blocks independent.
        assert ch.uplink.shape == (3, 2, 5, 2) and ch.downlink.shape == (3, 2, 2, 5)
        assert ch.extension == 2 and ch.active_relay == 10
        first, second = ch.uplink[0]
        assert first.shape == second.shape == (5, 2)
        assert not np.allclose(first, second)

    def test_generic_full_rank(self):
        # Sampled channels are full rank in at least 999 of 1000 draws.
        failures = 0
        for seed in range(1000):
            ch = sample_channel_set(SystemConfig(m=3, n=4, k=3, seed=seed))
            for (h,) in ch.uplink:
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
        # Consecutive draws are the diagonal blocks of one block-diagonal draw.
        ref = philox(3)
        want = block_diag(*[reference_block(ref, 4, 2) for _ in range(3)])
        rng = philox(3)
        for s in range(3):
            block = want[4 * s:4 * (s + 1), 2 * s:2 * (s + 1)]
            assert np.array_equal(complex_gaussian(rng, 4, 2), block)

    def test_stacked_shape_equals_consecutive_calls(self):
        # Matrices in C order, each the draw of one two-axis call.
        got = complex_gaussian(philox(5), 3, 2, 4, 2)
        rng = philox(5)
        want = [complex_gaussian(rng, 4, 2) for _ in range(6)]
        assert got.shape == (3, 2, 4, 2)
        assert np.array_equal(got, np.reshape(want, (3, 2, 4, 2)))

    @pytest.mark.parametrize("budget", [1, None, 1 << 40],
                             ids=["one-trial-batches", "default", "one-batch"])
    @pytest.mark.parametrize("check,row,shape", [
        (check_intersection, (3, 5), (2, 1, 5, 3)),
        (check_stacked_rank, (3, 2, 4), (3, 1, 4, 2)),
        (check_direct_sum, (3, 3, 2, 5, 2), (3, 2, 5, 2)),
    ], ids=["intersection", "stacked_rank", "direct_sum_extended"])
    def test_lemma_trial_i_is_block_i_of_one_stream(self, monkeypatch, budget, check, row,
                                                     shape):
        # A lemma check draws batch after batch from one derived_rng(seed), so
        # trial i's matrices are block i of one draw of all trials; 200 trials
        # take two or more batches at the default budget.
        trials, seed, seen, sizes = 200, 11, {}, []
        honest = lemmas._gaussian_draws

        def draws(stream, batch, shape):
            out = honest(stream, batch, shape)
            seen.update(zip(batch, out))
            sizes.append(len(batch))
            return out

        if budget is not None:
            monkeypatch.setattr(lemmas, "_BATCH_ENTRIES", budget)
        monkeypatch.setattr(lemmas, "_gaussian_draws", draws)
        check(*row[:4], trials, seed, *row[4:])
        if budget is None:
            assert 1 < len(sizes) < trials
        else:
            assert sizes == ([1] * trials if budget == 1 else [trials])
        want = complex_gaussian(derived_rng(seed), trials, *shape)
        assert sorted(seen) == list(range(trials))
        for i in range(trials):
            assert np.array_equal(seen[i], want[i])

    def test_channel_draw_order(self):
        # Uplink blocks for users 0..K-1, then downlink blocks, slot by slot.
        ch = sample_channel_set(SystemConfig(m=2, n=3, k=3, extension=2, seed=9))
        ref = philox(9)
        for blocks in ch.uplink:
            want = block_diag(*[reference_block(ref, 3, 2) for _ in range(2)])
            assert np.array_equal(dense(blocks), want)
            assert np.array_equal(blocks[1], want[3:, 2:])
        for blocks in ch.downlink:
            want = block_diag(*[reference_block(ref, 2, 3) for _ in range(2)])
            assert np.array_equal(dense(blocks), want)

    # sha256 of the dense block-diagonal uplink then downlink matrices,
    # computed with earlier channel layouts, so the digests pin the draws
    # and the deactivated rows independently of this one.
    @pytest.mark.parametrize("cfg,active,digest", [
        ((2, 3, 3, 2, 9), None, "982b3d12e114ccf1d003122d2c17662c01523905d3ec560e3d35136beddce090"),
        ((3, 5, 4, 6, 0), None, "7393d3eb2fe0bb23e4f9a989196a228e11174545c832fdf5c8d2268e8a445083"),
        ((1, 2, 4, 7, 3), 7, "79f8e2818614245e003d09623278f7104320647a3f92b68adacce7d43cb575da"),
        ((2, 1, 3, 3, 4), 3, "2249c8e3c82b84076d0b50c1c9ad84138ee3eb456729daa55a146d52b3dcad51"),
    ])
    def test_blocks_match_the_dense_channels_bit_for_bit(self, cfg, active, digest):
        ch = sample_channel_set(SystemConfig(*cfg))
        if active is not None:
            ch = deactivate_relay_antennas(ch, active)
        sha = hashlib.sha256()
        for blocks in [*ch.uplink, *ch.downlink]:
            sha.update(np.ascontiguousarray(dense(blocks)).tobytes())
        assert sha.hexdigest() == digest

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
        assert np.array_equal(out.uplink[0][0], ch.uplink[0][0][:7, :])
        assert np.array_equal(out.downlink[0][0], ch.downlink[0][0][:, :7])

    def test_zero_rejected(self):
        ch = sample_channel_set(SystemConfig(m=2, n=3, k=3, seed=7))
        with pytest.raises(InvalidDeactivation):
            deactivate_relay_antennas(ch, 0)

    def test_expansion_rejected(self):
        ch = sample_channel_set(SystemConfig(m=2, n=3, k=3, seed=7))
        with pytest.raises(InvalidDeactivation):
            deactivate_relay_antennas(ch, 4)

    def test_extended_spreads_across_slots(self):
        # 14 -> 7 over 7 slots: every slot keeps one row, none goes dark.
        ch = sample_channel_set(SystemConfig(m=1, n=2, k=4, extension=7, seed=3))
        out = deactivate_relay_antennas(ch, 7)
        assert out.uplink.shape == (4, 7, 1, 1) and out.downlink.shape == (4, 7, 1, 1)
        # Every slot keeps a prefix of its rows, so every transmit column
        # still reaches the relay.
        for before, after in zip(ch.uplink, out.uplink):
            for old, new in zip(before, after, strict=True):
                assert np.array_equal(new, old[:1]) and np.linalg.norm(new) > 0
        for before, after in zip(ch.downlink, out.downlink):
            for old, new in zip(before, after, strict=True):
                assert np.array_equal(new, old[:, :1])

    def test_keeps_the_rows_of_the_dense_row_selection(self):
        # The dense layout dropped rows of the block-diagonal matrix from the
        # slot keeping the most (later slots first on ties); on an even cut
        # the kept blocks are exactly that selection.
        ch = sample_channel_set(SystemConfig(m=2, n=3, k=3, extension=4, seed=6))
        out = deactivate_relay_antennas(ch, 8)
        assert out.active_relay == 8
        keep = [0, 1, 3, 4, 6, 7, 9, 10]
        for before, after in zip(ch.uplink, out.uplink):
            assert np.array_equal(dense(after), dense(before)[keep])
        for before, after in zip(ch.downlink, out.downlink):
            assert np.array_equal(dense(after), dense(before)[:, keep])

    def test_uniform_when_divisible(self):
        ch = sample_channel_set(SystemConfig(m=7, n=14, k=4, extension=2, seed=3))
        out = deactivate_relay_antennas(ch, 24)
        assert out.uplink.shape == (4, 2, 12, 7) and out.downlink.shape == (4, 2, 7, 12)

    def test_repeated_deactivation_composes(self):
        ch = sample_channel_set(SystemConfig(m=2, n=4, k=3, extension=3, seed=9))
        once = deactivate_relay_antennas(ch, 9)
        twice = deactivate_relay_antennas(once, 6)
        assert twice.active_relay == 6
        assert twice == deactivate_relay_antennas(ch, 6)

    @pytest.mark.parametrize("cfg,cuts", [
        pytest.param((1, 2, 4, 7, 3), (12,), id="seven-slots-to-12"),
        pytest.param((2, 3, 3, 4, 6), (9,), id="four-slots-to-9"),
        pytest.param((2, 4, 3, 3, 9), (9, 7), id="three-slots-to-9-then-7"),
        pytest.param((2, 1, 3, 3, 4), (2,), id="a-slot-without-rows"),
    ])
    def test_uneven_cut_is_rejected(self, cfg, cuts):
        # Slots of unequal row counts have no order-t corner, so the count
        # must be a multiple of the extension.
        ch = sample_channel_set(SystemConfig(*cfg))
        for n_active in cuts[:-1]:
            ch = deactivate_relay_antennas(ch, n_active)
        with pytest.raises(InvalidDeactivation, match="multiple of extension"):
            deactivate_relay_antennas(ch, cuts[-1])


def recode(doc, side, change):
    """Replace ``doc[side]`` by the array object of ``change(its decoded array)``."""
    doc[side] = array_to_json(change(array_from_json(doc[side], 4)))


# Signed zeros, subnormals and the largest magnitudes next to ordinary floats.
FLOATS = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -2.5e-310, 1.7e308, -1.7e308]),
                   st.floats(allow_nan=False, allow_infinity=False))


class TestJson:
    def test_round_trip(self):
        ch = sample_channel_set(SystemConfig(m=2, n=3, k=3, seed=5))
        doc = json.loads(json.dumps(channel_to_json(ch)))
        back = channel_from_json(doc)
        assert back.m == 2 and back.n == 3 and back.k == 3 and back.extension == 1
        assert np.array_equal(back.uplink, ch.uplink)
        assert np.array_equal(back.downlink, ch.downlink)

    def test_schema_keys(self):
        ch = sample_channel_set(SystemConfig(m=2, n=3, k=3, seed=5))
        doc = channel_to_json(ch)
        assert set(doc) == {"m", "n", "k", "seed", "uplink", "downlink"}
        assert doc["seed"] == 5
        assert doc["uplink"]["shape"] == [3, 1, 3, 2] and doc["downlink"]["shape"] == [3, 1, 2, 3]
        for side in ("uplink", "downlink"):
            assert set(doc[side]) == {"shape", "base64"}
        # User 0, slot 0, row 0, entry 0 is the first 16 bytes: real then
        # imaginary part, little-endian doubles.
        h = ch.uplink[0][0]
        data = base64.b64decode(doc["uplink"]["base64"])
        assert len(data) == 16 * ch.uplink.size
        assert data[:16] == struct.pack("<2d", h[0, 0].real, h[0, 0].imag)

    def test_round_trip_deactivated_extended(self):
        ch = sample_channel_set(SystemConfig(m=1, n=2, k=4, extension=7, seed=3))
        ch = deactivate_relay_antennas(ch, 7)
        back = channel_from_json(channel_to_json(ch))
        assert back.uplink.shape == (4, 7, 1, 1) and back.extension == 7
        assert np.array_equal(back.uplink, ch.uplink)
        assert np.array_equal(back.downlink, ch.downlink)

    @pytest.mark.parametrize("corrupt", [
        lambda doc: recode(doc, "uplink", lambda a: a[:, :, :-1]),    # uplink vs downlink rows
        lambda doc: recode(doc, "downlink", lambda a: a[..., :-1]),   # downlink vs uplink rows
        # M + 1 uplink columns
        lambda doc: recode(doc, "uplink", lambda a: np.concatenate([a, a[..., :1]], axis=-1)),
        lambda doc: recode(doc, "downlink", lambda a: a[:, :-1]),     # a slot missing
        lambda doc: recode(doc, "uplink", lambda a: a[:-1]),          # a user missing
        lambda doc: doc.update(m=3),                       # wrong column count for every user
        lambda doc: [recode(doc, side, lambda a: a[:, :, :0] if side == "uplink" else a[..., :0])
                     for side in ("uplink", "downlink")],  # slots without rows
        # M + 1 downlink rows
        lambda doc: recode(doc, "downlink", lambda a: np.concatenate([a, a[:, :, :1]], axis=2)),
        lambda doc: recode(doc, "downlink", lambda a: a[0]),          # a dimension missing
    ])
    def test_disagreeing_block_shapes_are_rejected(self, corrupt):
        ch = sample_channel_set(SystemConfig(m=2, n=3, k=3, extension=2, seed=5))
        doc = json.loads(json.dumps(channel_to_json(ch)))
        corrupt(doc)
        with pytest.raises(ValueError):
            channel_from_json(doc)

    @pytest.mark.parametrize("change", [
        pytest.param({"n": 1}, id="n-below-the-rows"),
        pytest.param({"n": -4}, id="negative-n"),
        pytest.param({"n": "x"}, id="string-n"),
        pytest.param({"m": 3.0}, id="float-m"),
        pytest.param({"k": True}, id="bool-k"),
        pytest.param({"uplink": None}, id="no-uplink"),
        pytest.param({"m": None}, id="no-m"),
        pytest.param(None, id="list-document"),
    ])
    def test_invalid_counts_and_documents_are_rejected(self, change):
        # A None value drops its key; a None change wraps the document in a list.
        doc = channel_to_json(sample_channel_set(SystemConfig(m=3, n=5, k=3, seed=0)))
        if change is None:
            doc = [doc]
        else:
            doc.update(change)
            doc = {key: value for key, value in doc.items() if value is not None}
        with pytest.raises(ValueError):
            channel_from_json(doc)

    def test_more_rows_per_slot_than_relay_antennas_is_rejected(self):
        ch = sample_channel_set(SystemConfig(m=3, n=5, k=3, seed=0))
        with pytest.raises(ShapeMismatch, match="5 relay rows per slot exceed the 2"):
            ChannelSet(m=3, n=2, k=3, uplink=ch.uplink, downlink=ch.downlink, seed=0)

    @pytest.mark.parametrize("side,value", [
        pytest.param("uplink", float("nan"), id="uplink-nan"),
        pytest.param("downlink", float("inf"), id="downlink-inf"),
        pytest.param("uplink", complex(0.0, -float("inf")), id="uplink-imag-inf"),
    ])
    def test_non_finite_entries_are_rejected(self, side, value):
        ch = sample_channel_set(SystemConfig(m=2, n=3, k=3, extension=2, seed=5))
        doc = json.loads(json.dumps(channel_to_json(ch)))

        def poison(a):
            a[0, 0, 0, 0] = value
            return a
        recode(doc, side, poison)
        with pytest.raises(ValueError, match="finite"):
            channel_from_json(doc)

    @pytest.mark.parametrize("corrupt", [
        pytest.param(lambda link: link.update(base64=link["base64"][:-1]), id="unpadded"),
        pytest.param(lambda link: link.update(base64="*" + link["base64"][1:]), id="not-base64"),
        pytest.param(lambda link: link.update(base64=link["base64"][:-24]), id="short-bytes"),
        pytest.param(lambda link: link.update(base64=None), id="no-text"),
        pytest.param(lambda link: link["shape"].__setitem__(0, True), id="bool-shape"),
        pytest.param(lambda link: link["shape"].__setitem__(0, 3.0), id="float-shape"),
        pytest.param(lambda link: link["shape"].__setitem__(0, -3), id="negative-shape"),
        pytest.param(lambda link: link.update(shape=tuple(link["shape"])), id="tuple-shape"),
        pytest.param(lambda link: link.pop("shape"), id="no-shape"),
    ])
    def test_malformed_arrays_are_rejected(self, corrupt):
        ch = sample_channel_set(SystemConfig(m=2, n=3, k=3, extension=2, seed=5))
        doc = channel_to_json(ch)
        corrupt(doc["uplink"])
        with pytest.raises(ValueError, match="uplink"):
            channel_from_json(doc)

    def test_nested_list_document_is_rejected(self):
        # The [user][slot][row][col][re, im] lists that documents held before.
        ch = sample_channel_set(SystemConfig(m=2, n=3, k=3, extension=2, seed=5))
        doc = channel_to_json(ch)
        for side in ("uplink", "downlink"):
            a = getattr(ch, side)
            doc[side] = np.stack([a.real, a.imag], axis=-1).tolist()
        with pytest.raises(ValueError, match="uplink"):
            channel_from_json(doc)

    def test_dense_document_is_rejected(self):
        # The block-diagonal matrices that documents held before per-slot
        # blocks, written as arrays of users, and of users with one slot each.
        ch = sample_channel_set(SystemConfig(m=2, n=3, k=3, extension=2, seed=5))
        doc = channel_to_json(ch)
        links = {side: np.array([dense(blocks) for blocks in getattr(ch, side)])
                 for side in ("uplink", "downlink")}
        for axes in (lambda a: a, lambda a: a[:, None]):
            doc.update({side: array_to_json(axes(a)) for side, a in links.items()})
            with pytest.raises(ValueError):
                channel_from_json(doc)

    @pytest.mark.parametrize("seed", [None, -1, 2**64, 1.5, True])
    def test_document_without_valid_seed_is_rejected(self, seed):
        ch = sample_channel_set(SystemConfig(m=2, n=3, k=3, seed=5))
        doc = channel_to_json(ch)
        if seed is None:
            del doc["seed"]
        else:
            doc["seed"] = seed
        with pytest.raises(ValueError, match="seed"):
            channel_from_json(doc)
        assert channel_from_json(channel_to_json(ch)).seed == 5

    @settings(max_examples=80, deadline=None)
    @given(arrays(np.complex128, array_shapes(min_dims=0, max_dims=4, min_side=0, max_side=4),
                  elements=st.builds(complex, FLOATS, FLOATS)))
    def test_arrays_round_trip_bit_for_bit(self, a):
        for x in (a, a.T):
            back = array_from_json(json.loads(json.dumps(array_to_json(x))), x.ndim)
            assert back.shape == x.shape and back.tobytes() == x.tobytes()
            assert back.dtype == np.complex128 and back.dtype.isnative
            assert back.flags.owndata and back.flags.writeable

    def test_replayed_build_is_bit_identical(self):
        # The seed in the document keys the unit and downlink RNG substreams,
        # so replaying the channels reproduces the random directions.
        built = construct(1, 3, 3, 5)
        back = channel_from_json(json.loads(json.dumps(channel_to_json(built.channels))))
        units = execute_plan(built.plan, back)
        processor = build_relay_processor(units)
        assert len(units) == len(built.units)
        for got, want in zip(units, built.units):
            assert got.pairs == want.pairs
            assert np.array_equal(got.beamformers, want.beamformers)
        assert np.array_equal(processor.forward_matrix, built.processor.forward_matrix)


class TestEquality:
    CFG = SystemConfig(m=2, n=3, k=3, extension=2, seed=5)

    def test_same_config_compares_equal(self):
        assert sample_channel_set(self.CFG) == sample_channel_set(self.CFG)

    def test_different_seed_compares_unequal(self):
        other = replace(self.CFG, seed=6)
        assert sample_channel_set(self.CFG) != sample_channel_set(other)

    def test_seed_field_is_ignored(self):
        ch = sample_channel_set(self.CFG)
        assert replace(ch, seed=6) == ch

    def test_json_round_trip_compares_equal(self):
        ch = sample_channel_set(self.CFG)
        assert channel_from_json(channel_to_json(ch)) == ch


class TestBlockLayout:
    def test_shape_fields_are_read_from_the_blocks(self):
        ch = sample_channel_set(SystemConfig(m=3, n=5, k=3, extension=2, seed=0))
        with pytest.raises(TypeError):
            ChannelSet(m=3, n=5, k=3, extension=2, slot_rows=(9, 1), uplink=ch.uplink,
                       downlink=ch.downlink, seed=0)
        with pytest.raises(ValueError):
            ChannelSet(m=3, n=5, k=3, uplink=ch.uplink, downlink=ch.downlink[:2], seed=0)
        with pytest.raises(ValueError):
            ChannelSet(m=3, n=5, k=3, uplink=ch.uplink[:, :, :0], downlink=ch.downlink[..., :0],
                       seed=0)

    def test_slot_product_matches_the_dense_product(self):
        ch = deactivate_relay_antennas(
            sample_channel_set(SystemConfig(m=2, n=3, k=3, extension=3, seed=2)), 6)
        x = complex_gaussian(philox(1), 6, 4)
        for blocks in ch.uplink:
            assert np.allclose(slot_product(blocks, x), dense(blocks) @ x, rtol=0, atol=1e-13)
            assert np.allclose(slot_product(blocks, x[:, 0]), dense(blocks) @ x[:, 0],
                               rtol=0, atol=1e-13)
            assert slot_product(blocks, x[:, :0]).shape == (6, 0)
        for blocks in ch.downlink:
            v = complex_gaussian(philox(2), 6, 2)
            assert np.allclose(slot_product(blocks.swapaxes(1, 2), v), dense(blocks).T @ v,
                               rtol=0, atol=1e-13)
