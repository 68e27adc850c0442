import re
from dataclasses import replace
from fractions import Fraction as F

import numpy as np
import pytest

from ssalign import (
    LEAKAGE_ABS,
    RANK_REL,
    SystemConfig,
    assemble_forward_matrix,
    build_relay_processor,
    build_uplink_projectors,
    complex_gaussian,
    construct,
    deactivate_relay_antennas,
    derived_rng,
    estimate_dof_slope,
    sample_channel_set,
    verify_end_to_end,
)
from ssalign.errors import AlignmentDegenerate, IndependenceViolation
from ssalign import pipeline, relay
from ssalign.relay import _entry_rms_scale
from ssalign.units import RANDOM, Unit, execute_plan

from reference import (
    BUILD_CONFIGS,
    build_aligned_unit,
    build_random_unit,
    complement_projector,
    dense,
    nullspace_basis,
    numerical_rank,
    projector,
    range_basis,
    reference_joint_independence,
    twinned_units,
    union_span_dim,
)


def unit_of(pattern_order, group, pairs, streams):
    """A hand-made unit whose streams are its beamformers, with a reference basis."""
    return Unit(pattern_order, group, pairs, streams.copy(), streams, 0, range_basis(streams))


def full_build(m, n, k, seed, improved=False):
    built = construct(m, n, k, seed, improved)
    return built.plan, built.channels, built.units, built.processor


class TestUplinkProjectors:
    def test_random_unit_rank_two(self):
        # One full-multiplexing unit in C^6: excluding a pair leaves 4
        # directions, so each projector has rank 2.
        ch = sample_channel_set(SystemConfig(m=2, n=6, k=3, seed=1))
        unit = build_random_unit(ch, derived_rng(1, 1))
        (projectors,) = relay._complement_projectors([[unit]])
        assert len(projectors.factors) == 3
        for z in projectors.factors.values():
            assert numerical_rank(projector(projectors.complement, z)) == 2

    def test_pair_plan_rank_one(self):
        # K=3, M=2, N=3: three aligned directions fill the space; each
        # projector keeps exactly the one direction of its own pair.
        _, ch, units, processor = full_build(2, 3, 3, seed=2)
        assert len(processor.uplink_projectors) == 3
        for z in processor.uplink_projectors.values():
            assert numerical_rank(projector(processor.uplink_complement, z)) == 1

    def test_single_pair_alone_gives_identity(self):
        ch = sample_channel_set(SystemConfig(m=3, n=5, k=3, seed=3))
        unit = build_aligned_unit(ch, (0, 1), 0)
        (projectors,) = relay._complement_projectors([[unit]])
        p = projector(projectors.complement, projectors.factors[(0, (0, 1))])
        assert np.allclose(p, np.eye(5), rtol=0, atol=1e-12)

    def test_projectors_idempotent(self):
        _, _, _, processor = full_build(3, 8, 4, seed=4)
        dense = [projector(processor.uplink_complement, z)
                 for z in processor.uplink_projectors.values()] \
            + [projector(processor.downlink_complement, z)
               for z in processor.downlink_projectors.values()]
        for p in dense:
            assert np.linalg.norm(p @ p - p) <= 10 * LEAKAGE_ABS


    def test_others_spanning_everything_collapse(self):
        # Two 2-stream units in C^2: the other unit's streams span every row,
        # so no combination of a pair survives its projector: the spans overlap.
        rng = np.random.Generator(np.random.Philox(key=5))
        units = []
        for _ in range(2):
            vecs = np.column_stack([complex_gaussian(rng, 2, 1)[:, 0] for _ in range(2)])
            units.append(unit_of(2, (0, 1), ((0, 1), (1, 0)), vecs))
        with pytest.raises(IndependenceViolation, match="^uplink unit spans overlap"):
            relay._complement_projectors([units])

    def test_pair_inside_rest_of_its_unit_collapses(self):
        # One unit, four streams in C^2: the other pair's two streams span
        # every row, so the unit's rest swallows the pair's directions.
        rng = np.random.Generator(np.random.Philox(key=6))
        pairs = ((0, 1), (0, 2), (1, 0), (2, 0))
        vecs = np.column_stack([complex_gaussian(rng, 2, 1)[:, 0] for _ in pairs])
        with pytest.raises(AlignmentDegenerate,
                           match=r"^uplink pair \(0,1\) of unit 0 .* does not survive"):
            relay._complement_projectors([[unit_of(RANDOM, (0, 1, 2), pairs, vecs)]])

    def test_zero_stream_does_not_survive(self):
        rng = np.random.Generator(np.random.Philox(key=7))
        vecs = complex_gaussian(rng, 3, 2)
        vecs[:, 1] = 0.0
        with pytest.raises(AlignmentDegenerate, match="does not survive"):
            relay._complement_projectors([[unit_of(2, (0, 1), ((0, 1), (1, 0)), vecs)]])


# The ordered pairs of group (0, 1, 2): pair (0,1) owns columns 0 and 2,
# (0,2) columns 1 and 4, (1,2) columns 3 and 5.
TRIPLE_PAIRS = ((0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1))


def six_stream_unit(rng, frame, dependent=None):
    """Six streams on five generic coordinates in ``frame``, one column optionally a sum.

    ``dependent=(j, cols)`` replaces stream ``j``'s coordinates by the sum of
    the coordinates of ``cols``.  Every such unit has basis width 5 and
    the same pair layout, so the relay factors them in one batch.
    """
    coords = complex_gaussian(rng, 5, 6)
    if dependent is not None:
        j, cols = dependent
        coords[:, j] = coords[:, list(cols)].sum(axis=1)
    streams = frame @ coords
    return unit_of(3, (0, 1, 2), TRIPLE_PAIRS, streams)


class TestBatchedFactors:
    def test_mixed_ranks_in_one_batch_keep_their_own_width(self):
        # In unit 0 the rest of pair (0,1) has rank 3 (column 5 is the sum
        # of 1, 3 and 4), every other rest rank 4: widths 2 and 1.
        rng = np.random.Generator(np.random.Philox(key=8))
        frame = complex_gaussian(rng, 12, 10)
        units = [six_stream_unit(rng, frame[:, :5], dependent=(5, (1, 3, 4))),
                 six_stream_unit(rng, frame[:, 5:])]
        (projectors,) = relay._complement_projectors([units])
        widths = {}
        for li, unit in enumerate(units):
            local = unit.basis.conj().T @ unit.equivalent_uplink
            for a, b in ((0, 1), (0, 2), (1, 2)):
                rest = [i for i, p in enumerate(unit.pairs) if p not in ((a, b), (b, a))]
                want = nullspace_basis(local[:, rest].conj().T).shape[1]
                widths[(li, (a, b))] = projectors.factors[(li, (a, b))].shape[1]
                assert widths[(li, (a, b))] == want
        assert widths == {(0, (0, 1)): 2, (0, (0, 2)): 1, (0, (1, 2)): 1,
                          (1, (0, 1)): 1, (1, (0, 2)): 1, (1, (1, 2)): 1}

    def test_survival_failure_in_a_later_unit_names_it(self):
        # Unit 2 shares unit 1's batch; its stream 3 is the sum of 0, 1, 2
        # and 4, the rest of pair (1,2), so that pair alone fails.
        rng = np.random.Generator(np.random.Philox(key=9))
        frame = complex_gaussian(rng, 12, 11)
        pair = frame[:, :1] @ complex_gaussian(rng, 1, 2)
        units = [unit_of(2, (0, 1), ((0, 1), (1, 0)), pair),
                 six_stream_unit(rng, frame[:, 1:6]),
                 six_stream_unit(rng, frame[:, 6:], dependent=(3, (0, 1, 2, 4)))]
        with pytest.raises(AlignmentDegenerate,
                           match=r"^uplink pair \(1,2\) of unit 2 \(group \(0, 1, 2\), "
                                 r"column block 0\) does not survive"):
            relay._complement_projectors([units])


class TestPairSurvival:
    # No stream keeps twice its norm, so at 2.0 every pair fails the test.
    @pytest.mark.parametrize("m,n,k,group", [
        (3, 8, 4, (0, 1, 2)),   # order-3 units
        (3, 5, 3, (0, 1)),      # pair units
        (2, 6, 3, (0, 1, 2)),   # one random unit
    ])
    def test_construction_names_the_uplink_pair(self, monkeypatch, m, n, k, group):
        monkeypatch.setattr(relay, "PAIR_SURVIVAL_MIN", 2.0)
        with pytest.raises(AlignmentDegenerate,
                           match=rf"^uplink pair \(0,1\) of unit 0 \(group "
                                 rf"{re.escape(str(group))}, column block 0\)"):
            construct(m, n, k, 0)

    def test_downlink_twins_are_tested(self):
        # Twin 0's stream of pair (0,1) is replaced by its stream of pair
        # (0,2), after its span check: it lies in the rest of its unit, so
        # only that downlink pair and pair (0,2) fail, and (0,1) is first.
        built = construct(3, 8, 4, 0)
        twin = built.units[0].twin
        twin.equivalent_uplink = twin.equivalent_uplink.copy()
        twin.equivalent_uplink[:, 0] = twin.equivalent_uplink[:, 1]
        with pytest.raises(AlignmentDegenerate,
                           match=r"^downlink pair \(0,1\) of unit 0 ") as info:
            build_uplink_projectors(built.units)
        assert info.value.stage == "downlink"


def scaled_pair_unit(rows, scale, seed=0):
    """A pair unit in ``C^rows`` whose orthonormal basis has its second column scaled.

    The basis then has singular values 1 and ``scale``.
    """
    rng = np.random.Generator(np.random.Philox(key=seed))
    vecs = complex_gaussian(rng, rows, 2)
    basis = np.linalg.qr(vecs)[0] * np.array([1.0, scale])
    return Unit(2, (0, 1), ((0, 1), (1, 0)), vecs.copy(), vecs, 0, basis)


def joint_svds(monkeypatch):
    """The shape of every matrix an SVD runs on from now on, once per member of a stack."""
    shapes = []
    svd = np.linalg.svd

    def spy(a, *args, **kwargs):
        shapes.extend([np.shape(a)[-2:]] * int(np.prod(np.shape(a)[:-2])))
        return svd(a, *args, **kwargs)
    monkeypatch.setattr(np.linalg, "svd", spy)
    return shapes


class TestJointIndependence:
    # At (3, 8, 4) four order-3 units fill all 16 relay rows, so a second
    # copy of unit 0, with its twin, overlaps the others on both links, and
    # the uplink is checked first.  Its 4 extra dimensions lie past the 16
    # rows, so no singular value of the stacked bases is dropped: the
    # largest dropped one is exactly 0.  (Past the rows the downlink cannot
    # overlap alone, as its twins are as wide as the units.)
    def test_overlap_names_the_side(self):
        built = construct(3, 8, 4, 0)
        units = built.units + [built.units[0]]
        with pytest.raises(IndependenceViolation,
                           match=r"^uplink unit spans overlap: their dimensions sum to 20, "
                                 r"jointly they span 16 of N_active = 16; largest dropped "
                                 r"singular value / sigma_max = 0\.0e\+00 against "
                                 r"RANK_REL\*max\(shape\) = 2\.0e-09$") as info:
            build_uplink_projectors(units)
        assert info.value.stage == "uplink"

    # Units 0, 1 and a copy of 0 (on the downlink, units 0 to 2 with twin 2
    # given twin 0's basis) fit in the 16 rows, so the copy's 4 dimensions
    # are dropped singular values: round-off, far below the cutoff.
    @pytest.mark.parametrize("side", ["uplink", "downlink"])
    def test_overlap_inside_the_relay_reports_its_margin(self, side):
        built = construct(3, 8, 4, 0)
        if side == "uplink":
            units = built.units[:2] + [built.units[0]]
        else:
            units = built.units[:3]
            units[2].twin.basis = units[0].twin.basis
        with pytest.raises(IndependenceViolation) as info:
            build_uplink_projectors(units)
        assert info.value.stage == side
        found = re.fullmatch(rf"{side} unit spans overlap: their dimensions sum to 12, "
                             r"jointly they span 8 of N_active = 16; largest dropped "
                             r"singular value / sigma_max = (\d\.\de-\d\d) against "
                             r"RANK_REL\*max\(shape\) = (1\.6e-09)", str(info.value))
        assert found is not None, str(info.value)
        margin, cutoff = map(float, found.groups())
        assert margin < 1e-6 * cutoff

    # A 4 x 2 basis with singular values 1 and ``scale`` against the cutoff
    # RANK_REL * 4 = 4e-10.  The certificate ||S|| ||coords|| RANK_REL * 4 is
    # about 4e-10 / scale: 4e-7 clears the 1/2 margin, 0.91 and 1.11 do not,
    # so the SVD of S decides them, one just above the cutoff and one just
    # below.  A failing S's message reports the values of that same SVD.
    @pytest.mark.parametrize("scale,certified", [(1e-3, True), (4.4e-10, False),
                                                 (3.6e-10, False)])
    def test_scaled_column_gets_the_svd_rules_verdict(self, monkeypatch, scale, certified):
        unit = scaled_pair_unit(4, scale)
        want = reference_joint_independence("uplink", [unit.basis])
        assert (want is None) == (scale > 4e-10)
        shapes = joint_svds(monkeypatch)
        if want is None:
            relay._complement_projectors([[unit]])
        else:
            with pytest.raises(IndependenceViolation) as info:
                relay._complement_projectors([[unit]])
            assert (str(info.value), info.value.stage) == (want, "uplink")
            assert str(info.value).endswith("= 3.6e-10 against RANK_REL*max(shape) = 4.0e-10")
        assert shapes == [(4, 2)] * (not certified)

    def test_exactly_singular_stack_fails_the_inverse_and_the_svd_decides(self, monkeypatch):
        # Basis columns e_0 and e_0: [S C] has two equal columns, so its
        # inverse raises.
        rng = np.random.Generator(np.random.Philox(key=1))
        vecs = complex_gaussian(rng, 4, 2)
        basis = np.eye(4, dtype=np.complex128)[:, [0, 0]]
        complement = np.linalg.qr(basis, mode="complete")[0][:, 2:]
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.inv(np.hstack([basis, complement]))
        want = reference_joint_independence("uplink", [basis])
        shapes = joint_svds(monkeypatch)
        with pytest.raises(IndependenceViolation) as info:
            relay._complement_projectors([[Unit(2, (0, 1), ((0, 1), (1, 0)), vecs.copy(),
                                                vecs, 0, basis)]])
        assert str(info.value) == want
        assert want.startswith("uplink unit spans overlap: their dimensions sum to 2, "
                               "jointly they span 1 of N_active = 4")
        assert shapes == [(4, 2)]

    def test_more_dimensions_than_rows_fail_the_inverse(self, monkeypatch):
        built = construct(3, 8, 4, 0)
        units = built.units + [built.units[0]]
        want = reference_joint_independence("uplink", [u.basis for u in units])
        assert want.endswith("sigma_max = 0.0e+00 against RANK_REL*max(shape) = 2.0e-09")
        shapes = joint_svds(monkeypatch)
        with pytest.raises(IndependenceViolation) as info:
            build_uplink_projectors(units)
        assert str(info.value) == want
        # Both links' S, once each; the uplink's values also word its message.
        assert shapes == [(16, 20)] * 2

    @pytest.mark.parametrize("m,n,k,improved", [(7, 20, 4, False), (5, 9, 5, True),
                                                (2, 12, 6, False), (4, 9, 5, False)])
    def test_well_conditioned_builds_need_no_joint_svd(self, monkeypatch, m, n, k, improved):
        built = construct(m, n, k, 0, improved)
        twins = [unit.twin for unit in built.units]
        for units in (built.units, twins):
            assert reference_joint_independence("uplink", [u.basis for u in units]) is None
        width = sum(u.basis.shape[1] for u in built.units)
        shapes = joint_svds(monkeypatch)
        build_uplink_projectors(built.units)
        assert (built.channels.active_relay, width) not in shapes


def linalg_calls(monkeypatch, shape):
    """Each later ``qr`` of a stack of ``shape`` matrices, with its mode, and each ``solve``."""
    calls = []
    qr, solve = np.linalg.qr, np.linalg.solve

    def qr_spy(a, mode="reduced"):
        if np.shape(a)[-2:] == shape:
            calls.append((np.shape(a), mode))
        return qr(a, mode)

    def solve_spy(a, b):
        calls.append(("solve", np.shape(a)))
        return solve(a, b)
    monkeypatch.setattr(np.linalg, "qr", qr_spy)
    monkeypatch.setattr(np.linalg, "solve", solve_spy)
    return calls


class TestJointStep:
    # (3,5,3) fills the relay; (2,7,3) leaves it one free row, (1,4,3) two.
    @pytest.mark.parametrize("m,n,k,free", [(3, 5, 3, 0), (2, 7, 3, 1), (1, 4, 3, 2)])
    def test_coords_invert_the_stack_beside_its_complement(self, m, n, k, free):
        built = construct(m, n, k, 0)
        links = [built.units, [unit.twin for unit in built.units]]
        complement, coords = relay._joint_basis(links)
        for units, c, x in zip(links, complement, coords, strict=True):
            s = np.hstack([u.basis for u in units])
            rows, width = s.shape
            assert c.shape == (rows, free) == (rows, rows - width)
            assert np.allclose(x @ s, np.eye(width), rtol=0, atol=1e-12)
            assert np.allclose(x @ c, 0, rtol=0, atol=1e-12)
            assert np.allclose(c.conj().T @ c, np.eye(free), rtol=0, atol=1e-12)
            for unit in units:
                assert np.allclose(c.conj().T @ unit.basis, 0, rtol=0, atol=1e-12)
            # The certificate's bound equals ||R|| ||R^-1|| from the stack's own QR.
            r = np.linalg.qr(s)[1]
            cutoff = RANK_REL * max(rows, width)
            want = np.linalg.norm(r) * np.linalg.norm(np.linalg.inv(r)) * cutoff
            got = np.linalg.norm(s) * np.linalg.norm(x) * cutoff
            assert got == pytest.approx(want, rel=1e-10, abs=0)

    # A filled relay needs no QR of S and no solve; an unfilled one takes one
    # complete QR of both links' S, for C.  The pair nullspaces' own
    # decompositions have other shapes.
    @pytest.mark.parametrize("m,n,k,free", [(3, 5, 3, 0), (2, 7, 3, 1), (1, 4, 3, 2)])
    def test_only_an_unfilled_relay_takes_a_qr_of_the_stack(self, monkeypatch, m, n, k, free):
        built = construct(m, n, k, 0)
        rows = built.channels.active_relay
        calls = linalg_calls(monkeypatch, (rows, rows - free))
        build_uplink_projectors(built.units)
        assert calls == ([((2, rows, rows - free), "complete")] if free else [])


class TestFusedLinks:
    @pytest.mark.parametrize("m,n,k,improved", BUILD_CONFIGS)
    def test_factors_equal_a_pass_over_each_link_alone(self, m, n, k, improved):
        built = construct(m, n, k, 0, improved)
        fused = build_uplink_projectors(built.units)
        alone = (relay._complement_projectors([built.units])[0],
                 relay._complement_projectors([[unit.twin for unit in built.units]])[0])
        for got, want in zip(fused, alone, strict=True):
            assert list(got.factors) == list(want.factors)
            c_got, c_want = got.complement, want.complement
            assert np.allclose(c_got @ c_got.conj().T, c_want @ c_want.conj().T,
                               rtol=0, atol=1e-12)
            for key, z in want.factors.items():
                assert np.allclose(projector(got.complement, got.factors[key]),
                                   projector(want.complement, z), rtol=0, atol=1e-12)

    def test_twins_must_mirror_the_units(self):
        # Unit 3, on group (1, 2, 3), is given the twin of unit 0, on (0, 1, 2).
        built = construct(3, 8, 4, 0)
        built.units[3].twin = built.units[0].twin
        with pytest.raises(ValueError, match="twins must have the units' pairs"):
            build_uplink_projectors(built.units)

    # Users 2 and 3 share one downlink, so the twins of their groups fail the
    # span check; with PAIR_SURVIVAL_MIN = 2.0 every uplink pair would fail
    # too, but the relay is never reached.
    def test_a_twin_error_comes_before_the_relay_errors(self, monkeypatch):
        sample = pipeline.sample_channel_set

        def shared(cfg):
            ch = sample(cfg)
            downlink = ch.downlink.copy()
            downlink[3] = downlink[2]
            return replace(ch, downlink=downlink)

        monkeypatch.setattr(pipeline, "sample_channel_set", shared)
        monkeypatch.setattr(relay, "PAIR_SURVIVAL_MIN", 2.0)
        with pytest.raises(AlignmentDegenerate,
                           match=r"^downlink twin of unit 2: order-3 unit on group "
                                 r"\(0, 2, 3\) spans") as info:
            construct(3, 8, 4, 0)
        assert info.value.stage == "downlink"

    def test_downlink_pair_error_keeps_its_stage(self):
        # Twin 0's first stream, of pair (0,1), is zeroed after its span check.
        built = construct(3, 8, 4, 0)
        twin = built.units[0].twin
        twin.equivalent_uplink = twin.equivalent_uplink.copy()
        twin.equivalent_uplink[:, 0] = 0.0
        with pytest.raises(AlignmentDegenerate,
                           match=r"^downlink pair \(0,1\) of unit 0 .* does not survive") as info:
            build_relay_processor(built.units)
        assert info.value.stage == "downlink"

    def test_downlink_overlap_comes_before_the_uplink_pair_errors(self, monkeypatch):
        # Twin 1 takes twin 0's basis: only the downlink spans overlap.  With
        # PAIR_SURVIVAL_MIN = 2.0 every uplink pair fails too, but joint
        # independence is checked on both links before any pair's survival.
        built = construct(3, 8, 4, 0)
        basis = built.units[1].twin.basis
        built.units[1].twin.basis = built.units[0].twin.basis
        monkeypatch.setattr(relay, "PAIR_SURVIVAL_MIN", 2.0)
        with pytest.raises(IndependenceViolation,
                           match="^downlink unit spans overlap: their dimensions sum to 16, "
                                 "jointly they span 12 of N_active = 16") as info:
            build_relay_processor(built.units)
        assert info.value.stage == "downlink"
        built.units[1].twin.basis = basis
        with pytest.raises(AlignmentDegenerate, match=r"^uplink pair \(0,1\) of unit 0 ") as info:
            build_relay_processor(built.units)
        assert info.value.stage == "uplink"


class TestLowRankProjectors:
    @pytest.mark.parametrize("m,n,k,improved,extension", [
        (2, 6, 3, False, 1),   # one random unit
        (3, 8, 4, False, 2),
        (7, 14, 4, True, 1),   # deactivated corner
        (3, 5, 4, False, 6),
        (2, 10, 5, False, 2),  # square random units
        (2, 12, 6, False, 5),
        (2, 5, 3, False, 2),   # a random unit beside aligned ones
        (2, 7, 4, False, 3),
    ])
    def test_materialised_projectors_match_dense_complement(self, m, n, k, improved,
                                                            extension):
        plan, ch, units, processor = full_build(m, n, k, seed=20, improved=improved)
        assert plan.extension == extension
        keys = [(li, pair) for li, u in enumerate(units) for pair in u.pairs]
        streams = np.hstack([u.equivalent_uplink for u in units])
        uplink = dict(zip(keys, streams.T))
        downlink = {key: dense(ch.downlink[key[1][0]]).conj().T
                    @ processor.receive_vectors[:, i] for i, key in enumerate(keys)}
        sides = ((uplink, processor.uplink_complement, processor.uplink_projectors),
                 (downlink, processor.downlink_complement, processor.downlink_projectors))
        for vectors, complement, factors in sides:
            assert len(factors) == len(keys) // 2
            for (li, (a, b)), z in factors.items():
                others = [v for key, v in vectors.items()
                          if key not in ((li, (a, b)), (li, (b, a)))]
                want = complement_projector(np.column_stack(others))
                assert np.allclose(projector(complement, z), want, rtol=0, atol=1e-12)


class TestDownlinkMirror:
    def test_pair_alignment_mirrors(self):
        # Downlink equivalents of a pair are parallel, like the uplink ones.
        _, ch, units, processor = full_build(2, 3, 3, seed=5)
        for li, unit in enumerate(units):
            pairs = unit.pairs
            g_ab = dense(ch.downlink[pairs[0][0]]).conj().T @ processor.receive_vectors[:, 2 * li]
            g_ba = (dense(ch.downlink[pairs[1][0]]).conj().T
                    @ processor.receive_vectors[:, 2 * li + 1])
            cos = abs(np.vdot(g_ab, g_ba)) / (np.linalg.norm(g_ab) * np.linalg.norm(g_ba))
            assert cos == pytest.approx(1.0, abs=1e-9)

    def test_span_multiset_matches_uplink(self):
        _, ch, units, processor = full_build(3, 8, 4, seed=6)
        up_dims = []
        down_dims = []
        start = 0
        for unit in units:
            columns = range(start, start + len(unit.pairs))
            start = columns.stop
            down = [dense(ch.downlink[p[0]]).conj().T @ processor.receive_vectors[:, i]
                    for p, i in zip(unit.pairs, columns)]
            up_dims.append(union_span_dim([unit.equivalent_uplink]))
            down_dims.append(union_span_dim(down))
        assert sorted(up_dims) == sorted(down_dims)

    @pytest.mark.parametrize("m,n,k,improved", [(1, 4, 3, False), (2, 3, 3, False),
                                                (2, 5, 3, False), (7, 14, 4, True)])
    def test_receive_vectors_are_twin_beamformers(self, m, n, k, improved):
        plan, ch, units, processor = full_build(m, n, k, seed=32, improved=improved)
        mirror = replace(ch, uplink=ch.downlink.swapaxes(2, 3).conj())
        rng = derived_rng(32, 2)
        count = {a.group: a.count for a in plan.allocations}
        twins = [build_random_unit(mirror, rng) if u.pattern_order == RANDOM
                 else build_aligned_unit(mirror, u.group, u.column_block, count[u.group])
                 for u in units]
        assert [twin.pairs for twin in twins] == [u.pairs for u in units]
        assert processor.receive_vectors.shape == (m * plan.extension,
                                                   sum(len(u.pairs) for u in units))
        assert np.array_equal(processor.receive_vectors,
                              np.hstack([twin.beamformers for twin in twins]))

    def test_deaf_user_fails_the_random_twin_span_check(self):
        # With user 0's downlink zeroed, the random twin's six equivalent
        # downlink vectors span only four dimensions.
        plan, ch, units, _ = full_build(2, 6, 3, seed=0)
        assert [u.pattern_order for u in units] == [RANDOM]
        deaf = replace(ch, downlink=np.concatenate([np.zeros_like(ch.downlink[:1]),
                                                    ch.downlink[1:]]))
        want = r"^downlink twin of unit 0: random unit on group \(0, 1, 2\) spans 4 dimensions"
        with pytest.raises(AlignmentDegenerate, match=want):
            build_relay_processor(execute_plan(plan, deaf))


class TestForwardMatrix:
    def test_single_pair_identity_projectors(self):
        # A lone pair unit excludes nothing, so W = P = I and F = alpha * I.
        ch = sample_channel_set(SystemConfig(m=3, n=5, k=3, seed=8))
        (unit,) = twinned_units(ch, [(2, (0, 1), 0, 1)])
        uplink, downlink = build_uplink_projectors([unit])
        forward, alpha = assemble_forward_matrix([unit], uplink, downlink)
        assert alpha > 0
        assert np.allclose(forward, alpha * np.eye(5))

    def test_power_constraint_met_with_equality(self):
        _, ch, units, processor = full_build(2, 3, 3, seed=9)
        streams = np.hstack([u.equivalent_uplink for u in units])
        cov = streams @ streams.conj().T + np.eye(ch.active_relay)
        f = processor.forward_matrix
        assert np.trace(f @ cov @ f.conj().T).real == pytest.approx(1.0, rel=1e-9)

    def test_sums_pair_terms(self):
        ch = sample_channel_set(SystemConfig(m=2, n=6, k=3, seed=10))
        (unit,) = twinned_units(ch, [(RANDOM, (0, 1, 2), 0, 1)])
        uplink, downlink = build_uplink_projectors([unit])
        forward, alpha = assemble_forward_matrix([unit], uplink, downlink)
        manual = sum(projector(downlink.complement, downlink.factors[key])
                     @ projector(uplink.complement, uplink.factors[key]) for key in uplink.factors)
        assert np.allclose(forward, alpha * manual)

    # The forward matrix comes from each pair's own block of the factors, and
    # the complements only when relay rows are free; check it against the
    # dense sum of W_p P_p, to 1e-12 relative, on plans that leave rows free
    # (K*M < N, which no benchmark config does), on one whose pairs have
    # factors of widths 1 and 2, and on ones the units fill, where the
    # complements have no columns.
    FACTOR_WIDTHS = {(2, 7, 3): {2}, (1, 4, 3): {2}, (2, 5, 3): {1, 2}, (3, 5, 4): {1},
                     (7, 14, 4): {1}, (7, 20, 4): {1}}

    @pytest.mark.parametrize("m,n,k,improved,free", [
        (2, 7, 3, False, 1),
        (1, 4, 3, False, 2),
        (2, 5, 3, False, 0),
        (3, 5, 4, False, 0),
        (7, 14, 4, True, 0),
        (7, 20, 4, False, 0),
    ])
    def test_factored_sum_matches_dense_pair_terms(self, m, n, k, improved, free):
        _, ch, units, processor = full_build(m, n, k, seed=11, improved=improved)
        rows = ch.active_relay
        twins = [unit.twin for unit in units]
        for side, link in zip(build_uplink_projectors(units), (units, twins), strict=True):
            c = side.complement
            assert c.shape == (rows, rows - sum(u.basis.shape[1] for u in link)) == (rows, free)
            assert np.allclose(c.conj().T @ c, np.eye(free), rtol=0, atol=1e-12)
            for unit in link:
                assert np.allclose(c.conj().T @ unit.basis, 0, rtol=0, atol=1e-12)
            assert {z.shape[1] for z in side.factors.values()} == self.FACTOR_WIDTHS[m, n, k]
        f = processor.forward_matrix
        manual = sum(projector(processor.downlink_complement, processor.downlink_projectors[key])
                     @ projector(processor.uplink_complement, z)
                     for key, z in processor.uplink_projectors.items())
        assert np.allclose(f, processor.power_scale * manual, rtol=0,
                           atol=1e-12 * np.linalg.norm(f))


class TestVerification:
    @pytest.mark.parametrize("m,n,k,d_sum", [
        (2, 3, 3, F(6)),
        (7, 12, 4, F(24)),
        (3, 8, 4, F(12)),
    ])
    def test_counted_dof(self, m, n, k, d_sum):
        _, ch, units, processor = full_build(m, n, k, seed=11)
        report = verify_end_to_end(ch, units, processor)
        assert report.passed
        assert report.counted_d_sum == d_sum

    def test_improved_corner(self):
        _, ch, units, processor = full_build(7, 14, 4, seed=12, improved=True)
        report = verify_end_to_end(ch, units, processor)
        assert report.passed
        assert report.counted_d_sum == F(24)

    def test_leakage_small_on_valid_build(self):
        _, ch, units, processor = full_build(3, 5, 3, seed=13)
        report = verify_end_to_end(ch, units, processor)
        assert report.passed
        assert max(rec.leakage for rec in report.streams) <= LEAKAGE_ABS
        assert min(rec.desired for rec in report.streams) > 1e-6
        assert min(rec.partner for rec in report.streams) > 1e-6

    def test_corrupted_beamformer_fails_with_leakage(self):
        # Negative control: perturb one beamformer after the relay design is
        # frozen; the verifier must flag it, with leakage above tolerance.
        _, ch, units, processor = full_build(2, 3, 3, seed=14)
        units[0].beamformers = units[0].beamformers.copy()
        units[0].beamformers[0, 0] += 1.0
        report = verify_end_to_end(ch, units, processor)
        assert not report.passed
        assert max(rec.leakage for rec in report.streams) > LEAKAGE_ABS
        assert report.counted_d_sum < F(6)

    def test_a_small_leak_is_not_counted(self):
        # A beamformer nudged by 1e-5 after the relay design leaks far above
        # round-off and far below the streams' own coefficients: the leaking
        # streams drop out of the count and the build fails.
        _, ch, units, processor = full_build(2, 3, 3, seed=14)
        units[0].beamformers = units[0].beamformers.copy()
        units[0].beamformers[0, 0] += 1e-5
        report = verify_end_to_end(ch, units, processor)
        leakage = max(rec.leakage for rec in report.streams)
        assert 1e-7 < leakage < 1e-2
        assert not report.passed
        assert report.counted_d_sum < F(6)

    def test_a_desired_coefficient_below_the_cutoff_is_not_counted(self):
        # Scaling one receive vector by 1e-9 scales its chain row, so the
        # stream's desired coefficient stays nonzero but falls to about 1e-9
        # of a passing one: the stream must drop out of the count.
        _, ch, units, processor = full_build(3, 5, 3, seed=0)
        base = verify_end_to_end(ch, units, processor)
        receive = processor.receive_vectors.copy()
        receive[:, 0] *= 1e-9
        report = verify_end_to_end(ch, units, replace(processor, receive_vectors=receive))
        assert base.passed and base.counted_d_sum == F(9)
        assert report.streams[0].desired > 0
        assert report.counted_d_sum == base.counted_d_sum - F(1, ch.extension)
        assert not report.passed

    def test_a_vanished_own_coefficient_fails_but_keeps_the_count(self):
        # (3,12,4) has one random unit, whose 12 images h_j and 12 chain rows
        # r_i = v_i^H G_a are each a basis of C^12.  Subtracting
        # u (r_0 F h_0) y^H from F, with y^H h_j = [j == 0] and r_i u = [i == 0],
        # zeroes stream 0's own coefficient and leaves every other one.
        plan, ch, units, processor = full_build(3, 12, 4, seed=0)
        (unit,) = units
        assert (plan.extension, unit.pattern_order, ch.active_relay) == (1, RANDOM, 12)
        images = unit.equivalent_uplink
        rows = np.array([processor.receive_vectors[:, i].conj() @ ch.downlink[a, 0]
                         for i, (a, _) in enumerate(unit.pairs)])
        f = processor.forward_matrix
        dual_image = np.linalg.inv(images)[0]
        dual_row = np.linalg.inv(rows)[:, 0]
        forward = f - np.outer(dual_row, dual_image) * (rows[0] @ f @ images[:, 0])
        base = verify_end_to_end(ch, units, processor)
        report = verify_end_to_end(ch, units, replace(processor, forward_matrix=forward))
        assert base.passed and base.counted_d_sum == F(12)
        assert report.streams[0].partner < 1e-9 * base.streams[0].partner
        for i, (rec, want) in enumerate(zip(report.streams, base.streams, strict=True)):
            assert rec.desired == pytest.approx(want.desired, rel=1e-9)
            assert i == 0 or rec.partner == pytest.approx(want.partner, rel=1e-9)
            assert rec.leakage <= LEAKAGE_ABS
        assert report.counted_d_sum == base.counted_d_sum
        assert not report.passed

    @pytest.mark.parametrize("factor", [1e3, 1e-3])
    def test_report_is_invariant_to_channel_scale(self, factor):
        # The thresholds see per-entry-RMS-normalised channels, so scaling one
        # user's links leaves every coefficient as it was.  Leakage is round-off
        # (about 1e-16), so it is held to an absolute bound instead.
        _, ch, units, processor = full_build(7, 14, 4, seed=21, improved=True)
        base = verify_end_to_end(ch, units, processor)
        uplink, downlink = ch.uplink.copy(), ch.downlink.copy()
        uplink[1] *= factor
        downlink[1] *= factor
        scaled = replace(ch, uplink=uplink, downlink=downlink)
        report = verify_end_to_end(scaled, units, processor)
        assert report.passed == base.passed
        assert report.counted_d_sum == base.counted_d_sum
        for rec, want in zip(report.streams, base.streams, strict=True):
            assert (rec.unit, rec.pair) == (want.unit, want.pair)
            assert rec.desired == pytest.approx(want.desired, rel=1e-9)
            assert rec.partner == pytest.approx(want.partner, rel=1e-9)
            assert rec.leakage == pytest.approx(want.leakage, rel=1e-9, abs=1e-14)

    @pytest.mark.parametrize("m,n,k,improved,extension", [
        (3, 5, 3, False, 2),
        (2, 6, 3, False, 1),   # one random unit
        (3, 5, 4, False, 6),
        (7, 14, 4, True, 1),   # deactivated corner
    ])
    def test_forward_matrix_carries_no_cross_pair_leakage(self, m, n, k, improved,
                                                          extension):
        # Through the F the relay applies, each row v^H G_a reaches only its
        # own pair's two streams: every W_p nulls the other pairs' rows.
        plan, ch, units, processor = full_build(m, n, k, seed=0, improved=improved)
        assert plan.extension == extension
        keys, _, rows, h = dense_links(ch, units, processor, normalized=True)
        coeffs = np.abs(rows @ (processor.forward_matrix / processor.power_scale) @ h)
        pair_of = [(li, frozenset(pair)) for li, pair in keys]
        for i, own in enumerate(pair_of):
            off = [j for j, other in enumerate(pair_of) if other != own]
            assert coeffs[i, off].max() <= LEAKAGE_ABS


def dense_links(ch, units, processor, normalized):
    """Stream keys, beamformers, rows ``v^H G_a`` and images ``H_a u``, from dense channels.

    With ``normalized`` each row and image is scaled by the inverse per-entry
    RMS of its user's dense downlink or uplink matrix.
    """
    def scale(a):
        return np.sqrt(a.size) / np.linalg.norm(a) if normalized else 1.0
    keys = [(li, pair) for li, u in enumerate(units) for pair in u.pairs]
    beams = [u.beamformers[:, i] for u in units for i in range(len(u.pairs))]
    up = [dense(blocks) for blocks in ch.uplink]
    down = [dense(blocks) for blocks in ch.downlink]
    h = np.column_stack([scale(up[a]) * (up[a] @ u) for (_, (a, _)), u in zip(keys, beams)])
    rows = np.array([scale(down[a]) * (processor.receive_vectors[:, i].conj() @ down[a])
                     for i, (_, (a, _)) in enumerate(keys)])
    return keys, beams, rows, h


def dense_chains(ch, units, processor, normalized):
    """Reference chain coefficients through a fully dense relay.

    Each pair's ``P_p`` and ``W_p`` are complement projectors over the other
    streams' images ``H_a u`` and rows ``v^H G_a``, and ``F / alpha`` is the
    sum of the ``W_p P_p``: neither the projector factors nor
    ``processor.forward_matrix`` enter.
    """
    keys, beams, rows, h = dense_links(ch, units, processor, normalized)
    pair_of = [(li, frozenset(pair)) for li, pair in keys]
    relay = 0.0
    for pair in dict.fromkeys(pair_of):
        others = [i for i, q in enumerate(pair_of) if q != pair]
        relay = relay + (complement_projector(rows[others].conj().T)
                         @ complement_projector(h[:, others]))
    partner = [keys.index((li, (b, a))) for li, (a, b) in keys]
    return keys, beams, rows @ relay, h, partner, relay


class TestDenseReference:
    @pytest.mark.parametrize("extension,active", [(1, None), (6, None), (4, 8)])
    def test_normalisation_counts_the_structural_zeros(self, extension, active):
        # The per-entry RMS is that of the dense block-diagonal matrix.
        ch = sample_channel_set(SystemConfig(m=2, n=3, k=3, extension=extension, seed=3))
        if active is not None:
            ch = deactivate_relay_antennas(ch, active)
        for blocks in [*ch.uplink, *ch.downlink]:
            full = dense(blocks)
            want = np.sqrt(full.size) / np.linalg.norm(full)
            if extension == 1:
                assert _entry_rms_scale(blocks) == want
            assert _entry_rms_scale(blocks) == pytest.approx(want, rel=1e-14)


    @pytest.mark.parametrize("m,n,k,improved", [(3, 8, 4, False), (2, 5, 3, False),
                                                (7, 14, 4, True)])
    def test_report_matches_per_stream_chains(self, m, n, k, improved):
        _, ch, units, processor = full_build(m, n, k, seed=33, improved=improved)
        report = verify_end_to_end(ch, units, processor)
        keys, _, chains, h, partner, _ = dense_chains(ch, units, processor, normalized=True)
        coeffs = np.abs(chains @ h)
        assert [(rec.unit, rec.pair) for rec in report.streams] == keys
        for i, rec in enumerate(report.streams):
            assert rec.desired == pytest.approx(coeffs[i, partner[i]], rel=0, abs=1e-12)
            assert rec.partner == pytest.approx(coeffs[i, i], rel=0, abs=1e-12)
            rest = np.delete(coeffs[i], [i, partner[i]])
            assert rec.leakage == pytest.approx(rest.max(), rel=0, abs=1e-12)

    @pytest.mark.parametrize("m,n,k,improved,seed", [
        pytest.param(3, 8, 4, False, 34, id="3-8-4-False"),
        pytest.param(2, 5, 3, False, 34, id="2-5-3-False"),
        *[(3, 5, 4, False, seed) for seed in range(3)],
        *[(2, 12, 6, False, seed) for seed in range(3)],
        # 360 relay rows: its dense projectors take about a minute.
        pytest.param(4, 9, 5, False, 0, marks=pytest.mark.slow),
    ])
    def test_slope_matches_per_stream_rates(self, m, n, k, improved, seed):
        _, ch, units, processor = full_build(m, n, k, seed=seed, improved=improved)
        report = verify_end_to_end(ch, units, processor)
        snrs = relay.SLOPE_SNR_DB
        keys, beams, chains, h, partner, base = dense_chains(ch, units, processor,
                                                            normalized=False)
        gain = [sum(np.linalg.norm(u) ** 2 for (_, (a, _)), u in zip(keys, beams) if a == user)
                for user in range(ch.k)]
        rates = []
        for db in snrs:
            power = 10.0 ** (db / 10.0)
            p = power / max(gain)
            alpha_sq = power / (p * np.linalg.norm(base @ h) ** 2 + np.linalg.norm(base) ** 2)
            rate = 0.0
            for i in range(len(keys)):
                c = np.abs(chains[i] @ h) ** 2
                # Summed off the pair, not subtracted from the row sum, whose
                # round-off would swamp the leakage at high SNR.
                interference = np.delete(c, [i, partner[i]]).sum()
                noise = (alpha_sq * np.linalg.norm(chains[i]) ** 2
                         + np.linalg.norm(processor.receive_vectors[:, i]) ** 2)
                rate += np.log2(1 + p * alpha_sq * c[partner[i]]
                                / (noise + p * alpha_sq * interference))
            rates.append(rate / ch.extension)
        log_snrs = [np.log2(10.0 ** (db / 10.0)) for db in snrs]
        slopes = [(rates[i + 1] - rates[i]) / (log_snrs[i + 1] - log_snrs[i])
                  for i in range(len(snrs) - 1)]
        settled = len(slopes) - 1
        for i in range(1, len(slopes)):
            if abs(slopes[i] - slopes[i - 1]) <= 1e-3 * abs(slopes[i - 1]):
                settled = i
                break
        assert report.slope_window_db == (snrs[settled], snrs[settled + 1])
        assert report.slope == pytest.approx(slopes[settled], rel=1e-9)
        assert report.slope == pytest.approx(float(report.counted_d_sum), rel=1e-3)
        assert estimate_dof_slope(ch, units, processor) == report.slope


class TestSlope:
    def test_relay_limited_k3(self):
        _, ch, units, processor = full_build(2, 3, 3, seed=16)
        slope = estimate_dof_slope(ch, units, processor)
        assert slope == pytest.approx(6.0, rel=0.05)

    def test_corrupted_build_slope_drops(self):
        _, ch, units, processor = full_build(2, 3, 3, seed=17)
        units[0].beamformers = units[0].beamformers.copy()
        units[0].beamformers[0, 0] += 1.0
        slope = estimate_dof_slope(ch, units, processor)
        assert slope < 6.0 * 0.95
