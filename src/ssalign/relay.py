"""Relay projection design, forwarding matrix, and end-to-end verification.

For every unit ``l`` and user pair ``(a, b)`` the relay projects its received
signal onto the orthogonal complement of *all* equivalent uplink vectors
except the pair's own two, so exactly one linear combination of the paired
streams survives per projector; that survival is tested for every pair of
every unit on both links while the projector factors are computed.  The
downlink side mirrors the uplink: each unit carries its twin, which
:func:`~ssalign.units.execute_plan` builds beside it with the same unit
construction on the conjugate-transposed downlink ``G_a^H`` (random twins
from RNG substream 2), and whose failure it raises.  The twins' beamformers
are the receive vectors ``v``, and downlink projectors null everything but
the pair among the twins' vectors ``G_a^H v = (v^H G_a)^H``.  The relay
forwards ``F = alpha * sum_l sum_{a<b} W(l,a,b) @ P(l,a,b)`` with ``alpha``
meeting the unit relay power budget with equality.

A failing design raises in one stage order, each check over both links,
uplink first: joint independence, then pair survival (``stage`` is the side,
``uplink`` or ``downlink``), then the collapse of ``F`` (``forward``).

No projector is stored densely.  A pair's is ``P = C C^H + Z Z^H``: ``C``
is an orthonormal basis of the complement of every stream on its link, none
when the units fill the relay, and ``Z`` a thin orthonormal basis of the
directions in the streams' span orthogonal to every stream but the pair's
two.  ``F`` is assembled from these factors directly: each pair's ``W P``
meets only its own factors, so only each pair's own block of the downlink
and uplink factors' products is formed, and the complements enter only
when relay rows are free.  Each link's stacked unit bases ``S`` must keep
all their columns (its joint-independence check);
``C`` comes from their complete QR, taken only when relay rows are free, and
``coords = inv([S C])[:W]`` gives each vector of ``span(S)`` its coordinates
in every unit basis.  A twin has its unit's pairs and basis width, so both
links run every step in one call over a leading link axis: the QR, the
inverse, and, per unit shape (basis width and pair layout), the pair
nullspaces and the factor QR.  One stacked SVD gives every pair of an
aligned shape its nullspace, and a random unit, whose basis is as wide as
its stream count, takes all its pairs' nullspaces from one matrix inverse.
The joint-independence check needs no SVD where the inverse certifies it, by
the full-rank rule of :func:`~ssalign.linalg.uncertified`.

Verification is structural: a stream is decodable when its chain through ``F``
keeps both pair coefficients above threshold while every other stream's
coefficient stays within :data:`~ssalign.linalg.LEAKAGE_ABS`.  The chains
are measured on the raw channels, and each coefficient is then scaled by the
inverse per-entry RMS of its receiver's downlink and its sender's uplink, so
the absolute cutoffs are scale-free; the RMS is that of the whole
``N_active x M*ext`` block-diagonal matrix, its structural zeros counted.
The same pass reads the sum rate's slope against log2(SNR) where it has
settled at high SNR, so that it measures the DoF rather than the SNR window.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .channel import ChannelSet, slot_product
from .errors import (
    AlignmentDegenerate,
    IndependenceViolation,
    ProjectorCollapse,
    stage,
)
from .linalg import (
    LEAKAGE_ABS,
    RANK_REL,
    singular_value_ranks,
    stacked_nullspaces,
    uncertified,
)
from .units import Unit

__all__ = [
    "PairProjectors",
    "RelayProcessor",
    "StreamRecord",
    "VerificationReport",
    "build_uplink_projectors",
    "design_downlink",
    "assemble_forward_matrix",
    "build_relay_processor",
    "verify_end_to_end",
    "estimate_dof_slope",
]

# Minimum magnitude for a combination coefficient to count as usable, after
# the per-user per-entry RMS scaling of the module docstring.  Separates
# measure-zero degeneracy from numerical noise.
DESIRED_COEFF_MIN = 1e-6

# A pair's stream must keep at least this fraction of its norm after the rest
# of its unit is projected out, else the channel draw counts as degenerate.
PAIR_SURVIVAL_MIN = 1e-6

# The SNR grid, in dB, of the sum rates whose secant slopes verify_end_to_end
# reads, and the relative change at which two neighbouring slopes count as settled.
SLOPE_SNR_DB = (40.0, 60.0, 80.0, 100.0, 120.0, 140.0, 160.0)
SLOPE_SETTLE_REL = 1e-3

Key = tuple[int, tuple[int, int]]

# The side of each link of a projector pass, by position.
SIDES = ("uplink", "downlink")


@dataclass(frozen=True, eq=False)
class PairProjectors:
    """One side's per-pair projectors ``P = C C^H + Z Z^H``, stored as their factors.

    ``complement`` is an orthonormal basis ``C`` of the orthogonal complement
    of every stream on that side, ``N_active x (N_active - W)``: empty when
    the units fill the relay.  ``factors[(l, (a, b))]`` is an orthonormal
    ``Z`` spanning the directions in the streams' span orthogonal to every
    stream except the pair's two.  ``==`` is identity.
    """

    complement: np.ndarray
    factors: dict[Key, np.ndarray]


@dataclass(eq=False)
class RelayProcessor:
    """Projector factors, receive vectors, and the scaled forwarding matrix.

    ``uplink_projectors[(l, (a, b))]`` is the factor ``Z`` of the uplink
    projector ``C C^H + Z Z^H`` with ``C = uplink_complement``, keyed with
    ``a < b``; the downlink fields mirror it.  ``receive_vectors`` is an
    ``M*ext x streams`` matrix with one column per stream ``(l, (a, b))``,
    in the order of the units and then of each unit's ``pairs``: the twins'
    beamformers on ``G^H``.  User ``a`` combines its received ``y`` as ``v^H y``
    to listen for user ``b``'s stream.  ``==`` is identity.
    """

    uplink_complement: np.ndarray
    uplink_projectors: dict[Key, np.ndarray]
    downlink_complement: np.ndarray
    downlink_projectors: dict[Key, np.ndarray]
    receive_vectors: np.ndarray
    forward_matrix: np.ndarray
    power_scale: float


@dataclass(frozen=True)
class StreamRecord:
    """Measured chain coefficients for one ordered-pair stream.

    ``desired`` is the partner stream's coefficient at the receiver,
    ``partner`` the co-pair (self-interference) coefficient the receiver
    subtracts, ``leakage`` the worst coefficient among all other streams.
    """

    unit: int
    pair: tuple[int, int]
    desired: float
    partner: float
    leakage: float


@dataclass
class VerificationReport:
    """Per-stream measurements, the counted DoF, and the sum rate's slope.

    ``slope`` is taken against log2(SNR) between the two SNRs, in dB, of
    ``slope_window_db``.
    """

    streams: list[StreamRecord]
    counted_d_sum: Fraction
    passed: bool
    slope: float
    slope_window_db: tuple[float, float]


def _twins(units: list[Unit]) -> list[Unit]:
    """The units' downlink twins, each checked to have its unit's pairs and basis shape."""
    twins = [unit.twin for unit in units]
    if any(twin is None for twin in twins):
        raise ValueError("every unit needs the downlink twin execute_plan builds beside it")
    if [(t.pairs, t.basis.shape) for t in twins] != [(u.pairs, u.basis.shape) for u in units]:
        raise ValueError("twins must have the units' pairs and basis shapes")
    return twins


def build_uplink_projectors(units: list[Unit]) -> tuple[PairProjectors, PairProjectors]:
    """Per-(unit, pair) projectors nulling every other stream, on both links in one pass.

    The downlink's units are the twins :func:`~ssalign.units.execute_plan`
    set as each unit's ``twin``; the result is the uplink's projectors, then
    the downlink's.  Both links share every batched step (see
    :func:`_complement_projectors`), so a missing twin, or one without its
    unit's pairs and basis shape, raises ``ValueError``.
    """
    return tuple(_complement_projectors([units, _twins(units)]))


@functools.lru_cache(maxsize=1024)
def _pair_columns(pairs: tuple[tuple[int, int], ...]) -> tuple[tuple[tuple[int, int], ...], tuple]:
    """A unit's unordered pairs, sorted, and the column indices of each pair's streams.

    Units of one group and order share their ``pairs``, so the result is
    cached; it is all tuples, so no caller can change a shared value.
    """
    columns: dict[tuple[int, int], list[int]] = {}
    for i, (a, b) in enumerate(pairs):
        columns.setdefault((min(a, b), max(a, b)), []).append(i)
    keys = tuple(sorted(columns))
    return keys, tuple(tuple(columns[key]) for key in keys)


def _pair_nullspaces(local: np.ndarray, own: np.ndarray):
    """Each pair's ``y``, orthonormal and orthogonal to the rest of its unit, by rank.

    ``local`` is ``(units, d, s)``, every unit of one shape in its own basis
    coordinates; ``own`` is ``(pairs, 2)``, each pair's two columns.  Yields
    ``(select, y)`` per rank: a ``(units, pairs)`` mask of the pairs with
    that rank, and ``y`` as ``(units, pairs, d, width)``, valid where selected.
    """
    units, d, s = local.shape
    pairs, width = own.shape
    every = np.ones((units, pairs), dtype=bool)
    if d == s:
        # rank(L) = s, so L^-H[:, own] is orthogonal to L[:, rest] and spans its nullity 2.
        inverse_h = np.linalg.inv(local).conj().swapaxes(1, 2)
        yield every, np.linalg.qr(inverse_h[:, :, own].transpose(0, 2, 1, 3))[0]
        return
    outside = np.ones((pairs, s), dtype=bool)
    outside[np.arange(pairs)[:, None], own] = False
    rest = np.nonzero(outside)[1].reshape(pairs, s - width)
    if rest.shape[1] == 0:
        yield every, np.broadcast_to(np.eye(d, dtype=np.complex128), (units, pairs, d, d))
        return
    # (units, pairs, s - 2, d): every pair's rest, conjugate-transposed.
    rests = local[:, :, rest].conj().transpose(0, 2, 3, 1)
    ranks, null = stacked_nullspaces(rests)
    for rank in set(ranks.flat):
        yield ranks == rank, null[..., :d - rank]


def _overlap_error(side: str, sigma: np.ndarray, shape: tuple[int, int]) -> IndependenceViolation:
    """The joint-independence failure of a link, worded from its stacked bases' singular values."""
    rows, width = shape
    rank = singular_value_ranks(sigma, shape)
    dropped = sigma[rank] / sigma[0] if rank < sigma.size else 0.0
    error = IndependenceViolation(
        f"{side} unit spans overlap: their dimensions sum to {width}, "
        f"jointly they span {rank} of N_active = {rows}; largest dropped singular "
        f"value / sigma_max = {dropped:.1e} against RANK_REL*max(shape) = "
        f"{RANK_REL * max(rows, width):.1e}"
    )
    error.stage = side
    return error


def _joint_basis(links: list[list[Unit]]) -> tuple[np.ndarray, np.ndarray]:
    """Each link's complement ``C`` and ``coords = inv([S C])[:W]``, its unit spans checked.

    Each unit's ``basis`` ``B_l`` has decided its span, so the relay space is
    split along each link's ``N_active x W`` stacked bases ``S = [B_1 .. B_L]``,
    not its streams.  ``C``, the orthonormal complement of ``span(S)``, ends
    a complete Householder QR of ``S``, taken only when ``W < N_active``;
    ``coords S = I`` and ``coords C = 0``.  The spans must form a direct sum,
    the link's one joint-independence check: all ``W`` singular values of
    ``S`` must count under :func:`~ssalign.linalg.singular_value_ranks`.  The
    certificate of :func:`~ssalign.linalg.uncertified` decides it from
    ``||S||_F`` and ``||coords||_F``, the norms of the triangular QR factor
    of ``S`` and of its inverse, as ``[S C]`` is a unitary matrix times that
    factor beside an identity block.  A link it does not clear takes one
    values-only SVD of its ``S``, and so does every link when the inverse
    fails, as it must when ``W > N_active``.  A link that fails it raises
    :class:`~ssalign.errors.IndependenceViolation` naming the side, the
    joint dimension against ``N_active``, and the largest dropped singular
    value over ``sigma_max`` against the cutoff (0 when ``W > N_active``, as
    ``S`` has only ``N_active`` values); the links are checked in order.
    """
    stacked = np.stack([np.hstack([u.basis for u in units]) for units in links])
    _, rows, width = stacked.shape
    complement = (np.linalg.qr(stacked, mode="complete")[0][..., width:] if width < rows
                  else stacked[..., :0])
    square = np.concatenate([stacked, complement], axis=2)
    try:
        coords = np.linalg.inv(square)[:, :width]
    except np.linalg.LinAlgError:
        coords = None  # a singular or wide [S C]: the SVD decides below
    rest = uncertified(stacked, (rows, width),
                       np.inf if coords is None else np.linalg.norm(coords, axis=(1, 2)))
    if rest.any():
        # One SVD per link the certificate fails: its rank, and its message's values.
        for i, sigma in zip(np.flatnonzero(rest), np.linalg.svd(stacked[rest], compute_uv=False)):
            if singular_value_ranks(sigma, (rows, width)) < width:
                raise _overlap_error(SIDES[i], sigma, (rows, width))
    if coords is None:
        # Every link passed the SVD, so the inverse's own error is the one to raise.
        coords = np.linalg.inv(square)[:, :width]
    return complement, coords


def _complement_projectors(links: list[list[Unit]]) -> list[PairProjectors]:
    """Factor every pair's complement projector through one oblique basis change.

    ``links`` lists each link's units, sides named by position in
    :data:`SIDES`; their streams are the columns of ``equivalent_uplink``,
    which are ``G_a^H v`` for downlink twins.  The links must match unit by
    unit in pairs and basis shape, so every step runs once over a leading
    link axis, and each link's factors equal those of a pass over that link
    alone.  :func:`_joint_basis` gives each link's complement ``C`` of the
    span of its stacked unit bases ``S`` and ``coords = inv([S C])[:W]``,
    which nulls ``C`` and gives each vector of ``span(S)`` its coordinates
    in every unit basis.  A direction ``X_l^H y`` built from unit ``l``'s
    rows ``X_l`` of ``coords`` lies in ``span(S)``, is orthogonal to all
    other units, and to the rest of unit ``l`` exactly when ``y`` is, so one
    small nullspace in unit coordinates ``L = B_l^H H`` yields the pair's
    factor ``Z = qr(X_l^H y)``, and its projector is ``C C^H + Z Z^H``.

    The nullspaces are taken per unit shape, the basis width ``d`` and the
    pair layout, over both links' units of that shape: one
    :func:`~ssalign.linalg.stacked_nullspaces` of every pair's
    ``L[:, rest]^H`` decides each pair's rank, and the pairs are sliced by
    rank, so each keeps the width that rule gives it.
    A square unit (a random one, ``d = s``) needs no SVD.  Its basis width is
    the span check's verdict ``rank(L) = s``, so ``L^-H[:, own]``, orthogonal
    to every other column of ``L``, spans the nullspace, and one inverse per
    unit gives every pair's ``y`` as the orthonormal columns of its QR.  The
    per-pair rule would find the same nullity 2: deleting columns interlaces
    the singular values, so ``sigma_min(L[:, rest]) >= sigma_min(L)``, while
    its threshold ``RANK_REL * sigma_max * max(shape)`` is at most the span
    check's, as both ``sigma_max`` and the shape shrink.

    The same ``y`` tests the pair's survival: each of its streams ``h`` must
    keep ``|y^H B_l^H h| >= PAIR_SURVIVAL_MIN * |h| > 0`` off the rest of
    its unit, else :class:`~ssalign.errors.AlignmentDegenerate` names the
    side, unit, group, column block and pair, the first failing in link and
    then unit order; so ``Z`` is never empty.  Every error's ``stage`` is
    its side.
    """
    unit_bases = [[u.basis for u in units] for units in links]
    complement, coords = _joint_basis(links)
    offsets = np.cumsum([0] + [basis.shape[1] for basis in unit_bases[0]])
    pair_keys, shapes = [], {}
    for li, (unit, basis) in enumerate(zip(links[0], unit_bases[0])):
        keys, columns = _pair_columns(unit.pairs)
        pair_keys.append(keys)
        shapes.setdefault((basis.shape[1], columns), []).append(li)

    found: dict[tuple[int, int, int], np.ndarray] = {}
    failed = []
    for (d, columns), members in shapes.items():
        own = np.array(columns)
        # (link, unit) of each batch entry, link-major.
        batch = [(i, li) for i in range(len(links)) for li in members]
        streams = np.stack([links[i][li].equivalent_uplink for i, li in batch])
        local = np.stack([unit_bases[i][li] for i, li in batch]).conj().swapaxes(1, 2) @ streams
        # (units, pairs, d, 2) and (units, pairs, 2): each pair's own streams.
        local_own = local[:, :, own].transpose(0, 2, 1, 3)
        norms = np.linalg.norm(streams, axis=1)[:, own]
        # (units, 1, N_active, d): each unit's rows X_l^H, shared by its pairs.
        rows_h = np.stack([coords[i, offsets[li]:offsets[li] + d] for i, li in batch])
        rows_h = rows_h.conj().swapaxes(1, 2)[:, None]
        for select, y in _pair_nullspaces(local, own):
            kept = np.linalg.norm(y.conj().swapaxes(2, 3) @ local_own, axis=2)
            bad = select & np.any((norms == 0.0) | (kept < PAIR_SURVIVAL_MIN * norms), axis=2)
            failed += [(*batch[u], p) for u, p in zip(*np.nonzero(bad))]
            if y.shape[3] == 0:
                continue
            z = np.linalg.qr(rows_h @ y)[0]
            found.update(((*batch[u], p), z[u, p]) for u, p in zip(*np.nonzero(select)))
    if failed:
        i, li, p = min(failed)
        unit = links[i][li]
        a, b = pair_keys[li][p]
        error = AlignmentDegenerate(
            f"{SIDES[i]} pair ({a},{b}) of unit {li} (group {unit.group}, column block "
            f"{unit.column_block}) does not survive the rest of its unit")
        error.stage = SIDES[i]
        raise error
    return [PairProjectors(c, {(li, key): found[(i, li, p)] for li, keys in enumerate(pair_keys)
                               for p, key in enumerate(keys)}) for i, c in enumerate(complement)]


def design_downlink(units: list[Unit]) -> np.ndarray:
    """Receive vectors of ``units``: their downlink twins' beamformers side by side.

    The twins are the ones :func:`~ssalign.units.execute_plan` built beside
    the units, on the conjugate-transposed downlink ``G_a^H`` (same group
    and column block; random ones from RNG substream 2 of the channels'
    seed), so each passed the span checks; a unit without one raises
    ``ValueError``.  Their equivalent vectors ``G_a^H v = (v^H G_a)^H`` give
    the downlink projectors in :func:`build_uplink_projectors`, so each
    pair's ``W`` nulls the other pairs' rows ``v^H G_a``.
    """
    return np.hstack([twin.beamformers for twin in _twins(units)])


def _pair_terms(uplink: PairProjectors, downlink: PairProjectors):
    """Each pair's ``Z_d Z_d^H Z_u`` and ``Z_u``, side by side, and ``sum Z_d Z_d^H C_u``.

    Only each pair's own block ``Z_d^H Z_u`` is formed, in one batch per
    factor shape; the last term, ``N_active x (N_active - W)``, is formed only
    when the uplink complement ``C_u`` has columns.
    """
    keys = list(uplink.factors)
    ups = [uplink.factors[key] for key in keys]
    downs = [downlink.factors[key] for key in keys]
    cu = uplink.complement
    rows = cu.shape[0]
    starts = np.cumsum([0] + [z.shape[1] for z in ups])
    own, zu = np.empty((2, rows, starts[-1]), dtype=np.complex128)
    down_cu = np.zeros(cu.shape, dtype=np.complex128)
    shapes: dict[tuple[int, int], list[int]] = {}
    for i, (d, u) in enumerate(zip(downs, ups)):
        shapes.setdefault((d.shape[1], u.shape[1]), []).append(i)
    for (_, width), members in shapes.items():
        u = np.stack([ups[i] for i in members])
        d = np.stack([downs[i] for i in members])
        cols = (starts[members][:, None] + np.arange(width)).ravel()
        zu[:, cols] = u.transpose(1, 0, 2).reshape(rows, -1)
        own[:, cols] = (d @ (d.conj().swapaxes(1, 2) @ u)).transpose(1, 0, 2).reshape(rows, -1)
        if cu.shape[1]:
            down_cu += (d @ (d.conj().swapaxes(1, 2) @ cu)).sum(axis=0)
    return own, zu, down_cu


@stage("forward")
def assemble_forward_matrix(units: list[Unit], uplink_projectors: PairProjectors,
                            downlink_projectors: PairProjectors) -> tuple[np.ndarray, float]:
    """Sum the per-pair W P products and scale to the relay power budget.

    With ``P = C_u C_u^H + Z_u Z_u^H`` and ``W = C_d C_d^H + Z_d Z_d^H`` for
    each of the ``p`` pairs, ``sum W P`` is ``sum Z_d (Z_d^H Z_u) Z_u^H``:
    each pair's own block ``Z_d^H Z_u`` alone (:func:`_pair_terms`), then one
    ``N_active x w x N_active`` product over the ``w`` stacked columns of
    ``Z_u``.  Only when the units leave relay rows free (``W < N_active``)
    are the complement terms ``p C_d (C_d^H C_u) C_u^H + C_d (C_d^H Z_u)
    Z_u^H + Z_d (Z_d^H C_u) C_u^H`` added, with ``Z_u`` and ``Z_d`` stacking
    every pair's factor, in the same product.  The scale solves
    ``tr(F E[Y_R Y_R^H] F^H) = 1`` exactly, the unit relay
    power budget, with unit per-stream power and unit relay noise variance,
    so no Monte Carlo noise enters the normalization.
    """
    left, right, down_cu = _pair_terms(uplink_projectors, downlink_projectors)
    cu, cd = uplink_projectors.complement, downlink_projectors.complement
    if cu.shape[1]:
        pairs = len(uplink_projectors.factors)
        left += cd @ (cd.conj().T @ right)
        left = np.hstack([left, cd @ (pairs * (cd.conj().T @ cu)) + down_cu])
        right = np.hstack([right, cu])
    base = left @ right.conj().T
    streams = np.hstack([u.equivalent_uplink for u in units])
    # tr(B (S S^H + I) B^H) = ||B S||^2 + ||B||^2
    denom = float(np.linalg.norm(base @ streams) ** 2 + np.linalg.norm(base) ** 2)
    if denom <= 0.0:
        raise ProjectorCollapse("forwarding matrix is identically zero")
    alpha = float(np.sqrt(1.0 / denom))
    return alpha * base, alpha


def build_relay_processor(units: list[Unit]) -> RelayProcessor:
    """Full relay design: receive vectors, both links' projectors, forwarding matrix.

    The units must carry the twins :func:`~ssalign.units.execute_plan`
    built beside them; the channels are not read again.  A failing design
    raises in the stage order of the module docstring.
    """
    receive = design_downlink(units)
    uplink, downlink = build_uplink_projectors(units)
    forward, alpha = assemble_forward_matrix(units, uplink, downlink)
    return RelayProcessor(
        uplink_complement=uplink.complement, uplink_projectors=uplink.factors,
        downlink_complement=downlink.complement, downlink_projectors=downlink.factors,
        receive_vectors=receive, forward_matrix=forward, power_scale=alpha,
    )


def _entry_rms_scale(blocks: np.ndarray) -> float:
    """Inverse per-entry RMS of the block-diagonal channel, structural zeros counted."""
    ext, rows, cols = blocks.shape
    norm = np.linalg.norm(blocks)
    return float(np.sqrt(ext * rows * ext * cols) / norm) if norm else 1.0


def verify_end_to_end(ch: ChannelSet, units: list[Unit],
                      processor: RelayProcessor) -> VerificationReport:
    """Measure every stream's chain once: the decodable DoF and the rate slope.

    For the receiver-side stream ``(a, b)`` of unit ``l`` the chain row is
    ``v(a,b)^H G_a F / alpha`` with the whole ``F``; applied to the partner vector
    ``h(b,a)`` it must exceed ``DESIRED_COEFF_MIN``, and applied to any
    stream outside the pair it must stay within :data:`~ssalign.linalg.LEAKAGE_ABS`.
    Both cutoffs apply after the per-user RMS scaling of the module docstring,
    done on the measured coefficients: exact, as the chains are linear in ``G_a``.
    Failures are reported, never raised.

    The sum rate at each SNR of :data:`SLOPE_SNR_DB` is ``sum log2(1 + SINR)``
    per channel use: uniform per-stream power meeting every user's budget,
    unit-variance relay and receiver noise, self-interference removed, and
    interference summed over the off-pair entries (a row sum minus the pair's
    terms would replace ~1e-32 of leakage with ~1e-16 of round-off).  The slope
    is the first secant over neighbouring SNRs that agrees with the one before
    it within :data:`SLOPE_SETTLE_REL`, else the last.
    """
    keys = [(li, pair) for li, u in enumerate(units) for pair in u.pairs]
    index = {key: i for i, key in enumerate(keys)}
    rows = np.arange(len(keys))
    partner = np.array([index[(li, (b, a))] for li, (a, b) in keys])
    senders = np.array([a for _, (a, _) in keys])
    # Every stream's image H_a u and chain row v^H G_a F / alpha, on the raw channels.
    beams = np.hstack([u.beamformers for u in units])
    h = np.empty((ch.active_relay, len(keys)), dtype=np.complex128)
    g = np.empty((len(keys), ch.active_relay), dtype=np.complex128)
    for a in range(ch.k):
        cols = senders == a
        h[:, cols] = slot_product(ch.uplink[a], beams[:, cols])
        g[cols] = slot_product(ch.downlink[a].swapaxes(1, 2),
                               processor.receive_vectors[:, cols].conj()).T
    base = processor.forward_matrix / processor.power_scale
    chains = g @ base
    raw = np.abs(chains @ h)
    off_pair = np.ones(raw.shape, dtype=bool)
    off_pair[rows, rows] = off_pair[rows, partner] = False

    up = np.array([_entry_rms_scale(blocks) for blocks in ch.uplink])
    dn = np.array([_entry_rms_scale(blocks) for blocks in ch.downlink])
    coeffs = np.outer(dn[senders], up[senders])
    coeffs *= raw
    desired = coeffs[rows, partner]
    own = coeffs[rows, rows]
    leakage = coeffs.max(axis=1, where=off_pair, initial=0.0)
    decodable = (desired > DESIRED_COEFF_MIN) & (leakage <= LEAKAGE_ABS)
    records = [StreamRecord(unit=li, pair=pair, desired=float(d), partner=float(o),
                            leakage=float(x))
               for (li, pair), d, o, x in zip(keys, desired, own, leakage)]

    power = 10.0 ** (np.array(SLOPE_SNR_DB) / 10.0)
    p_stream = power / np.bincount(senders, weights=np.linalg.norm(beams, axis=0) ** 2,
                                   minlength=ch.k).max()
    alpha_sq = power / (p_stream * np.linalg.norm(base @ h) ** 2 + np.linalg.norm(base) ** 2)
    raw **= 2
    signal = raw[rows, partner]
    interference = raw.sum(axis=1, where=off_pair)  # self-interference subtracted
    relay_noise = np.linalg.norm(chains, axis=1) ** 2
    local_noise = np.linalg.norm(processor.receive_vectors, axis=0) ** 2
    gain = (p_stream * alpha_sq)[:, None]
    sinr = gain * signal / (alpha_sq[:, None] * relay_noise + local_noise + gain * interference)
    rates = np.log2(1.0 + sinr).sum(axis=1) / ch.extension
    slopes = np.diff(rates) / np.diff(np.log2(power))
    settled = np.abs(np.diff(slopes)) <= SLOPE_SETTLE_REL * np.abs(slopes[:-1])
    w = int(np.argmax(settled)) + 1 if settled.any() else len(slopes) - 1
    return VerificationReport(
        streams=records,
        counted_d_sum=Fraction(int(decodable.sum()), ch.extension),
        passed=bool(np.all(decodable & (own > DESIRED_COEFF_MIN))),
        slope=float(slopes[w]),
        slope_window_db=(SLOPE_SNR_DB[w], SLOPE_SNR_DB[w + 1]),
    )


def estimate_dof_slope(ch: ChannelSet, units: list[Unit], processor: RelayProcessor) -> float:
    """The sum rate's high-SNR slope: the ``slope`` of :func:`verify_end_to_end`."""
    return verify_end_to_end(ch, units, processor).slope
