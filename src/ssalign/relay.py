"""Relay projection design, forwarding matrix, and end-to-end verification.

For every unit ``l`` and user pair ``(a, b)`` the relay projects its received
signal onto the orthogonal complement of *all* equivalent uplink vectors
except the pair's own two, so exactly one linear combination of the paired
streams survives per projector; that survival is tested for every pair of
every unit on both links while the projector factors are computed.  The
downlink side mirrors the uplink: the same unit construction runs on the
conjugate-transposed downlink ``G_a^H`` to produce receive vectors ``v``,
and downlink projectors null everything but the pair among the vectors
``G_a^H v = (v^H G_a)^H`` of the users' rows.  The relay forwards
``F = alpha * sum_l sum_{a<b} W(l,a,b) @ P(l,a,b)`` with ``alpha`` meeting
the unit relay power budget with equality.

No projector is stored densely.  Each side keeps one orthonormal basis ``Q``
of all its streams and, per pair, a thin orthonormal ``Z``; the pair's
projector is ``I - Q Q^H + Z Z^H``, and ``F`` is assembled from these
factors directly.

Verification is structural: a stream is decodable when its chain through ``F``
keeps both pair coefficients above threshold while every other stream's
coefficient stays within :data:`~ssalign.linalg.LEAKAGE_ABS`.  The chains
are measured on the raw channels, and each coefficient is then scaled by the
inverse per-entry RMS of its receiver's downlink and its sender's uplink, so
the absolute cutoffs are scale-free; the RMS is that of the whole
``N_active x M*ext`` block-diagonal matrix, its structural zeros counted.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .channel import ChannelSet, derived_rng, slot_product
from .errors import (AlignmentDegenerate, ConstructionError, IndependenceViolation,
                     InvalidSweep, ProjectorCollapse)
from .linalg import LEAKAGE_ABS, nullspace_basis, range_basis
from .units import Unit, _build_units

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

Key = tuple[int, tuple[int, int]]


@dataclass(frozen=True, eq=False)
class PairProjectors:
    """One side's per-pair complement projectors, stored as low-rank factors.

    ``basis`` is an orthonormal basis ``Q`` of every stream on that side.
    ``factors[(l, (a, b))]`` is an orthonormal ``Z`` spanning the directions
    of ``span(Q)`` orthogonal to every stream except the pair's two, so the
    pair's projector is ``I - Q Q^H + Z Z^H``.  ``==`` is identity.
    """

    basis: np.ndarray
    factors: dict[Key, np.ndarray]


@dataclass(eq=False)
class RelayProcessor:
    """Projector factors, receive vectors, and the scaled forwarding matrix.

    ``uplink_projectors[(l, (a, b))]`` is the factor ``Z`` of the uplink
    projector ``I - Q Q^H + Z Z^H`` with ``Q = uplink_basis``, keyed with
    ``a < b``; the downlink fields mirror it.  ``receive_vectors`` is an
    ``M*ext x streams`` matrix with one column per stream ``(l, (a, b))``,
    in the order of the units and then of each unit's ``pairs``: the twins'
    beamformers on ``G^H``.  User ``a`` combines its received ``y`` as ``v^H y``
    to listen for user ``b``'s stream.  ``==`` is identity.
    """

    uplink_basis: np.ndarray
    uplink_projectors: dict[Key, np.ndarray]
    downlink_basis: np.ndarray
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
    """Per-stream measurements plus the counted, constructive DoF."""

    streams: list[StreamRecord]
    counted_d_sum: Fraction
    passed: bool


def build_uplink_projectors(units: list[Unit]) -> PairProjectors:
    """Per-(unit, pair) projectors nulling every other stream in the system."""
    return _complement_projectors(units, side="uplink")


def _complement_projectors(units: list[Unit], side: str) -> PairProjectors:
    """Factor every pair's complement projector through one oblique basis change.

    The streams are the columns of the units' ``equivalent_uplink``, which
    are ``G_a^H v`` for downlink twins.  The unit bases ``B_l`` must span a
    direct sum ``span(B_1) + ... + span(B_L) = span(Q)``, the link's one
    joint-independence check; else :class:`~ssalign.errors.IndependenceViolation`
    names the side.  So the rows of ``C^-1 Q^H`` with ``C = Q^H [B_1 .. B_L]``
    give each vector of ``span(Q)`` its coordinates in every unit basis.  A
    direction ``R_l^H y`` built from unit ``l``'s rows is orthogonal to all
    other units, and to the rest of unit ``l`` exactly when ``y`` is, so one
    small nullspace in unit coordinates yields the pair's factor ``Z``.

    The same ``y`` tests the pair's survival: each of its streams ``h`` must
    keep ``|y^H B_l^H h| >= PAIR_SURVIVAL_MIN * |h| > 0`` off the rest of
    its unit, else :class:`~ssalign.errors.AlignmentDegenerate` names the
    side, unit, group, column block and pair; so ``Z`` is never empty.
    """
    q = range_basis(np.hstack([u.equivalent_uplink for u in units]))
    unit_bases = [u.basis for u in units]
    widths = sum(b.shape[1] for b in unit_bases)
    if widths != q.shape[1]:
        raise IndependenceViolation(
            f"{side} unit spans overlap: their dimensions sum to {widths}, "
            f"jointly they span {q.shape[1]}"
        )
    coords = np.linalg.solve(q.conj().T @ np.hstack(unit_bases), q.conj().T)
    projectors: dict[Key, np.ndarray] = {}
    offset = 0
    for li, (unit, basis) in enumerate(zip(units, unit_bases)):
        rows = coords[offset:offset + basis.shape[1]]
        offset += basis.shape[1]
        local = basis.conj().T @ unit.equivalent_uplink
        norms = np.linalg.norm(unit.equivalent_uplink, axis=0)
        keys = [tuple(sorted(pair)) for pair in unit.pairs]
        for a, b in sorted(set(keys)):
            own = [i for i, key in enumerate(keys) if key == (a, b)]
            rest = [i for i, key in enumerate(keys) if key != (a, b)]
            y = nullspace_basis(local[:, rest].conj().T)
            kept = np.linalg.norm(y.conj().T @ local[:, own], axis=0)
            if np.any((norms[own] == 0.0) | (kept < PAIR_SURVIVAL_MIN * norms[own])):
                raise AlignmentDegenerate(
                    f"{side} pair ({a},{b}) of unit {li} (group {unit.group}, column block "
                    f"{unit.column_block}) does not survive the rest of its unit")
            projectors[(li, (a, b))] = np.linalg.qr(rows.conj().T @ y)[0]
    return PairProjectors(q, projectors)


def design_downlink(units: list[Unit], ch: ChannelSet) -> tuple[np.ndarray, PairProjectors]:
    """Receive vectors and downlink projectors by uplink/downlink symmetry.

    Builds a twin of every unit with the uplink's own unit builders on the
    conjugate-transposed downlink ``G_a^H`` (same group and column block; for
    random units, fresh draws from RNG substream 2 of ``ch.seed``), so every
    twin passes the same span checks; a failing twin's error names its unit.
    The twins' beamformers side by side are the receive vectors ``v``, and
    their equivalent vectors ``G_a^H v = (v^H G_a)^H`` give the complement
    projectors, so each pair's ``W`` nulls the other pairs' rows ``v^H G_a``.
    """
    mirror = ChannelSet(m=ch.m, n=ch.n, k=ch.k, uplink=ch.downlink.swapaxes(2, 3).conj(),
                        downlink=ch.downlink, seed=ch.seed)
    specs = [(u.pattern_order, u.group, u.column_block) for u in units]
    twins: list[Unit] = []
    try:
        for twin in _build_units(mirror, specs, derived_rng(ch.seed, 2)):
            twins.append(twin)
    except ConstructionError as exc:
        raise type(exc)(f"downlink twin of unit {len(twins)}: {exc}") from exc
    receive = np.hstack([twin.beamformers for twin in twins])
    projectors = _complement_projectors(twins, side="downlink")
    return receive, projectors


def _stacked_factors(side: PairProjectors, keys: list[Key]):
    """The factors of ``keys`` side by side, and the key index of each column."""
    factors = [side.factors[key] for key in keys]
    owner = np.repeat(np.arange(len(keys)), [z.shape[1] for z in factors])
    return np.hstack(factors), owner


def assemble_forward_matrix(units: list[Unit], uplink_projectors: PairProjectors,
                            downlink_projectors: PairProjectors) -> tuple[np.ndarray, float]:
    """Sum the per-pair W P products and scale to the relay power budget.

    With ``P = A + Z_u Z_u^H`` and ``W = D + Z_d Z_d^H``, where ``A`` and
    ``D`` are the two sides' shared complements ``I - Q Q^H``, the sum over
    ``p`` pairs is ``p D A + D Z_u Z_u^H + Z_d Z_d^H A`` plus the pairwise
    ``Z_d (Z_d^H Z_u) Z_u^H`` terms, each a product of stacked factors.  The
    scale solves ``tr(F E[Y_R Y_R^H] F^H) = 1`` exactly, the unit relay power
    budget, with unit per-stream power and unit relay noise variance, so no
    Monte Carlo noise enters the normalization.
    """
    keys = list(uplink_projectors.factors)
    zu, owner_u = _stacked_factors(uplink_projectors, keys)
    zd, owner_d = _stacked_factors(downlink_projectors, keys)
    qu, qd = uplink_projectors.basis, downlink_projectors.basis
    eye = np.eye(qu.shape[0], dtype=np.complex128)
    a = eye - qu @ qu.conj().T
    d = eye - qd @ qd.conj().T
    own = (zd.conj().T @ zu) * np.equal.outer(owner_d, owner_u)
    base = len(keys) * (d @ a) + (d @ zu) @ zu.conj().T + zd @ (zd.conj().T @ a) \
        + zd @ own @ zu.conj().T
    streams = np.hstack([u.equivalent_uplink for u in units])
    # tr(B (S S^H + I) B^H) = ||B S||^2 + ||B||^2
    denom = float(np.linalg.norm(base @ streams) ** 2 + np.linalg.norm(base) ** 2)
    if denom <= 0.0:
        raise ProjectorCollapse("forwarding matrix is identically zero")
    alpha = float(np.sqrt(1.0 / denom))
    return alpha * base, alpha


def build_relay_processor(units: list[Unit], ch: ChannelSet) -> RelayProcessor:
    """Full relay design: uplink projectors, downlink mirror, forwarding matrix."""
    uplink = build_uplink_projectors(units)
    receive, downlink = design_downlink(units, ch)
    forward, alpha = assemble_forward_matrix(units, uplink, downlink)
    return RelayProcessor(
        uplink_basis=uplink.basis, uplink_projectors=uplink.factors,
        downlink_basis=downlink.basis, downlink_projectors=downlink.factors,
        receive_vectors=receive, forward_matrix=forward, power_scale=alpha,
    )


def _entry_rms_scale(blocks: np.ndarray) -> float:
    """Inverse per-entry RMS of the block-diagonal channel, structural zeros counted."""
    ext, rows, cols = blocks.shape
    norm = np.linalg.norm(blocks)
    return float(np.sqrt(ext * rows * ext * cols) / norm) if norm else 1.0


def _stream_chains(ch: ChannelSet, units: list[Unit], processor: RelayProcessor):
    """Every stream's measurement inputs on the raw channels, in stream-key order.

    The keys ``(l, (a, b))``, the partner indices (of ``(l, (b, a))``), the
    senders ``a`` (also the users the chain rows listen at), the beamformers,
    the images ``H_a u`` recomputed from them, and the chain rows
    ``v^H G_a F / alpha`` through the forwarding matrix the relay applies.
    """
    keys = [(li, pair) for li, u in enumerate(units) for pair in u.pairs]
    index = {key: i for i, key in enumerate(keys)}
    partner = np.array([index[(li, (b, a))] for li, (a, b) in keys])
    senders = np.array([a for _, (a, _) in keys])
    beams = np.hstack([u.beamformers for u in units])
    h = np.empty((ch.active_relay, len(keys)), dtype=np.complex128)
    g = np.empty((len(keys), ch.active_relay), dtype=np.complex128)
    for a in range(ch.k):
        cols = senders == a
        h[:, cols] = slot_product(ch.uplink[a], beams[:, cols])
        g[cols] = slot_product(ch.downlink[a].swapaxes(1, 2),
                               processor.receive_vectors[:, cols].conj()).T
    chains = g @ (processor.forward_matrix / processor.power_scale)
    return keys, partner, senders, beams, h, chains


def _without_pair(coeffs: np.ndarray, partner: np.ndarray) -> np.ndarray:
    """Copy of the chain coefficients with each row's own pair zeroed."""
    rows = np.arange(len(partner))
    rest = coeffs.copy()
    rest[rows, rows] = 0.0
    rest[rows, partner] = 0.0
    return rest


def verify_end_to_end(ch: ChannelSet, units: list[Unit],
                      processor: RelayProcessor) -> VerificationReport:
    """Measure every stream's scalar chain and count the decodable DoF.

    For the receiver-side stream ``(a, b)`` of unit ``l`` the chain row is
    ``v(a,b)^H G_a F / alpha`` with the whole ``F``; applied to the partner vector
    ``h(b,a)`` it must exceed ``DESIRED_COEFF_MIN``, and applied to any
    stream outside the pair it must stay within :data:`~ssalign.linalg.LEAKAGE_ABS`.
    Both cutoffs apply after the per-user RMS scaling of the module docstring,
    done on the measured coefficients: exact, as the chains are linear in ``G_a``.
    Failures are reported, never raised.
    """
    keys, partner, senders, _, h, chains = _stream_chains(ch, units, processor)
    up = np.array([_entry_rms_scale(blocks) for blocks in ch.uplink])
    dn = np.array([_entry_rms_scale(blocks) for blocks in ch.downlink])
    coeffs = np.abs(chains @ h) * np.outer(dn[senders], up[senders])
    rows = np.arange(len(keys))
    desired = coeffs[rows, partner]
    own = coeffs[rows, rows]
    leakage = _without_pair(coeffs, partner).max(axis=1)
    decodable = (desired > DESIRED_COEFF_MIN) & (leakage <= LEAKAGE_ABS)
    records = [StreamRecord(unit=li, pair=pair, desired=float(d), partner=float(o),
                            leakage=float(x))
               for (li, pair), d, o, x in zip(keys, desired, own, leakage)]
    return VerificationReport(
        streams=records,
        counted_d_sum=Fraction(int(decodable.sum()), ch.extension),
        passed=bool(np.all(decodable & (own > DESIRED_COEFF_MIN))),
    )


def estimate_dof_slope(ch: ChannelSet, units: list[Unit], processor: RelayProcessor,
                       snr_db_list) -> float:
    """Least-squares slope of achievable sum rate against log2(SNR).

    The rate at each SNR is ``sum_streams log2(1 + SINR)`` per channel use,
    with uniform per-stream transmit power meeting every user's budget,
    forwarded relay noise and local receiver noise (unit variance each) in
    the denominator, and self-interference removed.  Approaches the counted
    DoF as the sweep moves to high SNR.
    """
    snrs = list(snr_db_list)
    if len(snrs) < 2 or any(b <= a for a, b in zip(snrs, snrs[1:])):
        raise InvalidSweep(f"need >= 2 ascending SNR points, got {snrs}")

    _, partner, senders, beams, h_matrix, chains = _stream_chains(ch, units, processor)
    gains = np.linalg.norm(beams, axis=0) ** 2
    user_gain = np.bincount(senders, weights=gains, minlength=ch.k)

    # Everything but the SNR-dependent scalars is computed once.
    base = processor.forward_matrix / processor.power_scale
    stream_power = float(np.linalg.norm(base @ h_matrix) ** 2)
    noise_power = float(np.linalg.norm(base) ** 2)
    coeffs = np.abs(chains @ h_matrix) ** 2
    signal = coeffs[np.arange(len(partner)), partner]
    interference = _without_pair(coeffs, partner).sum(axis=1)  # self-interference subtracted
    relay_noise = np.linalg.norm(chains, axis=1) ** 2
    local_noise = np.linalg.norm(processor.receive_vectors, axis=0) ** 2

    rates = []
    for db in snrs:
        power = 10.0 ** (db / 10.0)
        p_stream = power / float(user_gain.max())
        alpha_sq = power / (p_stream * stream_power + noise_power)
        sinr = p_stream * alpha_sq * signal / (
            alpha_sq * relay_noise + local_noise + p_stream * alpha_sq * interference
        )
        rates.append(float(np.log2(1.0 + sinr).sum()) / ch.extension)

    log_snrs = [np.log2(10.0 ** (db / 10.0)) for db in snrs]
    slope = np.polyfit(log_snrs, rates, 1)[0]
    return float(slope)
