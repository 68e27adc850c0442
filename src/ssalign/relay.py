"""Relay projection design, forwarding matrix, and end-to-end verification.

For every unit ``l`` and user pair ``(a, b)`` the relay projects its received
signal onto the orthogonal complement of *all* equivalent uplink vectors
except the pair's own two, so exactly one linear combination of the paired
streams survives per projector.  The downlink side mirrors the uplink: the
same unit construction runs on the transposed downlink channels to produce
receive vectors, and downlink projectors null everything but the pair among
the equivalent downlink vectors.  The relay forwards
``F = alpha * sum_l sum_{a<b} W(l,a,b) @ P(l,a,b)`` with ``alpha`` meeting
the relay power constraint with equality.

Verification is structural: a stream is decodable when its end-to-end scalar
chain keeps both pair coefficients above threshold while every other stream's
coefficient stays below the leakage tolerance.  Channel matrices are
rescaled to unit per-entry RMS before thresholding so the absolute cutoffs
are scale-free.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .channel import ChannelSet, complex_gaussian, derived_rng
from .errors import InvalidSweep, ProjectorCollapse
from .linalg import DEFAULT_TOL, Tolerance, complement_projector
from .units import RANDOM, Unit, build_aligned_unit

__all__ = [
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
# normalizing channels to unit Frobenius norm per antenna.  Separates
# measure-zero degeneracy from numerical noise.
DESIRED_COEFF_MIN = 1e-6


@dataclass
class RelayProcessor:
    """Projection matrices, receive vectors, and the scaled forwarding matrix.

    Projector maps are keyed by ``(unit_index, (a, b))`` with ``a < b``;
    receive vectors by ``(unit_index, (a, b))`` for every ordered pair, where
    ``v`` is applied at user ``a`` to listen for user ``b``'s stream.
    """

    uplink_projectors: dict[tuple[int, tuple[int, int]], np.ndarray]
    downlink_projectors: dict[tuple[int, tuple[int, int]], np.ndarray]
    receive_vectors: dict[tuple[int, tuple[int, int]], np.ndarray]
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


def _stream_keys(units: list[Unit]) -> list[tuple[int, tuple[int, int]]]:
    return [(li, pair) for li, u in enumerate(units) for pair in u.ordered_pairs()]


def _pair_key(a: int, b: int) -> tuple[int, int]:
    return (a, b) if a < b else (b, a)


def build_uplink_projectors(units: list[Unit],
                            tol: Tolerance = DEFAULT_TOL) -> dict:
    """Per-(unit, pair) projectors nulling every other stream in the system."""
    vectors = {(li, pair): units[li].equivalent_uplink[pair]
               for li, pair in _stream_keys(units)}
    return _complement_projectors(vectors, tol, side="uplink")


def _complement_projectors(vectors: dict, tol: Tolerance, side: str) -> dict:
    projectors: dict[tuple[int, tuple[int, int]], np.ndarray] = {}
    by_unit: dict[int, set[tuple[int, int]]] = {}
    for li, pair in vectors:
        by_unit.setdefault(li, set()).add(_pair_key(*pair))
    for li in sorted(by_unit):
        for a, b in sorted(by_unit[li]):
            excluded = {(li, (a, b)), (li, (b, a))}
            others = [v for key, v in vectors.items() if key not in excluded]
            n = len(vectors[(li, (a, b))])
            span = np.column_stack(others) if others else np.empty((n, 0))
            proj = complement_projector(span, tol)
            # The trace of a projector is its rank.  A collapsed projector is
            # rounding noise that still has full relative rank.
            if np.trace(proj).real < 0.5:
                raise ProjectorCollapse(
                    f"{side} projector of unit {li} pair ({a},{b}) has rank zero"
                )
            projectors[(li, (a, b))] = proj
    return projectors


def design_downlink(units: list[Unit], ch: ChannelSet,
                    rng: np.random.Generator | None = None,
                    tol: Tolerance = DEFAULT_TOL) -> tuple[dict, dict]:
    """Receive vectors and downlink projectors by uplink/downlink symmetry.

    Runs the identical unit construction on the transposed downlink channels
    (same groups, same nullspace column blocks; fresh random draws for
    random-direction units), then builds complement projectors over the
    equivalent downlink vectors ``G_a^T v``.
    """
    if rng is None:
        rng = derived_rng(ch.seed, stream=2)
    mirror = ChannelSet(
        m=ch.m, n=ch.n, k=ch.k, extension=ch.extension,
        uplink=tuple(g.T.copy() for g in ch.downlink),
        downlink=ch.downlink, slot_rows=ch.slot_rows, seed=ch.seed,
    )
    receive: dict[tuple[int, tuple[int, int]], np.ndarray] = {}
    equivalent: dict[tuple[int, tuple[int, int]], np.ndarray] = {}
    mt = ch.m * ch.extension
    for li, unit in enumerate(units):
        if unit.pattern_order == RANDOM:
            for pair in unit.ordered_pairs():
                v = complex_gaussian(rng, mt, 1)[:, 0]
                v /= np.linalg.norm(v)
                receive[(li, pair)] = v
                equivalent[(li, pair)] = mirror.uplink[pair[0]] @ v
        else:
            twin = build_aligned_unit(mirror, unit.group, unit.column_block, tol)
            for pair in twin.ordered_pairs():
                receive[(li, pair)] = twin.beamformers[pair]
                equivalent[(li, pair)] = twin.equivalent_uplink[pair]
    projectors = _complement_projectors(equivalent, tol, side="downlink")
    return receive, projectors


def assemble_forward_matrix(units: list[Unit], uplink_projectors: dict,
                            downlink_projectors: dict,
                            power: float = 1.0) -> tuple[np.ndarray, float]:
    """Sum the per-pair W P products and scale to the relay power budget.

    The scale solves ``tr(F E[Y_R Y_R^H] F^H) = power`` exactly, with unit
    per-stream power and unit relay noise variance, so no Monte Carlo noise
    enters the normalization.
    """
    if power <= 0:
        raise ValueError(f"relay power budget must be positive, got {power}")
    if not units:
        return np.zeros((0, 0), dtype=np.complex128), 1.0
    n_active = len(next(iter(units[0].equivalent_uplink.values())))
    base = np.zeros((n_active, n_active), dtype=np.complex128)
    for key, proj in uplink_projectors.items():
        base += downlink_projectors[key] @ proj
    streams = np.column_stack(
        [u.equivalent_uplink[p] for u in units for p in u.ordered_pairs()]
    )
    cov = streams @ streams.conj().T + np.eye(n_active, dtype=np.complex128)
    denom = float(np.trace(base @ cov @ base.conj().T).real)
    if denom <= 0.0:
        raise ProjectorCollapse("forwarding matrix is identically zero")
    alpha = float(np.sqrt(power / denom))
    return alpha * base, alpha


def build_relay_processor(units: list[Unit], ch: ChannelSet, power: float = 1.0,
                          rng: np.random.Generator | None = None,
                          tol: Tolerance = DEFAULT_TOL) -> RelayProcessor:
    """Full relay design: uplink projectors, downlink mirror, forwarding matrix."""
    uplink = build_uplink_projectors(units, tol)
    receive, downlink = design_downlink(units, ch, rng, tol)
    forward, alpha = assemble_forward_matrix(units, uplink, downlink, power)
    return RelayProcessor(
        uplink_projectors=uplink, downlink_projectors=downlink,
        receive_vectors=receive, forward_matrix=forward, power_scale=alpha,
    )


def _entry_rms_scale(a: np.ndarray) -> float:
    norm = np.linalg.norm(a)
    if norm == 0.0:
        return 1.0
    return float(np.sqrt(a.size) / norm)


def _chain_vectors(ch: ChannelSet, units: list[Unit], processor: RelayProcessor,
                   normalized: bool):
    """Stream matrix (columns in key order) and chain rows, from raw channels."""
    up_scale = [_entry_rms_scale(h) if normalized else 1.0 for h in ch.uplink]
    dn_scale = [_entry_rms_scale(g) if normalized else 1.0 for g in ch.downlink]
    h = []
    chains = {}
    for li, pair in _stream_keys(units):
        a = pair[0]
        pk = _pair_key(*pair)
        h.append(up_scale[a] * (ch.uplink[a] @ units[li].beamformers[pair]))
        g = dn_scale[a] * (ch.downlink[a].T @ processor.receive_vectors[(li, pair)])
        chains[(li, pair)] = g @ processor.downlink_projectors[(li, pk)] \
            @ processor.uplink_projectors[(li, pk)]
    return np.column_stack(h), chains


def verify_end_to_end(ch: ChannelSet, units: list[Unit], processor: RelayProcessor,
                      tol: Tolerance = DEFAULT_TOL) -> VerificationReport:
    """Measure every stream's scalar chain and count the decodable DoF.

    For the receiver-side stream ``(a, b)`` of unit ``l`` the chain row is
    ``g(a,b)^T W(l,{a,b}) P(l,{a,b})``; applied to the partner vector
    ``h(b,a)`` it must exceed ``DESIRED_COEFF_MIN``, and applied to any
    stream outside the pair it must stay within ``tol.leakage_abs``.
    Failures are reported, never raised.
    """
    keys = _stream_keys(units)
    if not keys:
        return VerificationReport(streams=[], counted_d_sum=Fraction(0), passed=True)
    h_matrix, chains = _chain_vectors(ch, units, processor, normalized=True)
    index = {key: i for i, key in enumerate(keys)}

    records = []
    decodable = 0
    all_ok = True
    for li, (a, b) in keys:
        coeffs = np.abs(chains[(li, (a, b))] @ h_matrix)
        desired = float(coeffs[index[(li, (b, a))]])
        partner = float(coeffs[index[(li, (a, b))]])
        mask = np.ones(len(keys), dtype=bool)
        mask[index[(li, (b, a))]] = False
        mask[index[(li, (a, b))]] = False
        leakage = float(coeffs[mask].max()) if mask.any() else 0.0
        records.append(StreamRecord(unit=li, pair=(a, b), desired=desired,
                                    partner=partner, leakage=leakage))
        if desired > DESIRED_COEFF_MIN and leakage <= tol.leakage_abs:
            decodable += 1
        if not (desired > DESIRED_COEFF_MIN and partner > DESIRED_COEFF_MIN
                and leakage <= tol.leakage_abs):
            all_ok = False
    return VerificationReport(
        streams=records,
        counted_d_sum=Fraction(decodable, ch.extension),
        passed=all_ok,
    )


def estimate_dof_slope(ch: ChannelSet, units: list[Unit], processor: RelayProcessor,
                       snr_db_list, tol: Tolerance = DEFAULT_TOL) -> float:
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
    if not units:
        return 0.0

    keys = _stream_keys(units)
    h_matrix, chains = _chain_vectors(ch, units, processor, normalized=False)
    index = {key: i for i, key in enumerate(keys)}

    user_gain = np.zeros(ch.k)
    for li, pair in keys:
        user_gain[pair[0]] += float(np.linalg.norm(units[li].beamformers[pair]) ** 2)

    n_active = ch.active_relay
    base = np.zeros((n_active, n_active), dtype=np.complex128)
    for key, proj in processor.uplink_projectors.items():
        base += processor.downlink_projectors[key] @ proj

    rates = []
    for db in snrs:
        power = 10.0 ** (db / 10.0)
        p_stream = power / float(user_gain.max())
        cov = p_stream * (h_matrix @ h_matrix.conj().T) + np.eye(n_active)
        alpha_sq = power / float(np.trace(base @ cov @ base.conj().T).real)
        total = 0.0
        for li, (a, b) in keys:
            chain = chains[(li, (a, b))]
            coeffs = np.abs(chain @ h_matrix) ** 2
            signal = p_stream * alpha_sq * coeffs[index[(li, (b, a))]]
            mask = np.ones(len(keys), dtype=bool)
            mask[index[(li, (b, a))]] = False
            mask[index[(li, (a, b))]] = False  # self-interference subtracted
            interference = p_stream * alpha_sq * float(coeffs[mask].sum())
            relay_noise = alpha_sq * float(np.linalg.norm(chain) ** 2)
            local_noise = float(
                np.linalg.norm(processor.receive_vectors[(li, (a, b))]) ** 2
            )
            sinr = signal / (relay_noise + local_noise + interference)
            total += np.log2(1.0 + sinr)
        rates.append(total / ch.extension)

    log_snrs = [np.log2(10.0 ** (db / 10.0)) for db in snrs]
    slope = np.polyfit(log_snrs, rates, 1)[0]
    return float(slope)
