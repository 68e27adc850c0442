"""Random channel sampling, symbol extension, and relay-antenna deactivation.

Sampling uses numpy's Philox generator (a named, counter-based, portable
bit stream) keyed directly by the configured seed, so a ``SystemConfig``
reproduces bit-identical channels on any platform.  Draw order is fixed:
uplink matrices for users ``0..K-1`` first, then downlink matrices in the
same order, each block drawn row-major.

Symbol extension by a factor ``s`` replaces each ``N x M`` uplink matrix with
a block-diagonal ``sN x sM`` matrix of independently drawn per-slot blocks,
and likewise for the ``M x N`` downlink matrices.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import block_diag

from .errors import InvalidDeactivation, ShapeMismatch
from .linalg import DEFAULT_TOL, Tolerance

__all__ = [
    "SystemConfig",
    "ChannelSet",
    "sample_channel_set",
    "deactivate_relay_antennas",
    "channel_to_json",
    "channel_from_json",
    "complex_gaussian",
    "derived_rng",
    "complex_to_pairs",
]


@dataclass(frozen=True)
class SystemConfig:
    """Antenna counts, user count, extension factor, seed, and tolerances.

    ``K = 2`` is excluded: the two-user exchange is a solved problem and the
    constructions here start from three users.
    """

    m: int
    n: int
    k: int
    extension: int = 1
    seed: int = 0
    tol: Tolerance = DEFAULT_TOL

    def __post_init__(self) -> None:
        if self.k < 3:
            raise ValueError(f"user count must be >= 3, got {self.k}")
        if self.m < 1 or self.n < 1:
            raise ValueError(f"antenna counts must be positive, got M={self.m}, N={self.n}")
        if self.extension < 1:
            raise ValueError(f"extension factor must be positive, got {self.extension}")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must be an unsigned 64-bit integer")


@dataclass(frozen=True)
class ChannelSet:
    """One channel realization, possibly extended and/or deactivated.

    ``uplink[k]`` maps user ``k``'s transmit antennas to the active relay
    rows; ``downlink[k]`` maps active relay columns to user ``k``'s receive
    antennas.  ``slot_rows[i]`` counts the relay rows still active in
    extension slot ``i``; their sum is ``active_relay``.  Instances are
    treated as immutable and are safe to share across threads.
    """

    m: int
    n: int
    k: int
    extension: int
    uplink: tuple[np.ndarray, ...]
    downlink: tuple[np.ndarray, ...]
    slot_rows: tuple[int, ...]
    seed: int | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        active = sum(self.slot_rows)
        mt = self.m * self.extension
        if len(self.uplink) != self.k or len(self.downlink) != self.k:
            raise ShapeMismatch("need one uplink and one downlink matrix per user")
        for h in self.uplink:
            if h.shape != (active, mt):
                raise ShapeMismatch(f"uplink shape {h.shape} != {(active, mt)}")
        for g in self.downlink:
            if g.shape != (mt, active):
                raise ShapeMismatch(f"downlink shape {g.shape} != {(mt, active)}")

    @property
    def active_relay(self) -> int:
        return sum(self.slot_rows)


def complex_gaussian(rng: np.random.Generator, rows: int, cols: int,
                     extension: int = 1) -> np.ndarray:
    """Circularly-symmetric complex Gaussian matrix, unit variance per entry.

    Each ``rows x cols`` block draws its real parts, then its imaginary
    parts, row-major.  With ``extension > 1`` the result is block-diagonal
    with ``extension`` independent blocks drawn in slot order.  A unit
    direction in ``C^size`` is ``complex_gaussian(rng, size, 1)[:, 0]``
    divided by its norm.
    """
    blocks = [
        (rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols)))
        / np.sqrt(2.0)
        for _ in range(extension)
    ]
    return block_diag(*blocks) if extension > 1 else blocks[0]


def derived_rng(seed: int | None, stream: int) -> np.random.Generator:
    """Philox generator on substream ``stream`` of a base seed.

    Substreams are spawned with ``SeedSequence(seed, spawn_key=(stream,))``
    and are independent of the raw-keyed channel stream.
    """
    ss = np.random.SeedSequence(entropy=0 if seed is None else seed, spawn_key=(stream,))
    return np.random.Generator(np.random.Philox(ss))


def sample_channel_set(cfg: SystemConfig) -> ChannelSet:
    """Draw one i.i.d. complex Gaussian channel realization for ``cfg``."""
    rng = np.random.Generator(np.random.Philox(key=cfg.seed))
    uplink = tuple(complex_gaussian(rng, cfg.n, cfg.m, cfg.extension) for _ in range(cfg.k))
    downlink = tuple(complex_gaussian(rng, cfg.m, cfg.n, cfg.extension) for _ in range(cfg.k))
    return ChannelSet(
        m=cfg.m, n=cfg.n, k=cfg.k, extension=cfg.extension,
        uplink=uplink, downlink=downlink,
        slot_rows=(cfg.n,) * cfg.extension, seed=cfg.seed,
    )


def deactivate_relay_antennas(ch: ChannelSet, n_active: int) -> ChannelSet:
    """Keep only ``n_active`` relay rows (and downlink columns).

    Rows are dropped slot by slot, always from the slot that currently keeps
    the most (later slots first on ties), so every extension slot retains a
    prefix of its antennas and no transmit column goes dark.  With
    ``extension == 1`` this is exactly a row prefix.
    """
    if int(n_active) != n_active or n_active < 1:
        raise InvalidDeactivation(f"active count must be a positive integer, got {n_active}")
    n_active = int(n_active)
    if n_active > ch.active_relay:
        raise InvalidDeactivation(
            f"cannot activate {n_active} of {ch.active_relay} remaining antennas"
        )
    counts = list(ch.slot_rows)
    for _ in range(ch.active_relay - n_active):
        drop = max(range(len(counts)), key=lambda i: (counts[i], i))
        counts[drop] -= 1
    keep: list[int] = []
    offset = 0
    for old, new in zip(ch.slot_rows, counts):
        keep.extend(range(offset, offset + new))
        offset += old
    idx = np.asarray(keep, dtype=int)
    return ChannelSet(
        m=ch.m, n=ch.n, k=ch.k, extension=ch.extension,
        uplink=tuple(h[idx, :].copy() for h in ch.uplink),
        downlink=tuple(g[:, idx].copy() for g in ch.downlink),
        slot_rows=tuple(counts), seed=ch.seed,
    )


def complex_to_pairs(a: np.ndarray) -> list:
    """Nested lists of ``[re, im]`` Python floats, one pair per entry of ``a``.

    Works for vectors and matrices alike; the floats are those of
    ``[float(z.real), float(z.imag)]``, signed zeros included.
    """
    return np.stack([a.real, a.imag], axis=-1).tolist()


def _matrix_from_pairs(rows: list) -> np.ndarray:
    if not rows:
        return np.empty((0, 0), dtype=np.complex128)
    return np.array([[complex(re, im) for re, im in row] for row in rows], dtype=np.complex128)


def channel_to_json(ch: ChannelSet) -> dict:
    """Serialize to ``{"m", "n", "k", "ext", "seed", "uplink", "downlink"}``.

    Entries are ``[re, im]`` pairs; the document replays exact instances in
    bug reports.  Deactivation is implied by the matrix shapes.  The seed
    (``null`` when unknown) keys the unit and downlink RNG substreams, so a
    replayed build draws the same random directions.
    """
    return {
        "m": ch.m,
        "n": ch.n,
        "k": ch.k,
        "ext": ch.extension,
        "seed": ch.seed,
        "uplink": [complex_to_pairs(h) for h in ch.uplink],
        "downlink": [complex_to_pairs(g) for g in ch.downlink],
    }


def channel_from_json(doc: dict | str) -> ChannelSet:
    """Rebuild a :class:`ChannelSet` from :func:`channel_to_json` output.

    Documents written without a ``"seed"`` load with ``seed=None``.
    """
    if isinstance(doc, str):
        doc = json.loads(doc)
    m, n, k, ext = doc["m"], doc["n"], doc["k"], doc["ext"]
    uplink = tuple(_matrix_from_pairs(rows) for rows in doc["uplink"])
    downlink = tuple(_matrix_from_pairs(rows) for rows in doc["downlink"])
    if ext == 1:
        slot_rows = (uplink[0].shape[0],)
    else:
        # Rows of a block-diagonal matrix live in exactly one column block;
        # recover each kept row's slot from its nonzero block.
        counts = [0] * ext
        for row in uplink[0]:
            norms = [np.linalg.norm(row[j * m:(j + 1) * m]) for j in range(ext)]
            counts[int(np.argmax(norms))] += 1
        slot_rows = tuple(counts)
    return ChannelSet(
        m=m, n=n, k=k, extension=ext,
        uplink=uplink, downlink=downlink, slot_rows=slot_rows, seed=doc.get("seed"),
    )
