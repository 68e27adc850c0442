"""Random channel sampling, symbol extension, and relay-antenna deactivation.

Sampling uses numpy's Philox generator (a named, counter-based, portable
bit stream) keyed directly by the configured seed, so a ``SystemConfig``
reproduces bit-identical channels on any platform.  Draw order is fixed:
uplink blocks for users ``0..K-1`` first, then downlink blocks in the same
order; each user's blocks in slot order, each block drawn row-major.

Symbol extension by a factor ``s`` makes every channel block-diagonal over
``s`` slots.  Only the diagonal blocks are stored, one per slot: ``N x M``
uplink and ``M x N`` downlink, fewer relay rows after deactivation;
:func:`slot_product` applies the block-diagonal matrix.  Extended transmit
vectors are slot-major (``M`` entries per slot) and relay rows likewise.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidDeactivation, ShapeMismatch

__all__ = [
    "SystemConfig",
    "ChannelSet",
    "sample_channel_set",
    "deactivate_relay_antennas",
    "channel_to_json",
    "channel_from_json",
    "complex_gaussian",
    "derived_rng",
    "slot_product",
    "complex_to_pairs",
]


@dataclass(frozen=True)
class SystemConfig:
    """Antenna counts, user count, extension factor, and seed.

    ``K = 2`` is excluded: the two-user exchange is a solved problem and the
    constructions here start from three users.
    """

    m: int
    n: int
    k: int
    extension: int = 1
    seed: int = 0

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

    ``uplink[k][i]`` is user ``k``'s slot-``i`` block, mapping its ``M``
    transmit antennas to the slot's active relay rows; ``downlink[k][i]``
    maps those rows to user ``k``'s ``M`` receive antennas.  ``extension``
    (the number of slots), ``slot_rows`` (the active relay rows of each
    slot) and ``active_relay`` (their sum) are read from the block shapes,
    which must agree across users and links.  ``seed`` is the seed the
    channels were sampled from; it keys the unit, mixing and downlink RNG
    substreams and is ignored by ``==``.  Instances are treated as immutable
    and are safe to share across threads.
    """

    m: int
    n: int
    k: int
    uplink: tuple[tuple[np.ndarray, ...], ...]
    downlink: tuple[tuple[np.ndarray, ...], ...]
    seed: int = field(compare=False)

    def __post_init__(self) -> None:
        rows = self.slot_rows if self.uplink else ()
        up, down = [(r, self.m) for r in rows], [(self.m, r) for r in rows]
        if (not rows or [[h.shape for h in b] for b in self.uplink] != [up] * self.k
                or [[g.shape for g in b] for b in self.downlink] != [down] * self.k):
            raise ShapeMismatch(f"every user needs uplink blocks {up} and downlink blocks {down}")

    @property
    def extension(self) -> int:
        return len(self.uplink[0])

    @property
    def slot_rows(self) -> tuple[int, ...]:
        return tuple(h.shape[0] for h in self.uplink[0])

    @property
    def active_relay(self) -> int:
        return sum(self.slot_rows)


def complex_gaussian(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    """Circularly-symmetric complex Gaussian matrix, unit variance per entry.

    Draws the real parts, then the imaginary parts, row-major.  A unit
    direction in ``C^size`` is ``complex_gaussian(rng, size, 1)[:, 0]``
    divided by its norm.
    """
    re = rng.standard_normal((rows, cols))
    im = rng.standard_normal((rows, cols))
    return (re + 1j * im) / np.sqrt(2.0)


def derived_rng(seed: int, *key: int) -> np.random.Generator:
    """Philox generator on the substream ``key`` of a base seed.

    Substreams are spawned with ``SeedSequence(seed, spawn_key=key)`` and
    are independent of each other and of the raw-keyed channel stream.
    """
    ss = np.random.SeedSequence(entropy=seed, spawn_key=key)
    return np.random.Generator(np.random.Philox(ss))


def sample_channel_set(cfg: SystemConfig) -> ChannelSet:
    """Draw one i.i.d. complex Gaussian channel realization for ``cfg``."""
    rng = np.random.Generator(np.random.Philox(key=cfg.seed))

    def slots(rows: int, cols: int) -> tuple[np.ndarray, ...]:
        return tuple(complex_gaussian(rng, rows, cols) for _ in range(cfg.extension))

    uplink = tuple(slots(cfg.n, cfg.m) for _ in range(cfg.k))
    downlink = tuple(slots(cfg.m, cfg.n) for _ in range(cfg.k))
    return ChannelSet(m=cfg.m, n=cfg.n, k=cfg.k, uplink=uplink, downlink=downlink,
                      seed=cfg.seed)


def deactivate_relay_antennas(ch: ChannelSet, n_active: int) -> ChannelSet:
    """Keep only ``n_active`` relay rows (and downlink columns).

    Rows are dropped slot by slot, always from the slot that currently keeps
    the most (later slots first on ties), so every extension slot keeps a
    prefix of its rows, and no slot goes dark while another keeps two or
    more.  With ``extension == 1`` this is exactly a row prefix.
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
    up = tuple(tuple(h[:r].copy() for h, r in zip(blocks, counts)) for blocks in ch.uplink)
    down = tuple(tuple(g[:, :r].copy() for g, r in zip(blocks, counts)) for blocks in ch.downlink)
    return ChannelSet(m=ch.m, n=ch.n, k=ch.k, uplink=up, downlink=down, seed=ch.seed)


def slot_product(blocks: tuple[np.ndarray, ...], x: np.ndarray) -> np.ndarray:
    """``blockdiag(*blocks) @ x``; block ``i`` acts on row segment ``i`` of ``x``.

    For a downlink transpose ``G^T x`` pass ``tuple(g.T for g in blocks)``.
    """
    cols = blocks[0].shape[1]
    return np.concatenate([b @ x[i * cols:(i + 1) * cols] for i, b in enumerate(blocks)])


def complex_to_pairs(a: np.ndarray) -> list:
    """Nested lists of ``[re, im]`` Python floats, one pair per entry of ``a``.

    Works for vectors and matrices alike; the floats are those of
    ``[float(z.real), float(z.imag)]``, signed zeros included.
    """
    return np.stack([a.real, a.imag], axis=-1).tolist()


def _matrix_from_pairs(rows: list, cols: int) -> np.ndarray:
    """Inverse of :func:`complex_to_pairs`; ``cols`` sizes a matrix without entries."""
    pairs = np.asarray(rows, dtype=np.float64)
    if pairs.size == 0:
        return np.empty((len(rows), cols), dtype=np.complex128)
    return pairs[..., 0] + 1j * pairs[..., 1]


def channel_to_json(ch: ChannelSet) -> dict:
    """Serialize to ``{"m", "n", "k", "seed", "uplink", "downlink"}``.

    ``uplink[k][i]`` is user ``k``'s slot-``i`` block, rows of ``[re, im]``
    pairs, and likewise ``downlink[k][i]``; the slot count and deactivation
    are implied by the blocks.  The document replays exact instances in bug
    reports: the seed keys the unit, mixing and downlink RNG substreams, so a
    replayed build draws the same random directions.
    """
    return {
        "m": ch.m,
        "n": ch.n,
        "k": ch.k,
        "seed": ch.seed,
        "uplink": [[complex_to_pairs(h) for h in blocks] for blocks in ch.uplink],
        "downlink": [[complex_to_pairs(g) for g in blocks] for blocks in ch.downlink],
    }


def channel_from_json(doc: dict) -> ChannelSet:
    """Rebuild a :class:`ChannelSet` from :func:`channel_to_json` output.

    Raises ``ValueError`` unless ``doc["seed"]`` is an integer in
    ``[0, 2**64)``, so that a replay draws the original random directions,
    and unless the block shapes agree across users and links.
    """
    seed = doc.get("seed")
    if type(seed) is not int or not 0 <= seed < 2**64:
        raise ValueError(f"channel document needs a seed in [0, 2**64), got {seed!r}")
    m = doc["m"]
    up = tuple(tuple(_matrix_from_pairs(h, m) for h in blocks) for blocks in doc["uplink"])
    down = tuple(tuple(_matrix_from_pairs(g, 0) for g in blocks) for blocks in doc["downlink"])
    return ChannelSet(m=m, n=doc["n"], k=doc["k"], uplink=up, downlink=down, seed=seed)
