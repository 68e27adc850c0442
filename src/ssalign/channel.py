"""Random channel sampling, symbol extension, and relay-antenna deactivation.

Sampling uses numpy's Philox generator (a named, counter-based, portable
bit stream) keyed directly by the configured seed, so a ``SystemConfig``
reproduces bit-identical channels on any platform.  Draw order is fixed:
uplink blocks for users ``0..K-1`` first, then downlink blocks in the same
order; each user's blocks in slot order, each block drawn row-major.

Symbol extension by a factor ``s`` makes every channel block-diagonal over
``s`` slots.  Only the diagonal blocks are stored, one array per link, and
every slot keeps the same relay rows (``N``, fewer after deactivation);
:func:`slot_product` applies a user's block-diagonal matrix.  Extended
transmit vectors are slot-major (``M`` entries per slot) and relay rows
likewise.

Documents write every complex array as one object, ``{"shape": [...],
"base64": ...}``: the base64 text of the array's C-order little-endian
``complex128`` bytes (:func:`array_to_json`, read back bit for bit by
:func:`array_from_json`).
"""

from __future__ import annotations

import base64
import math
import operator
from dataclasses import dataclass

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
    "array_to_json",
    "array_from_json",
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
        # Plain ints, as in dof._validate_mnk: JSON cannot encode numpy integers.
        for name in ("m", "n", "k", "extension", "seed"):
            object.__setattr__(self, name, operator.index(getattr(self, name)))
        if self.k < 3:
            raise ValueError(f"user count must be >= 3, got {self.k}")
        if self.m < 1 or self.n < 1:
            raise ValueError(f"antenna counts must be positive, got M={self.m}, N={self.n}")
        if self.extension < 1:
            raise ValueError(f"extension factor must be positive, got {self.extension}")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must be an unsigned 64-bit integer")


@dataclass(frozen=True, eq=False)
class ChannelSet:
    """One channel realization, possibly extended and/or deactivated.

    ``uplink`` is a ``K x ext x rows x M`` array whose ``uplink[k][i]`` maps
    user ``k``'s ``M`` transmit antennas to slot ``i``'s active relay rows;
    ``downlink`` is ``K x ext x M x rows`` and maps them back to each user's
    receive antennas.  ``extension`` (``ext``) and ``active_relay`` (``ext *
    rows``) are read from the shapes.  ``seed`` is the seed the channels were
    sampled from; it keys the unit, mixing and downlink RNG substreams and is
    ignored by ``==``, which compares the counts and the arrays.  Instances
    are treated as immutable and are safe to share across threads.
    """

    m: int
    n: int
    k: int
    uplink: np.ndarray
    downlink: np.ndarray
    seed: int

    def __post_init__(self) -> None:
        _, ext, rows, _ = self.uplink.shape if self.uplink.ndim == 4 else (0,) * 4
        up, down = (self.k, ext, rows, self.m), (self.k, ext, self.m, rows)
        if not ext * rows or (self.uplink.shape, self.downlink.shape) != (up, down):
            raise ShapeMismatch(f"need an uplink of shape {up} and a downlink of shape {down}")
        if rows > self.n:
            raise ShapeMismatch(f"{rows} relay rows per slot exceed the {self.n} relay antennas")

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, ChannelSet)
                and (self.m, self.n, self.k) == (other.m, other.n, other.k)
                and np.array_equal(self.uplink, other.uplink)
                and np.array_equal(self.downlink, other.downlink))

    @property
    def extension(self) -> int:
        return self.uplink.shape[1]

    @property
    def active_relay(self) -> int:
        return self.uplink.shape[1] * self.uplink.shape[2]


def complex_gaussian(rng: np.random.Generator, *shape: int) -> np.ndarray:
    """Circularly-symmetric complex Gaussian array of ``shape``, unit variance per entry.

    ``shape`` ends in ``rows, cols``.  One ``standard_normal`` of
    ``(*shape[:-2], 2, rows, cols)`` draws, matrix by matrix in C order, the
    real parts and then the imaginary parts, row-major, so one call equals
    one ``complex_gaussian(rng, rows, cols)`` per matrix.  A unit direction
    in ``C^size`` is ``complex_gaussian(rng, size, 1)[:, 0]`` divided by its
    norm.
    """
    *lead, rows, cols = shape
    draws = rng.standard_normal((*lead, 2, rows, cols))
    return (draws[..., 0, :, :] + 1j * draws[..., 1, :, :]) / np.sqrt(2.0)


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
    uplink = complex_gaussian(rng, cfg.k, cfg.extension, cfg.n, cfg.m)
    downlink = complex_gaussian(rng, cfg.k, cfg.extension, cfg.m, cfg.n)
    return ChannelSet(m=cfg.m, n=cfg.n, k=cfg.k, uplink=uplink, downlink=downlink,
                      seed=cfg.seed)


def deactivate_relay_antennas(ch: ChannelSet, n_active: int) -> ChannelSet:
    """Keep only ``n_active`` relay rows (and downlink columns).

    Every slot keeps the same prefix of ``n_active / extension`` rows, the
    only layout in which the improved scheme's ``M/N_active`` corner exists,
    so ``n_active`` must be a positive multiple of ``extension`` and at most
    ``active_relay``; any other count raises ``InvalidDeactivation``.  With
    ``extension == 1`` this is a plain row prefix.
    """
    if int(n_active) != n_active or not 0 < n_active <= ch.active_relay or n_active % ch.extension:
        raise InvalidDeactivation(f"active count must be a positive multiple of extension "
                                  f"{ch.extension} up to {ch.active_relay}, got {n_active}")
    rows = int(n_active) // ch.extension
    return ChannelSet(m=ch.m, n=ch.n, k=ch.k, uplink=ch.uplink[:, :, :rows].copy(),
                      downlink=ch.downlink[..., :rows].copy(), seed=ch.seed)


def slot_product(blocks: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``blockdiag(*blocks) @ x`` for an ``ext x rows x cols`` stack of blocks.

    Block ``i`` acts on row segment ``i`` of ``x``, all in one batched
    product.  For a downlink transpose ``G^T x`` pass ``blocks.swapaxes(1, 2)``.
    """
    ext, rows, cols = blocks.shape
    return (blocks @ x.reshape(ext, cols, x[0].size)).reshape(ext * rows, *x.shape[1:])


def array_to_json(a: np.ndarray) -> dict:
    """``{"shape": [...], "base64": ...}``: ``a``'s C-order little-endian ``complex128`` bytes.

    One string per array keeps the document compact and cheap to write;
    :func:`array_from_json` returns the same entries bit for bit, signed
    zeros included.
    """
    data = np.asarray(a, dtype="<c16").tobytes()
    return {"shape": list(a.shape), "base64": base64.b64encode(data).decode("ascii")}


def array_from_json(doc, ndim: int, name: str = "array") -> np.ndarray:
    """The finite ``complex128`` array of an :func:`array_to_json` object with ``ndim`` axes.

    Raises ``ValueError`` (naming ``name``) unless ``doc`` is a dict whose
    ``shape`` is a list of ``ndim`` non-negative integers (not bools) and
    whose ``base64`` is valid base64 text of exactly ``16 * prod(shape)``
    bytes, all of them finite entries.  The result is a fresh, writable,
    native-order array.
    """
    if not isinstance(doc, dict) or not isinstance(doc.get("base64"), str):
        raise ValueError(f"{name} must be an object with a shape and base64 text")
    shape = doc.get("shape")
    if type(shape) is not list or len(shape) != ndim \
            or any(type(d) is not int or d < 0 for d in shape):
        raise ValueError(f"{name} shape must be a list of {ndim} non-negative integers, "
                         f"got {shape!r}")
    try:
        data = base64.b64decode(doc["base64"], validate=True)
    except ValueError as exc:
        raise ValueError(f"{name} is not valid base64: {exc}") from None
    nbytes = 16 * math.prod(shape)
    if len(data) != nbytes:
        raise ValueError(f"{name} holds {len(data)} bytes; shape {shape} needs {nbytes}")
    a = np.frombuffer(data, dtype="<c16").reshape(shape).astype(np.complex128)
    if not np.isfinite(a).all():
        raise ValueError(f"{name} must have finite entries")
    return a


def channel_to_json(ch: ChannelSet) -> dict:
    """Serialize to ``{"m", "n", "k", "seed", "uplink", "downlink"}``.

    ``uplink`` and ``downlink`` are :func:`array_to_json` objects of the
    ``K x ext x rows x M`` and ``K x ext x M x rows`` block arrays, so
    ``uplink[k][i]`` is user ``k``'s slot-``i`` block; the slot count and
    deactivation are implied by the shapes.  The document replays exact
    instances in bug reports: the seed keys the unit, mixing and downlink RNG
    substreams, so a replayed build draws the same random directions.
    """
    return {
        "m": ch.m,
        "n": ch.n,
        "k": ch.k,
        "seed": ch.seed,
        "uplink": array_to_json(ch.uplink),
        "downlink": array_to_json(ch.downlink),
    }


def channel_from_json(doc: dict) -> ChannelSet:
    """Rebuild a :class:`ChannelSet` from :func:`channel_to_json` output, bit for bit.

    Raises ``ValueError`` unless ``doc`` is a dict with all six keys, ``m``,
    ``n``, ``k`` and ``seed`` are integers with ``M >= 1``, ``K >= 3`` and
    ``seed`` in ``[0, 2**64)`` (so that a replay draws the original random
    directions), each link is a finite four-axis :func:`array_from_json`
    object, and the shapes agree with the counts (at most ``N`` rows per
    slot) and across links.
    """
    keys = ("m", "n", "k", "seed", "uplink", "downlink")
    if not isinstance(doc, dict) or any(key not in doc for key in keys):
        raise ValueError(f"channel document must be an object with the keys {keys}")
    m, n, k, seed = (doc[key] for key in keys[:4])
    if any(type(v) is not int for v in (m, n, k, seed)) or m < 1 or k < 3 \
            or not 0 <= seed < 2**64:
        raise ValueError(f"channel document needs integers m >= 1, n, k >= 3 and a seed in "
                         f"[0, 2**64), got {m!r}, {n!r}, {k!r}, {seed!r}")
    uplink, downlink = (array_from_json(doc[side], 4, side) for side in keys[4:])
    return ChannelSet(m=m, n=n, k=k, uplink=uplink, downlink=downlink, seed=seed)
