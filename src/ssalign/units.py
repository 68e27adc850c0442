"""Beamforming-unit construction and relay signal-space planning.

A *unit* bundles one spatial stream per ordered user pair inside an active
group.  An aligned unit of order ``t`` is built from ``t - 1`` columns of the
nullspace of the group's horizontally stacked uplink channels: splitting
column ``j`` into per-user segments ``w_0 .. w_{t-1}`` gives user ``i``'s
beamformer toward user ``j`` directly for ``i != j``, while segment ``w_j``
pins a signed aggregate of user ``j``'s own beamformers (sign +1 when either
index is the group leader, -1 otherwise).  Solving each aggregate for the
one remaining beamformer makes the ``t (t - 1)`` equivalent channel vectors
collapse onto ``(t - 1)^2`` relay dimensions; ``t = 2`` degenerates to the
two pair vectors being parallel.

Units are built in batches, not one by one (:func:`_build_units`), and each
unit's downlink *twin*, the same spec built on the mirrored downlink
``G_a^H``, is built in the same pass: :func:`execute_plan` runs it over
both links, the channels with RNG substream 1 and their mirror with
substream 2.  Per group size, one pass (:func:`_aligned_units`) takes one
complete QR over every ``(link, group, slot)`` stack and keeps each slot's
planned nullity, ``(tM - rows)^+`` columns, with no rank decided: the
trailing columns ``Q[:, rows:]`` of the QR of the stack's conjugate
transpose, which are exact nullspace vectors whatever its rank.  So every
group has the planned width ``ext (tM - rows)^+``.  Its mixing is drawn
once from the group's own key and shared by the links, and only the ``c =
(t - 1) count`` columns that its planned blocks use are factored, one
batched QR per ``c``.  No group's whole mixed basis is formed: each unit
takes, slot by slot, the slot nullspace times its own ``t - 1`` mixing
columns, and one product with a fixed signed coefficient array gives its
beamformers.  The units of one ``(link, group)`` share its nullspaces and
channel blocks, which multiply them without a per-unit copy.  Per unit
shape one decomposition checks every span, a QR for random units and an
SVD for aligned ones.  Random units draw from their link's RNG in spec
order, a group's mixing from its own key, ``c`` comes from the spec's
planned count, and every product gives each unit's entries from that
unit's operands alone, so a unit does not depend on its batch: built
alone, as a batch of one on one link, it equals its copy in a whole plan
bit for bit.

The planner decides, per antenna regime, how many units of which order fill
the relay space, choosing the smallest symbol-extension factor that makes
every count an integer, and (optionally) deactivating relay antennas down to
the regime's corner ratio when that raises the achievable DoF.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import combinations
from math import lcm

import numpy as np

from . import dof
from .channel import ChannelSet, complex_gaussian, derived_rng
from .errors import (
    AlignmentDegenerate,
    ConstructionError,
    ExtensionOverflow,
    IndependenceViolation,
    InternalPlanError,
    SupplyExhausted,
    stage,
)
from .linalg import certified_ranks, singular_value_ranks

__all__ = [
    "RANDOM",
    "Unit",
    "Allocation",
    "AlignmentPlan",
    "plan_alignment",
    "execute_plan",
]

# Pattern-order sentinel for random-direction (full-multiplexing) units.
RANDOM = 0


@dataclass(eq=False)
class Unit:
    """One bundle of jointly beamformed streams, one column per ordered pair.

    Column ``i`` of ``beamformers`` (``M*ext x s``) is user ``a``'s transmit
    vector for its stream to user ``b``, ``(a, b) = pairs[i]`` with ``pairs``
    sorted; column ``i`` of ``equivalent_uplink`` (``N_active x s``) is its
    image ``H_a @ u`` at the active relay antennas.  ``basis`` is an
    orthonormal basis of their span, the one the span check of
    :func:`_build_units` decided: the Q factor of the images for a random
    unit, their leading left singular vectors for an aligned one.  ``twin``
    is the unit's downlink twin from :func:`execute_plan`, a ``Unit`` built
    on ``G^H``; it is ``None`` on a twin, and on a unit built on one link
    only.  ``==`` is identity.
    """

    pattern_order: int  # 2..K for aligned units, RANDOM for random directions
    group: tuple[int, ...]
    pairs: tuple[tuple[int, int], ...]
    beamformers: np.ndarray
    equivalent_uplink: np.ndarray
    column_block: int
    basis: np.ndarray
    twin: Unit | None = None


def _unit_dims(pattern_order: int, size: int) -> int:
    """Relay dimensions a unit spans: ``K(K-1)`` if random on ``K`` users, else ``(t-1)^2``."""
    if pattern_order == RANDOM:
        return size * (size - 1)
    return (pattern_order - 1) ** 2


def _positions(keys) -> dict:
    """Each distinct key's positions in ``keys``, in first-seen order."""
    positions: dict = {}
    for i, key in enumerate(keys):
        positions.setdefault(key, []).append(i)
    return positions


@cache
def _pair_layout(group: tuple[int, ...]) -> tuple[tuple[tuple[int, int], ...], tuple[int, ...]]:
    """A unit's sorted pairs, and the column of each in the group's own pair order.

    The own order runs over senders ``group[i]`` and, for each, over its
    partners ``group[j]``, ``j != i``, both by position in ``group``.
    """
    own = [(a, b) for a in group for b in group if a != b]
    order = tuple(sorted(range(len(own)), key=own.__getitem__))
    return tuple(own[c] for c in order), order


def _checked_units(up: np.ndarray, pattern_order: int, links: list[int],
                   groups: list[tuple[int, ...]], beams: np.ndarray,
                   column_blocks: list[int]) -> list:
    """Units of one shape from their beamformers, each span checked: a ``Unit`` or its error.

    ``up`` stacks the links' uplinks, ``(links, K, ext, rows, M)``, and unit
    ``u`` is on link ``links[u]``.  ``beams`` is ``(units, M*ext, s)``, every
    unit's columns in its group's own pair order (:func:`_pair_layout`).
    One product per ``(link, group)`` multiplies that group's channel blocks,
    which its units share, by those units' beamformers, broadcast over the
    units with no per-unit copy; the images so equal
    :func:`~ssalign.channel.slot_product`'s bit for bit.  One stacked
    decomposition over both links decides every span, and each unit keeps
    its slice as ``basis``.  A random unit must keep all its streams: a
    reduced QR of its images gives the basis ``Q``, and
    :func:`~ssalign.linalg.certified_ranks` the rank.  Aligned units span
    fewer dimensions than they have streams, and a random unit with fewer
    image rows than streams cannot pass: these take an SVD.
    """
    count, _, streams = beams.shape
    t, ext, m = len(groups[0]), up.shape[2], up.shape[4]
    layouts = [_pair_layout(group) for group in groups]
    beams = np.take_along_axis(beams, np.array([order for _, order in layouts])[:, None], axis=2)
    # (units, t, ext, M, t - 1): each sorted sender's beamformers, slot by slot.
    per_sender = np.ascontiguousarray(
        beams.reshape(count, ext, m, t, t - 1).transpose(0, 3, 1, 2, 4))
    images = np.empty((count, t, ext, up.shape[3], t - 1), dtype=np.complex128)
    by_channels = _positions((li, tuple(sorted(group))) for li, group in zip(links, groups))
    for (li, group), members in by_channels.items():
        images[members] = up[li, list(group)] @ per_sender[members]
    images = images.transpose(0, 2, 3, 1, 4).reshape(count, -1, streams)
    want = _unit_dims(pattern_order, t)
    if want == streams <= images.shape[1]:
        bases, r = np.linalg.qr(images)
        ranks = certified_ranks(r, images.shape[1:])
    else:
        left, sv, _ = np.linalg.svd(images, full_matrices=False)
        ranks = singular_value_ranks(sv, images.shape[1:])
        bases = left[..., :want]
    kind = "random" if pattern_order == RANDOM else f"order-{pattern_order}"
    return [Unit(pattern_order, group, pairs, beams[u], images[u], block, bases[u])
            if ranks[u] == want else AlignmentDegenerate(
                f"{kind} unit on group {group} spans {ranks[u]} dimensions, expected {want}")
            for u, (group, (pairs, _), block) in enumerate(zip(groups, layouts, column_blocks))]


def _random_units(up: np.ndarray, rngs: list, count: int) -> list:
    """``count`` random units per link, link by link, each span checked: a ``Unit`` or its error.

    Every pair's beamformer is a unit direction, normalised from one
    ``complex_gaussian`` draw per link, from that link's RNG, for all its
    units and then pairs, in order.  The K(K-1) equivalent vectors span
    K(K-1) relay dimensions with probability one, which needs
    ``M*ext >= K-1`` and at least K(K-1) active relay rows.
    """
    k, mt = up.shape[1], up.shape[2] * up.shape[4]
    beams = np.concatenate([complex_gaussian(rng, count, k * (k - 1), mt, 1)[..., 0]
                            for rng in rngs])
    beams /= np.linalg.norm(beams, axis=2, keepdims=True)
    total = len(rngs) * count
    return _checked_units(up, RANDOM, np.repeat(np.arange(len(rngs)), count).tolist(),
                          [tuple(range(k))] * total, beams.swapaxes(1, 2), [0] * total)


@cache
def _aggregate_coefficients(t: int) -> np.ndarray:
    """``(t, t-1, t-1)``: each member's beamformers from its nullspace segment's columns.

    Member ``i``'s beamformers toward its partners, by position, are its
    segment ``w_i`` (``M*ext x t-1``) times ``coeffs[i]``.  Toward a partner
    ``j < t-1`` it is column ``j``; toward the last member it solves column
    ``i``'s aggregate ``sum_{j != i} sign(i, j) u^(i, j) = w_i[:, i]``, with
    sign +1 when either index is the leader 0, else -1.
    """
    def sign(i: int, j: int) -> float:
        return 1.0 if (i == 0 or j == 0) else -1.0

    coeffs = np.zeros((t, t - 1, t - 1), dtype=np.complex128)
    for i in range(t):
        for q, j in enumerate(j for j in range(t) if j != i):
            if j < t - 1:
                coeffs[i, j, q] = 1.0
                continue
            for c in range(t - 1):
                coeffs[i, c, q] = (1.0 if c == i else -sign(i, c)) / sign(i, t - 1)
    coeffs.flags.writeable = False
    return coeffs


def _block_start(group: tuple[int, ...], width: int, column_block: int) -> int:
    """First nullspace column of a column block, or ``SupplyExhausted`` if it does not fit."""
    t = len(group)
    if column_block < 0:
        raise SupplyExhausted(f"column block must be nonnegative, got {column_block}")
    start = (t - 1) * column_block
    if start + t - 1 > width:
        raise SupplyExhausted(
            f"group {group} nullspace has {width} columns, "
            f"block {column_block} needs columns {start}..{start + t - 2}"
        )
    return start


def _group_nullspaces(up: np.ndarray, groups: list) -> np.ndarray:
    """The planned nullspaces of the slot stacks, ``(links, groups, ext, tM, tM - rows)``.

    Slot ``s``'s stack of a group is ``[H_{g0}[s], ..., H_{g(t-1)}[s]]``
    (``rows x t*M``), and its planned nullity ``(tM - rows)^+`` columns are
    ``Q[:, rows:]`` of the complete QR ``A^H = Q R`` of each wide stack
    ``A``: ``A^H`` lies in the span of ``Q[:, :rows]``, so they are exact
    nullspace vectors whatever the rank of ``A``, and no rank is decided.
    """
    links, _, ext, rows, m = up.shape
    t = len(groups[0])
    stacks = up[:, np.array(groups)].transpose(0, 1, 3, 4, 2, 5).reshape(
        links, len(groups), ext, rows, t * m)
    return np.linalg.qr(stacks.conj().swapaxes(-1, -2), mode="complete")[0][..., rows:]


def _mixing_columns(t: int, count: int, width: int) -> int:
    """Mixing columns ``c`` of an order-``t`` group of ``width`` with ``count`` planned blocks."""
    return min((t - 1) * count, width)


def _mixings(seed: int, keys: list, width: int) -> np.ndarray:
    """``(keys, width, max c)``: each ``(group, c)`` key's ``c`` orthonormal mixing columns.

    They are the Q factor of the first ``c`` columns of the group's complex
    Gaussian ``width x width`` draw from ``derived_rng(seed, 3, *group)``,
    drawn once per group; one batched QR per ``c`` gives them, and columns
    past a key's ``c`` stay zero.  For ``c = width`` it is the Q of the whole
    draw.
    """
    firsts = {}
    for group in dict.fromkeys(group for group, _ in keys):
        draw = complex_gaussian(derived_rng(seed, 3, *group), width, width)
        for key in keys:
            if key[0] == group:
                firsts[key] = draw[:, :key[1]].copy()
    mixings = np.zeros((len(keys), width, max(c for _, c in keys)), dtype=np.complex128)
    for c, rows in _positions(c for _, c in keys).items():
        mixings[rows, :, :c] = np.linalg.qr(np.stack([firsts[keys[i]] for i in rows]))[0]
    return mixings


def _aligned_units(up: np.ndarray, seed: int, requests: list) -> list:
    """Order-``t`` units for ``(link, group, column_block, count)`` requests, or their errors.

    ``up`` stacks the links' uplinks, ``(links, K, ext, rows, M)``, every
    group has ``t`` members, and ``count`` is the number of column blocks
    the group's allocation plans.  Stacked column ``i*M*ext + s*M + j``
    (user ``group[i]``, slot ``s``, antenna ``j``) meets only slot ``s``'s
    relay rows, so a group's nullspace is the direct sum of its slots':
    :func:`_group_nullspaces` gives each slot the planned nullity ``(tM -
    rows)^+`` that ``_check_plan`` budgets, and every group ``ext`` times
    that as its width.  That basis is slot-localised, and its consecutive
    column blocks would repeat relay directions, so it is mixed by the ``c =
    min((t - 1) count, width)`` orthonormal columns that the planned blocks
    use (:func:`_mixing_columns`, :func:`_mixings`), from a draw keyed by the
    group alone and shared by the links; so the units replay from the
    channel JSON.  A request whose block fits the width
    (:func:`_block_start`) takes, per slot ``s``, that slot's nullspace
    times mixing rows ``s * nullity`` onward and its own ``t - 1`` columns,
    in one product per ``(link, group)``; so each unit's columns, and its
    beamformers from :func:`_aggregate_coefficients`, depend on its request
    alone.  A block past ``count`` raises ``ValueError``.
    """
    links, _, ext, rows, m = up.shape
    t = len(requests[0][1])
    nullity = max(t * m - rows, 0)
    width = ext * nullity
    keys: dict[tuple, int] = {}
    done, fits = [], []
    for li, group, block, count in requests:
        try:
            start = _block_start(group, width, block)
        except SupplyExhausted as exc:
            done.append(exc)
            continue
        if block >= count:
            raise ValueError(f"column block {block} of group {group} is past its {count} blocks")
        done.append(None)
        key = keys.setdefault((group, _mixing_columns(t, count, width)), len(keys))
        fits.append((li, group, key, start, block))
    if not fits:
        return done
    groups = list(dict.fromkeys(group for group, _ in keys))
    null = _group_nullspaces(up, groups)
    mixings = _mixings(seed, list(keys), width)
    on, group_of, key, start, column_blocks = zip(*fits)
    cols = np.array(start)[:, None] + np.arange(t - 1)
    # (units, ext, nullity, t - 1): slot s takes mixing rows s*nullity onward.
    mixed = mixings[np.array(key)[:, None, None], np.arange(width)[:, None], cols[:, None]].reshape(
        len(fits), ext, nullity, t - 1)
    # (units, ext, t*M, t - 1): each unit's columns, slot by slot, rows (i, j),
    # from its (link, group)'s nullspaces, broadcast over that pair's units.
    columns = np.empty((len(fits), ext, t * m, t - 1), dtype=np.complex128)
    for (li, group), members in _positions(zip(on, group_of)).items():
        columns[members] = null[li, groups.index(group)] @ mixed[members]
    # (units, t, M*ext, t - 1): member i's segment, rows s*M + j.
    segments = columns.reshape(len(fits), ext, t, m, t - 1).transpose(0, 2, 1, 3, 4).reshape(
        len(fits), t, ext * m, t - 1)
    beams = (segments @ _aggregate_coefficients(t)).transpose(0, 2, 1, 3)
    units = iter(_checked_units(up, t, list(on), list(group_of),
                                beams.reshape(len(fits), -1, t * (t - 1)), list(column_blocks)))
    return [next(units) if unit is None else unit for unit in done]


@dataclass(frozen=True)
class Allocation:
    """``count`` units of one pattern order on one user group."""

    group: tuple[int, ...]
    pattern_order: int  # t, or RANDOM
    count: int

    def dims_per_unit(self) -> int:
        return _unit_dims(self.pattern_order, len(self.group))

    def streams_per_member(self) -> int:
        return len(self.group) - 1


@dataclass(frozen=True)
class AlignmentPlan:
    """How many units of which order fill the relay signal space.

    All counts refer to the extended channel: ``active_relay`` is the number
    of relay rows kept out of ``n * extension``, and ``predicted_d_user`` is
    per channel use (already divided by ``extension``).
    """

    m: int
    n: int
    k: int
    improved: bool
    extension: int
    active_relay: int
    allocations: tuple[Allocation, ...]
    predicted_d_user: Fraction
    dims_used: int


MAX_EXTENSION = 64


def _plan_pieces(m: int, n: int, k: int, improved: bool):
    """Per-slot rational allocation: [(order, count per group)], active per slot."""
    active = Fraction(n)
    branch = dof.improvement_branch(m, n, k) if improved else None
    if branch is not None:
        t, deactivate = branch
        if not deactivate:
            _, b_next = dof.alpha_beta(k, t + 1)
            return [(t + 1, Fraction(n, b_next))], active
        # Deactivate down to the order-t corner: M / active = theta_t.
        # Extension keeps channels block-diagonal, so alignment decomposes
        # per slot and the corner geometry only exists when every slot keeps
        # the same integer count.
        active = m / dof.gamma_theta_tau(m, n, k, t).theta_t
        if active.denominator != 1:
            raise ExtensionOverflow(
                f"corner deactivation at (M={m}, N={n}, K={k}) needs "
                f"{active} active relay antennas per slot; no symbol "
                f"extension realizes a fractional per-slot count on "
                f"block-diagonal channels"
            )
        _, b_t = dof.alpha_beta(k, t)
        return [(t, active / b_t)], active
    if k * m <= n:
        # Relay space supports full multiplexing; each user feeds K-1 streams
        # into every random unit, so the stream budget allows M/(K-1) units.
        return [(RANDOM, Fraction(m, k - 1))], active
    t = dof.regime_index(m, n)
    _, b_t = dof.alpha_beta(k, t)
    supply = Fraction(t * m - n, t - 1)
    cap = Fraction(n, b_t)
    if supply >= cap:
        return [(t, cap)], active
    pieces = [(t, supply)]
    remaining = n - b_t * supply
    if t < k:
        _, b_next = dof.alpha_beta(k, t + 1)
        pieces.append((t + 1, remaining / b_next))
    else:
        pieces.append((RANDOM, remaining / _unit_dims(RANDOM, k)))
    return pieces, active


@stage("plan")
def plan_alignment(m: int, n: int, k: int, improved: bool = False) -> AlignmentPlan:
    """Allocate unit counts for ``(M, N, K)`` and pick the extension factor.

    The returned plan's ``predicted_d_user`` equals the closed-form
    achievable value exactly; any mismatch raises
    :class:`~ssalign.errors.InternalPlanError` since it would mean the
    allocation arithmetic and the formula disagree.

    With ``improved=True`` the deactivated-corner branch is only
    constructible when the corner antenna count ``M / theta_t`` is an
    integer; at other ratios in that branch
    :class:`~ssalign.errors.ExtensionOverflow` is raised, because symbol
    extension yields block-diagonal channels whose alignment geometry
    decomposes slot by slot and cannot emulate a fractional antenna count.
    """
    target = (dof.achievable_improved if improved else dof.achievable_basic)(m, n, k)
    pieces, active_frac = _plan_pieces(m, n, k, improved)

    denominators = [q.denominator for _, q in pieces] + [active_frac.denominator]
    sigma = lcm(*denominators)
    if sigma > MAX_EXTENSION:
        raise ExtensionOverflow(
            f"(M={m}, N={n}, K={k}, improved={improved}) needs extension {sigma} > {MAX_EXTENSION}"
        )
    active = int(active_frac * sigma)

    allocations: list[Allocation] = []
    for order, per_group in pieces:
        count = int(per_group * sigma)
        if order == RANDOM:
            allocations.append(Allocation(tuple(range(k)), RANDOM, count))
        else:
            for g in combinations(range(k), order):
                allocations.append(Allocation(g, order, count))

    dims_used = sum(a.count * a.dims_per_unit() for a in allocations)
    plan = AlignmentPlan(
        m=m, n=n, k=k, improved=improved, extension=sigma, active_relay=active,
        allocations=tuple(allocations), predicted_d_user=target.d_user,
        dims_used=dims_used,
    )
    _check_plan(plan)
    return plan


def _check_plan(plan: AlignmentPlan) -> None:
    sigma, m, k = plan.extension, plan.m, plan.k
    if plan.dims_used > plan.active_relay:
        raise InternalPlanError(
            f"plan consumes {plan.dims_used} of {plan.active_relay} relay dimensions"
        )
    for user in range(k):
        streams = sum(
            a.count * a.streams_per_member() for a in plan.allocations if user in a.group
        )
        if Fraction(streams, sigma) != plan.predicted_d_user:
            raise InternalPlanError(
                f"user {user} gets {streams}/{sigma} streams, formula says "
                f"{plan.predicted_d_user}"
            )
        if streams > m * sigma:
            raise InternalPlanError(f"user {user} needs {streams} > {m * sigma} streams")
    for a in plan.allocations:
        if a.pattern_order == RANDOM:
            continue
        t = a.pattern_order
        nullity = t * m * sigma - plan.active_relay
        if a.count * (t - 1) > nullity:
            raise InternalPlanError(
                f"group {a.group} asks for {a.count * (t - 1)} nullspace columns of {nullity}"
            )


def _mirror(ch: ChannelSet) -> ChannelSet:
    """The downlink as an uplink: ``G_a^H`` per user and slot, with the same seed."""
    return ChannelSet(m=ch.m, n=ch.n, k=ch.k, uplink=ch.downlink.swapaxes(2, 3).conj(),
                      downlink=ch.downlink, seed=ch.seed)


def _build_units(links, specs) -> list[list]:
    """One unit per ``(pattern_order, group, column_block, count)`` spec on every link, in order.

    ``count`` is the number of units the group's allocation plans, which
    fixes its aligned units' mixing columns (:func:`_aligned_units`), so a
    unit built alone equals its copy in the whole plan.  ``links`` holds
    ``(channels, rng)`` pairs: channel sets of one shape and seed, each with
    the RNG its random units draw from (``None`` if there are none).  The
    units are built in the batched passes of the module docstring, every
    link in the same pass: the random ones in one draw per link from its
    ``rng``, in spec order (aligned ones draw nothing from it), and the
    aligned ones in one :func:`_aligned_units` pass per group size, which
    gets every link's request for each spec of that size.
    Gives, per link, each spec's ``Unit`` or the ``ConstructionError`` its
    build raised; nothing is raised (see :func:`_raise_first_error`).
    """
    # One C-ordered copy, whatever the links' layouts (the mirror's is not C
    # order): a product's bits depend on its operands' layout.
    up = np.array([ch.uplink for ch, _ in links], order="C")
    seed = links[0][0].seed
    built: list[list] = [[None] * len(specs) for _ in links]
    randoms = [i for i, spec in enumerate(specs) if spec[0] == RANDOM]
    if randoms:
        done = iter(_random_units(up, [rng for _, rng in links], len(randoms)))
        for row in built:
            for i in randoms:
                row[i] = next(done)
    sizes: dict[int, list[int]] = {}
    for i, (order, group, *_) in enumerate(specs):
        if order != RANDOM:
            sizes.setdefault(len(group), []).append(i)
    for members in sizes.values():
        done = iter(_aligned_units(up, seed, [(li, *specs[i][1:])
                                              for li in range(len(links)) for i in members]))
        for row in built:
            for i in members:
                row[i] = next(done)
    return built


def _raise_first_error(built: list, name: str = "", side: str | None = None) -> None:
    """Raise the first ``ConstructionError`` in ``built``, if any.

    With a ``name`` it is raised again, its message led by ``f"{name} {index}: "``
    and its ``stage`` set to ``side``.
    """
    for index, unit in enumerate(built):
        if isinstance(unit, ConstructionError):
            if name:
                error = type(unit)(f"{name} {index}: {unit}")
                error.stage = side
                raise error from unit
            raise unit


@stage("execute")
def execute_plan(plan: AlignmentPlan, ch: ChannelSet) -> list[Unit]:
    """Build every planned unit on the given channels, in allocation order, each with its twin.

    Nullspace column blocks are consumed sequentially, never reused.  Each
    unit's downlink twin is built in the same pass, on the mirrored downlink
    ``G_a^H`` with the unit's group and column block, and set as its
    ``twin``: random units draw from RNG substream 1 of ``ch.seed``, random
    twins from substream 2, and each group's mixing from its own key, shared
    by both links.  Each unit spans its ``dims_per_unit()``, so the spans
    sum to ``plan.dims_used``; the relay checks, on both links, that they
    are independent.  The checks here raise in this order: the first failing
    unit, in allocation order; then a user whose transmit beamformer stack
    lacks full column rank, as :class:`~ssalign.errors.IndependenceViolation`
    naming the first such user (the stacks, equally wide as ``_check_plan``
    gives every user the same stream count, are checked in one QR, whose
    factors :func:`~ssalign.linalg.certified_ranks` decides); then
    the first failing twin, its message led by ``downlink twin of unit
    {index}: `` and its ``stage`` ``downlink``.
    """
    if (plan.m, plan.n, plan.k) != (ch.m, ch.n, ch.k):
        raise ValueError("channel set was sampled for a different (M, N, K)")
    if ch.extension != plan.extension:
        raise ValueError(f"plan needs extension {plan.extension}, channels have {ch.extension}")
    if ch.active_relay != plan.active_relay:
        raise ValueError(
            f"plan needs {plan.active_relay} active relay rows, channels have "
            f"{ch.active_relay}; apply deactivate_relay_antennas first"
        )
    if not plan.allocations:
        raise ValueError("plan has no allocations; every plan_alignment plan has one")
    specs = [(a.pattern_order, a.group, i, a.count) for a in plan.allocations
             for i in range(a.count)]
    units, twins = _build_units([(ch, derived_rng(ch.seed, 1)),
                                 (_mirror(ch), derived_rng(ch.seed, 2))], specs)
    _raise_first_error(units)
    senders = np.array([a for u in units for a, _ in u.pairs])
    streams = np.bincount(senders, minlength=ch.k)
    if streams.min() != streams.max():
        raise ValueError(f"plan gives its users unequal stream counts {streams.tolist()}")
    beams = np.hstack([u.beamformers for u in units])[:, np.argsort(senders, kind="stable")]
    stacks = beams.reshape(beams.shape[0], ch.k, -1).swapaxes(0, 1)
    ranks = certified_ranks(np.linalg.qr(stacks, mode="r"), stacks.shape[1:])
    deficient = np.flatnonzero(ranks != stacks.shape[2])
    if deficient.size:
        raise IndependenceViolation(
            f"user {deficient[0]}'s beamformer stack is column-rank deficient"
        )
    _raise_first_error(twins, name="downlink twin of unit", side="downlink")
    for unit, twin in zip(units, twins):
        unit.twin = twin
    return units
