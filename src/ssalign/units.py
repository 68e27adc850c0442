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

The planner decides, per antenna regime, how many units of which order fill
the relay space, choosing the smallest symbol-extension factor that makes
every count an integer, and (optionally) deactivating relay antennas down to
the regime's corner ratio when that raises the achievable DoF.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations
from math import lcm

import numpy as np

from . import dof
from .channel import ChannelSet, complex_gaussian, derived_rng, slot_product
from .errors import (
    AlignmentDegenerate,
    ExtensionOverflow,
    IndependenceViolation,
    InternalPlanError,
    SupplyExhausted,
)
from .linalg import nullspace_basis, numerical_rank, union_span_dim

__all__ = [
    "RANDOM",
    "Unit",
    "Allocation",
    "AlignmentPlan",
    "build_random_unit",
    "group_nullspace",
    "unit_from_nullspace",
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
    image ``H_a @ u`` at the active relay antennas.  ``==`` is identity.
    """

    pattern_order: int  # 2..K for aligned units, RANDOM for random directions
    group: tuple[int, ...]
    pairs: tuple[tuple[int, int], ...]
    beamformers: np.ndarray
    equivalent_uplink: np.ndarray
    column_block: int = 0

    def span_dim(self) -> int:
        return union_span_dim([self.equivalent_uplink])


def _unit(ch: ChannelSet, pattern_order: int, group: tuple[int, ...],
          beam: dict[tuple[int, int], np.ndarray], column_block: int = 0) -> Unit:
    """Unit from per-pair beamformers, columns in sorted pair order."""
    pairs = tuple(sorted(beam))
    beams = np.column_stack([beam[p] for p in pairs])
    # Every member sends to every other member, so in sorted pair order the
    # i-th smallest member's streams are the i-th run of len(group) - 1 columns.
    per = len(group) - 1
    streams = np.hstack([slot_product(ch.uplink[a], beams[:, i * per:(i + 1) * per])
                         for i, a in enumerate(sorted(group))])
    return Unit(pattern_order, group, pairs, beams, streams, column_block)


def build_random_unit(ch: ChannelSet, rng: np.random.Generator) -> Unit:
    """Unit with independently drawn beamformers for every ordered pair.

    The K(K-1) equivalent vectors span K(K-1) relay dimensions with
    probability one, which requires M*extension >= K-1 transmit antennas per
    user (each user sends K-1 streams) and at least K(K-1) active relay
    dimensions; otherwise the span check fails and the draw is rejected as
    degenerate.
    """
    mt = ch.m * ch.extension
    group = tuple(range(ch.k))
    beam: dict[tuple[int, int], np.ndarray] = {}
    for pair in permutations(group, 2):
        u = complex_gaussian(rng, mt, 1)[:, 0]
        beam[pair] = u / np.linalg.norm(u)
    unit = _unit(ch, RANDOM, group, beam)
    want = ch.k * (ch.k - 1)
    got = unit.span_dim()
    if got != want:
        raise AlignmentDegenerate(
            f"random unit spans {got} dimensions, expected {want} "
            f"(needs M*ext >= K-1 and K(K-1) active relay dimensions)"
        )
    return unit


def _aggregate_sign(i: int, j: int) -> float:
    return 1.0 if (i == 0 or j == 0) else -1.0


def _check_group(ch: ChannelSet, group) -> tuple[int, ...]:
    group = tuple(group)
    if len(group) < 2:
        raise ValueError("aligned units need a group of at least two users")
    if len(set(group)) != len(group) or not all(0 <= g < ch.k for g in group):
        raise ValueError(f"group {group} is not a set of distinct user indices")
    return group


def group_nullspace(ch: ChannelSet, group) -> np.ndarray:
    """Orthonormal nullspace basis of the group's stacked uplink channels.

    Stacked column ``i*M*ext + s*M + j`` (user ``group[i]``, slot ``s``,
    antenna ``j``) meets only slot ``s``'s relay rows, so the nullspace is
    the direct sum of the slots' nullspaces: one small SVD per slot, of
    ``[H_{g0}[s], ..., H_{g(t-1)}[s]]``, embedded in the stacked coordinates.
    That basis is slot-localised, and its consecutive column blocks would
    repeat relay directions, so it is multiplied by one ``width x width``
    unitary, the Q factor of a complex Gaussian matrix drawn from
    ``derived_rng(ch.seed, 3, *group)``.  The basis is thus a pure function
    of ``(ch, group)`` and replays from the channel JSON.  Every aligned unit
    on ``group`` takes its own column block, so callers compute it once.
    """
    group = _check_group(ch, group)
    t, ext = len(group), ch.extension
    slots = [nullspace_basis(stack) for stack in np.concatenate(ch.uplink[list(group)], axis=2)]
    width = sum(b.shape[1] for b in slots)
    mixing = np.linalg.qr(complex_gaussian(derived_rng(ch.seed, 3, *group), width, width))[0]
    basis = np.empty((t, ext, ch.m, width), dtype=np.complex128)
    start = 0
    for s, slot in enumerate(slots):
        # Slot s's entries of every user segment: its basis times its rows of the mixing.
        basis[:, s] = (slot @ mixing[start:start + slot.shape[1]]).reshape(t, ch.m, width)
        start += slot.shape[1]
    return basis.reshape(t * ext * ch.m, width)


def unit_from_nullspace(ch: ChannelSet, group, basis: np.ndarray, column_block: int) -> Unit:
    """Order-``t`` aligned unit from one block of ``group_nullspace(ch, group)``.

    ``column_block`` selects columns ``(t-1)*block .. (t-1)*(block+1) - 1``
    of the orthonormal nullspace basis of ``[H_{g0}, ..., H_{g(t-1)}]``, so
    distinct blocks never reuse columns.  Postcondition checked: the
    equivalent vectors span exactly ``(t-1)^2`` dimensions.  Pair survival
    is tested by the relay's pair factorisation (:mod:`ssalign.relay`).
    """
    group = _check_group(ch, group)
    t = len(group)
    if column_block < 0:
        raise SupplyExhausted(f"column block must be nonnegative, got {column_block}")
    mt = ch.m * ch.extension
    start = (t - 1) * column_block
    end = start + (t - 1)
    if end > basis.shape[1]:
        raise SupplyExhausted(
            f"group {group} nullspace has {basis.shape[1]} columns, "
            f"block {column_block} needs columns {start}..{end - 1}"
        )
    cols = basis[:, start:end]
    w = [[cols[i * mt:(i + 1) * mt, j] for j in range(t - 1)] for i in range(t)]

    local: dict[tuple[int, int], np.ndarray] = {}
    for j in range(t - 1):
        for i in range(t):
            if i != j:
                local[(i, j)] = w[i][j]
    # Segment w[j][j] fixes sum_{i != j} sign(j, i) u^(j, i); solve for the
    # single beamformer not yet assigned, u^(j, t-1).
    for j in range(t - 1):
        acc = w[j][j].copy()
        for i in range(t - 1):
            if i != j:
                acc -= _aggregate_sign(j, i) * local[(j, i)]
        local[(j, t - 1)] = acc / _aggregate_sign(j, t - 1)

    beam = {(group[i], group[j]): v for (i, j), v in local.items()}
    unit = _unit(ch, t, group, beam, column_block)

    want = (t - 1) ** 2
    got = unit.span_dim()
    if got != want:
        raise AlignmentDegenerate(
            f"order-{t} unit on group {group} spans {got} dimensions, expected {want}"
        )
    return unit


@dataclass(frozen=True)
class Allocation:
    """``count`` units of one pattern order on one user group."""

    group: tuple[int, ...]
    pattern_order: int  # t, or RANDOM
    count: int

    def dims_per_unit(self) -> int:
        size = len(self.group)
        if self.pattern_order == RANDOM:
            return size * (size - 1)
        return (self.pattern_order - 1) ** 2

    def streams_per_member(self) -> int:
        if self.pattern_order == RANDOM:
            return len(self.group) - 1
        return self.pattern_order - 1


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
        pieces.append((RANDOM, remaining / (k * (k - 1))))
    return pieces, active


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


def _build_units(ch: ChannelSet, specs, rng: np.random.Generator):
    """Yield one unit per ``(pattern_order, group, column_block)`` spec, in order.

    Random units draw from ``rng`` in spec order; aligned units take their
    column block of the group nullspace, computed once per group.
    """
    bases: dict[tuple[int, ...], np.ndarray] = {}
    for order, group, block in specs:
        if order == RANDOM:
            yield build_random_unit(ch, rng)
            continue
        if group not in bases:
            bases[group] = group_nullspace(ch, group)
        yield unit_from_nullspace(ch, group, bases[group], block)


def execute_plan(plan: AlignmentPlan, ch: ChannelSet) -> list[Unit]:
    """Build every planned unit on the given channels, in allocation order.

    Nullspace column blocks are consumed sequentially, never reused, and
    random units draw from RNG substream 1 of ``ch.seed``.  After
    construction the units must jointly span exactly ``plan.dims_used``
    dimensions and every user's transmit beamformer stack must have full
    column rank; any shortfall raises
    :class:`~ssalign.errors.IndependenceViolation`.
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
    specs = [(a.pattern_order, a.group, i) for a in plan.allocations for i in range(a.count)]
    units = list(_build_units(ch, specs, derived_rng(ch.seed, 1)))

    total = union_span_dim([u.equivalent_uplink for u in units])
    if total != plan.dims_used:
        raise IndependenceViolation(
            f"units span {total} dimensions jointly, plan uses {plan.dims_used}"
        )
    beams = np.hstack([u.beamformers for u in units])
    senders = np.array([a for u in units for a, _ in u.pairs])
    for user in range(ch.k):
        stack = beams[:, senders == user]
        if numerical_rank(stack) != stack.shape[1]:
            raise IndependenceViolation(
                f"user {user}'s beamformer stack is column-rank deficient"
            )
    return units
