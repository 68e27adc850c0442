"""Dense and one-at-a-time references the tests check the library against.

The library never builds these: it stores each link's channels as one
``K x ext x rows x cols`` array of diagonal blocks, with the same rows in
every slot, and the relay projectors as low-rank factors.  The tests
materialise both to compare with straightforward dense linear algebra.

It also builds its units in batched passes, per group size and unit shape.
The ``reference_*`` functions build them one at a time instead: one
nullspace per slot, one mixing per group, the aggregate solve pair by pair,
one span decomposition per unit, and one draw per random pair.  They keep
the library's thresholds, RNG keys and error messages.

``reference_nullspace`` takes a nullspace from one full SVD, which the
library keeps only for tall and square stacks.

The library decides ranks and nullspaces only on stacks, through
``linalg.singular_value_ranks`` and ``linalg.stacked_nullspaces``.  The
single-matrix subspace functions here (``numerical_rank``,
``nullspace_basis``, ``range_basis``, ``intersection_basis`` and
``union_span_dim``) keep that rank rule for one matrix at a time.

The lemma checks run their Monte Carlo trials in batches, one stacked call
per step.  The ``reference_check_*`` functions run them one trial at a
time, through the single-matrix functions, with the same draws.

``reference_curve_csv`` is the ``curve`` command's text made point by point
from the public ``DofResult`` functions in ``Fraction`` arithmetic, which
the library's integer curve rows must match byte for byte.
"""

from itertools import combinations, permutations

import numpy as np
from scipy.linalg import block_diag

from ssalign import dof
from ssalign.channel import complex_gaussian, derived_rng, slot_product
from ssalign.errors import AlignmentDegenerate, ShapeMismatch, SupplyExhausted
from ssalign.lemmas import check_direct_sum, check_intersection, check_stacked_rank
from ssalign.linalg import RANK_REL, singular_value_ranks, stacked_nullspaces
from ssalign.cli import CSV_HEADER
from ssalign.units import RANDOM, Unit, _build_units, _mirror, _raise_first_error


# The seven seed-sweep configs, (7,20,4), (5,9,5) improved, and a pair-unit
# point with extension 3: the batched builders' and relay's comparison points.
BUILD_CONFIGS = [(3, 5, 3, False), (3, 8, 4, False), (3, 12, 4, False), (2, 10, 5, False),
                 (7, 14, 4, True), (2, 12, 6, False), (3, 5, 4, False), (7, 20, 4, False),
                 (5, 9, 5, True), (7, 8, 4, False)]


class InvalidMatrix(ValueError):
    """Matrix input contains NaN/Inf entries or is not two-dimensional."""


def as_complex_matrix(a) -> np.ndarray:
    """Coerce input to a finite complex128 matrix (vectors become columns)."""
    arr = np.asarray(a, dtype=np.complex128)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2:
        raise InvalidMatrix(f"expected a matrix, got ndim={arr.ndim}")
    if arr.size and not np.isfinite(arr).all():
        raise InvalidMatrix("matrix contains non-finite entries")
    return arr


def numerical_rank(a) -> int:
    """Rank of ``a``: singular values above ``RANK_REL * sigma_max * max(shape)``."""
    arr = as_complex_matrix(a)
    if arr.size == 0:
        return 0
    s = np.linalg.svd(arr, compute_uv=False)
    return singular_value_ranks(s, arr.shape)


def nullspace_basis(a) -> np.ndarray:
    """Orthonormal basis of the right nullspace of ``a``.

    Returns a ``cols x (cols - rank)`` matrix, :func:`stacked_nullspaces`
    on a stack of one, so repeated calls on identical input agree bit for
    bit.
    """
    arr = as_complex_matrix(a)
    rows, cols = arr.shape
    if cols == 0:
        return np.empty((0, 0), dtype=np.complex128)
    if rows == 0:
        return np.eye(cols, dtype=np.complex128)
    return stacked_nullspaces(arr)[1]


def range_basis(a) -> np.ndarray:
    """Orthonormal basis of the column space of ``a`` (``rows x rank``)."""
    arr = as_complex_matrix(a)
    if arr.size == 0:
        return np.empty((arr.shape[0], 0), dtype=np.complex128)
    u, s, _ = np.linalg.svd(arr, full_matrices=False)
    rank = singular_value_ranks(s, arr.shape)
    return u[:, :rank]


def intersection_basis(a, b) -> np.ndarray:
    """Orthonormal basis of ``span(a) & span(b)``.

    Computed through the nullspace of the horizontal stack ``[a, -b]``: each
    nullspace column ``[x; y]`` satisfies ``a @ x == b @ y``, so ``a @ x``
    lies in the intersection.  The returned dimension equals
    ``rank(a) + rank(b) - rank([a, b])``.
    """
    am = as_complex_matrix(a)
    bm = as_complex_matrix(b)
    if am.shape[0] != bm.shape[0]:
        raise ShapeMismatch(f"row counts differ: {am.shape[0]} vs {bm.shape[0]}")
    n = am.shape[0]
    if am.shape[1] == 0 or bm.shape[1] == 0:
        return np.empty((n, 0), dtype=np.complex128)
    stacked = np.hstack([am, -bm])
    null = nullspace_basis(stacked)
    candidates = am @ null[: am.shape[1], :]
    return range_basis(candidates)


def union_span_dim(bases) -> int:
    """Dimension of the joint span of a collection of bases/vectors."""
    mats = [as_complex_matrix(b) for b in bases]
    if not mats:
        return 0
    rows = {m.shape[0] for m in mats}
    if len(rows) != 1:
        raise ShapeMismatch(f"bases have mixed row counts: {sorted(rows)}")
    return numerical_rank(np.hstack(mats))


def dense(blocks):
    """The block-diagonal matrix of one user's ``ext x rows x cols`` channel blocks."""
    return block_diag(*blocks)


def complement_projector(b):
    """Orthogonal projector onto the complement of ``span(b)``.

    Rank-deficient ``b`` is handled by projecting with an orthonormal basis
    of its span instead of the normal-equation inverse.
    """
    bm = as_complex_matrix(b)
    q = range_basis(bm)
    return np.eye(bm.shape[0], dtype=np.complex128) - q @ q.conj().T


def projector(complement, factor):
    """Dense projector ``C C^H + Z Z^H`` of one pair from its factors."""
    return complement @ complement.conj().T + factor @ factor.conj().T


def build_one_link(ch, specs, rng):
    """Units of ``specs`` from the library's pass over ``ch`` alone; the first error raises."""
    (units,) = _build_units([(ch, rng)], specs)
    _raise_first_error(units)
    return units


def build_aligned_unit(ch, group, column_block):
    """Order-``t`` aligned unit on one column block, the library's batch of one."""
    return build_one_link(ch, [(len(group), group, column_block)], None)[0]


def build_random_unit(ch, rng):
    """Random unit drawn from ``rng``, the library's batch of one."""
    return build_one_link(ch, [(RANDOM, tuple(range(ch.k)), 0)], rng)[0]


def twinned_units(ch, specs):
    """Units of ``specs`` with their downlink twins, keyed and raised as ``execute_plan`` does."""
    units, twins = _build_units([(ch, derived_rng(ch.seed, 1)),
                                 (_mirror(ch), derived_rng(ch.seed, 2))], specs)
    _raise_first_error(units)
    _raise_first_error(twins, name="downlink twin of unit", side="downlink")
    for unit, twin in zip(units, twins):
        unit.twin = twin
    return units


def reference_joint_independence(side, bases):
    """One link's joint-independence rule by the SVD of its stacked bases' ``R`` alone.

    ``R`` is the complete QR's, and all ``W`` of its singular values must
    count with the stacked shape.  Gives ``None`` or the library's
    ``IndependenceViolation`` message.
    """
    stacked = np.hstack(bases)
    rows, width = stacked.shape
    r = np.linalg.qr(stacked, mode="complete")[1][:width]
    sigma = np.linalg.svd(r, compute_uv=False)
    rank = int(np.count_nonzero(sigma > RANK_REL * sigma[0] * max(rows, width)))
    if rank == width:
        return None
    dropped = sigma[rank] / sigma[0] if rank < sigma.size else 0.0
    return (f"{side} unit spans overlap: their dimensions sum to {width}, "
            f"jointly they span {rank} of N_active = {rows}; largest dropped singular "
            f"value / sigma_max = {dropped:.1e} against RANK_REL*max(shape) = "
            f"{RANK_REL * max(rows, width):.1e}")


def reference_nullspace(a):
    """Right nullspace of one matrix from one full SVD: its trailing right singular vectors."""
    vh = np.linalg.svd(a, full_matrices=True)[2]
    return vh[numerical_rank(a):].conj().T


def reference_group_nullspace(ch, group):
    """A group's mixed nullspace basis, one ``nullspace_basis`` per slot."""
    t, ext = len(group), ch.extension
    slots = [nullspace_basis(stack) for stack in np.concatenate(ch.uplink[list(group)], axis=2)]
    width = sum(b.shape[1] for b in slots)
    mixing = np.linalg.qr(complex_gaussian(derived_rng(ch.seed, 3, *group), width, width))[0]
    basis = np.empty((t, ext, ch.m, width), dtype=np.complex128)
    start = 0
    for s, slot in enumerate(slots):
        basis[:, s] = (slot @ mixing[start:start + slot.shape[1]]).reshape(t, ch.m, width)
        start += slot.shape[1]
    return basis.reshape(t * ext * ch.m, width)


def _reference_unit(ch, pattern_order, group, beam, column_block=0):
    pairs = tuple(sorted(beam))
    beams = np.column_stack([beam[p] for p in pairs])
    per = len(group) - 1
    streams = np.hstack([slot_product(ch.uplink[a], beams[:, i * per:(i + 1) * per])
                         for i, a in enumerate(sorted(group))])
    basis = range_basis(streams)
    want = len(group) * per if pattern_order == RANDOM else per ** 2
    if basis.shape[1] != want:
        kind = "random" if pattern_order == RANDOM else f"order-{pattern_order}"
        raise AlignmentDegenerate(
            f"{kind} unit on group {group} spans {basis.shape[1]} dimensions, expected {want}")
    return Unit(pattern_order, group, pairs, beams, streams, column_block, basis)


def reference_aligned_unit(ch, group, basis, column_block):
    """Order-``t`` unit from one column block, solving each aggregate pair by pair."""
    t, mt = len(group), ch.m * ch.extension
    start, end = (t - 1) * column_block, (t - 1) * (column_block + 1)
    if end > basis.shape[1]:
        raise SupplyExhausted(
            f"group {group} nullspace has {basis.shape[1]} columns, "
            f"block {column_block} needs columns {start}..{end - 1}")
    cols = basis[:, start:end]
    w = [[cols[i * mt:(i + 1) * mt, j] for j in range(t - 1)] for i in range(t)]
    local = {(i, j): w[i][j] for j in range(t - 1) for i in range(t) if i != j}

    def sign(i, j):
        return 1.0 if (i == 0 or j == 0) else -1.0

    for j in range(t - 1):
        acc = w[j][j].copy()
        for i in range(t - 1):
            if i != j:
                acc -= sign(j, i) * local[(j, i)]
        local[(j, t - 1)] = acc / sign(j, t - 1)
    beam = {(group[i], group[j]): v for (i, j), v in local.items()}
    return _reference_unit(ch, t, group, beam, column_block)


def reference_random_unit(ch, rng):
    """Random unit, one unit-norm draw per ordered pair."""
    group = tuple(range(ch.k))
    beam = {}
    for pair in permutations(group, 2):
        u = complex_gaussian(rng, ch.m * ch.extension, 1)[:, 0]
        beam[pair] = u / np.linalg.norm(u)
    return _reference_unit(ch, RANDOM, group, beam)


def reference_units(ch, specs, rng):
    """One unit per ``(pattern_order, group, column_block)`` spec, built in order."""
    bases = {}
    units = []
    for order, group, block in specs:
        if order == RANDOM:
            units.append(reference_random_unit(ch, rng))
            continue
        if group not in bases:
            bases[group] = reference_group_nullspace(ch, group)
        units.append(reference_aligned_unit(ch, group, bases[group], block))
    return units


def reference_intersection_dim(a, b):
    """Dimension of ``span(a) & span(b)``, one intersection basis."""
    return intersection_basis(a, b).shape[1]


def reference_stacked_rank(mats):
    """Rank of ``[A_1 U_1, ..., A_K U_K]``, ``U`` a nullspace basis of ``[A_1 .. A_K]``."""
    m = mats[0].shape[1]
    basis = nullspace_basis(np.hstack(mats))
    pieces = [mat @ basis[i * m:(i + 1) * m, :] for i, mat in enumerate(mats)]
    return numerical_rank(np.hstack(pieces))


def reference_direct_sum_dim(mats, t):
    """Dimension of the joint span of every size-``t`` group's aligned pieces."""
    mt = mats[0].shape[1]
    pieces = []
    for group in combinations(range(len(mats)), t):
        basis = nullspace_basis(np.hstack([mats[g] for g in group]))
        pieces.extend(mats[g] @ basis[i * mt:(i + 1) * mt, :] for i, g in enumerate(group))
    return union_span_dim(pieces)


def _reference_trials(result, trials, seed, measure):
    """Tally ``measure(rng)`` of each trial into a zero-trial result.

    Every trial draws from the same stream, ``rng = derived_rng(seed)``, in
    trial order.
    """
    result.trials = trials
    rng = derived_rng(seed)
    for trial in range(trials):
        value = measure(rng)
        result.observed[value] += 1
        if value != result.expected_value:
            result.failures += 1
            result.failure_trials.append(trial)
    return result


def reference_check_intersection(m, n, trials, seed):
    def measure(rng):
        a = complex_gaussian(rng, n, m)
        return reference_intersection_dim(a, complex_gaussian(rng, n, m))
    return _reference_trials(check_intersection(m, n, 0, seed), trials, seed, measure)


def reference_check_stacked_rank(k, m, n, trials, seed):
    def measure(rng):
        return reference_stacked_rank([complex_gaussian(rng, n, m) for _ in range(k)])
    return _reference_trials(check_stacked_rank(k, m, n, 0, seed), trials, seed, measure)


def reference_check_direct_sum(k, t, m, n, trials, seed, extension=1):
    def measure(rng):
        mats = [dense([complex_gaussian(rng, n, m) for _ in range(extension)])
                for _ in range(k)]
        return reference_direct_sum_dim(mats, t)
    return _reference_trials(check_direct_sum(k, t, m, n, 0, seed, extension), trials, seed,
                             measure)


def reference_curve_csv(k, mode, ratios, half_duplex=False):
    """``curve`` output for ``--k k`` (an int or ``"inf"``) over the sorted Fractions ``ratios``.

    The per-row formatter: every row formats its ratio and its value afresh,
    with no text reused from another row or column, and the ``curve``
    command, which reuses texts, must match it byte for byte.
    """
    if k == "inf":
        mode_tag = f"asymptotic-{mode}"
    else:
        mode_tag = mode
        evaluate = {"outer": dof.outer_bound_per_user, "basic": dof.achievable_basic,
                    "improved": dof.achievable_improved}[mode]
    lines = [CSV_HEADER]
    for ratio in ratios:
        m, n = ratio.numerator, ratio.denominator
        if k == "inf":
            value = dof.asymptotic_dof(ratio, improved=mode == "improved")
            tight = False
        else:
            res = evaluate(m, n, k)
            value, tight = res.d_user / n, res.capacity_tight
        if half_duplex:
            value = value / 2
        lines.append(
            f"{ratio.numerator},{ratio.denominator},{float(ratio)!r},"
            f"{value.numerator},{value.denominator},{float(value)!r},"
            f"{mode_tag},{str(tight).lower()}"
        )
    return "\n".join(lines) + "\n"
