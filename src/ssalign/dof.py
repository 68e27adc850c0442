"""Closed-form degrees-of-freedom expressions, in exact rational arithmetic.

Every rule here runs on plain-int numerator/denominator pairs, and breakpoint
comparisons (``7/16``, ``(t+1)(t-1)/t^3``, ...) are integer
cross-multiplications, so they are exact.  The public functions return exact
:class:`fractions.Fraction` values built from those pairs, and the results
double as the analytical oracle that constructed beamforming plans must
match.  No floating point is used, and neither numpy nor ``dataclasses``
(with its ``inspect``) is loaded: the two records are named tuples.

The regime constants that depend on ``K`` and the pattern order ``t`` alone
(``alpha_t``, ``beta_t``, ``theta_t``, ``tau_t`` and the capacity thresholds)
are computed once per ``(K, t)`` and cached as integers.  Integer arguments
are reduced to plain ``int`` first, so a caller passing numpy integers gets
the same plain ``int`` and ``Fraction`` values as one passing Python ints.

:func:`curve` walks a finite-``K`` basic or improved curve cell by cell: the
value is linear in ``M/N`` between the paper's breakpoints (``1/t``,
``theta_t``, ``tau_t`` and the capacity thresholds, read from the cached
constants), so the rule runs only on the breakpoints and on the first three
distinct ratios of each cell, whose line must hold at the third and at the
cell's finite ends.  Outer and many-user rows are computed one by one.

Setting: ``K`` users with ``M`` antennas each exchange messages pairwise
through an ``N``-antenna relay.  ``d_user`` counts spatial streams per user
per channel use; ``d_sum = K * d_user``; ``d_relay = d_sum / N``.
"""

from __future__ import annotations

import functools
import math
import operator
from collections import namedtuple
from collections.abc import Iterable, Iterator
from fractions import Fraction

from .errors import InvalidPatternOrder

__all__ = [
    "DofResult",
    "PatternCoefficients",
    "alpha_beta",
    "outer_bound_per_user",
    "regime_index",
    "achievable_basic",
    "achievable_improved",
    "improvement_branch",
    "gamma_theta_tau",
    "asymptotic_dof",
    "scaling_check",
    "capacity_thresholds",
    "curve",
]


class DofResult(namedtuple("DofResult", "d_user d_sum d_relay capacity_tight")):
    """Per-user/total/per-relay-dimension DoF triple with a tightness flag.

    ``capacity_tight`` is True only where the value is known to equal the DoF
    capacity; outer bounds always carry False.  An immutable named tuple: it
    unpacks, and compares and hashes as the tuple of its fields.
    """

    __slots__ = ()


class PatternCoefficients(namedtuple(
        "PatternCoefficients", "t alpha_t beta_t gamma_t1 gamma_t2 theta_t tau_t")):
    """Coefficients of the order-``t`` alignment regime for ``K`` users.

    ``alpha_t`` counts streams per user contributed by one unit across all
    groups containing that user; ``beta_t`` counts relay dimensions consumed
    per unit count across all groups.  ``gamma_t1`` is the mixed-fill
    achievable per-user DoF, ``gamma_t2`` the all-order-``t`` cap, ``theta_t``
    the corner ratio where both meet, and ``tau_t`` the breakpoint below
    which relay-antenna deactivation stops paying off (None for
    ``t = K - 1``).  An immutable named tuple: it unpacks, and compares and
    hashes as the tuple of its fields.
    """

    __slots__ = ()


def _validate_mnk(m: int, n: int, k: int) -> tuple[int, int, int]:
    # Plain ints: a numpy integer times one of the large binomial constants
    # overflows, and would leak its type into the returned fractions.
    m, n, k = operator.index(m), operator.index(n), operator.index(k)
    if k < 3:
        raise ValueError(f"user count must be >= 3, got {k}")
    if m < 1 or n < 1:
        raise ValueError(f"antenna counts must be positive, got M={m}, N={n}")
    return m, n, k


def _result(d_user: Fraction, n: int, k: int, tight: bool) -> DofResult:
    d_sum = k * d_user
    return DofResult(d_user=d_user, d_sum=d_sum, d_relay=d_sum / n, capacity_tight=tight)


def _per_k_constant(fn):
    # Exceptions are not cached, so out-of-range arguments raise on every call.
    # The bound keeps a sweep over many K from growing the cache without limit;
    # it holds every order t of one K up to 4096.
    cached = functools.lru_cache(maxsize=4096)(fn)

    @functools.wraps(fn)
    def plain_int_args(*args):
        return cached(*map(operator.index, args))
    return plain_int_args


@_per_k_constant
def alpha_beta(k: int, t: int) -> tuple[int, int]:
    """Stream/dimension multipliers of pattern order ``t``.

    ``alpha_t = C(K-1, t-1) (t-1)`` and ``beta_t = C(K, t) (t-1)^2``, exact
    integers for ``2 <= t <= K``.
    """
    if k < 3:
        raise InvalidPatternOrder(f"user count must be >= 3, got {k}")
    if not 2 <= t <= k:
        raise InvalidPatternOrder(f"pattern order {t} outside [2, {k}]")
    return math.comb(k - 1, t - 1) * (t - 1), math.comb(k, t) * (t - 1) ** 2


# -- integer core ------------------------------------------------------------
#
# Each closed form below is written once, on plain ints: a value is a
# ``(numerator, denominator)`` pair with a positive denominator, not
# necessarily reduced, and ``a/b <= c/d`` is tested as ``a*d <= c*b``.
# Callers pass plain ints already, so the per-(K, t) constants are cached
# without _per_k_constant's conversion.
_core_constant = functools.lru_cache(maxsize=4096)


@_core_constant
def _threshold_pairs(k: int) -> tuple[int, int, int, int]:
    # (k-1)/(k(k-2)) and 1/(k(k-1)) + 1/2, as (low_num, low_den, high_num, high_den).
    if k < 3:
        raise ValueError(f"user count must be >= 3, got {k}")
    return k - 1, k * (k - 2), k * (k - 1) + 2, 2 * k * (k - 1)


@_core_constant
def _theta(k: int, t: int) -> tuple[int, int]:
    # (t - 1)/(t beta_t) + 1/t.
    _, b_t = alpha_beta(k, t)
    return t - 1 + b_t, t * b_t


@_core_constant
def _fill(k: int, t: int) -> tuple[int, int, int, int]:
    # (alpha_t, beta_t) and those of the units that fill the rest of the
    # relay: order t + 1, or for t = K random-direction units with
    # alpha = K - 1, beta = K(K - 1).
    a_next, b_next = (k - 1, k * (k - 1)) if t == k else alpha_beta(k, t + 1)
    return (*alpha_beta(k, t), a_next, b_next)


@_core_constant
def _tau(k: int, t: int) -> tuple[int, int]:
    a_t, b_t, a_next, b_next = _fill(k, t)
    return a_next * (t - 1 + b_t), t * a_t * b_next


def _gammas(m: int, n: int, k: int, t: int) -> tuple[int, int, int, int]:
    # gamma_{t,1} and gamma_{t,2} as (num, den, num, den).
    a_t, b_t, a_next, b_next = _fill(k, t)
    # a_t x + (a_next / b_next)(N - b_t x) with x = (tM - N)/(t - 1), over
    # the common denominator (t - 1) b_next.
    excess = t * m - n
    return (a_t * b_next * excess + a_next * ((t - 1) * n - b_t * excess),
            (t - 1) * b_next, a_t * n, b_t)


def _regime(m: int, n: int) -> int:
    # regime_index on positive plain ints.
    return max(2, n // m + 1)


def _outer(m: int, n: int, k: int) -> tuple[int, int]:
    # min(M, 2N/K).
    return (m, 1) if m * k <= 2 * n else (2 * n, k)


def _basic(m: int, n: int, k: int) -> tuple[int, int]:
    # For M > N the value at M = N: the relay is the bottleneck.
    m = min(m, n)
    if k * m <= n:
        return m, 1
    g1_num, g1_den, g2_num, g2_den = _gammas(m, n, k, _regime(m, n))
    return (g2_num, g2_den) if g2_num * g1_den < g1_num * g2_den else (g1_num, g1_den)


def _tight(m: int, n: int, k: int) -> bool:
    # M/N <= low or M/N >= high, the two capacity ranges.
    low_num, low_den, high_num, high_den = _threshold_pairs(k)
    return m * low_den <= low_num * n or m * high_den >= high_num * n


def _branch(m: int, n: int, k: int) -> tuple[int, bool] | None:
    # theta_2 is the high threshold and theta_{K-1} the low one, so the
    # intervals (theta_{t+1}, theta_t] cover the open range between them.  In
    # regime t, theta_{t+1} <= 1/t < M/N <= 1/(t-1) < theta_{t-1}, so M/N lies
    # in interval t up to theta_t and in interval t - 1 above it.
    if k == 3 or _tight(m, n, k):
        return None
    t = _regime(m, n)
    theta_num, theta_den = _theta(k, t)
    if m * theta_den > theta_num * n:
        t -= 1
    if not 2 <= t <= k - 2:
        raise AssertionError(f"ratio {m}/{n} not covered by any improvement interval")
    tau_num, tau_den = _tau(k, t)
    return t, m * tau_den > tau_num * n


def _improved(m: int, n: int, k: int) -> tuple[int, int]:
    branch = _branch(m, n, k)
    if branch is None:
        return _basic(m, n, k)
    t, deactivate = branch
    a_t, b_t, a_next, b_next = _fill(k, t)
    if deactivate:
        return m * t * a_t, t - 1 + b_t
    return n * a_next, b_next


def _asymptotic(num: int, den: int, improved: bool) -> tuple[int, int]:
    # num/den > 0; 2 above 1/2, else the branch of (1/t, 1/(t-1)].
    if 2 * num > den:
        return 2, 1
    t = _regime(num, den)
    if not improved:
        return t, t - 1
    t -= 1
    # Flat (t+1)/t up to (t+1)(t-1)/t^3, the line ratio * t^2/(t-1) beyond.
    if num * t**3 <= (t + 1) * (t - 1) * den:
        return t + 1, t
    return num * t * t, den * (t - 1)


@_core_constant
def _breakpoints(k: int, t: int) -> tuple[tuple[int, int], ...]:
    # The ratios, reduced and sorted, where the basic or improved value of
    # regime t may change its linear piece or its tightness: the regime's ends
    # 1/t and 1/(t-1), and theta_t, tau_{t-1} and tau_t where they lie between
    # them.  The capacity thresholds are theta_2 and theta_{K-1}.  Regime
    # K + 1 stands for every ratio up to 1/K, where d_user = M, and regime 1
    # for every ratio above 1, clamped at M = N; 1/0 lies above every ratio.
    if t > k:
        return (0, 1), (1, k)
    if t == 1:
        return (1, 1), (1, 0)
    points = {(1, t), (1, t - 1)}
    for num, den in [_theta(k, t), *(_tau(k, s) for s in (t - 1, t) if 2 <= s <= k - 2)]:
        if (t - 1) * num < den < t * num:
            g = math.gcd(num, den)
            points.add((num // g, den // g))
    return tuple(sorted(points, key=functools.cmp_to_key(lambda p, q: p[0] * q[1] - q[0] * p[1])))


# -- public functions --------------------------------------------------------


def capacity_thresholds(k: int) -> tuple[Fraction, Fraction]:
    """Ratios bounding the known-capacity ranges: ``(low, high)``.

    ``d_user = M`` is capacity for ``M/N <= low``; ``d_user = 2N/K`` is
    capacity for ``M/N >= high``.  For ``K = 3`` both equal ``2/3`` and the
    two ranges cover every ratio.
    """
    low_num, low_den, high_num, high_den = _threshold_pairs(operator.index(k))
    return Fraction(low_num, low_den), Fraction(high_num, high_den)


def outer_bound_per_user(m: int, n: int, k: int) -> DofResult:
    """Counting bound ``d_user <= min(M, 2N/K)`` (never flagged tight)."""
    m, n, k = _validate_mnk(m, n, k)
    return _result(Fraction(*_outer(m, n, k)), n, k, tight=False)


def regime_index(m: int, n: int) -> int:
    """Order ``t`` with ``M/N`` in ``(1/t, 1/(t-1)]``; 2 when ``M >= N``.

    Boundary ratios equal to ``1/t`` belong to the ``t + 1`` regime, where
    order-``t`` alignment degenerates (``tM - N = 0``).
    """
    m, n = operator.index(m), operator.index(n)
    if m < 1 or n < 1:
        raise ValueError(f"antenna counts must be positive, got M={m}, N={n}")
    return _regime(m, n)


def gamma_theta_tau(m: int, n: int, k: int, t: int) -> PatternCoefficients:
    """Evaluate the order-``t`` regime coefficients at ``(M, N)``."""
    m, n, k = _validate_mnk(m, n, k)
    t = operator.index(t)
    if not 2 <= t <= k - 1:
        raise InvalidPatternOrder(f"pattern order {t} outside [2, {k - 1}]")
    a_t, b_t = alpha_beta(k, t)
    g1_num, g1_den, g2_num, g2_den = _gammas(m, n, k, t)
    tau = Fraction(*_tau(k, t)) if t <= k - 2 else None
    return PatternCoefficients(
        t=t, alpha_t=a_t, beta_t=b_t, gamma_t1=Fraction(g1_num, g1_den),
        gamma_t2=Fraction(g2_num, g2_den), theta_t=Fraction(*_theta(k, t)), tau_t=tau,
    )


def achievable_basic(m: int, n: int, k: int) -> DofResult:
    """Per-user DoF of the group-by-group alignment scheme.

    ``d_user = M`` up to ``M/N = 1/K``; on ``(1/t, 1/(t-1)]`` the smaller of
    the mixed fill ``gamma_{t,1}`` and the cap ``gamma_{t,2}``; for
    ``M > N`` the value achieved at ``M = N`` (the relay is the bottleneck).
    """
    m, n, k = _validate_mnk(m, n, k)
    return _result(Fraction(*_basic(m, n, k)), n, k, _tight(m, n, k))


def improvement_branch(m: int, n: int, k: int) -> tuple[int, bool] | None:
    """Improved-curve interval holding ``M/N``: ``(t, deactivate)``, or None.

    None where the improved value equals the basic one: ``K = 3``, or ``M/N``
    outside the open range of :func:`capacity_thresholds`.  Otherwise ``M/N``
    lies in ``(theta_{t+1}, theta_t]`` for some ``t = 2, ..., K-2``, and
    ``deactivate`` is False on ``(theta_{t+1}, tau_t]``, where order-``t+1``
    units fill the relay, and True on ``(tau_t, theta_t]``, where the relay
    keeps only ``M / theta_t`` antennas.
    """
    return _branch(*_validate_mnk(m, n, k))


def achievable_improved(m: int, n: int, k: int) -> DofResult:
    """Per-user DoF with relay-antenna deactivation on the middle gap.

    Off the gap (see :func:`improvement_branch`) this equals
    :func:`achievable_basic`, which is capacity there.  On the gap the curve
    alternates between the flat corner value ``N alpha_{t+1} / beta_{t+1}``
    on ``(theta_{t+1}, tau_t]`` and the deactivation line
    ``M t alpha_t / (t - 1 + beta_t)`` on ``(tau_t, theta_t]``, for
    ``t = 2, ..., K-2``.  Never below the basic value.
    """
    m, n, k = _validate_mnk(m, n, k)
    # The gap is the open range between the capacity thresholds, so the
    # value is capacity exactly where the basic one is.
    return _result(Fraction(*_improved(m, n, k)), n, k, _tight(m, n, k))


def asymptotic_dof(ratio, improved: bool = False) -> Fraction:
    """Total DoF normalized by ``N`` in the many-user limit.

    Basic mode returns ``t/(t-1)`` on ``(1/t, 1/(t-1)]`` and 2 above ``1/2``.
    Improved mode, on ``(1/(t+1), 1/t]``, returns ``(t+1)/t`` up to the
    interior breakpoint ``(t+1)(t-1)/t^3`` and ``ratio * t^2/(t-1)`` beyond
    it.  Branch membership is decided by exact rational comparison.
    """
    r = Fraction(ratio)
    if r <= 0:
        raise ValueError(f"antenna ratio must be positive, got {r}")
    return Fraction(*_asymptotic(r.numerator, r.denominator, improved))


def curve(k: int | None, mode: str, ratios: Iterable[tuple[int, int]],
          half_duplex: bool = False) -> Iterator[tuple[int, int, int, int, bool]]:
    """Rows ``(c, d, value_num, value_den, tight)`` of one DoF curve.

    One row per ratio ``M/N = c/d`` in ``ratios``, positive integer pairs, in
    the order given.  For a user count ``k`` the value is ``d_user / N`` of
    ``mode`` ``"outer"``, ``"basic"`` or ``"improved"``
    (:func:`outer_bound_per_user`, :func:`achievable_basic`,
    :func:`achievable_improved`) and ``tight`` its ``capacity_tight``; for
    ``k=None`` it is :func:`asymptotic_dof` of mode ``"basic"`` or
    ``"improved"``, never tight.  ``half_duplex`` halves every value.  The
    value is in lowest terms, and equal to the public function's.

    Finite-``k`` basic and improved rows are walked by cells of the
    paper's breakpoints: the rule gives a cell's first three distinct ratios
    and the breakpoints, and the line through the first two gives the rest of
    the cell; ``AssertionError`` if the third, or the rule's value at a finite
    end of the cell, is off it.  Outer and ``k=None`` rows are computed one by
    one.  Pairs may come in any order, unreduced or repeated.

    ``k`` and ``mode`` are checked here; the pairs as the rows are made.
    """
    if mode not in (("basic", "improved") if k is None else ("outer", "basic", "improved")):
        raise ValueError(f"mode {mode!r} is not defined for k={k}")
    if k is not None:
        k = operator.index(k)
        if k < 3:
            raise ValueError(f"user count must be >= 3, got {k}")
    scale = 2 if half_duplex else 1
    if k is None or mode == "outer":
        return _point_rows(k, mode == "improved", ratios, scale)
    return _cell_rows(k, _improved if mode == "improved" else _basic, ratios, scale)


def _point_rows(k, improved, ratios, scale):
    # The outer bound and the many-user limit, O(1) per row.
    for c, d in ratios:
        c, d = operator.index(c), operator.index(d)
        if c < 1 or d < 1:
            raise ValueError(f"ratio {c}/{d} is not a positive rational")
        if k is None:
            num, den = _asymptotic(c, d, improved)
        else:
            num, den = _outer(c, d, k)
            den *= d
        den *= scale
        g = math.gcd(num, den)
        yield c, d, num // g, den // g, False


def _cell_rows(k, rule, ratios, scale):
    # Cell (t, i) is the open range between breakpoints i - 1 and i of
    # regime t, where d_user = (a M + b N) / line_den and the tightness is
    # constant.
    lines = {}    # cell -> its checked line (a, b, line_den, tight)
    points = {}   # cell -> its distinct rule points (c, d, num, den, tight) so far
    # The open cell of `line`, the line the last row found; empty at first.
    lo_num = lo_den = hi_num = hi_den = 0
    line = None
    for c, d in ratios:
        c, d = operator.index(c), operator.index(d)
        if c < 1 or d < 1:
            raise ValueError(f"ratio {c}/{d} is not a positive rational")
        if lo_num * d < c * lo_den and c * hi_den < hi_num * d:
            a, b, line_den, tight = line
            num, den = a * c + b * d, line_den * d
        else:
            t = d // c + 1
            if t > k:
                t = k + 1
            bounds = _breakpoints(k, t)
            i = 1
            hi_num, hi_den = bounds[1]
            while c * hi_den > hi_num * d:
                i += 1
                hi_num, hi_den = bounds[i]
            inside = c * hi_den < hi_num * d
            line = lines.get((t, i)) if inside else None
            if line is not None:
                lo_num, lo_den = bounds[i - 1]
                a, b, line_den, tight = line
                num, den = a * c + b * d, line_den * d
            else:
                lo_num = lo_den = 0
                num, den = rule(c, d, k)
                tight = _tight(c, d, k)
                if inside:
                    seen = points.setdefault((t, i), [])
                    if all(c * q != p * d for p, q, *_ in seen):
                        seen.append((c, d, num, den, tight))
                        if len(seen) == 3:
                            lines[t, i] = _line(seen, bounds[i - 1:i + 1], rule, k)
                den *= d
        den *= scale
        g = math.gcd(num, den)
        yield c, d, num // g, den // g, tight


def _line(seen, ends, rule, k):
    # (a, b, line_den, tight) with d_user = (a M + b N) / line_den through the
    # first two of a cell's three rule points.  The third must lie on it, and
    # so must the rule's values at the cell's ends other than 0/1 and 1/0,
    # where the curve is continuous: a missing breakpoint shows in any order.
    (c1, d1, n1, q1, tight), (c2, d2, n2, q2, _), (c3, d3, n3, q3, _) = seen
    # Cramer's rule on a c_i + b d_i = n_i / q_i, scaled by q1 q2.
    a = n1 * q2 * d2 - n2 * q1 * d1
    b = c1 * n2 * q1 - c2 * n1 * q2
    line_den = (c1 * d2 - c2 * d1) * q1 * q2
    g = math.gcd(a, b, line_den) * (1 if line_den > 0 else -1)
    a, b, line_den = a // g, b // g, line_den // g
    at_ends = [(c, d, *rule(c, d, k)) for c, d in ends if c and d]
    for c, d, num, den in [(c3, d3, n3, q3), *at_ends]:
        if (a * c + b * d) * den != num * line_den or any(p[4] != tight for p in seen):
            raise AssertionError(f"ratio {c}/{d} is off the line of its curve cell")
    return a, b, line_den, tight


def scaling_check(m: int, n: int, sigma: int, k: int) -> bool:
    """True iff scaling both antenna counts by ``sigma`` scales the DoF by ``sigma``.

    Exact rational identity; holds because the achievable value is
    ``psi(M/N) * N`` for a coefficient depending only on the ratio.
    """
    if sigma < 1:
        raise ValueError(f"scale factor must be positive, got {sigma}")
    scaled_num, scaled_den = _basic(*_validate_mnk(sigma * m, sigma * n, k))
    num, den = _basic(*_validate_mnk(m, n, k))
    return scaled_num * den == operator.index(sigma) * num * scaled_den
