"""Closed-form degrees-of-freedom expressions, in exact rational arithmetic.

Every value here is a :class:`fractions.Fraction` computed from integers, so
breakpoint comparisons (``7/16``, ``(t+1)(t-1)/t^3``, ...) are exact and the
results double as the analytical oracle that constructed beamforming plans
must match.  No floating point is used anywhere in this module.

The regime constants that depend on ``K`` and the pattern order ``t`` alone
(``alpha_t``, ``beta_t``, ``theta_t``, ``tau_t`` and the capacity thresholds)
are computed once per ``(K, t)`` and cached.  Integer arguments are reduced
to plain ``int`` first, so a caller passing numpy integers gets the same
plain ``int`` and ``Fraction`` values as one passing Python ints.

Setting: ``K`` users with ``M`` antennas each exchange messages pairwise
through an ``N``-antenna relay.  ``d_user`` counts spatial streams per user
per channel use; ``d_sum = K * d_user``; ``d_relay = d_sum / N``.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
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
]


@dataclass(frozen=True)
class DofResult:
    """Per-user/total/per-relay-dimension DoF triple with a tightness flag.

    ``capacity_tight`` is True only where the value is known to equal the DoF
    capacity; outer bounds always carry False.
    """

    d_user: Fraction
    d_sum: Fraction
    d_relay: Fraction
    capacity_tight: bool


@dataclass(frozen=True)
class PatternCoefficients:
    """Coefficients of the order-``t`` alignment regime for ``K`` users.

    ``alpha_t`` counts streams per user contributed by one unit across all
    groups containing that user; ``beta_t`` counts relay dimensions consumed
    per unit count across all groups.  ``gamma_t1`` is the mixed-fill
    achievable per-user DoF, ``gamma_t2`` the all-order-``t`` cap, ``theta_t``
    the corner ratio where both meet, and ``tau_t`` the breakpoint below
    which relay-antenna deactivation stops paying off (undefined for
    ``t = K - 1``).
    """

    t: int
    alpha_t: int
    beta_t: int
    gamma_t1: Fraction
    gamma_t2: Fraction
    theta_t: Fraction
    tau_t: Fraction | None


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
    # it holds every order t of one K up to 4096, so improvement_branch's scan
    # over t still hits.
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


@_per_k_constant
def capacity_thresholds(k: int) -> tuple[Fraction, Fraction]:
    """Ratios bounding the known-capacity ranges: ``(low, high)``.

    ``d_user = M`` is capacity for ``M/N <= low``; ``d_user = 2N/K`` is
    capacity for ``M/N >= high``.  For ``K = 3`` both equal ``2/3`` and the
    two ranges cover every ratio.
    """
    if k < 3:
        raise ValueError(f"user count must be >= 3, got {k}")
    return Fraction(k - 1, k * (k - 2)), Fraction(1, k * (k - 1)) + Fraction(1, 2)


def outer_bound_per_user(m: int, n: int, k: int) -> DofResult:
    """Counting bound ``d_user <= min(M, 2N/K)`` (never flagged tight)."""
    m, n, k = _validate_mnk(m, n, k)
    d = min(Fraction(m), Fraction(2 * n, k))
    return _result(d, n, k, tight=False)


def regime_index(m: int, n: int) -> int:
    """Order ``t`` with ``M/N`` in ``(1/t, 1/(t-1)]``; 2 when ``M >= N``.

    Boundary ratios equal to ``1/t`` belong to the ``t + 1`` regime, where
    order-``t`` alignment degenerates (``tM - N = 0``).
    """
    if m < 1 or n < 1:
        raise ValueError(f"antenna counts must be positive, got M={m}, N={n}")
    return max(2, n // m + 1)


@_per_k_constant
def _theta(k: int, t: int) -> Fraction:
    _, b_t = alpha_beta(k, t)
    return Fraction(t - 1, t * b_t) + Fraction(1, t)


@_per_k_constant
def _tau(k: int, t: int) -> Fraction:
    a_t, b_t = alpha_beta(k, t)
    a_next, b_next = alpha_beta(k, t + 1)
    return Fraction(a_next * (t - 1 + b_t), t * a_t * b_next)


def _gammas(m: int, n: int, k: int, t: int) -> tuple[Fraction, Fraction]:
    # gamma_{t,1} fills with order t + 1 units; order K + 1 stands for
    # random-direction units: alpha = K - 1, beta = K(K - 1).
    a_t, b_t = alpha_beta(k, t)
    a_next, b_next = (k - 1, k * (k - 1)) if t == k else alpha_beta(k, t + 1)
    # a_t x + (a_next / b_next)(N - b_t x) with x = (tM - N)/(t - 1), over
    # the common denominator (t - 1) b_next.
    excess = t * m - n
    g1 = Fraction(a_t * b_next * excess + a_next * ((t - 1) * n - b_t * excess),
                  (t - 1) * b_next)
    return g1, Fraction(a_t * n, b_t)


def gamma_theta_tau(m: int, n: int, k: int, t: int) -> PatternCoefficients:
    """Evaluate the order-``t`` regime coefficients at ``(M, N)``."""
    m, n, k = _validate_mnk(m, n, k)
    t = operator.index(t)
    if not 2 <= t <= k - 1:
        raise InvalidPatternOrder(f"pattern order {t} outside [2, {k - 1}]")
    a_t, b_t = alpha_beta(k, t)
    g1, g2 = _gammas(m, n, k, t)
    tau = _tau(k, t) if t <= k - 2 else None
    return PatternCoefficients(
        t=t, alpha_t=a_t, beta_t=b_t, gamma_t1=g1, gamma_t2=g2,
        theta_t=_theta(k, t), tau_t=tau,
    )


def _basic_user(m: int, n: int, k: int) -> Fraction:
    # Per-user value for M/N <= 1; callers clamp M to N above that.
    if k * m <= n:
        return Fraction(m)
    return min(_gammas(m, n, k, regime_index(m, n)))


def _tight(ratio: Fraction, k: int) -> bool:
    lo, hi = capacity_thresholds(k)
    return ratio <= lo or ratio >= hi


def achievable_basic(m: int, n: int, k: int) -> DofResult:
    """Per-user DoF of the group-by-group alignment scheme.

    ``d_user = M`` up to ``M/N = 1/K``; on ``(1/t, 1/(t-1)]`` the smaller of
    the mixed fill ``gamma_{t,1}`` and the cap ``gamma_{t,2}``; for
    ``M > N`` the value achieved at ``M = N`` (the relay is the bottleneck).
    """
    m, n, k = _validate_mnk(m, n, k)
    d = _basic_user(min(m, n), n, k)
    return _result(d, n, k, _tight(Fraction(m, n), k))


def improvement_branch(m: int, n: int, k: int) -> tuple[int, bool] | None:
    """Improved-curve interval holding ``M/N``: ``(t, deactivate)``, or None.

    None where the improved value equals the basic one: ``K = 3``, or ``M/N``
    outside the open range of :func:`capacity_thresholds`.  Otherwise ``M/N``
    lies in ``(theta_{t+1}, theta_t]`` for some ``t = 2, ..., K-2``, and
    ``deactivate`` is False on ``(theta_{t+1}, tau_t]``, where order-``t+1``
    units fill the relay, and True on ``(tau_t, theta_t]``, where the relay
    keeps only ``M / theta_t`` antennas.
    """
    m, n, k = _validate_mnk(m, n, k)
    ratio = Fraction(m, n)
    lo, hi = capacity_thresholds(k)
    if k == 3 or ratio <= lo or ratio >= hi:
        return None
    for t in range(2, k - 1):
        if _theta(k, t + 1) < ratio <= _theta(k, t):
            return t, ratio > _tau(k, t)
    raise AssertionError(f"ratio {ratio} not covered by any improvement interval")


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
    branch = improvement_branch(m, n, k)
    if branch is None:
        return achievable_basic(m, n, k)
    t, deactivate = branch
    if deactivate:
        a_t, b_t = alpha_beta(k, t)
        d = Fraction(m * t * a_t, t - 1 + b_t)
    else:
        a_next, b_next = alpha_beta(k, t + 1)
        d = Fraction(n * a_next, b_next)
    return _result(d, n, k, tight=False)


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
    if r > Fraction(1, 2):
        return Fraction(2)
    t = regime_index(r.numerator, r.denominator)
    if not improved:
        return Fraction(t, t - 1)
    t -= 1
    split = Fraction((t + 1) * (t - 1), t**3)
    if r <= split:
        return Fraction(t + 1, t)
    return r * Fraction(t * t, t - 1)


def scaling_check(m: int, n: int, sigma: int, k: int) -> bool:
    """True iff scaling both antenna counts by ``sigma`` scales the DoF by ``sigma``.

    Exact rational identity; holds because the achievable value is
    ``psi(M/N) * N`` for a coefficient depending only on the ratio.
    """
    if sigma < 1:
        raise ValueError(f"scale factor must be positive, got {sigma}")
    scaled = achievable_basic(sigma * m, sigma * n, k).d_user
    return scaled == sigma * achievable_basic(m, n, k).d_user
