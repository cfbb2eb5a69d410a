"""Multi-class user equilibria: cutoffs <-> prices, welfare and profit.

A market offers m service classes with capacities (C_1, ..., C_m) at prices
p_1 >= ... >= p_m >= 0, all at or below the access value V.  A user of type
theta joining class i enjoys utility V - p_i - theta * K(Q_i, C_i); users
pick the best class or opt out.  At equilibrium the population splits at
cutoff types theta_1 > theta_2 > ... > theta_m > 0:

* class i serves the types in [theta_{i+1}, theta_i] (theta_{m+1} = 0), so
  its usage is Q_i = F(theta_i) - F(theta_{i+1});
* each cutoff user is indifferent between the neighbouring classes:
  p_{i-1} - p_i = theta_i * (K_i - K_{i-1});
* the top cutoff user is indifferent to opting out: p_1 = V - theta_1 * K_1,
  unless everyone joins (saturated market, theta_1 pinned at the support
  end, in which case the relation relaxes to p_1 <= V - theta_1 * K_1).

Equal-price classes form a tie group: their common congestion level is
found by matching K across the members (the only split users cannot
arbitrage), and the group behaves like one composite class in the cutoff
chain.  Classes that attract nobody at the posted prices are dropped from
the chain and flagged degenerate, with a no-deviation check confirming the
drop is consistent.

This module never names a congestion kind: every family's formulas, the
tie-group level included, live in ``congestion.py`` and are reached
through the model's kernels.

The forward map (cutoffs -> prices) is closed form.  The reverse map is
solved in theta space: a damped Newton iteration with analytic Jacobian
covers the common interior and saturated cases of up to three classes
fast, with a nested bisection as the unconditional fallback, which also
solves every longer chain.  The bisection is sound because
each level's indifference residual is strictly increasing in its own
boundary once every deeper boundary is re-solved: suppose K_j failed to
rise as its boundary rises -- then the deeper boundary must have risen by
at least as much mass, forcing the deeper residual strictly up, which
contradicts it being re-solved to zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Sequence

from ._tolerances import (
    ACCESS_VALUE_SLACK, BOUNDARY_BISECT_STEPS, BRENT_MAXITER, BRENT_RTOL, BRENT_XTOL,
    CDF_ROUNDOFF, CHAIN_RESIDUAL_TOL, DEVIATION_SLACK, EMPTY_CLASS_MASS, INNER_EXTRA_STEPS,
    NEWTON_COLLAPSE, NEWTON_CONVERGED, NEWTON_HALVINGS, NEWTON_ITERATIONS,
    NEWTON_MIN_USAGE_SLACK, ORDER_ROUNDOFF, PRICE_TOL, SATURATION_SLACK,
    SEED_CUTOFF_GAP, SEED_USAGE_PAD, SINGULAR_PIVOT, SLOPE_FLOOR, SOLVED_RESIDUAL_TOL,
    SUPPORT_END_SLACK, THETA_TOL, TIE_TOL, TOP_EXTRA_STEPS,
)
from .congestion import CongestionModel
from .errors import (
    ConvergenceError,
    DomainError,
    NoEquilibriumError,
    OrderError,
)
from .population import TypeDistribution, uniform

__all__ = [
    "MarketScenario",
    "Equilibrium",
    "ConstraintReport",
    "prices_from_cutoffs",
    "cutoffs_from_prices",
    "identical_price_equilibrium",
    "social_welfare",
    "provider_profit",
    "validate",
]


# ---------------------------------------------------------------------------
# scenario and result types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MarketScenario:
    """Everything needed to pose the equilibrium problem.

    ``capacities`` are listed premium-first: class 1 is the one that will
    carry the highest price.
    """

    v: float
    capacities: tuple
    model: CongestionModel
    dist: TypeDistribution = field(default_factory=uniform)

    def __post_init__(self):
        # written so that NaN fails each test
        if not 0.0 < self.v < math.inf:
            raise DomainError(f"access value must be positive and finite, got {self.v}")
        if len(self.capacities) < 1:
            raise DomainError("at least one service class is required")
        if not all(0.0 < c < math.inf for c in self.capacities):
            raise DomainError(f"capacities must be positive and finite, got {self.capacities}")
        object.__setattr__(self, "capacities", tuple(float(c) for c in self.capacities))

    @property
    def m(self) -> int:
        return len(self.capacities)

    def merged(self) -> "MarketScenario":
        """Same market with all capacity pooled into a single class."""
        return MarketScenario(self.v, (sum(self.capacities),), self.model, self.dist)

    def with_capacities(self, capacities) -> "MarketScenario":
        return MarketScenario(self.v, tuple(capacities), self.model, self.dist)


@dataclass(frozen=True)
class Equilibrium:
    """A solved market split, premium class first.

    ``saturated`` marks full participation (top cutoff at the support end);
    ``degenerate`` marks empty classes or cutoff ties.  ``opt_out`` is the
    user mass joining nothing.
    """

    cutoffs: tuple
    prices: tuple
    usages: tuple
    levels: tuple
    saturated: bool
    degenerate: bool
    opt_out: float

    @property
    def m(self) -> int:
        return len(self.cutoffs)

    @property
    def total_usage(self) -> float:
        return sum(self.usages)


@dataclass(frozen=True)
class ConstraintReport:
    """Per-constraint diagnosis of a candidate equilibrium."""

    c1_ok: bool
    c2_ok: bool
    c3_ok: bool
    c1_min_gap: float          # smallest cutoff decrement (negative = inversion)
    c2_violation: float        # worst K_i - K_{i+1} excess (0 = fine)
    c3_residuals: tuple        # per-cutoff indifference residuals, price units
    degenerate_ties: tuple     # indices i where theta_i ~= theta_{i+1}
    saturated: bool

    @property
    def all_ok(self) -> bool:
        return self.c1_ok and self.c2_ok and self.c3_ok


# ---------------------------------------------------------------------------
# tie groups
# ---------------------------------------------------------------------------

@dataclass
class _Group:
    price: float
    caps: list          # member capacities, scenario order
    idx: list           # member class indices

    def floor_level(self, model: CongestionModel) -> float:
        return min(model.level_floor(c) for c in self.caps)

    def split(self, model: CongestionModel, q: float, lev: float) -> list:
        """Member usages at the matched level ``lev`` = ``model._tie_level(caps)(q)``,
        summing to q exactly."""
        if len(self.caps) == 1:
            return [q]
        parts = [model.usage_at_level(lev, c) for c in self.caps]
        total = sum(parts)
        if total > 0.0:
            # absorb the inversion residue into the largest member so the
            # parts sum to q bit-exactly
            j = max(range(len(parts)), key=lambda i: parts[i])
            parts[j] += q - total
        elif parts:
            parts[0] = q
        return parts


def _group_by_price(prices, capacities):
    groups = []
    for i, (p, c) in enumerate(zip(prices, capacities)):
        if groups and groups[-1].price == p:
            groups[-1].caps.append(c)
            groups[-1].idx.append(i)
        else:
            groups.append(_Group(p, [c], [i]))
    return groups


# ---------------------------------------------------------------------------
# forward map: cutoffs -> prices
# ---------------------------------------------------------------------------

def _class_level(model: CongestionModel, q: float, c: float) -> float:
    """Congestion level of one class serving mass q.  A class with (almost)
    no users gets its empty-class level; roundoff may leave q slightly
    below zero or the minimum usage, which ``evaluate`` would reject."""
    if q <= EMPTY_CLASS_MASS:
        return model._value_capped(max(q, 0.0), c)
    return model.evaluate(q, c)


def prices_from_cutoffs(
    scenario: MarketScenario,
    cutoffs: Sequence[float],
    enforce_order: bool = True,
) -> Equilibrium:
    """Price a given cutoff vector by forward substitution.

    The top price makes the top cutoff user indifferent to opting out; each
    further price difference makes the boundary user indifferent between
    neighbouring classes, so the indifference constraints hold exactly by
    construction.  With ``enforce_order`` the resulting prices must be
    nonincreasing and nonnegative and the congestion levels nondecreasing,
    otherwise :class:`OrderError` signals that the cutoffs are not an
    equilibrium.  A top cutoff at the support end marks a saturated market
    and receives the boundary (largest admissible) top price.
    """
    theta_bar = scenario.dist.support_end
    m = scenario.m
    if len(cutoffs) != m:
        raise OrderError(f"expected {m} cutoffs, got {len(cutoffs)}")
    th = [float(t) for t in cutoffs]
    if not all(math.isfinite(t) for t in th):
        raise DomainError(f"cutoffs must be finite, got {cutoffs}")
    # each order test below is written so that NaN fails it
    if not th[0] <= theta_bar + SUPPORT_END_SLACK:
        raise OrderError(f"top cutoff {th[0]} beyond support end {theta_bar}")
    for a, b in zip(th, th[1:]):
        if not b <= a + ORDER_ROUNDOFF:
            raise OrderError(f"cutoffs must be nonincreasing, got {cutoffs}")
    if not th[-1] >= -ORDER_ROUNDOFF:
        raise OrderError("cutoffs must be nonnegative")

    bounds = th + [0.0]
    cum = [scenario.dist.cdf(t) for t in th] + [0.0]  # F(0) = 0
    usages = [cum[i] - cum[i + 1] for i in range(m)]
    levels = [_class_level(scenario.model, q, c) for q, c in zip(usages, scenario.capacities)]

    prices = [scenario.v - th[0] * levels[0]]
    for i in range(1, m):
        prices.append(prices[i - 1] - th[i] * (levels[i] - levels[i - 1]))

    degenerate = any(a - b <= TIE_TOL for a, b in zip(th, bounds[1:]))
    if enforce_order:
        for a, b in zip(prices, prices[1:]):
            if not b <= a + PRICE_TOL:
                raise OrderError(f"cutoffs {cutoffs} induce increasing prices {prices}")
        if not prices[-1] >= -PRICE_TOL:
            raise OrderError(f"cutoffs {cutoffs} induce a negative bottom price")
        for i in range(m - 1):
            if not levels[i] <= levels[i + 1] + PRICE_TOL:
                raise OrderError(
                    f"congestion levels {levels} violate premium ordering at class {i + 1}"
                )
    saturated = th[0] >= theta_bar - SATURATION_SLACK
    return Equilibrium(
        cutoffs=tuple(th),
        prices=tuple(prices),
        usages=tuple(usages),
        levels=tuple(levels),
        saturated=saturated,
        degenerate=degenerate,
        opt_out=1.0 - sum(usages),
    )


# ---------------------------------------------------------------------------
# reverse map: prices -> cutoffs
# ---------------------------------------------------------------------------

def cutoffs_from_prices(scenario: MarketScenario, prices: Sequence[float]) -> Equilibrium:
    """Solve for the cutoffs that make the posted prices an equilibrium.

    Requires V >= p_1 >= ... >= p_m >= 0.  Equal-price classes are solved
    jointly by congestion-level matching.  Classes nobody joins at these
    prices are dropped from the cutoff chain (their cutoff ties with the
    boundary below and their usage is zero) and the result is flagged
    degenerate.  If the whole population joins, the market saturates with
    the top cutoff pinned at the support end.
    """
    m = scenario.m
    if len(prices) != m:
        raise OrderError(f"expected {m} prices, got {len(prices)}")
    p = [float(x) for x in prices]
    if not all(map(math.isfinite, p)):
        raise DomainError(f"prices must be finite, got {prices}")
    if p[0] > scenario.v + ACCESS_VALUE_SLACK:
        raise OrderError(f"top price {p[0]} exceeds access value {scenario.v}")
    for a, b in zip(p, p[1:]):
        if b > a + ORDER_ROUNDOFF:
            raise OrderError(f"prices must be nonincreasing, got {prices}")
    if p[-1] < 0.0:
        raise OrderError(f"prices must be nonnegative, got {prices}")

    groups = _group_by_price(p, scenario.capacities)
    solution = _solve_group_chain(scenario, groups)
    return _assemble(scenario, groups, solution)


def identical_price_equilibrium(scenario: MarketScenario, price: float) -> Equilibrium:
    """Equilibrium when every class posts the same price.

    All classes form one tie group, so their congestion levels match and
    the single remaining unknown is the participation cutoff.
    """
    return cutoffs_from_prices(scenario, [float(price)] * scenario.m)


# -- solver result ----------------------------------------------------------

@dataclass
class _ChainSolution:
    boundaries: list      # active-group interval tops, premium first
    levels: list          # active-group congestion levels
    active: list          # active positions into the original group list
    dropped: list         # dropped (empty) positions
    saturated: bool


def _solve_group_chain(scenario: MarketScenario, groups) -> _ChainSolution:
    dropped = [gi for gi, g in enumerate(groups) if g.price >= scenario.v]
    active = [gi for gi in range(len(groups)) if gi not in dropped]

    # fast path: damped Newton over the active singleton groups.  It never
    # drops a class, so the only empty groups are those priced at or above
    # V, which no user would enter; any failure, a collapsed interval
    # included, leaves the choice of empty classes to the bisection
    if active and all(len(groups[gi].caps) == 1 for gi in active):
        got = _newton_chain(scenario, [groups[gi] for gi in active])
        if got is not None:
            boundaries, levels, saturated = got
            return _ChainSolution(boundaries, levels, active, dropped, saturated)

    while active:
        result = _solve_active_bisect(scenario, groups, active)
        if isinstance(result, int):
            dropped.append(result)
            active = [gi for gi in active if gi != result]
            continue
        boundaries, levels, saturated = result
        sol = _ChainSolution(boundaries, levels, active, sorted(dropped), saturated)
        _check_no_deviation(scenario, groups, sol)
        return sol
    return _ChainSolution([], [], [], sorted(dropped), False)


# -- damped Newton ----------------------------------------------------------

class _Chain(NamedTuple):
    """What every Newton attempt on one chain of singleton groups reads."""

    cdf: Callable
    density: Callable
    value_capped: Callable
    slope: Callable
    saturates: bool
    caps: tuple          # active capacities, premium first
    gaps: tuple          # d_1 = V - p_1 for the top cutoff, d_i = p_{i-1} - p_i below
    slope_at: float      # Jacobian slopes are taken at no smaller a usage
    theta_bar: float

    @classmethod
    def of(cls, scenario: MarketScenario, act_groups) -> "_Chain":
        dist, model = scenario.dist, scenario.model
        n = len(act_groups)
        gaps = [scenario.v - act_groups[0].price] + [
            act_groups[i - 1].price - act_groups[i].price for i in range(1, n)]
        return cls(dist.cdf, dist.density, model._value_capped, model._slope, model._saturates,
                   tuple(g.caps[0] for g in act_groups), tuple(gaps),
                   model.min_usage() + SLOPE_FLOOR, dist.support_end)


# A Newton attempt is one damped Newton iteration from the cutoffs x, the
# top one at the support end if ``pinned``: it returns (cutoffs, levels,
# usages) at a root, or None.  Each chain length has its own straight-line
# kernel on scalars, ``_newton_attempt1`` to ``_newton_attempt3``.  The
# tests check every kernel bit for bit against a reference on lists that
# builds the residuals and the Jacobian apart and solves [J | -r] by
# Gaussian elimination with partial pivoting, pivots chosen by max() and
# back substitution summed by sum().  So the kernels do the reference's
# floating-point operations in the same order and call the population and
# congestion kernels in the same order.  Left out are only operations
# whose result is known or never read: the update of the entry a row
# operation eliminates, the last pivot's reciprocal, and a pinned top
# cutoff's bound check and clamp, which pass and leave it at theta_bar =
# top_cap.  Three identities keep the rest literal: F(0) is 0.0 and
# b - 0.0 == b, so the last usage is its CDF value; max(a, b) is
# ``b if b > a else a``; and sum() starts from the integer 0, so the back
# substitution adds 0.0 first.

def _solve2(a00, a01, b0, a10, a11, b1):
    """The pivoted elimination of [[a00, a01 | b0], [a10, a11 | b1]],
    straight-line; None when a pivot is below SINGULAR_PIVOT."""
    big = abs(a00)
    mag = abs(a10)
    if mag > big:
        big = mag
        a00, a01, b0, a10, a11, b1 = a10, a11, b1, a00, a01, b0
    if big < SINGULAR_PIVOT:
        return None
    fac = a10 * (1.0 / a00)
    if fac != 0.0:
        a11 -= fac * a01
        b1 -= fac * b0
    if abs(a11) < SINGULAR_PIVOT:
        return None
    y1 = b1 / a11
    return (b0 - (0.0 + a01 * y1)) / a00, y1


def _solve3(a00, a01, b0, a10, a11, a12, b1, a21, a22, b2):
    """The pivoted elimination of the tridiagonal [[a00, a01, 0 | b0],
    [a10, a11, a12 | b1], [0, a21, a22 | b2]], straight-line; None when a
    pivot is below SINGULAR_PIVOT."""
    a02 = 0.0
    # column 0: row 2's 0.0 never beats the pivot candidates above it
    big = abs(a00)
    mag = abs(a10)
    if mag > big:
        big = mag
        a00, a01, a02, b0, a10, a11, a12, b1 = a10, a11, a12, b1, a00, a01, a02, b0
    if big < SINGULAR_PIVOT:
        return None
    inv = 1.0 / a00
    fac = a10 * inv
    if fac != 0.0:
        a11 -= fac * a01
        a12 -= fac * a02
        b1 -= fac * b0
    fac = 0.0 * inv
    if fac != 0.0:
        a21 -= fac * a01
        a22 -= fac * a02
        b2 -= fac * b0
    # columns 1 and 2 are the 2x2 system left in rows 1 and 2
    step = _solve2(a11, a12, b1, a21, a22, b2)
    if step is None:
        return None
    y1, y2 = step
    return (b0 - ((0.0 + a01 * y1) + a02 * y2)) / a00, y1, y2


def _newton_attempt1(chain: _Chain, x, pinned):
    """A Newton attempt on one class.  Pinned, the top cutoff is the whole
    chain, so the attempt is the closed form at theta_bar."""
    cdf, density, value_capped, slope, saturates, (c0,), (g0,), slope_at, theta_bar = chain
    if pinned:
        q0 = cdf(theta_bar)
        return [theta_bar], [value_capped(q0, c0)], [q0]
    (x0,) = x
    top_cap = theta_bar * 3.0
    for _ in range(NEWTON_ITERATIONS):
        q0 = cdf(x0)
        if saturates and q0 >= c0:
            return None
        k0 = value_capped(q0, c0)
        r0 = g0 - x0 * k0
        if abs(r0) < NEWTON_CONVERGED:
            return [x0], [k0], [q0]
        s0 = slope(slope_at if slope_at > q0 else q0, c0)
        a00 = -k0 - x0 * s0 * density(x0)
        if abs(a00) < SINGULAR_PIVOT:
            return None
        d0 = -r0 / a00
        lam = 1.0
        for _damp in range(NEWTON_HALVINGS):
            t0 = x0 + lam * d0
            if t0 <= top_cap and t0 >= -ORDER_ROUNDOFF:
                x0 = min(max(t0, 0.0), top_cap)
                break
            lam *= 0.5
        else:
            return None
    return None


def _newton_attempt2(chain: _Chain, x, pinned):
    """A Newton attempt on two classes."""
    cdf, density, value_capped, slope, saturates, (c0, c1), (g0, g1), slope_at, theta_bar = chain
    x0, x1 = x
    top_cap = theta_bar * (3.0 if not pinned else 1.0)
    for _ in range(NEWTON_ITERATIONS):
        cum0 = cdf(x0)
        q1 = cdf(x1)
        q0 = cum0 - q1
        if saturates and (q0 >= c0 or q1 >= c1):
            return None
        k0 = value_capped(q0, c0)
        k1 = value_capped(q1, c1)
        r1 = g1 - x1 * (k1 - k0)
        if pinned:
            if abs(r1) < NEWTON_CONVERGED:
                return [x0, x1], [k0, k1], [q0, q1]
        else:
            r0 = g0 - x0 * k0
            big = abs(r0)
            mag = abs(r1)
            if (mag if mag > big else big) < NEWTON_CONVERGED:
                return [x0, x1], [k0, k1], [q0, q1]
        s0 = slope(slope_at if slope_at > q0 else q0, c0)
        s1 = slope(slope_at if slope_at > q1 else q1, c1)
        lam = 1.0
        if pinned:
            f1 = density(x1)
            a11 = -(k1 - k0) - x1 * (s1 + s0) * f1
            if abs(a11) < SINGULAR_PIVOT:
                return None
            d1 = -r1 / a11
            for _damp in range(NEWTON_HALVINGS):
                t1 = x1 + lam * d1
                if t1 >= -ORDER_ROUNDOFF and x0 > t1 - ORDER_ROUNDOFF:
                    x1 = min(max(t1, 0.0), top_cap)
                    break
                lam *= 0.5
            else:
                return None
        else:
            f0 = density(x0)
            f1 = density(x1)
            step = _solve2(-k0 - x0 * s0 * f0, x0 * s0 * f1, -r0,
                           x1 * s0 * f0, -(k1 - k0) - x1 * (s1 + s0) * f1, -r1)
            if step is None:
                return None
            d0, d1 = step
            for _damp in range(NEWTON_HALVINGS):
                t0 = x0 + lam * d0
                t1 = x1 + lam * d1
                if t0 <= top_cap and t1 >= -ORDER_ROUNDOFF and t0 > t1 - ORDER_ROUNDOFF:
                    x0 = min(max(t0, 0.0), top_cap)
                    x1 = min(max(t1, 0.0), top_cap)
                    break
                lam *= 0.5
            else:
                return None
    return None


def _newton_attempt3(chain: _Chain, x, pinned):
    """A Newton attempt on three classes."""
    (cdf, density, value_capped, slope, saturates, (c0, c1, c2), (g0, g1, g2), slope_at,
     theta_bar) = chain
    x0, x1, x2 = x
    top_cap = theta_bar * (3.0 if not pinned else 1.0)
    for _ in range(NEWTON_ITERATIONS):
        cum0 = cdf(x0)
        cum1 = cdf(x1)
        q2 = cdf(x2)
        q0 = cum0 - cum1
        q1 = cum1 - q2
        if saturates and (q0 >= c0 or q1 >= c1 or q2 >= c2):
            return None
        k0 = value_capped(q0, c0)
        k1 = value_capped(q1, c1)
        k2 = value_capped(q2, c2)
        r1 = g1 - x1 * (k1 - k0)
        r2 = g2 - x2 * (k2 - k1)
        if pinned:
            big = abs(r1)
        else:
            r0 = g0 - x0 * k0
            big = abs(r0)
            mag = abs(r1)
            if mag > big:
                big = mag
        mag = abs(r2)
        if (mag if mag > big else big) < NEWTON_CONVERGED:
            return [x0, x1, x2], [k0, k1, k2], [q0, q1, q2]
        s0 = slope(slope_at if slope_at > q0 else q0, c0)
        s1 = slope(slope_at if slope_at > q1 else q1, c1)
        s2 = slope(slope_at if slope_at > q2 else q2, c2)
        lam = 1.0
        if pinned:
            f1 = density(x1)
            f2 = density(x2)
            step = _solve2(-(k1 - k0) - x1 * (s1 + s0) * f1, x1 * s1 * f2, -r1,
                           x2 * s1 * f1, -(k2 - k1) - x2 * (s2 + s1) * f2, -r2)
            if step is None:
                return None
            d1, d2 = step
            for _damp in range(NEWTON_HALVINGS):
                t1 = x1 + lam * d1
                t2 = x2 + lam * d2
                if (t2 >= -ORDER_ROUNDOFF and x0 > t1 - ORDER_ROUNDOFF
                        and t1 > t2 - ORDER_ROUNDOFF):
                    x1 = min(max(t1, 0.0), top_cap)
                    x2 = min(max(t2, 0.0), top_cap)
                    break
                lam *= 0.5
            else:
                return None
        else:
            f0 = density(x0)
            f1 = density(x1)
            f2 = density(x2)
            step = _solve3(-k0 - x0 * s0 * f0, x0 * s0 * f1, -r0,
                           x1 * s0 * f0, -(k1 - k0) - x1 * (s1 + s0) * f1, x1 * s1 * f2, -r1,
                           x2 * s1 * f1, -(k2 - k1) - x2 * (s2 + s1) * f2, -r2)
            if step is None:
                return None
            d0, d1, d2 = step
            for _damp in range(NEWTON_HALVINGS):
                t0 = x0 + lam * d0
                t1 = x1 + lam * d1
                t2 = x2 + lam * d2
                if (t0 <= top_cap and t2 >= -ORDER_ROUNDOFF and t0 > t1 - ORDER_ROUNDOFF
                        and t1 > t2 - ORDER_ROUNDOFF):
                    x0 = min(max(t0, 0.0), top_cap)
                    x1 = min(max(t1, 0.0), top_cap)
                    x2 = min(max(t2, 0.0), top_cap)
                    break
                lam *= 0.5
            else:
                return None
    return None


def _newton_chain(scenario: MarketScenario, act_groups):
    """Newton solve of the cutoff chain for singleton groups.

    Returns (boundaries, levels, saturated), or None when the bisection
    should take over: when the chain has more than three groups, when no
    attempt converges, when a class is left with less than the minimum
    usage, and when some group's interval collapses (width at most
    NEWTON_COLLAPSE), since the chain cannot tell which classes should
    then be empty.

    Up to four attempts run, in this order, each only if the ones before
    it failed: unpinned from the capacity seed, unpinned from the default
    start, then with the top cutoff pinned at the support end (a saturated
    market) from the capacity seed and from the default start.  An unpinned
    solution whose top cutoff lies beyond the support end also moves on to
    the pinned attempts.  Each attempt runs in the straight-line kernel for
    the chain's length, ``_newton_attempt1`` to ``_newton_attempt3``; the
    nested bisection solves longer chains on its own.

    A saturation bound skips both unpinned attempts when it shows that
    neither can accept a root, i.e. reach |r_i| < NEWTON_CONVERGED for all
    residuals with theta_1 <= theta_bar + SUPPORT_END_SLACK.  The pinned
    attempts then start from the same seed as they would have after the
    unpinned ones, so the result is the same bit for bit.  Write K(q, C)
    for ``_value_capped``, d_1 = V - p_1 and d_2 = p_1 - p_2.  The proof:

    * Every computed usage is at most q_top = 1 + 2 CDF_ROUNDOFF: F is
      nonnegative and at most a table's last value, 1 + CDF_ROUNDOFF, plus
      rounding.
    * K is nonnegative and, up to rounding far below PRICE_TOL,
      nondecreasing in q; for the latency kinds only below capacity, but
      an unpinned attempt rejects a usage at capacity.  So k_i <= K(q, C_i)
      whenever q_i <= q < C_i, and every k_i is finite when K(q_top, C_i) is.
    * An accepted root has |d_1 - theta_1 k_1| < NEWTON_CONVERGED with
      0 <= theta_1 <= theta_bar + SUPPORT_END_SLACK, so
      d_1 < (theta_bar + SUPPORT_END_SLACK) K(q_1, C_1) + NEWTON_CONVERGED.
      The bound holds when d_1 exceeds that, with q_1 replaced by a bound
      q_bar on it, by more than PRICE_TOL, a margin far above the rounding
      of these few operations.
    * q_bar = q_top - min(F(min(y, theta_bar)), 1), where y bounds the
      second cutoff from below: y = 0 in general, and when d_2 > PRICE_TOL
      and K_2 = K(q_top, C_2) is finite and positive, y = (d_2 - PRICE_TOL)
      / K_2 provided d_2 - y K_2 >= NEWTON_CONVERGED in floating point.
      Then theta_2 < y would give theta_2 (k_2 - k_1) <= y K_2 (k_1 >= 0,
      k_2 <= K_2), so r_2 >= d_2 - y K_2 would fail the convergence test
      (max() over the residuals sees r_2 unless r_1 is NaN, which fails
      it too).  F is monotone up to rounding below theta_bar and is 1 from
      there on, so F(theta_2) >= min(F(min(y, theta_bar)), 1) less
      rounding, which the extra CDF_ROUNDOFF in q_top covers; hence
      q_1 = F(theta_1) - F(theta_2) <= q_bar.
    """
    n = len(act_groups)
    if n > 3:
        return None
    chain = _Chain.of(scenario, act_groups)
    cdf, _, value_capped, _, saturates, caps, gaps, _, theta_bar = chain
    dist = scenario.dist
    min_q = scenario.model.min_usage()
    attempt = (_newton_attempt1, _newton_attempt2, _newton_attempt3)[n - 1]

    def capacity_seed():
        # fill a moderate fraction of each class, capped by population mass,
        # so latency classes start inside their service domains
        qs = [max(min(0.4 * c, 0.8 / n), min_q * 1.2 + SEED_USAGE_PAD) for c in caps]
        total = sum(qs)
        if total > 0.9:
            qs = [q * 0.9 / total for q in qs]
        xs = [0.0] * n
        cum = 0.0
        for i in range(n - 1, -1, -1):
            cum += qs[i]
            xs[i] = dist.quantile(min(cum, 1.0)) * 0.98
        for i in range(n - 2, -1, -1):
            if xs[i] <= xs[i + 1]:
                xs[i] = min(xs[i + 1] * 1.05 + SEED_CUTOFF_GAP, theta_bar)
        return xs

    def run(pinned, seed=None):
        """One attempt from ``seed``, or from the default start."""
        x = list(seed) if seed else [theta_bar * (n - i) / (n + 0.5) * 0.9 for i in range(n)]
        if pinned:
            x[0] = theta_bar
        return attempt(chain, x, pinned)

    # the saturation bound of the docstring
    q_top = 1.0 + 2.0 * CDF_ROUNDOFF
    f_floor = 0.0
    if n > 1 and gaps[1] > PRICE_TOL and not (saturates and q_top >= caps[1]):
        k_top = value_capped(q_top, caps[1])
        if 0.0 < k_top < math.inf:
            y = (gaps[1] - PRICE_TOL) / k_top
            if gaps[1] - y * k_top >= NEWTON_CONVERGED:
                f_floor = min(cdf(min(y, theta_bar)), 1.0)
    q_bar = q_top - f_floor
    must_pin = not (saturates and q_bar >= caps[0]) and gaps[0] > (
        (theta_bar + SUPPORT_END_SLACK) * value_capped(q_bar, caps[0])
        + NEWTON_CONVERGED + PRICE_TOL)

    seed = capacity_seed()
    out = None
    if not must_pin:
        out = run(pinned=False, seed=seed)
        if out is None:
            out = run(pinned=False)
        if out is not None and out[0][0] > theta_bar + SUPPORT_END_SLACK:
            out = None
    if out is None:
        got = run(pinned=True, seed=seed)
        if got is None:
            got = run(pinned=True)
        if got is None:
            return None
        x, ks, qs = got
        slack = gaps[0] - theta_bar * ks[0]
        if slack < -PRICE_TOL:
            return None
        saturated = True
    else:
        x, ks, qs = out
        saturated = x[0] >= theta_bar - SATURATION_SLACK

    xs = list(x) + [0.0]
    if (any(xs[i] - xs[i + 1] <= NEWTON_COLLAPSE for i in range(n))
            or any(q < min_q - NEWTON_MIN_USAGE_SLACK for q in qs)):
        return None
    return list(x), list(ks), saturated


# -- nested bisection -------------------------------------------------------

def _bisect(rising, lo, hi, steps):
    """Up to ``steps`` bisection steps on [lo, hi], stopping once the bracket
    is narrower than ``THETA_TOL``; returns (lo, hi, the value at lo, or
    None if lo never moved)."""
    r_lo = None
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        r_mid = rising(mid)
        if r_mid is None or r_mid < 0.0:
            lo, r_lo = mid, r_mid
        else:
            hi = mid
        if hi - lo < THETA_TOL:
            break
    return lo, hi, r_lo


def _brent(f, xa, xb, xtol, rtol, maxiter):
    """Root of ``f`` in the bracket [xa, xb] by Brent's method.

    R. P. Brent, *Algorithms for Minimization without Derivatives* (1973),
    ch. 4, in the form of SciPy's ``brentq.c``, followed step for step so
    that each iterate, and the root, has the same bits.  ``xblk`` is the
    bracket end opposite ``xcur``; a step interpolates (a secant through
    ``xpre`` and ``xcur``, or inverse quadratic through all three points)
    only when it is short enough, else it bisects, and it is never shorter
    than ``delta``.  A NaN value, a bracket whose ends share a sign, or
    ``maxiter`` steps without converging raise ``ConvergenceError``.
    """
    def value(x):
        fx = f(x)
        if math.isnan(fx):
            raise ConvergenceError(f"Brent's method met a NaN value at x = {x!r}")
        return fx

    xpre, xcur = xa, xb
    xblk = fblk = spre = scur = 0.0
    fpre = value(xpre)
    fcur = value(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise ConvergenceError(
            f"Brent's method needs a sign change: f({xa!r}) = {fpre!r}, f({xb!r}) = {fcur!r}"
        )
    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                stry = -fcur * (xcur - xpre) / (fcur - fpre)  # secant
            else:
                dpre = (fpre - fcur) / (xpre - xcur)  # inverse quadratic
                dblk = (fblk - fcur) / (xblk - xcur)
                denom = dblk * dpre * (fblk - fpre)
                if denom:
                    stry = -fcur * (fblk * dblk - fpre * dpre) / denom
                else:
                    stry = math.inf  # zero denominator: C's inf or NaN step, rejected below
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry  # interpolation accepted
            else:
                spre = scur = sbis  # interpolation rejected: bisect
        else:
            spre = scur = sbis  # bisect
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta  # step of delta toward xblk
        fcur = value(xcur)
    raise ConvergenceError(
        f"Brent's method did not converge in {maxiter} steps on [{xa!r}, {xb!r}]"
    )


def _boundary_root(rising, top, more_steps):
    """Bracket the root of ``rising`` on [0, top]; returns (lo, hi), hi the root.

    ``rising(b)`` increases with b, or is None below a feasibility threshold,
    which counts as negative.  ``BOUNDARY_BISECT_STEPS`` bisection steps
    isolate the root.  When the lower end is then feasible and negative,
    ``_brent`` finishes the bracket; otherwise ``more_steps`` further
    bisection steps run.
    """
    lo, hi, r_lo = _bisect(rising, 0.0, top, BOUNDARY_BISECT_STEPS)
    if r_lo is not None and r_lo < 0.0 and hi - lo > THETA_TOL:
        # feasible bracket isolated: hand it to a superlinear root finder
        return lo, _brent(
            lambda b: (lambda r: r if r is not None else -1.0)(rising(b)),
            lo, hi, BRENT_XTOL, BRENT_RTOL, BRENT_MAXITER,
        )
    return _bisect(rising, lo, hi, more_steps)[:2]


def _solve_active_bisect(scenario: MarketScenario, groups, active):
    """Robust chain solve for one candidate active set.

    Returns (boundaries, levels, saturated) or the original-list position
    of a group that must be empty.  Candidate boundaries below a level's
    feasibility threshold (where some deeper group cannot stay active) are
    treated as negative residuals, which is consistent because every
    emptiness margin grows with the boundary above it.
    """
    v = scenario.v
    F = scenario.dist.cdf
    theta_bar = scenario.dist.support_end
    model = scenario.model
    act = [groups[gi] for gi in active]
    n = len(act)
    prices = [g.price for g in act]
    level_of = [model._tie_level(g.caps) for g in act]

    def resolve(j, top, f_top):
        """Solve groups j.. below boundary ``top``, where F(top) = f_top.

        Returns (boundaries, levels) of groups j.., or the original-list
        position of a group that must be empty.  The deepest bisecting
        frame (j = n - 2) computes the last group's level itself, so only
        a single-group chain reaches the j = n - 1 case.
        """
        if j == n - 1:
            return [], [level_of[j](f_top)]
        level_j, level_next = level_of[j], level_of[j + 1]
        dp = prices[j] - prices[j + 1]
        last = j == n - 2
        # boundary -> (residual, solution below it, level of group j), where
        # the solution below is just the last group's level in the deepest
        # frame, or (None, position of a group that must be empty, None).
        # _brent re-evaluates the bracket ends the bisection has just
        # solved, and the final pass re-evaluates the root.
        seen = {}

        def resid(b):
            if b not in seen:
                f_b = F(b)
                if last:
                    sub = k_next = level_next(f_b)
                else:
                    sub = resolve(j + 1, b, f_b)
                    if isinstance(sub, int):
                        seen[b] = None, sub, None
                        return None
                    k_next = sub[1][0]
                kj = level_j(f_top - f_b)
                seen[b] = b * (k_next - kj) - dp, sub, kj
            return seen[b][0]

        r_top = resid(top)
        if r_top is None:
            return seen[top][1]
        if r_top < 0.0:
            return active[j]
        lo, hi = _boundary_root(resid, top, INNER_EXTRA_STEPS)
        # a genuine root has a feasible negative residual just below it;
        # a feasibility threshold (some deeper group losing its last user)
        # makes the residual jump sign without crossing zero, and the
        # deeper corner must be resolved globally instead.  After _brent
        # the lower end is feasible by construction.
        if resid(lo) is None and lo > 0.0:
            return seen[lo][1]
        resid(hi)
        r_fin, sub_fin, k_fin = seen[hi]
        if r_fin is None:
            return sub_fin
        if last:
            return [hi], [k_fin, sub_fin]
        return [hi] + sub_fin[0], [k_fin] + sub_fin[1]

    top_seen = {}  # top cutoff -> top_excess result, for the same re-evaluations

    def top_excess(t1):
        # minus the top cutoff's utility v - p1 - t1 * K1, so that it rises
        # with t1; (None, position of a group that must be empty) if infeasible
        if t1 not in top_seen:
            sub = resolve(0, t1, F(t1))
            if isinstance(sub, int):
                top_seen[t1] = None, sub
            else:
                top_seen[t1] = t1 * sub[1][0] - (v - prices[0]), sub
        return top_seen[t1]

    e_bar, sub_bar = top_excess(theta_bar)
    if e_bar is None:
        return sub_bar
    if e_bar <= 0.0:
        return [theta_bar] + sub_bar[0], sub_bar[1], True

    lo, hi = _boundary_root(lambda t: top_excess(t)[0], theta_bar, TOP_EXTRA_STEPS)
    e_fin, sub_fin = top_excess(hi)
    if e_fin is None:
        return sub_fin
    if abs(e_fin) > CHAIN_RESIDUAL_TOL * max(1.0, v):
        e_lo, sub_lo = top_excess(lo)
        if e_lo is None:
            return sub_lo
        raise ConvergenceError(
            f"cutoff chain residual {-e_fin:.3e} above tolerance at prices {prices}"
        )
    return [hi] + sub_fin[0], sub_fin[1], False


def _check_no_deviation(scenario: MarketScenario, groups, sol: _ChainSolution) -> None:
    """Verify no user would enter a dropped (empty) group.

    The deviation utility line V - p_d - theta * floor_level must stay at
    or below the equilibrium utility envelope; both are piecewise linear,
    so checking at the envelope breakpoints suffices.
    """
    if not sol.dropped:
        return
    v = scenario.v
    model = scenario.model
    breakpoints = [0.0] + sol.boundaries
    segments = list(zip(sol.levels, [groups[gi].price for gi in sol.active]))

    def envelope(theta):
        best = 0.0  # opting out
        for lev, price in segments:
            best = max(best, v - price - theta * lev)
        return best

    for gi in sol.dropped:
        g = groups[gi]
        if g.price >= v:
            continue
        floor = g.floor_level(model)
        for theta in breakpoints:
            if v - g.price - theta * floor > envelope(theta) + DEVIATION_SLACK:
                raise NoEquilibriumError(
                    f"class group priced {g.price} cannot be empty at these prices"
                )


def _assemble(scenario: MarketScenario, groups, sol: _ChainSolution) -> Equilibrium:
    """Expand a group-level chain solution into per-class quantities."""
    F = scenario.dist.cdf
    model = scenario.model
    m = scenario.m

    usages = [0.0] * m
    levels = [0.0] * m
    cutoffs = [0.0] * m
    price_per_class = [0.0] * m
    for g in groups:
        for ci in g.idx:
            price_per_class[ci] = g.price

    f_tops = [F(t) for t in sol.boundaries]
    f_bottoms = f_tops[1:] + [0.0]  # F(0) = 0
    for gi, top, f_top, f_bottom, lev in zip(sol.active, sol.boundaries, f_tops, f_bottoms,
                                             sol.levels):
        g = groups[gi]
        # the chain solve inverted this group's level at exactly this mass
        parts = g.split(model, f_top - f_bottom, lev)
        cum = f_bottom
        for ci, q in zip(reversed(g.idx), reversed(parts)):
            usages[ci] = q
            cum += q
            cutoffs[ci] = scenario.dist.quantile(min(cum, 1.0))
        for ci, q in zip(g.idx, parts):
            levels[ci] = _class_level(model, q, scenario.capacities[ci])
        cutoffs[g.idx[0]] = top  # pin exactly against quantile roundoff

    # a dropped group's members tie with the top boundary of the first
    # active group below it (or 0 when nothing is below)
    for gi in sol.dropped:
        tie_at = 0.0
        for pos, top in zip(sol.active, sol.boundaries):
            if pos > gi:
                tie_at = top
                break
        for ci in groups[gi].idx:
            cutoffs[ci] = tie_at
            usages[ci] = 0.0
            levels[ci] = model._value_capped(0.0, scenario.capacities[ci])

    degenerate = bool(sol.dropped)
    for a, b in zip(cutoffs, cutoffs[1:] + [0.0]):
        if a - b <= TIE_TOL:
            degenerate = True

    eq = Equilibrium(
        cutoffs=tuple(cutoffs),
        prices=tuple(price_per_class),
        usages=tuple(usages),
        levels=tuple(levels),
        saturated=sol.saturated,
        degenerate=degenerate,
        opt_out=1.0 - sum(usages),
    )
    _verify_residuals(scenario, eq)
    return eq


def _verify_residuals(scenario: MarketScenario, eq: Equilibrium) -> None:
    # a NaN residual fails the test, wherever it is
    bad = [r for r in validate(scenario, eq).c3_residuals if not abs(r) <= SOLVED_RESIDUAL_TOL]
    if bad:
        raise ConvergenceError(f"indifference residual {abs(bad[0]):.3e} above tolerance")


# ---------------------------------------------------------------------------
# welfare, profit, validation
# ---------------------------------------------------------------------------

def social_welfare(scenario: MarketScenario, eq: Equilibrium) -> float:
    """Total user utility excluding payments.

    Sums, class by class, the utility mass of the types the class serves
    under its equilibrium congestion level.
    """
    total = 0.0
    bounds = list(eq.cutoffs) + [0.0]
    for i in range(eq.m):
        total += scenario.dist.welfare_integral(
            bounds[i + 1], bounds[i], scenario.v, eq.levels[i]
        )
    return total


def provider_profit(eq: Equilibrium) -> float:
    """Total payments collected: sum of price times usage over classes."""
    return sum(p * q for p, q in zip(eq.prices, eq.usages))


def validate(scenario: MarketScenario, eq: Equilibrium) -> ConstraintReport:
    """Report how well an equilibrium satisfies its defining constraints.

    Checks the strict cutoff ordering, the premium ordering of congestion
    levels, and the per-cutoff indifference residuals (the top one relaxes
    to an inequality when the market is saturated).  Ties within tolerance
    are reported as degenerate rather than failed.
    """
    th = list(eq.cutoffs) + [0.0]
    gaps = [a - b for a, b in zip(th, th[1:])]
    ties = tuple(i for i, gapv in enumerate(gaps) if abs(gapv) <= TIE_TOL)
    c1_min = min(gaps) if gaps else 0.0
    c1_ok = all(gapv > -TIE_TOL for gapv in gaps)

    c2_violation = 0.0
    for i in range(eq.m - 1):
        if eq.usages[i] <= TIE_TOL or eq.usages[i + 1] <= TIE_TOL:
            continue
        c2_violation = max(c2_violation, eq.levels[i] - eq.levels[i + 1])
    c2_ok = c2_violation <= PRICE_TOL

    residuals = []
    lead = next((i for i in range(eq.m) if eq.usages[i] > TIE_TOL), None)
    if lead is None:
        residuals.append(0.0)  # empty market: no participation equation binds
    else:
        top = scenario.v - th[lead] * eq.levels[lead] - eq.prices[lead]
        if eq.saturated:
            residuals.append(min(top, 0.0))  # only a shortfall counts when saturated
        else:
            residuals.append(top)
    for i in range(1, eq.m):
        upper_empty = eq.usages[i - 1] <= TIE_TOL
        lower_empty = eq.usages[i] <= TIE_TOL
        lhs = eq.prices[i - 1] - eq.prices[i]
        rhs = th[i] * (eq.levels[i] - eq.levels[i - 1])
        if upper_empty and lower_empty:
            residuals.append(0.0)
        elif upper_empty:
            # nobody may prefer the empty premium side: lhs >= rhs
            residuals.append(min(lhs - rhs, 0.0))
        elif lower_empty:
            residuals.append(max(lhs - rhs, 0.0))
        else:
            residuals.append(lhs - rhs)
    c3_ok = all(abs(r) <= PRICE_TOL for r in residuals)

    return ConstraintReport(
        c1_ok=c1_ok,
        c2_ok=c2_ok,
        c3_ok=c3_ok,
        c1_min_gap=c1_min,
        c2_violation=c2_violation,
        c3_residuals=tuple(residuals),
        degenerate_ties=ties,
        saturated=eq.saturated,
    )
