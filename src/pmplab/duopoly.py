"""Two competing providers sharing one pool of users.

Provider I offers a single undivided class of capacity C_I.  Provider II
owns capacity C_II and may offer it as one class or split it into two
classes with separate prices.  All offered classes enter one merged market
(sorted by price, equal prices resolved by congestion-level matching) and
the usage each class attracts at the user equilibrium determines each
provider's profit.

The module provides the building blocks of a price competition study:
per-provider profit derivatives (finite differences, with the tabulated
closed forms cross-checked where their source is legible), best responses
by deterministic grid/golden search, alternating-best-response Nash search
with an explicit neighbourhood verification step, and the best-response
profit curves over a grid of provider-I prices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

from ._search import _ascend, _feasible, _segmented_price_max
from ._tolerances import (
    ACCESS_VALUE_SLACK, ASCENT_CYCLES, ASCENT_GAIN, ASCENT_PRICE_GRID, BEST_RESPONSE_I_GRID,
    CLOSED_FORM_AGREEMENT, DERIVATIVE_STEP, NASH_MAX_ROUNDS, NASH_MOVE_TOL, NASH_SPLIT_MARGIN,
    NASH_VERIFY_RADIUS, NASH_VERIFY_SLACK, PRICE_XTOL, REL_GAP_FLOOR, SPLIT_GRID,
    SPLIT_XTOL, STRATEGY_ORDER_SLACK,
)
from .equilibrium import (
    MarketScenario,
    cutoffs_from_prices,
)
from .errors import (
    BoundaryError,
    ConvergenceError,
    DomainError,
    NoConvergenceError,
    PmplabError,
    PreconditionError,
)
from .population import TypeDistribution, uniform
from .congestion import CongestionModel

__all__ = [
    "DuopolyScenario",
    "ProviderStrategy",
    "MarketEquilibrium",
    "DerivativeReport",
    "NashResult",
    "CurvePoint",
    "market_equilibrium",
    "profit_derivative_I",
    "best_response_I",
    "best_response_II",
    "find_nash",
    "duopoly_curve",
]


@dataclass(frozen=True)
class DuopolyScenario:
    """Market primitives shared by both providers."""

    v: float
    cap_i: float
    cap_ii: float
    model: CongestionModel
    dist: TypeDistribution = field(default_factory=uniform)

    def __post_init__(self):
        # written so that NaN fails each test
        if not 0.0 < self.v < math.inf:
            raise DomainError("access value must be positive and finite")
        if not (0.0 <= self.cap_i < math.inf and 0.0 <= self.cap_ii < math.inf):
            raise DomainError("capacities must be nonnegative and finite")


@dataclass(frozen=True)
class ProviderStrategy:
    """A provider's offer: one or two (price, capacity) classes.

    Prices must be nonincreasing across the classes and capacities
    nonnegative; zero-capacity entries are dropped (an empty tuple is a
    provider sitting out).
    """

    classes: tuple

    def __post_init__(self):
        offered = tuple((float(p), float(c)) for p, c in self.classes)
        if not all(math.isfinite(p) and math.isfinite(c) for p, c in offered):
            raise DomainError(f"prices and capacities must be finite, got {offered}")
        if any(c < 0.0 for _, c in offered):
            raise DomainError(f"capacities must be nonnegative, got {offered}")
        cls = tuple((p, c) for p, c in offered if c > 0.0)
        for p, _ in cls:
            if p < 0.0:
                raise DomainError(f"negative price {p}")
        for (pa, _), (pb, _) in zip(cls, cls[1:]):
            if pb > pa + STRATEGY_ORDER_SLACK:
                raise DomainError("strategy prices must be nonincreasing")
        object.__setattr__(self, "classes", cls)

    @staticmethod
    def one(price, capacity) -> "ProviderStrategy":
        return ProviderStrategy(((price, capacity),))

    @staticmethod
    def two(p1, c1, p2, c2) -> "ProviderStrategy":
        return ProviderStrategy(((p1, c1), (p2, c2)))


@dataclass(frozen=True)
class MarketEquilibrium:
    """Merged-market equilibrium with ownership attribution."""

    eq: object                 # Equilibrium over the merged classes
    owners: tuple              # 'I' / 'II' per merged class
    pi_i: float
    pi_ii: float

    def usage_of(self, owner: str) -> float:
        return sum(q for q, o in zip(self.eq.usages, self.owners) if o == owner)


def _merged_classes(strat_i: ProviderStrategy, strat_ii: ProviderStrategy) -> list:
    """Both offers as (price, capacity, owner), highest price first; equal prices
    put provider I first and keep each provider's order (the sort is stable)."""
    entries = [(p, c, "I") for p, c in strat_i.classes]
    entries += [(p, c, "II") for p, c in strat_ii.classes]
    return sorted(entries, key=lambda e: (-e[0], e[2]))


def market_equilibrium(
    duo: DuopolyScenario,
    strat_i: ProviderStrategy,
    strat_ii: ProviderStrategy,
) -> MarketEquilibrium:
    """Solve the merged market for the two posted strategies.

    Classes are ranked by price (descending); identical prices across
    providers stay distinct classes and share users through level
    matching.  Profits are attributed by ownership.
    """
    merged = _merged_classes(strat_i, strat_ii)
    if not merged:
        raise PreconditionError("no classes offered by either provider")
    if any(p > duo.v + ACCESS_VALUE_SLACK for p, _c, _o in merged):
        raise DomainError("prices must not exceed the access value")
    if len(merged) > 3:
        raise PreconditionError("at most three merged classes are supported")
    scenario = MarketScenario(
        duo.v, tuple(c for _p, c, _o in merged), duo.model, duo.dist
    )
    eq = cutoffs_from_prices(scenario, [p for p, _c, _o in merged])
    owners = tuple(o for _p, _c, o in merged)
    pi = {"I": 0.0, "II": 0.0}
    for price, usage, owner in zip(eq.prices, eq.usages, owners):
        pi[owner] += price * usage
    return MarketEquilibrium(eq=eq, owners=owners, pi_i=pi["I"], pi_ii=pi["II"])


def _profit_i(duo, p_i, strat_ii):
    me = market_equilibrium(duo, ProviderStrategy.one(p_i, duo.cap_i), strat_ii)
    return me.pi_i


def _profit_ii(duo, p_i, strat_ii):
    me = market_equilibrium(duo, ProviderStrategy.one(p_i, duo.cap_i), strat_ii)
    return me.pi_ii


# ---------------------------------------------------------------------------
# profit derivative of provider I, with tabulated cross-check
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DerivativeReport:
    finite_difference: float
    closed_form: Optional[float]     # None when the tabulated row is unusable
    case: str
    closed_form_status: str          # 'agrees' | 'mismatch' | 'corrupted-source' | 'inapplicable'

    @property
    def relative_gap(self) -> Optional[float]:
        if self.closed_form is None:
            return None
        scale = max(abs(self.finite_difference), REL_GAP_FLOOR)
        return abs(self.closed_form - self.finite_difference) / scale


def _case_label(p_i, ii_prices):
    if len(ii_prices) == 2:
        a, b = ii_prices
        if p_i >= a:
            return "I>=II1>=II2"
        if p_i >= b:
            return "II1>=I>=II2"
        return "II1>=II2>=I"
    if len(ii_prices) == 1:
        return "I>=II" if p_i >= ii_prices[0] else "II>=I"
    return "monopoly"


def profit_derivative_I(
    duo: DuopolyScenario,
    p_i: float,
    strat_ii: ProviderStrategy,
) -> DerivativeReport:
    """Central finite difference of provider I's profit in its own price.

    The step, ``DERIVATIVE_STEP`` times V, must not straddle a price-ordering
    case boundary (one of provider II's prices, or the ends of [0, V]);
    :class:`BoundaryError` protects against differencing across the kink.
    When a legible tabulated closed form exists for the active case, it is
    evaluated on the equilibrium quantities and compared; rows whose
    published source is garbled are reported as 'corrupted-source' rather
    than guessed at.
    """
    v = duo.v
    step = DERIVATIVE_STEP * v
    ii_prices = [p for p, _c in strat_ii.classes]
    for boundary in ii_prices + [0.0, v]:
        if abs(p_i - boundary) < step and abs(p_i - boundary) > 0:
            raise BoundaryError(
                f"step {step} straddles the case boundary at price {boundary}"
            )
    if p_i - step < 0.0 or p_i + step > v:
        raise BoundaryError("step leaves the admissible price range")

    up = _profit_i(duo, p_i + step, strat_ii)
    dn = _profit_i(duo, p_i - step, strat_ii)
    fd = (up - dn) / (2.0 * step)

    case = _case_label(p_i, ii_prices)
    closed, status = _closed_form_derivative(duo, p_i, strat_ii, case)
    if closed is not None:
        rel = abs(closed - fd) / max(abs(fd), REL_GAP_FLOOR)
        status = "agrees" if rel <= CLOSED_FORM_AGREEMENT else "mismatch"
    return DerivativeReport(fd, closed, case, status)


def _closed_form_derivative(duo, p_i, strat_ii, case):
    """Evaluate the published derivative row for the active case, if legible.

    The two-class rows for 'II1>=II2>=I' and the one-class row for 'II>=I'
    contain stray tokens in the source table and are never evaluated.
    The remaining rows are transcribed literally; they are reported even
    when they disagree with the finite difference (the disagreement itself
    is the point of the cross-check).
    """
    if case in ("II1>=II2>=I", "II>=I", "monopoly"):
        return None, "corrupted-source" if case != "monopoly" else "inapplicable"
    strat_i = ProviderStrategy.one(p_i, duo.cap_i)
    eq = market_equilibrium(duo, strat_i, strat_ii).eq
    if eq.saturated or eq.degenerate:
        return None, "inapplicable"
    model = duo.model
    caps_sorted = [c for _p, c, _o in _merged_classes(strat_i, strat_ii)]
    th = list(eq.cutoffs)
    K = list(eq.levels)
    k = [model._slope(q, c) for q, c in zip(eq.usages, caps_sorted)]
    Q = list(eq.usages)

    if case == "I>=II" and len(th) == 2:
        t1, t2 = th
        K1, K2 = K
        k1, k2 = k
        num = (K1 * K1 * Q[0] + K2 * (p_i - Q[0] * (K1 + k1 * t1))
               + k2 * (p_i - k1 * Q[0] * t1) * t2 + K1 * Q[0] * (k1 * t1 - 2 * k2 * t2))
        den = (K1 * K1 - k1 * t1 * (K2 + k2 * t2)
               - K1 * (K2 - k1 * t1 + 2 * k2 * t2))
        return num / den, ""
    if case == "I>=II1>=II2" and len(th) == 3:
        t1, t2, t3 = th
        K1, K2, K3 = K
        k1, k2, k3 = k
        a2 = K2 - K3 - 2 * k3 * t3
        a1 = K1 - K2 - 2 * k2 * t2
        num = K1 * p_i * (-k2 * k3 * t2 * t3 + k1 * t1 * a2 + a1 * a2)
        den = (k1 * k2 * t1 * t2 * a2
               - (K1 + k1 * t1) * (k2 * k3 * t2 * t3 - a1 * a2))
        return (1.0 / (k1 * t1)) * (-p_i + k1 * Q[0] * t1 + num / den), ""
    if case == "II1>=I>=II2" and len(th) == 3:
        t1, t2, t3 = th
        K1, K2, K3 = K
        k1, k2, k3 = k
        a2 = K2 - K3 - 2 * k3 * t3
        num = (p_i * (K1 + k1 * t1) * (K2 - K3 + k2 * t2 - 2 * k3 * t3)
               * (-K2 + K3 + k3 * t3))
        den = ((-K2 + K3 + 2 * k3 * t3)
               * (k2 * k3 * (K1 + k1 * t1) * t2 * t3
                  + (-k1 * k2 * t1 * t2 - (K1 + k1 * t1) * (K1 - K2 - 2 * k2 * t2)) * a2))
        return Q[1] + p_i / a2 - num / den, ""
    return None, "inapplicable"


# ---------------------------------------------------------------------------
# best responses
# ---------------------------------------------------------------------------

def best_response_I(duo: DuopolyScenario, strat_ii: ProviderStrategy):
    """Provider I's profit-maximizing price against a fixed rival offer.

    Each price-ordering case segment is scanned on its share of a
    ``BEST_RESPONSE_I_GRID``-interval grid over [0, V] (at least
    ``SEGMENT_GRID_FLOOR`` intervals) and refined by golden section.  A
    price the search visits again is solved once per call; nothing is
    cached across calls.
    """
    f = _feasible(lambda p: _profit_i(duo, p, strat_ii))
    boundaries = [p for p, _c in strat_ii.classes]
    return _segmented_price_max(f, duo.v, boundaries, grid=BEST_RESPONSE_I_GRID)


def best_response_II(duo: DuopolyScenario, p_i: float, mode: str = "two",
                     grid: int = 192, _one=None):
    """Provider II's best offer against a fixed provider-I price.

    mode 'one': a single class at capacity C_II, price optimized per case
    segment on a ``grid``-interval scan.  mode 'two': both prices and the
    capacity split optimized by coordinate ascent from five deterministic
    starts, at most ``ASCENT_CYCLES`` cycles each, the split scanned on
    ``SPLIT_GRID`` points; the one-class optimum embedded as an equal-price
    strategy is always among the candidates, so the two-class value never
    falls below it (beyond the ascent tolerance).

    An offer the search visits again (after zero-capacity classes are
    dropped, so a zero split is the one-class offer) is solved once per
    call; nothing is cached across calls.  ``_one`` takes a mode-one result
    ``(price, profit)`` already found for this ``p_i`` and ``grid``, so mode
    two skips that search.

    Returns (strategy, profit).
    """
    if mode not in ("one", "two"):
        raise DomainError(f"mode must be 'one' or 'two', got {mode!r}")
    if not math.isfinite(p_i):
        raise DomainError(f"provider I's price must be finite, got {p_i}")
    if duo.cap_ii <= 0.0:
        return ProviderStrategy(()), 0.0
    v = duo.v
    # keyed on the offer's classes, so a zero split shares the one-class solve
    profit = _feasible(lambda classes: _profit_ii(duo, p_i, ProviderStrategy(classes)))

    if _one is None:
        f_one = lambda p: profit(((p, duo.cap_ii),))
        p_one, v_one = _segmented_price_max(f_one, v, [p_i], grid=grid)
    else:
        p_one, v_one = _one
    if mode == "one":
        return ProviderStrategy.one(p_one, duo.cap_ii), v_one

    def offer(x):
        p1, p2, s = x
        return ProviderStrategy.two(p1, s * duo.cap_ii, p2, (1.0 - s) * duo.cap_ii)

    def value(x):
        p1, p2, s = x
        if not (0.0 <= p2 <= p1 <= v and 0.0 <= s <= 1.0):
            return None
        return profit(offer(x).classes)

    # the premium price, the economy price, the equal-price diagonal (profit
    # ridges sit on the tie line whenever splitting pays through level
    # matching alone, and single-axis moves cannot walk along it), the split
    lines = (
        (lambda x: (x[1], v), ASCENT_PRICE_GRID, PRICE_XTOL, lambda x, t: (t, x[1], x[2])),
        (lambda x: (0.0, x[0]), ASCENT_PRICE_GRID, PRICE_XTOL, lambda x, t: (x[0], t, x[2])),
        (lambda x: (0.0, v), ASCENT_PRICE_GRID, PRICE_XTOL, lambda x, t: (t, t, x[2])),
        (lambda x: (0.0, 1.0), SPLIT_GRID - 1, SPLIT_XTOL, lambda x, t: (x[0], x[1], t)),
    )
    # the first two seeds embed the one-class optimum into the two-class
    # space (a zero split IS a single class, equal prices level-match),
    # so the search result never falls below the one-class value
    seeds = [(p_one, p_one, 0.0), (p_one, p_one, 0.5), (0.75 * v, 0.5 * v, 0.5),
             (0.5 * v, 0.25 * v, 0.5), (0.9 * v, 0.6 * v, 0.25)]
    best_x, best_val = None, -math.inf
    for seed in seeds:
        # an infeasible seed starts at -inf: the first feasible move adopts it
        val = value(seed)
        x, val = _ascend(value, seed, -math.inf if val is None else val, lines,
                         ASCENT_CYCLES, ASCENT_GAIN)
        if val > best_val:
            best_x, best_val = x, val

    if best_x is None:
        raise ConvergenceError("no feasible two-class strategy found")
    return offer(best_x), best_val


# ---------------------------------------------------------------------------
# Nash search
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NashResult:
    p_i: float
    strat_ii: ProviderStrategy
    pi_i: float
    pi_ii: float
    rounds: int
    verified: bool
    trajectory: tuple


def find_nash(duo: DuopolyScenario, mode: str = "one") -> NashResult:
    """Alternating best responses until neither provider moves.

    Starts from provider-I price V/2, lets II best-respond, then I, and
    repeats.  Convergence means the largest strategy coordinate change in
    a round fell below ``NASH_MOVE_TOL``; the result then undergoes a
    neighbourhood local-maximum verification.  Cycles, and no convergence
    within ``NASH_MAX_ROUNDS`` rounds, raise :class:`NoConvergenceError`
    carrying the visited trajectory.
    """
    p_i = duo.v / 2.0
    trajectory = []
    seen = {}
    strat_ii = ProviderStrategy(())
    if duo.cap_ii <= 0.0:
        p_star, pi_star = best_response_I(duo, strat_ii)
        return NashResult(p_star, strat_ii, pi_star, 0.0, 1,
                          _verify_nash(duo, p_star, strat_ii), ((p_star, ()),))

    for rounds in range(1, NASH_MAX_ROUNDS + 1):
        strat_ii_new, _pi_ii = best_response_II(duo, p_i, mode=mode)
        p_i_new, _pi_i = best_response_I(duo, strat_ii_new)
        state = (round(p_i_new, 9), tuple((round(p, 9), round(c, 9))
                                          for p, c in strat_ii_new.classes))
        trajectory.append(state)
        change = abs(p_i_new - p_i)
        prev_cls = strat_ii.classes or strat_ii_new.classes
        if len(prev_cls) != len(strat_ii_new.classes):
            change = math.inf  # strategy structure changed: not converged
        else:
            for (pa, ca), (pb, cb) in zip(prev_cls, strat_ii_new.classes):
                change = max(change, abs(pa - pb), abs(ca - cb))
        p_i, strat_ii = p_i_new, strat_ii_new
        if change < NASH_MOVE_TOL:
            me = market_equilibrium(duo, ProviderStrategy.one(p_i, duo.cap_i), strat_ii)
            verified = _verify_nash(duo, p_i, strat_ii)
            return NashResult(p_i, strat_ii, me.pi_i, me.pi_ii, rounds,
                              verified, tuple(trajectory))
        if state in seen:
            raise NoConvergenceError(
                f"best-response cycle detected after {rounds} rounds",
                trajectory=trajectory,
            )
        seen[state] = rounds
    raise NoConvergenceError(
        f"no convergence in {NASH_MAX_ROUNDS} rounds", trajectory=trajectory
    )


def _verify_nash(duo: DuopolyScenario, p_i: float, strat_ii: ProviderStrategy) -> bool:
    """Sample a small neighbourhood: no unilateral improvement allowed.

    Provider I's candidates move its price, provider II's move each of its
    prices and its split, by up to ``NASH_VERIFY_RADIUS``.  A candidate the
    market cannot solve is skipped; an unsolvable posted state fails.
    """
    r = NASH_VERIFY_RADIUS
    offsets = [-r, -r / 2.0, 0.0, r / 2.0, r]

    def clip(p):
        return min(max(p, 0.0), duo.v)

    def improvable(profit, posted, candidates):
        profit = _feasible(profit)
        bar = profit(posted)
        if bar is None:
            return True
        bar += NASH_VERIFY_SLACK
        return any(v is not None and v > bar for v in map(profit, candidates))

    if improvable(lambda p: _profit_i(duo, p, strat_ii), p_i,
                  [clip(p_i + d) for d in offsets]):
        return False
    cls = strat_ii.classes
    if not cls:
        return True
    if len(cls) == 1:
        [(p, c)] = cls
        offers = [((clip(p + d), c),) for d in offsets]
    else:
        (p1, c1), (p2, c2) = cls
        offers = [((q1, c1), (q2, c2)) for q1 in [clip(p1 + d) for d in offsets]
                  for q2 in [clip(p2 + d) for d in offsets] if q2 <= q1]
        total = c1 + c2
        for d in offsets:
            c1_new = min(max(c1 + d * total, NASH_SPLIT_MARGIN * total),
                         (1.0 - NASH_SPLIT_MARGIN) * total)
            offers.append(((p1, c1_new), (p2, total - c1_new)))
    return not improvable(lambda offer: _profit_ii(duo, p_i, ProviderStrategy(offer)),
                          cls, offers)


# ---------------------------------------------------------------------------
# best-response profit curves
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CurvePoint:
    p_i: float
    pi_i: float                 # provider I profit at II's best two-class reply
    pi_ii_one: float
    pi_ii_two: float
    error: Optional[str] = None


def duopoly_curve(duo: DuopolyScenario, p_i_grid: Sequence[float],
                  grid: int = 192) -> tuple:
    """Best-response profits of provider II along a grid of provider-I prices.

    For each grid price, provider II best-responds once restricted to a
    single class and once allowed to split; the returned points carry both
    profits plus provider I's profit against the two-class reply.  The
    one-class search runs once per point: its optimum seeds the two-class
    call.  Each best response solves a repeated offer once; nothing is
    cached across points.  Errors at individual grid points are recorded
    on the point, not raised.
    """
    points = []
    for p_i in p_i_grid:
        try:
            s1, pi_one = best_response_II(duo, p_i, mode="one", grid=grid)
            # an absent provider II (no capacity) has no one-class price
            one = (s1.classes[0][0], pi_one) if s1.classes else None
            s2, pi_two = best_response_II(duo, p_i, mode="two", grid=grid, _one=one)
            me = market_equilibrium(duo, ProviderStrategy.one(p_i, duo.cap_i), s2)
            points.append(CurvePoint(float(p_i), me.pi_i, pi_one, pi_two))
        except PmplabError as exc:
            points.append(CurvePoint(float(p_i), math.nan, math.nan, math.nan, str(exc)))
    return tuple(points)
