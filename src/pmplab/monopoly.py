"""Monopoly-side studies: price optimization, partition tests, probes.

The provider owns every class.  The studies here answer, numerically, the
two questions that decide whether offering several differently priced
classes pays off:

1. Does splitting capacity at an unchanged common price help or hurt?
   (:func:`partition_comparison`, driven by the scale-down classifier.)
2. From a common price, does moving to differentiated prices strictly
   improve welfare and profit?  (:func:`local_improvement_probe`,
   :func:`ratio_sweep`, :func:`maximize_free_prices`.)

The maximizations run on the deterministic searches of ``_search``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

from ._search import _ascend, _feasible, _grid_golden_max
from ._tolerances import (
    BASELINE_BEAT_MARGIN, BOTTOM_PRICE_SLACK, CUTOFF_ASCENT_GAIN, CUTOFF_GAP, CUTOFF_GRID,
    CUTOFF_XTOL, FREE_PRICE_ROUNDS, NONEMPTY_USAGE, PRICE_XTOL, PROBE_CUTOFF_GAP,
    PROBE_DELTA, PROBE_DELTA_FLOOR, SEED_PRICE_GRID, SEED_PRICE_XTOL, SPLIT_SUM_TOL,
    VIABILITY_PRICES, VIABILITY_SWEEP_GRID,
)
from .congestion import (
    INDIFFERENT,
    MULTIPLEXING_PREFERRED,
    PARTITION_PREFERRED,
    ScalingClass,
    classify_scaling,
    monotone_case,
)
from .equilibrium import (
    Equilibrium,
    MarketScenario,
    cutoffs_from_prices,
    identical_price_equilibrium,
    prices_from_cutoffs,
    provider_profit,
    social_welfare,
)
from .errors import (
    ConvergenceError,
    DomainError,
    NoEquilibriumError,
    PmplabError,
    PreconditionError,
)

__all__ = [
    "SweepPoint",
    "SweepCurve",
    "PartitionComparison",
    "ProbeResult",
    "ViabilityReport",
    "maximize_single_price",
    "ratio_sweep",
    "maximize_free_prices",
    "partition_comparison",
    "local_improvement_probe",
    "identical_price_cases",
    "viability_report",
]


def _objective_fn(scenario: MarketScenario, objective: str) -> Callable[[Equilibrium], float]:
    if objective == "profit":
        return provider_profit
    if objective == "welfare":
        return lambda eq: social_welfare(scenario, eq)
    raise DomainError(f"objective must be 'welfare' or 'profit', got {objective!r}")


# ---------------------------------------------------------------------------
# price maximization
# ---------------------------------------------------------------------------

def maximize_single_price(
    scenario: MarketScenario,
    objective: str = "profit",
    grid: int = 512,
):
    """Best single-class price on [0, V].

    The scenario must have exactly one class.  Returns (price, value).
    Plateaus (welfare typically saturates over a price range) report the
    largest maximizing price.
    """
    if scenario.m != 1:
        raise PreconditionError("maximize_single_price needs a single-class scenario")
    value_of = _objective_fn(scenario, objective)
    f = _feasible(lambda p: value_of(cutoffs_from_prices(scenario, (p,))))
    p_star, value, _ = _grid_golden_max(f, 0.0, scenario.v, grid, PRICE_XTOL)
    if p_star is None:
        raise ConvergenceError("no feasible price found on the grid")
    return p_star, value


@dataclass(frozen=True)
class SweepPoint:
    ratio: float
    best_value: float
    argmax_p1: float
    skipped: int = 0


@dataclass(frozen=True)
class SweepCurve:
    """Best objective per price ratio, against the merged single class."""

    objective: str
    points: tuple
    baseline_single: float
    baseline_argmax: float

    def best(self) -> SweepPoint:
        return max(self.points, key=lambda pt: pt.best_value)


def ratio_sweep(
    scenario: MarketScenario,
    a_grid: Sequence[float],
    objective: str = "profit",
    grid: int = 512,
) -> SweepCurve:
    """Sweep the price ratio a, maximizing over the premium price each time.

    At each ratio the economy class is priced at a times the premium class
    and the objective is maximized over the premium price on [0, V].  The
    baseline is the same maximization for all capacity merged into one
    class.  Infeasible price points are skipped and counted per ratio.
    """
    if scenario.m != 2:
        raise PreconditionError("ratio_sweep needs a two-class scenario")
    if not a_grid:
        raise PreconditionError("a_grid must not be empty")
    if not all(0.0 <= a <= 1.0 for a in a_grid):  # NaN fails too
        raise DomainError("price ratios must lie in [0, 1]")
    value_of = _objective_fn(scenario, objective)

    points = []
    for a in a_grid:
        f = _feasible(lambda p1, _a=a: value_of(cutoffs_from_prices(scenario, (p1, _a * p1))))
        p_star, value, skipped = _grid_golden_max(f, 0.0, scenario.v, grid, PRICE_XTOL)
        if p_star is None:
            raise NoEquilibriumError(f"no feasible premium price at ratio {a}")
        points.append(SweepPoint(float(a), value, p_star, skipped))

    base_p, base_v = maximize_single_price(scenario.merged(), objective, grid)
    return SweepCurve(objective, tuple(points), base_v, base_p)


def maximize_free_prices(
    scenario: MarketScenario,
    objective: str = "profit",
):
    """Unconstrained price-vector maximization via cutoff-space ascent.

    Runs coordinate-wise golden-section ascent over the cutoff vector from
    five deterministic starts, one of which is the identical-pricing
    optimum, so the result can only improve on it.  When no start can be
    priced, that optimum itself is returned.  Returns (prices, value,
    cutoffs).
    """
    if scenario.m < 2:
        raise PreconditionError("maximize_free_prices needs at least two classes")
    m = scenario.m
    value_of = _objective_fn(scenario, objective)
    theta_bar = scenario.dist.support_end
    price = _feasible(lambda th: prices_from_cutoffs(scenario, th))

    def f(th):
        eq = price(th)
        if eq is None or eq.prices[-1] < -BOTTOM_PRICE_SLACK:
            return None
        return value_of(eq)

    # the identical-pricing optimum is the first start; each price keeps
    # its cutoffs, so the winner is not solved again
    def ident(p):
        eq = identical_price_equilibrium(scenario, p)
        return value_of(eq), eq.cutoffs

    ident = _feasible(ident)

    def f_ident(p):
        found = ident(p)
        return None if found is None else found[0]

    p_ident, _, _ = _grid_golden_max(f_ident, 0.0, scenario.v, SEED_PRICE_GRID,
                                     SEED_PRICE_XTOL)
    seeds = [] if p_ident is None else [ident(p_ident)[1]]
    for spread in (0.9, 0.7, 0.5, 0.3):
        seeds.append(tuple(theta_bar * spread * (m - i) / m for i in range(m)))

    def line(i):
        # cutoff i moves between its neighbours, keeping CUTOFF_GAP from each
        def span(th):
            hi = theta_bar if i == 0 else th[i - 1] - CUTOFF_GAP
            lo = th[i + 1] + CUTOFF_GAP if i + 1 < m else CUTOFF_GAP
            return lo, hi
        return span, CUTOFF_GRID, CUTOFF_XTOL, lambda th, t: th[:i] + (t,) + th[i + 1:]

    lines = [line(i) for i in range(m)]
    best_val, best_th = -math.inf, None
    for seed in seeds:
        val = f(seed)
        if val is None:
            continue
        th, val = _ascend(f, seed, val, lines, FREE_PRICE_ROUNDS, CUTOFF_ASCENT_GAIN)
        if val > best_val:
            best_val, best_th = val, th

    if best_th is None:
        if p_ident is None:
            raise ConvergenceError("no feasible starting cutoffs for free-price ascent")
        # no start can be priced (the identical-price optimum may leave a
        # class empty): identical pricing is the best found
        value, cutoffs = ident(p_ident)
        return (p_ident,) * m, value, cutoffs
    return price(best_th).prices, best_val, best_th


# ---------------------------------------------------------------------------
# partition comparison
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PartitionComparison:
    """One price, two markets: merged class vs identically priced split."""

    price: float
    split: tuple
    single_welfare: float
    single_profit: float
    split_welfare: float
    split_profit: float


def partition_comparison(
    scenario: MarketScenario,
    price: float,
    split: Sequence[float],
) -> PartitionComparison:
    """Evaluate welfare and profit with and without a capacity split.

    The single side solves the one-class market at ``price``; the split
    side solves the identically priced partition (congestion levels
    matched across the parts).  The split's parts must be nonnegative and
    finite (zero parts are dropped) and use up exactly the single class's
    capacity.
    """
    if scenario.m != 1:
        raise PreconditionError("partition_comparison needs a single-class base scenario")
    if not all(0.0 <= c < math.inf for c in split):  # NaN fails it
        raise DomainError(f"split parts must be nonnegative and finite, got {split}")
    if abs(sum(split) - scenario.capacities[0]) > SPLIT_SUM_TOL:
        raise DomainError(f"split {split} does not sum to capacity {scenario.capacities[0]}")
    if not 0.0 <= price <= scenario.v:
        raise DomainError(f"price {price} outside [0, {scenario.v}]")

    single = cutoffs_from_prices(scenario, (price,))
    parts = tuple(c for c in split if c > 0.0)
    if len(parts) <= 1:
        split_eq, split_sc = single, scenario
    else:
        split_sc = scenario.with_capacities(parts)
        split_eq = identical_price_equilibrium(split_sc, price)
    return PartitionComparison(
        price=float(price),
        split=tuple(split),
        single_welfare=social_welfare(scenario, single),
        single_profit=provider_profit(single),
        split_welfare=social_welfare(split_sc, split_eq),
        split_profit=provider_profit(split_eq),
    )


# ---------------------------------------------------------------------------
# differentiated-pricing improvement probe
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProbeResult:
    case: str            # monotone case at the identical-pricing profile
    direction: int       # sign applied to the inner cutoff
    delta: float         # perturbation magnitude actually used
    d_welfare: float
    d_profit: float
    prices: tuple        # differentiated prices after the perturbation


def local_improvement_probe(
    scenario: MarketScenario,
    price: float,
    delta: float = PROBE_DELTA,
    direction: Optional[int] = None,
) -> ProbeResult:
    """Nudge the class boundary away from identical pricing and remeasure.

    Starting from the identical-pricing equilibrium at ``price``, the inner
    cutoff moves by ``delta`` with the participation cutoff held fixed, the
    prices supporting the new cutoffs are recomputed, and the welfare and
    profit changes are returned.  The movement direction comes from the
    sign of the welfare derivative along this path,

        s = k_1 * E[theta; class 1] - k_2 * E[theta; class 2],

    (k_i the marginal congestion slopes, expectations over each class's
    type range), which is positive exactly when growing the economy class
    helps.  When the model has a monotone slope ordering at the profile,
    both changes are strictly positive for small enough delta; the probe
    halves delta down to 1e-6 before giving up.  Passing ``direction``
    overrides the choice (the wrong sign demonstrates deterioration) and
    skips the sign contract.
    """
    if scenario.m != 2:
        raise PreconditionError("the probe needs a two-class scenario")
    if not math.isfinite(delta):
        raise DomainError(f"delta must be finite, got {delta}")
    eq = identical_price_equilibrium(scenario, price)
    if any(q <= NONEMPTY_USAGE for q in eq.usages):
        raise PreconditionError("both classes must be nonempty at the probe price")
    th1, th2 = eq.cutoffs
    if th2 <= PROBE_CUTOFF_GAP or th1 - th2 <= PROBE_CUTOFF_GAP:
        raise PreconditionError("degenerate identical-pricing equilibrium")

    case = monotone_case(scenario.model, scenario.capacities, eq.usages)
    if direction is None and case == "Neither":
        raise PreconditionError(
            "no monotone slope ordering at the equilibrium profile; probe undefined"
        )

    k1 = scenario.model._slope(eq.usages[0], scenario.capacities[0])
    k2 = scenario.model._slope(eq.usages[1], scenario.capacities[1])
    s = k1 * scenario.dist.weighted_mass(th2, th1) - k2 * scenario.dist.weighted_mass(0.0, th2)
    auto_dir = 1 if s >= 0.0 else -1
    use_dir = auto_dir if direction is None else (1 if direction >= 0 else -1)

    base = prices_from_cutoffs(scenario, (th1, th2), enforce_order=False)
    s0, pi0 = social_welfare(scenario, base), provider_profit(base)

    if delta == 0.0:
        return ProbeResult(case, use_dir, 0.0, 0.0, 0.0, base.prices)

    d = abs(delta)
    last = None
    while d >= PROBE_DELTA_FLOOR:
        th2_new = th2 + use_dir * d
        if 0.0 < th2_new < th1:
            pert = prices_from_cutoffs(scenario, (th1, th2_new), enforce_order=False)
            ds = social_welfare(scenario, pert) - s0
            dpi = provider_profit(pert) - pi0
            last = ProbeResult(case, use_dir, d, ds, dpi, pert.prices)
            if direction is not None or (ds > 0.0 and dpi > 0.0):
                return last
        d *= 0.5
    if direction is not None and last is not None:
        return last
    raise ConvergenceError(
        f"no improving perturbation found down to delta=1e-6 at price {price}"
    )


# ---------------------------------------------------------------------------
# combined viability report
# ---------------------------------------------------------------------------

def identical_price_cases(scenario: MarketScenario, prices: Iterable[float]) -> list:
    """(price, monotone case) at each identical-pricing equilibrium.

    A price whose equilibrium cannot be solved, or leaves a class with no
    more than ``NONEMPTY_USAGE`` usage, is left out.
    """
    solve = _feasible(lambda p: identical_price_equilibrium(scenario, p))
    cases = []
    for p in prices:
        eq = solve(p)
        if eq is not None and all(q > NONEMPTY_USAGE for q in eq.usages):
            cases.append((p, monotone_case(scenario.model, scenario.capacities, eq.usages)))
    return cases


@dataclass(frozen=True)
class ViabilityReport:
    """Aggregated evidence on whether class differentiation can pay."""

    scaling: ScalingClass
    monotone_at_equilibria: tuple    # (price, case) pairs per split
    comparisons: dict                # split -> tuple of PartitionComparison
    sweeps: dict                     # (split, objective) -> SweepCurve
    verdict: str                     # PMP-viable | PMP-nonviable | Indeterminate
    notes: tuple


def viability_report(
    scenario: MarketScenario,
    splits: Iterable[Sequence[float]] = ((0.3, 0.7),),
    a_grid: Sequence[float] = (0.25, 0.5, 0.75, 0.9, 1.0),
) -> ViabilityReport:
    """Combine the classifier, probe preconditions and sweeps into a verdict.

    Each split meets the merged class at the n = ``VIABILITY_PRICES`` prices
    V (k + 1/2) / n, and its sweeps use ``VIABILITY_SWEEP_GRID`` intervals.
    PMP-viable requires the scale-down test to favour (or be indifferent
    to) partitioning and a consistent monotone slope ordering at the
    identical-pricing equilibria of every requested split.  PMP-nonviable
    requires the opposite scale-down verdict together with sweeps that
    never beat the merged class.  Everything else is Indeterminate.
    """
    if scenario.m != 1:
        raise PreconditionError("viability_report starts from a single-class scenario")
    scaling = classify_scaling(scenario.model)
    notes = []

    comparisons = {}
    cases = []
    sweeps = {}
    prices = [scenario.v * (k + 0.5) / VIABILITY_PRICES for k in range(VIABILITY_PRICES)]
    for split in splits:
        split = tuple(split)
        split_sc = scenario.with_capacities(split)
        rows = []
        for p in prices:
            try:
                rows.append(partition_comparison(scenario, p, split))
            except PmplabError as exc:
                notes.append(f"partition comparison failed at p={p:.6g}: {exc}")
        comparisons[split] = tuple(rows)

        cases += identical_price_cases(split_sc, prices)

        for objective in ("welfare", "profit"):
            try:
                sweeps[(split, objective)] = ratio_sweep(
                    split_sc, tuple(a_grid), objective, grid=VIABILITY_SWEEP_GRID
                )
            except PmplabError as exc:
                notes.append(f"sweep failed for split {split} ({objective}): {exc}")

    consistent = {c for _p, c in cases if c != "Both"}
    monotone_ok = bool(cases) and len(consistent) <= 1 and "Neither" not in consistent

    never_beats = all(
        curve.best().best_value <= curve.baseline_single + BASELINE_BEAT_MARGIN
        for curve in sweeps.values()
    ) if sweeps else False

    if scaling.verdict in (PARTITION_PREFERRED, INDIFFERENT) and monotone_ok:
        verdict = "PMP-viable"
    elif scaling.verdict == MULTIPLEXING_PREFERRED and never_beats:
        verdict = "PMP-nonviable"
    else:
        verdict = "Indeterminate"

    return ViabilityReport(
        scaling=scaling,
        monotone_at_equilibria=tuple(cases),
        comparisons=comparisons,
        sweeps=sweeps,
        verdict=verdict,
        notes=tuple(notes),
    )
