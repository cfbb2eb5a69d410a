import dataclasses
import inspect
import math
import random
import sys

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from pmplab import _tolerances as tol
from pmplab import congestion as cg
from pmplab import equilibrium as eqm
from pmplab.errors import (
    ConvergenceError,
    DomainError,
    NoEquilibriumError,
    OrderError,
    PmplabError,
)
from pmplab.population import tabulated, uniform


def utl_market(capacities, v=2.0):
    return eqm.MarketScenario(v, capacities, cg.utilization())


# ---------------------------------------------------------------------------
# prices_from_cutoffs
# ---------------------------------------------------------------------------

def test_forward_two_class_utilization():
    sc = utl_market((0.7, 0.3))
    eq = eqm.prices_from_cutoffs(sc, (0.8, 0.4))
    assert eq.prices[0] == pytest.approx(1.542857, abs=1e-6)
    assert eq.prices[1] == pytest.approx(1.238095, abs=1e-6)
    assert eq.levels[0] == pytest.approx(0.571429, abs=1e-6)
    assert eq.levels[1] == pytest.approx(1.333333, abs=1e-6)
    # the boundary user is indifferent between the classes
    u1 = sc.v - eq.prices[0] - 0.4 * eq.levels[0]
    u2 = sc.v - eq.prices[1] - 0.4 * eq.levels[1]
    assert u1 == pytest.approx(u2, abs=1e-12)


def test_forward_zero_cutoff_gives_full_price():
    sc = utl_market((1.0,))
    eq = eqm.prices_from_cutoffs(sc, (0.0,))
    assert eq.prices[0] == pytest.approx(2.0)
    assert eq.degenerate


def test_forward_equal_latency_levels_give_equal_prices():
    sc = eqm.MarketScenario(2.0, (0.5, 0.5), cg.latency())
    eq = eqm.prices_from_cutoffs(sc, (1.0 / 3.0, 1.0 / 6.0))
    assert eq.prices[0] == pytest.approx(1.0, abs=1e-12)
    assert eq.prices[1] == pytest.approx(1.0, abs=1e-12)


def test_forward_rejects_bad_orderings():
    sc = utl_market((0.3, 0.7))
    with pytest.raises(OrderError):
        eqm.prices_from_cutoffs(sc, (0.4, 0.8))      # inverted cutoffs
    with pytest.raises(OrderError):
        eqm.prices_from_cutoffs(sc, (1.2, 0.4))      # beyond support
    # premium ordering violated: bottom-heavy usage on the small class
    with pytest.raises(OrderError):
        eqm.prices_from_cutoffs(utl_market((0.7, 0.3)), (1.0, 0.1))


def test_forward_unvalidated_returns_rather_than_raises():
    eq = eqm.prices_from_cutoffs(utl_market((0.7, 0.3)), (1.0, 0.1), enforce_order=False)
    assert eq.prices[1] > eq.prices[0]


# ---------------------------------------------------------------------------
# cutoffs_from_prices
# ---------------------------------------------------------------------------

def test_single_class_closed_forms():
    sc = utl_market((1.0,))
    eq = eqm.cutoffs_from_prices(sc, (1.0,))
    assert eq.cutoffs[0] == pytest.approx(1.0, abs=1e-10)
    assert eq.saturated
    eq2 = eqm.cutoffs_from_prices(sc, (2.0,))
    assert eq2.cutoffs[0] == 0.0 and eq2.usages[0] == 0.0

    lat = eqm.MarketScenario(2.0, (1.0,), cg.latency())
    eq3 = eqm.cutoffs_from_prices(lat, (1.0,))
    assert eq3.cutoffs[0] == pytest.approx(0.5, abs=1e-10)
    assert eq3.usages[0] == pytest.approx(0.5, abs=1e-10)


def test_two_class_roundtrip():
    sc = utl_market((0.7, 0.3))
    eq = eqm.cutoffs_from_prices(sc, (1.542857142857143, 1.238095238095238))
    assert eq.cutoffs[0] == pytest.approx(0.8, abs=1e-8)
    assert eq.cutoffs[1] == pytest.approx(0.4, abs=1e-8)


def test_saturated_two_class_market():
    # hand-solved: theta2 = (1 + sqrt(2.6)) / 4, everyone participates
    sc = utl_market((1.0, 1.0))
    eq = eqm.cutoffs_from_prices(sc, (1.2, 1.0))
    th2 = (1.0 + math.sqrt(2.6)) / 4.0
    assert eq.saturated
    assert eq.cutoffs[0] == pytest.approx(1.0)
    assert eq.cutoffs[1] == pytest.approx(th2, abs=1e-9)
    assert eq.usages[0] == pytest.approx(1.0 - th2, abs=1e-9)
    assert eq.opt_out == pytest.approx(0.0, abs=1e-12)


def test_identical_price_examples():
    lat = eqm.MarketScenario(2.0, (0.5, 0.5), cg.latency())
    eq = eqm.identical_price_equilibrium(lat, 1.0)
    assert eq.cutoffs[0] == pytest.approx(1.0 / 3.0, abs=1e-9)
    assert eq.cutoffs[1] == pytest.approx(1.0 / 6.0, abs=1e-9)
    assert eq.levels[0] == pytest.approx(3.0, abs=1e-7)
    assert abs(eq.levels[0] - eq.levels[1]) <= 1e-9

    utl = utl_market((0.5, 0.5))
    eq2 = eqm.identical_price_equilibrium(utl, 1.0)
    assert eq2.saturated
    assert eq2.cutoffs == (1.0, 0.5)
    assert eq2.usages[0] == pytest.approx(0.5, abs=1e-12)

    eq3 = eqm.identical_price_equilibrium(utl, 2.0)
    assert eq3.total_usage == 0.0


def test_empty_premium_corner():
    # latency premium class too small and too dear: it stays empty
    sc = eqm.MarketScenario(2.0, (0.3, 0.7), cg.latency())
    eq = eqm.cutoffs_from_prices(sc, (1.4, 1.1))
    assert eq.degenerate
    assert eq.usages[0] == 0.0
    assert eq.cutoffs[0] == pytest.approx(eq.cutoffs[1], abs=1e-12)
    assert eq.cutoffs[1] == pytest.approx(0.63 / 1.9, abs=1e-9)
    assert eqm.validate(sc, eq).all_ok


def test_price_preconditions():
    sc = utl_market((0.5, 0.5))
    with pytest.raises(OrderError):
        eqm.cutoffs_from_prices(sc, (1.0, 1.2))
    with pytest.raises(OrderError):
        eqm.cutoffs_from_prices(sc, (2.5, 1.0))
    with pytest.raises(OrderError):
        eqm.cutoffs_from_prices(sc, (1.0, -0.2))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_scenarios_are_rejected(bad):
    with pytest.raises(DomainError, match="finite"):
        eqm.MarketScenario(bad, (0.5, 0.5), cg.utilization())
    with pytest.raises(DomainError, match="finite"):
        eqm.MarketScenario(2.0, (bad,), cg.utilization())
    with pytest.raises(DomainError, match="finite"):
        eqm.MarketScenario(2.0, (0.5, bad), cg.utilization())


@pytest.mark.parametrize("prices", [(math.nan, 0.5), (1.0, math.nan), (1.0, math.inf)])
def test_non_finite_prices_are_rejected(prices):
    sc = utl_market((0.5, 0.5))
    with pytest.raises(DomainError, match="finite"):
        eqm.cutoffs_from_prices(sc, prices)


@pytest.mark.parametrize("cutoffs", [(math.nan, 0.3), (0.8, math.nan), (0.8, -math.inf)])
def test_non_finite_cutoffs_are_rejected(cutoffs):
    # NaN passed every order test and came back as NaN prices
    with pytest.raises(DomainError, match="finite"):
        eqm.prices_from_cutoffs(utl_market((0.5, 0.5)), cutoffs)


def test_a_non_finite_identical_price_is_rejected():
    with pytest.raises(DomainError, match="finite"):
        eqm.identical_price_equilibrium(utl_market((0.5, 0.5)), math.nan)


@pytest.mark.parametrize("nan_level", [0, 1])
def test_a_nan_residual_fails_the_solved_check(nan_level):
    sc = utl_market((0.5, 0.5))
    eq = eqm.cutoffs_from_prices(sc, (1.2, 0.8))
    eqm._verify_residuals(sc, eq)
    # level 0 makes both residuals NaN, level 1 only the second: max() over
    # the residuals missed either
    levels = list(eq.levels)
    levels[nan_level] = math.nan
    eq = dataclasses.replace(eq, levels=tuple(levels))
    assert math.isnan(eqm.validate(sc, eq).c3_residuals[1])
    with pytest.raises(ConvergenceError):
        eqm._verify_residuals(sc, eq)


def test_three_class_interior_matches_implicit_solution():
    sc = eqm.MarketScenario(2.0, (1.0, 0.5, 0.5), cg.utilization())
    eq = eqm.cutoffs_from_prices(sc, (1.8, 1.7, 1.6))
    assert eq.cutoffs[0] == pytest.approx(0.81146446, abs=1e-7)
    assert eq.cutoffs[1] == pytest.approx(0.56499648, abs=1e-7)
    assert eq.cutoffs[2] == pytest.approx(0.35326637, abs=1e-7)
    assert eqm.validate(sc, eq).all_ok


def test_tabulated_population_roundtrip():
    dist = tabulated([(0.0, 0.0), (0.4, 0.7), (1.0, 1.0)])
    sc = eqm.MarketScenario(2.0, (0.6, 0.4), cg.utilization(), dist)
    eq = eqm.prices_from_cutoffs(sc, (0.7, 0.3))
    back = eqm.cutoffs_from_prices(sc, eq.prices)
    assert back.cutoffs[0] == pytest.approx(0.7, abs=1e-8)
    assert back.cutoffs[1] == pytest.approx(0.3, abs=1e-8)


# ---------------------------------------------------------------------------
# welfare / profit
# ---------------------------------------------------------------------------

def test_welfare_and_profit_closed_forms():
    utl = utl_market((1.0,))
    eq = eqm.cutoffs_from_prices(utl, (1.0,))
    assert eqm.social_welfare(utl, eq) == pytest.approx(1.5, abs=1e-9)
    assert eqm.provider_profit(eq) == pytest.approx(1.0, abs=1e-9)

    lat = eqm.MarketScenario(2.0, (1.0,), cg.latency())
    eq2 = eqm.cutoffs_from_prices(lat, (1.0,))
    assert eqm.social_welfare(lat, eq2) == pytest.approx(0.75, abs=1e-9)
    assert eqm.provider_profit(eq2) == pytest.approx(0.5, abs=1e-9)

    split = eqm.MarketScenario(2.0, (0.5, 0.5), cg.latency())
    eq3 = eqm.identical_price_equilibrium(split, 1.0)
    assert eqm.social_welfare(split, eq3) == pytest.approx(0.5, abs=1e-8)
    assert eqm.provider_profit(eq3) == pytest.approx(1.0 / 3.0, abs=1e-8)


def test_empty_market_zero_welfare_profit():
    sc = utl_market((1.0,))
    eq = eqm.cutoffs_from_prices(sc, (2.0,))
    assert eqm.social_welfare(sc, eq) == 0.0
    assert eqm.provider_profit(eq) == 0.0


def test_welfare_decomposition_identity():
    sc = utl_market((0.6, 0.4))
    eq = eqm.prices_from_cutoffs(sc, (0.9, 0.5))
    direct = eqm.social_welfare(sc, eq)
    decomposed = sc.v * sc.dist.cdf(eq.cutoffs[0])
    bounds = list(eq.cutoffs) + [0.0]
    for i in range(eq.m):
        decomposed -= eq.levels[i] * sc.dist.weighted_mass(bounds[i + 1], bounds[i])
    assert direct == pytest.approx(decomposed, abs=1e-12)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def test_validate_passes_on_solved_equilibrium():
    sc = utl_market((0.7, 0.3))
    eq = eqm.prices_from_cutoffs(sc, (0.8, 0.4))
    rep = eqm.validate(sc, eq)
    assert rep.all_ok and not rep.degenerate_ties


def test_validate_flags_inversion_and_perturbation():
    sc = utl_market((0.7, 0.3))
    eq = eqm.prices_from_cutoffs(sc, (0.8, 0.4))
    bad = eqm.Equilibrium(
        cutoffs=(0.4, 0.8), prices=eq.prices, usages=eq.usages,
        levels=eq.levels, saturated=False, degenerate=False, opt_out=eq.opt_out,
    )
    assert not eqm.validate(sc, bad).c1_ok

    bumped = eqm.Equilibrium(
        cutoffs=eq.cutoffs, prices=(eq.prices[0] + 1e-3, eq.prices[1]),
        usages=eq.usages, levels=eq.levels, saturated=False,
        degenerate=False, opt_out=eq.opt_out,
    )
    rep = eqm.validate(sc, bumped)
    assert not rep.c3_ok
    assert max(abs(r) for r in rep.c3_residuals) == pytest.approx(1e-3, rel=1e-6)


def test_saturated_slack_reported_ok():
    sc = utl_market((1.0, 1.0))
    eq = eqm.cutoffs_from_prices(sc, (1.2, 1.0))
    rep = eqm.validate(sc, eq)
    assert rep.saturated and rep.all_ok
    # boundary price: slack vanishes when the price sits at the relaxed bound
    assert sc.v - eq.cutoffs[0] * eq.levels[0] >= eq.prices[0] - 1e-9


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------

MODELS_FOR_ROUNDTRIP = [
    cg.utilization(),
    cg.latency(),
    cg.general_latency(0.5),
    cg.general_latency(2.0),
    cg.loss(2),
    cg.outage(0.5),
    cg.utilization_default(0.05),
]


def _lcg(seed):
    while True:
        seed = (seed * 6364136223846793005 + 1442695040888963407) % 2**63
        yield (seed >> 20) / float(2**43)


def test_bijection_roundtrip_200_scenarios():
    rng = _lcg(987654321)
    built = 0
    attempts = 0
    while built < 200 and attempts < 4000:
        attempts += 1
        model = MODELS_FOR_ROUNDTRIP[attempts % len(MODELS_FOR_ROUNDTRIP)]
        m = 1 + attempts % 3
        th = sorted(0.08 + 0.8 * next(rng) for _ in range(m))[::-1]
        if any(a - b < 0.05 for a, b in zip(th, th[1:])) or th[0] > 0.9:
            continue
        # capacities roomy enough to keep latency kinds in domain
        caps = []
        bounds = list(th) + [0.0]
        ok = True
        for i in range(m):
            q = bounds[i] - bounds[i + 1]
            lo = q / 0.8 if model.kind in ("latency", "general_latency") else q * (0.4 + next(rng))
            caps.append(max(lo, model.min_usage() * 3, 0.1) + 0.3 * next(rng))
        sc = eqm.MarketScenario(2.0, tuple(caps), model)
        try:
            eq = eqm.prices_from_cutoffs(sc, th)
            if eq.prices[-1] <= 1e-6:
                continue
            back = eqm.cutoffs_from_prices(sc, eq.prices)
            again = eqm.prices_from_cutoffs(sc, back.cutoffs)
        except (OrderError, DomainError):
            continue
        assert not eq.saturated
        for a, b in zip(th, back.cutoffs):
            assert abs(a - b) <= 1e-8, (model.kind, th, back.cutoffs)
        for a, b in zip(eq.prices, again.prices):
            assert abs(a - b) <= 1e-8
        built += 1
    assert built == 200, f"only {built} scenarios built"


def test_monotone_comparative_static_single_class():
    for model in (cg.utilization(), cg.latency(), cg.loss(2)):
        sc = eqm.MarketScenario(2.0, (1.0,), model)
        prev_theta, prev_q = -1.0, -1.0
        for k in range(25):
            p = 1.9 - 1.8 * k / 24
            eq = eqm.cutoffs_from_prices(sc, (p,))
            assert eq.cutoffs[0] >= prev_theta - 1e-12
            assert eq.usages[0] >= prev_q - 1e-12
            prev_theta, prev_q = eq.cutoffs[0], eq.usages[0]


def test_identical_price_levels_match():
    for model in (cg.utilization(), cg.latency(), cg.loss(2), cg.outage(0.5)):
        sc = eqm.MarketScenario(2.0, (0.3, 0.7), model)
        eq = eqm.identical_price_equilibrium(sc, 1.3)
        if all(q > 1e-9 for q in eq.usages):
            assert abs(eq.levels[0] - eq.levels[1]) <= 1e-9
        else:
            # a member may stay empty only if even empty it is no better
            shared = max(lev for lev, q in zip(eq.levels, eq.usages) if q > 1e-9)
            for lev, q in zip(eq.levels, eq.usages):
                if q <= 1e-9:
                    assert lev >= shared - 1e-9


# ---------------------------------------------------------------------------
# tie-group level inversion against the plain bisection
# ---------------------------------------------------------------------------

def _ref_group_level(model, caps, q):
    """Plain 80-step bisection over the public usage_at_level, which a
    model's tie-group level must reproduce bit for bit.  The members' usages
    are added left to right, as the kernels add them (sum() compensates
    from Python 3.12 on)."""
    def usage_at(lev):
        total = 0.0
        for c in caps:
            total += model.usage_at_level(lev, c)
        return total

    q = max(q, 0.0)
    cap = sum(caps) if model.kind in ("latency", "general_latency") else math.inf
    if q >= cap:
        return 1e12 * (1.0 + q - cap)
    lo = min(model.level_floor(c) for c in caps)
    if q <= 0.0:
        return lo
    hi = max(lo * 2.0, 1e-6)
    while usage_at(hi) < q:
        hi *= 2.0
        if hi > 1e14:
            return hi
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if usage_at(mid) < q:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _ref_group_split(model, caps, q):
    lev = _ref_group_level(model, caps, q)
    parts = [model.usage_at_level(lev, c) for c in caps]
    total = sum(parts)
    if total > 0.0:
        j = max(range(len(parts)), key=lambda i: parts[i])
        parts[j] += q - total
    else:
        parts[0] = q
    return parts


_INVERTED_KINDS = st.sampled_from(
    [cg.latency(), cg.general_latency(0.0), cg.general_latency(1.7),
     cg.outage(1.0), cg.outage(0.35)]
)


@settings(max_examples=300, deadline=None)
@given(
    _INVERTED_KINDS,
    st.lists(st.floats(0.05, 2.0), min_size=2, max_size=3),
    st.floats(0.0, 1.2),
)
def test_tie_group_level_matches_bisection_reference(model, caps, frac):
    group = eqm._Group(1.0, list(caps), list(range(len(caps))))
    q = frac * sum(caps) if model.kind != "outage" else 3.0 * frac
    level = model._tie_level(caps)(q)
    assert level == _ref_group_level(model, caps, q)
    assert group.split(model, q, level) == _ref_group_split(model, caps, q)
    if model.kind == "latency" and q < sum(caps):
        pooled = len(caps) / (sum(caps) - q)
        if pooled > 1.0 / min(caps) * (1.0 + 1e-9):  # every member serves
            assert level == pytest.approx(pooled, rel=1e-12, abs=0.0)


@pytest.mark.xfail(
    strict=True,
    reason="the bisection over sum(c - 1/lev) loses the level to cancellation "
    "as q nears the pooled capacity: 5.55e-12 off n/(sum(caps) - q) here",
)
def test_latency_tie_level_near_pooled_capacity_matches_closed_form():
    # the case the property above finds on some draws
    caps = [1.0, 1.0]
    q = 0.99999 * sum(caps)
    level = cg.latency()._tie_level(caps)(q)
    assert level == pytest.approx(len(caps) / (sum(caps) - q), rel=1e-12, abs=0.0)


def _ref_pooled_level(model, caps, q):
    """Closed-form tie-group levels, written per kind."""
    q, total = max(q, 0.0), sum(caps)
    if model.kind == "utilization":
        return q / total
    if model.kind == "utilization_default":
        return max(q - len(caps) * model.min_usage(), 0.0) / total
    return model._value_capped(q / total, 1.0)  # loss: rho = q / total


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from([cg.utilization(), cg.utilization_default(0.0),
                     cg.utilization_default(0.07), cg.loss(1), cg.loss(4)]),
    st.lists(st.floats(0.05, 2.0), min_size=1, max_size=3),
    st.one_of(st.sampled_from([0.0, -0.0, -1e-9]), st.floats(-1.0, 3.0)),
)
def test_pooled_tie_group_level_matches_closed_forms(model, caps, q):
    # one class of the pooled capacity, bit for bit; only the sign of a zero
    # level may differ, at q = -0.0, which no solve passes (its group masses
    # are differences of CDF values at nonnegative cutoffs)
    level = model._tie_level(caps)(q)
    ref = _ref_pooled_level(model, caps, q)
    if level == 0.0:
        assert ref == 0.0
    else:
        assert float.hex(level) == float.hex(ref)


# ---------------------------------------------------------------------------
# exact bits of fallback-path solves
# ---------------------------------------------------------------------------

# Markets the damped Newton path cannot take (tie groups) or gives up on (a
# near-empty utilization_default class), so the nested bisection solves them.
_FALLBACK_CASES = {
    "ud_near_empty_bottom": (cg.utilization_default(0.1), (1.0, 0.5, 5e-7), (1.0, 0.6, 0.2)),
    "ud_near_empty_middle": (cg.utilization_default(0.1), (1.0, 5e-7, 1.0), (1.5, 1.0, 0.5)),
    "latency_tie2": (cg.latency(), (1.0, 0.6), (1.0, 1.0)),
    "latency_tie3": (cg.latency(), (0.8, 0.5, 0.7), (0.9, 0.9, 0.9)),
    "latency_tie2_below": (cg.latency(), (1.0, 0.6, 0.5), (1.4, 0.8, 0.8)),
    "general_latency_tie2": (cg.general_latency(0.5), (1.0, 0.6), (1.0, 1.0)),
    "general_latency_tie3": (cg.general_latency(0.5), (0.8, 0.5, 0.7), (0.9, 0.9, 0.9)),
    "general_latency_tie2_below": (cg.general_latency(0.5), (1.0, 0.6, 0.5), (1.4, 0.8, 0.8)),
    "outage_tie2": (cg.outage(0.5), (1.0, 0.6), (1.0, 1.0)),
    "outage_tie3": (cg.outage(0.5), (0.8, 0.5, 0.7), (0.9, 0.9, 0.9)),
    "outage_tie2_above": (cg.outage(0.5), (1.0, 0.6, 0.5), (0.8, 0.8, 0.3)),
    # top cutoff below 2**-24: the top search never moves its lower end, so
    # it finishes by bisection alone
    "latency_tie2_near_v": (cg.latency(), (1.0, 0.6), (2.0 - 1e-9, 2.0 - 1e-9)),
    "general_latency_tie2_near_v": (cg.general_latency(0.5), (1.0, 0.6),
                                    (2.0 - 1e-9, 2.0 - 1e-9)),
    # a feasibility threshold makes an inner residual jump sign without
    # crossing zero: the inner search finishes by bisection and hands the
    # empty class up, and the top search bisects before classes are dropped
    "latency_threshold": (cg.latency(),
                          (0.23391308055244486, 0.19798480341650537, 1.159310891186766),
                          (1.35, 1.178, 0.824)),
    "general_latency_threshold": (cg.general_latency(0.5),
                                  (1.329961434896358, 0.00012994825739790934,
                                   0.5872578666363328),
                                  (1.966, 1.407, 0.087)),
}

# float.hex of (cutoffs, prices, usages, levels) as solved with every bracket
# end and tie level evaluated afresh: reusing them must not move a bit.  The
# benchmark compares 9 significant digits only, so only these pin the bits.
_FALLBACK_BITS = {
    'general_latency_threshold': (
        ('0x1.a41a15a901bd3p-2', '0x1.a41a15a901bd3p-2', '0x1.a41a15a901bd3p-2'),
        ('0x1.f74bc6a7ef9dbp+0', '0x1.683126e978d50p+0', '0x1.645a1cac08312p-4'),
        ('0x0.0p+0', '0x0.0p+0', '0x1.a41a15a901bd3p-2'),
        ('0x1.80f93bce92af5p-1', '0x1.e0f5edfe4a917p+12', '0x1.2a6db0a693d94p+2'),
    ),
    'general_latency_tie2': (
        ('0x1.1f4fba446a397p-1', '0x1.9f53909ce6f3ap-5'),
        ('0x1.0000000000000p+0', '0x1.0000000000000p+0'),
        ('0x1.055a813a9bca3p-1', '0x1.9f53909ce6f3ap-5'),
        ('0x1.c833aa7a24f2fp+0', '0x1.c833aa7a24f2dp+0'),
    ),
    'general_latency_tie2_below': (
        ('0x1.1305c5c0c4a35p-1', '0x1.9bdbe388a4defp-2', '0x1.279d33cf21e45p-3'),
        ('0x1.6666666666666p+0', '0x1.999999999999ap-1', '0x1.999999999999ap-1'),
        ('0x1.145f4ff1c8cf6p-3', '0x1.080d49a113ecdp-2', '0x1.279d33cf21e45p-3'),
        ('0x1.1df3aade84290p+0', '0x1.4dec3f63d997cp+1', '0x1.4dec3f63d997ap+1'),
    ),
    'general_latency_tie2_near_v': (
        ('0x1.1300000000000p-30', '0x0.0p+0'),
        ('0x1.fffffffbb47d0p+0', '0x1.fffffffbb47d0p+0'),
        ('0x1.1300000000000p-30', '0x0.0p+0'),
        ('0x1.0000000339000p+0', '0x1.aaaaaaaaaaaabp+0'),
    ),
    'general_latency_tie3': (
        ('0x1.22062f08f819ep-1', '0x1.d05ee84cc0729p-3', '0x1.d05ee84cc0729p-3'),
        ('0x1.ccccccccccccdp-1', '0x1.ccccccccccccdp-1', '0x1.ccccccccccccdp-1'),
        ('0x1.5bdce9eb8ffa8p-2', '0x0.0p+0', '0x1.d05ee84cc0729p-3'),
        ('0x1.f120d4d3a8078p+0', '0x1.0000000000000p+1', '0x1.f120d4d3a8076p+0'),
    ),
    'latency_threshold': (
        ('0x1.40c9c3be7a3a9p-1', '0x1.40c9c3be7a3a9p-1', '0x1.40c9c3be7a3a9p-1'),
        ('0x1.599999999999ap+0', '0x1.2d916872b020cp+0', '0x1.a5e353f7ced91p-1'),
        ('0x0.0p+0', '0x0.0p+0', '0x1.40c9c3be7a3a9p-1'),
        ('0x1.119b1c902ed16p+2', '0x1.4341d37dd084ep+2', '0x1.e08192501363dp+0'),
    ),
    'latency_tie2': (
        ('0x1.111111111110ap-1', '0x1.11111111110f8p-4'),
        ('0x1.0000000000000p+0', '0x1.0000000000000p+0'),
        ('0x1.dddddddddddd6p-2', '0x1.11111111110f8p-4'),
        ('0x1.dfffffffffff9p+0', '0x1.dfffffffffffbp+0'),
    ),
    'latency_tie2_below': (
        ('0x1.081ba7f2d5c1ap-1', '0x1.80937fb9c95e1p-2', '0x1.1a2d195362f7cp-3'),
        ('0x1.6666666666666p+0', '0x1.999999999999ap-1', '0x1.999999999999ap-1'),
        ('0x1.1f47a057c44a6p-3', '0x1.e6f9e6202fc46p-3', '0x1.1a2d195362f7cp-3'),
        ('0x1.29c4e10d29f1ep+0', '0x1.6160b0fa0434fp+1', '0x1.6160b0fa04350p+1'),
    ),
    'latency_tie2_near_v': (
        ('0x1.1300000000000p-30', '0x0.0p+0'),
        ('0x1.fffffffbb47d0p+0', '0x1.fffffffbb47d0p+0'),
        ('0x1.1300000000000p-30', '0x0.0p+0'),
        ('0x1.000000044c000p+0', '0x1.aaaaaaaaaaaabp+0'),
    ),
    'latency_tie3': (
        ('0x1.12bb512bb5127p-1', '0x1.cb8d1cb8d1ca4p-3', '0x1.b2935b2935b1ep-3'),
        ('0x1.ccccccccccccdp-1', '0x1.ccccccccccccdp-1', '0x1.ccccccccccccdp-1'),
        ('0x1.3fb013fb013fdp-2', '0x1.8f9c18f9c1860p-7', '0x1.b2935b2935b1ep-3'),
        ('0x1.0666666666667p+1', '0x1.0666666666664p+1', '0x1.0666666666664p+1'),
    ),
    'outage_tie2': (
        ('0x1.0000000000000p+0', '0x1.ea7d49d4887b9p-3'),
        ('0x1.0000000000000p+0', '0x1.0000000000000p+0'),
        ('0x1.8560ad8adde12p-1', '0x1.ea7d49d4887b9p-3'),
        ('0x1.8560ad8adde12p-2', '0x1.8560ad8adde12p-2'),
    ),
    'outage_tie2_above': (
        ('0x1.0000000000000p+0', '0x1.7c701b51c87bcp-1', '0x1.6856d33c14dfep-1'),
        ('0x1.999999999999ap-1', '0x1.999999999999ap-1', '0x1.3333333333333p-2'),
        ('0x1.071fc95c6f088p-2', '0x1.4194815b39be3p-5', '0x1.6856d33c14dfep-1'),
        ('0x1.071fc95c6f088p-3', '0x1.071fc95c6f088p-3', '0x1.ad86f93a9223cp-1'),
    ),
    'outage_tie3': (
        ('0x1.0000000000000p+0', '0x1.05b24328ac646p-1', '0x1.71c7fea8ef40ap-2'),
        ('0x1.ccccccccccccdp-1', '0x1.ccccccccccccdp-1', '0x1.ccccccccccccdp-1'),
        ('0x1.f49b79aea7375p-2', '0x1.33390f50d3102p-3', '0x1.71c7fea8ef40ap-2'),
        ('0x1.8c9bb7916791fp-2', '0x1.8c9bb79167920p-2', '0x1.8c9bb79167920p-2'),
    ),
    'ud_near_empty_bottom': (
        ('0x1.0000000000000p+0', '0x1.4853204d38d0dp-1', '0x1.999c28e821c4bp-4'),
        ('0x1.0000000000000p+0', '0x1.3333333333333p-1', '0x1.999999999999ap-3'),
        ('0x1.6f59bf658e5e6p-2', '0x1.151f9b3034984p-1', '0x1.999c28e821c4bp-4'),
        ('0x1.08f358ff27f80p-2', '0x1.c3d8cffa02ca2p-1', '0x1.3879806a18a72p+2'),
    ),
    'ud_near_empty_middle': (
        ('0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.ccccc8b2eb81ap-1'),
        ('0x1.8000000000000p+0', '0x1.0000000000000p+0', '0x1.0000000000000p-1'),
        ('0x0.0p+0', '0x1.9999ba68a3f30p-4', '0x1.ccccc8b2eb81ap-1'),
        ('0x0.0p+0', '0x1.f49f2faa41180p-3', '0x1.9999957fb84e7p-1'),
    ),
}


@pytest.mark.parametrize("name", sorted(_FALLBACK_CASES))
def test_fallback_solves_keep_exact_bits(name, monkeypatch):
    calls = []
    bisect = eqm._solve_active_bisect
    monkeypatch.setattr(eqm, "_solve_active_bisect",
                        lambda *args: calls.append(1) or bisect(*args))
    model, caps, prices = _FALLBACK_CASES[name]
    eq = eqm.cutoffs_from_prices(eqm.MarketScenario(2.0, caps, model), prices)
    assert calls  # the case still exercises the fallback path
    got = tuple(tuple(float.hex(x) for x in getattr(eq, field))
                for field in ("cutoffs", "prices", "usages", "levels"))
    assert got == _FALLBACK_BITS[name]


@pytest.mark.parametrize("name, branches", [
    ("latency_tie2_near_v", {"top_bisected"}),
    ("general_latency_tie2_near_v", {"top_bisected"}),
    ("latency_threshold", {"top_bisected", "inner_bisected", "inner_threshold"}),
    ("general_latency_threshold", {"top_bisected", "inner_bisected", "inner_threshold"}),
])
def test_fallback_pins_reach_the_bisection_finishes(name, branches, monkeypatch):
    """The pins above cover the searches that skip _brent: the top search
    finishing by bisection, and an inner one whose lower end lands on a
    feasibility threshold."""
    seen, stack = set(), []
    search, polish = eqm._boundary_root, eqm._brent

    def brent(*args):
        stack[-1] = True  # the innermost search running is the caller
        return polish(*args)

    def boundary_root(rising, top, more_steps):
        stack.append(False)
        lo, hi = search(rising, top, more_steps)
        where = "top" if more_steps == 76 else "inner"
        if not stack.pop():
            seen.add(where + "_bisected")
            # memoized by the caller, so this adds no solve of its own
            if lo > 0.0 and rising(lo) is None:
                seen.add(where + "_threshold")
        return lo, hi

    monkeypatch.setattr(eqm, "_brent", brent)
    monkeypatch.setattr(eqm, "_boundary_root", boundary_root)
    model, caps, prices = _FALLBACK_CASES[name]
    eqm.cutoffs_from_prices(eqm.MarketScenario(2.0, caps, model), prices)
    assert branches <= seen


# Markets (V = 2, uniform types) where a Newton interval collapses, which
# Newton once answered by dropping that class and solving again.  The
# recorded solves are from then: (cutoffs, usages, levels, saturated,
# opt_out), all degenerate, at the posted prices.
_ONE_SATURATED_CLASS = ((1.0, 1.0), (0.0, 1.0), (0.0, 1.0), True, 0.0)
_COLLAPSING_MARKETS = [
    (cg.latency(), (0.3, 0.7), (0.5, 0.2),
     ((0.44999999999999996,) * 2, (0.0, 0.44999999999999996), (3.3333333333333335, 4.0),
      False, 0.55)),
    *((cg.utilization(), (1.0, 1.0), prices, _ONE_SATURATED_CLASS)
      for prices in [(1.0, 0.0), (1.2, 0.2), (1.4, 0.4), (1.5, 0.5), (1.6, 0.6000000000000001)]),
    *((cg.utilization_default(0.1), (1.0, 1.0), prices,
       ((1.0, 1.0), (0.0, 1.0), (0.0, 0.9), True, 0.0)) for prices in [(1.2, 0.3), (1.5, 0.6)]),
    (cg.utilization(), (0.5, 0.5, 1.0), (2.0, 1.0, 0.0),
     ((1.0, 1.0, 1.0), (0.0, 0.0, 1.0), (0.0, 0.0, 1.0), True, 0.0)),
    (cg.utilization(), (0.5, 1.0, 0.5), (1.0, 0.5, 0.25),
     ((1.0, 1.0, 0.5), (0.0, 0.5, 0.5), (0.0, 0.5, 1.0), True, 0.0)),
]


@pytest.mark.parametrize("model, caps, prices, recorded", _COLLAPSING_MARKETS,
                         ids=[f"{model.kind}-{caps}-{prices}"
                              for model, caps, prices, _ in _COLLAPSING_MARKETS])
def test_collapsed_newton_intervals_go_to_the_bisection(model, caps, prices, recorded,
                                                        monkeypatch):
    chains, bisections = [], []
    newton, bisect = eqm._newton_chain, eqm._solve_active_bisect
    monkeypatch.setattr(eqm, "_newton_chain",
                        lambda *args: chains.append(newton(*args)) or chains[-1])
    monkeypatch.setattr(eqm, "_solve_active_bisect",
                        lambda *args: bisections.append(1) or bisect(*args))
    sc = eqm.MarketScenario(2.0, caps, model)
    eq = eqm.cutoffs_from_prices(sc, prices)
    assert chains == [None]  # one Newton chain, which drops no class
    assert bisections
    assert eqm.validate(sc, eq).all_ok
    cutoffs, usages, levels, saturated, opt_out = recorded
    assert ([q <= tol.TIE_TOL for q in eq.usages]
            == [q <= tol.TIE_TOL for q in usages])
    assert (eq.saturated, eq.degenerate) == (saturated, True)
    close = dict(rel=1e-11, abs=1e-12)
    assert eq.prices == pytest.approx(prices, **close)
    assert eq.cutoffs == pytest.approx(cutoffs, **close)
    assert eq.usages == pytest.approx(usages, **close)
    assert eq.levels == pytest.approx(levels, **close)
    assert eq.opt_out == pytest.approx(opt_out, **close)


# ---------------------------------------------------------------------------
# Brent's method: the same bits as scipy's brentq, which it replaced
# ---------------------------------------------------------------------------

_BRENT_TOLS = (tol.BRENT_XTOL, tol.BRENT_RTOL, tol.BRENT_MAXITER)

_BRENT_FUNCTIONS = {
    "cubic": lambda x: (x * x - 2.0) * x - 5.0,
    "cos": math.cos,
    "exp": lambda x: math.exp(x) - 2.0,
    "steep": lambda x: math.atan(1e4 * (x - 0.1)),
    "flat": lambda x: (x - 0.3) ** 5,
    "ninth": lambda x: (x - 0.25) ** 9,
    # the shape _boundary_root hands over: -1 below a feasibility threshold
    "jump": lambda x: -1.0 if x < 0.3 else 4.0 * (x - 0.35),
    "line": lambda x: 2.0 * x - 1.0,
    # a root times a fast parabolic wave, so that on a bracket a few delta
    # wide an inverse quadratic step lands just inside the limit
    # 3|sbis| - delta: dropping "- delta" moves the root
    "wavy": lambda x: (x - 0.3) * (1.0 + 0.9 * (1.0 - 2.0 * ((x * 3.3e13) % 2.0 - 1.0) ** 2)),
}

# (function, xa, xb, float.hex of the root scipy 1.17.1's brentq returned
# with the BRENT_* tolerances).  Together the rows take every step of
# _brent, which test_brent_pins_take_every_step checks.
_BRENT_PINS = [
    ("cubic", 2.0, 3.0, "0x1.0c1a4350819e4p+1"),
    ("cubic", 3.0, 1.0, "0x1.0c1a4350819e3p+1"),
    ("cos", 0.0, 3.0, "0x1.921fb54442d18p+0"),
    ("exp", -1.0, 5.0, "0x1.62e42fefa39efp-1"),
    ("steep", 0.0, 1.0, "0x1.999999999999ap-4"),
    ("steep", 1.0, -2.0, "0x1.999999999999ap-4"),
    ("flat", 0.0, 1.0, "0x1.33333333333ffp-2"),
    ("flat", -2.0, 0.7, "0x1.33333333333e6p-2"),
    ("ninth", 0.24, 0.251, "0x1.000000000004fp-2"),
    ("ninth", 0.0, 0.3, "0x1.ffffffffffed5p-3"),
    ("jump", 0.0, 1.0, "0x1.6666666666666p-2"),
    ("jump", 0.25, 0.5, "0x1.6666666666666p-2"),
    ("line", 0.0, 0.75, "0x1.0000000000000p-1"),
    ("line", 0.5, 1.0, "0x1.0000000000000p-1"),  # a zero value at xa
    ("line", 0.0, 0.5, "0x1.0000000000000p-1"),  # a zero value at xb
    ("wavy", 0.3 - 1e-13, 0.3 + 3e-13, "0x1.333333333341cp-2"),
]

# the comment that marks each step in _brent's source
_BRENT_STEPS = ("secant", "inverse quadratic", "zero denominator", "interpolation accepted",
                "interpolation rejected", "bisect", "step of delta")


@pytest.mark.parametrize("name, xa, xb, root", _BRENT_PINS)
def test_brent_keeps_scipys_bits(name, xa, xb, root):
    assert float.hex(eqm._brent(_BRENT_FUNCTIONS[name], xa, xb, *_BRENT_TOLS)) == root


def test_brent_pins_take_every_step():
    src, first = inspect.getsourcelines(eqm._brent)
    marks = {first + i: step for i, line in enumerate(src)
             for step in _BRENT_STEPS if f"# {step}" in line}
    assert sorted(set(marks.values())) == sorted(_BRENT_STEPS)
    taken = set()

    def local(frame, event, arg):
        if event == "line" and frame.f_lineno in marks:
            taken.add(marks[frame.f_lineno])
        return local

    tracer = sys.gettrace()
    sys.settrace(lambda frame, event, arg:
                 local if frame.f_code is eqm._brent.__code__ else None)
    try:
        for name, xa, xb, _ in _BRENT_PINS:
            eqm._brent(_BRENT_FUNCTIONS[name], xa, xb, *_BRENT_TOLS)
    finally:
        sys.settrace(tracer)
    assert taken == set(_BRENT_STEPS)


def test_brent_matches_scipy_on_random_brackets():
    """Every evaluation point, and the root or the failure to converge."""
    optimize = pytest.importorskip("scipy.optimize")
    shapes = [
        lambda r, s: lambda x: s * (x - r) ** 3 + (x - r),
        lambda r, s: lambda x: math.expm1(min(s * (x - r), 700.0)),
        lambda r, s: lambda x: math.atan(50.0 * s * (x - r)),
        lambda r, s: lambda x: -1.0 if x < r - 0.1 else s * (x - r),
        lambda r, s: lambda x: s * (x - r) ** 9,
        lambda r, s: lambda x: -math.copysign(math.sqrt(abs(s * (x - r))), x - r),
    ]
    rng = random.Random(20261020)
    for _ in range(3000):
        r = rng.uniform(-1.0, 2.0)
        f = rng.choice(shapes)(r, 10.0 ** rng.uniform(-3.0, 3.0))
        ends = [r - 10.0 ** rng.uniform(-8.0, 0.5), r + 10.0 ** rng.uniform(-8.0, 0.5)]
        rng.shuffle(ends)
        runs = []
        for solve in (
            lambda g: optimize.brentq(g, *ends, xtol=tol.BRENT_XTOL, rtol=tol.BRENT_RTOL,
                                      maxiter=tol.BRENT_MAXITER),
            lambda g: eqm._brent(g, *ends, *_BRENT_TOLS),
        ):
            xs = []
            try:
                out = float.hex(solve(lambda x: xs.append(x) or f(x)))
            except (RuntimeError, ValueError):  # scipy's failures and ConvergenceError
                out = "failed"
            runs.append((out, list(map(float.hex, xs))))
        assert runs[0] == runs[1], ends


def test_brent_raises_on_a_nan_value():
    with pytest.raises(ConvergenceError, match="NaN value"):
        eqm._brent(lambda x: math.nan if x > 0.5 else x - 0.7, 0.0, 1.0, *_BRENT_TOLS)


def test_brent_raises_on_ends_of_one_sign():
    with pytest.raises(ConvergenceError, match="sign change"):
        eqm._brent(lambda x: x + 1.0, 0.0, 1.0, *_BRENT_TOLS)


def test_brent_raises_when_steps_run_out():
    # scipy's brentq fails on this bracket too
    with pytest.raises(ConvergenceError, match=f"did not converge in {tol.BRENT_MAXITER} steps"):
        eqm._brent(lambda x: (x - 0.3) ** 9, 0.0, 1.0, *_BRENT_TOLS)


# ---------------------------------------------------------------------------
# the shared bracket search against the two searches it replaced
# ---------------------------------------------------------------------------

def _ref_inner_search(resid, top):
    """The boundary search each nested-bisection frame ran on its own."""
    lo, hi = 0.0, top
    r_lo_val = None
    for _ in range(24):
        mid = 0.5 * (lo + hi)
        r_mid = resid(mid)
        if r_mid is None or r_mid < 0.0:
            lo, r_lo_val = mid, r_mid
        else:
            hi = mid
        if hi - lo < tol.THETA_TOL:
            break
    if r_lo_val is not None and r_lo_val < 0.0 and hi - lo > tol.THETA_TOL:
        hi = eqm._brent(
            lambda b: (lambda rv: rv if rv is not None else -1.0)(resid(b)),
            lo, hi, tol.BRENT_XTOL, tol.BRENT_RTOL, tol.BRENT_MAXITER,
        )
    else:
        for _ in range(56):
            mid = 0.5 * (lo + hi)
            r_mid = resid(mid)
            if r_mid is None or r_mid < 0.0:
                lo = mid
            else:
                hi = mid
            if hi - lo < tol.THETA_TOL:
                break
    return lo, hi


def _ref_top_search(gap, top):
    """The top-cutoff search on the unnegated gap, which falls as t rises."""
    lo, hi = 0.0, top
    g_lo_val = None
    for _ in range(24):
        mid = 0.5 * (lo + hi)
        g_mid = gap(mid)
        if g_mid is None or g_mid > 0.0:
            lo, g_lo_val = mid, g_mid
        else:
            hi = mid
        if hi - lo < tol.THETA_TOL:
            break
    if g_lo_val is not None and g_lo_val > 0.0 and hi - lo > tol.THETA_TOL:
        hi = eqm._brent(
            lambda t: (lambda gv: gv if gv is not None else 1.0)(gap(t)),
            lo, hi, tol.BRENT_XTOL, tol.BRENT_RTOL, tol.BRENT_MAXITER,
        )
    else:
        for _ in range(76):
            mid = 0.5 * (lo + hi)
            g_mid = gap(mid)
            if g_mid is None or g_mid > 0.0:
                lo = mid
            else:
                hi = mid
            if hi - lo < tol.THETA_TOL:
                break
    return lo, hi


def _rising(root, scale, curve, threshold):
    """Increasing through ``root``, infeasible (None) below ``threshold``."""
    def f(b):
        if b < threshold:
            return None
        d = b - root
        return scale * d * (1.0 + curve * d * d) + curve * d * d * d
    return f


@settings(max_examples=400, deadline=None)
@given(
    top=st.floats(1e-6, 3.0),
    root_frac=st.one_of(st.floats(0.0, 1.0), st.floats(0.0, 1e-7)),  # tiny roots: no _brent
    scale=st.floats(1e-3, 1e3),
    curve=st.floats(0.0, 50.0),
    threshold_frac=st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
)
@example(top=1.0, root_frac=1e-9, scale=1.0, curve=0.0, threshold_frac=0.0)
@example(top=1.0, root_frac=0.3, scale=2.0, curve=1.0, threshold_frac=0.6)
@example(top=1e-5, root_frac=0.4, scale=1.0, curve=0.0, threshold_frac=0.0)
def test_boundary_root_matches_both_old_searches(top, root_frac, scale, curve, threshold_frac):
    rising = _rising(root_frac * top, scale, curve, threshold_frac * top)
    got = eqm._boundary_root(rising, top, 56)
    assert tuple(map(float.hex, got)) == tuple(map(float.hex, _ref_inner_search(rising, top)))

    def gap(t):
        r = rising(t)
        return None if r is None else -r
    got = eqm._boundary_root(rising, top, 76)
    assert tuple(map(float.hex, got)) == tuple(map(float.hex, _ref_top_search(gap, top)))


@settings(max_examples=400, deadline=None)
@given(
    st.floats(0.0, 1.0), st.floats(1e-3, 1e3), st.floats(0.0, 50.0),
    st.floats(0.0, 1.0), st.floats(1e-6, 1.0),
)
def test_brent_iterates_ignore_a_sign_flip(root, scale, curve, below, width):
    """_brent steps by ratios of value differences, so negating every
    value must leave each iterate, and the root it returns, unchanged."""
    f = _rising(root, scale, curve, -math.inf)
    lo, hi = root - below * width - 1e-9, root + width
    xs, neg_xs = [], []

    def logged(g, out):
        return lambda x: out.append(x) or g(x)
    a = eqm._brent(logged(f, xs), lo, hi, *_BRENT_TOLS)
    b = eqm._brent(logged(lambda x: -f(x), neg_xs), lo, hi, *_BRENT_TOLS)
    assert float.hex(a) == float.hex(b)
    assert list(map(float.hex, xs)) == list(map(float.hex, neg_xs))


# Markets where the incremental class shedding fails and that a search over
# every active subset reached before it was deleted: the subset search
# found no consistent active set in any of them either.
_NO_ACTIVE_SET_CASES = [
    (4.0, cg.outage(0.5),
     (1.3254982991934239, 0.00037219246223816325, 0.0005097869093421587, 0.7114806987768586),
     (1.8579001751707334, 1.6027815112492734, 1.5681930360405323, 1.5513756582441602)),
    (2.0, cg.outage(0.5),
     (3.449893111684096e-07, 3.100823737543334e-06, 0.053150289381882175),
     (1.759, 1.625, 1.42)),
    (1.0, cg.outage(0.5),
     (0.46269754803627405, 1.563989328218235e-06, 0.00039756262057827097, 0.8161520058553967),
     (0.5819267148642364, 0.5180653509114633, 0.364423898011178, 0.31485022432137744)),
    (1.0, cg.outage(0.5),
     (0.8835518602406602, 5.1194029558262056e-06, 0.00039259955613913294, 0.3806785672045827),
     (0.6098197841678409, 0.2740426902641595, 0.2548377598875867, 0.021477429251590685)),
]


@pytest.mark.parametrize("v, model, caps, prices", _NO_ACTIVE_SET_CASES)
def test_markets_without_a_consistent_active_set_raise(v, model, caps, prices):
    with pytest.raises(PmplabError):
        eqm.cutoffs_from_prices(eqm.MarketScenario(v, caps, model), prices)


def test_outage_tie_group_with_a_tiny_member_does_not_overflow():
    # lev ** (1 / 3e-5) leaves the float range once the level passes ~1.02,
    # which the level bracket reaches for any group mass above ~0.55
    model = cg.outage(0.5)
    caps = [0.2762514337328343, 3.023602266400793e-05]
    level = model._tie_level(caps)
    for q in (0.5, 1.0, 2.0, 10.0):
        lev = level(q)
        assert sum(model.usage_at_level(lev, c) for c in caps) == pytest.approx(q, rel=1e-9)
    sc = eqm.MarketScenario(
        1.0, (0.2762514337328343, 3.023602266400793e-05, 0.48243877707154764), cg.outage(0.5))
    try:
        eq = eqm.cutoffs_from_prices(
            sc, [0.7212304803820815, 0.7212304803820815, 0.3183189438658576])
    except PmplabError:
        return
    assert eqm.validate(sc, eq).all_ok


@pytest.mark.xfail(
    strict=True, raises=ConvergenceError,
    reason="the chain solve returns a point that fails its own residual check "
    "(indifference residual 2.738e-01) when a tie group has a near-empty member",
)
def test_outage_tie_group_with_a_tiny_member_solves_or_has_no_equilibrium():
    sc = eqm.MarketScenario(
        1.0, (0.2762514337328343, 3.023602266400793e-05, 0.48243877707154764), cg.outage(0.5))
    try:
        eq = eqm.cutoffs_from_prices(
            sc, [0.7212304803820815, 0.7212304803820815, 0.3183189438658576])
    except NoEquilibriumError:
        return
    assert eqm.validate(sc, eq).all_ok


# ---------------------------------------------------------------------------
# exact bits of Newton-path solves
# ---------------------------------------------------------------------------

# Distinct-price markets the damped Newton path solves on its own: every
# kind, uniform and 5-point tabulated types, 1, 2 and 3 classes, saturated
# ("_sat") and not.  Prices are rounded from the forward map of chosen
# cutoffs; a saturated case lowers the top price below its boundary value.
_TAB5 = tabulated([(0.0, 0.0), (0.25, 0.15), (0.5, 0.45), (0.75, 0.8), (1.0, 1.0)])

_NEWTON_CASES = {
    "general_latency_tab1": (cg.general_latency(0.5), _TAB5, (1.5,), 6.0, (5.202,)),
    "general_latency_tab1_sat": (cg.general_latency(0.5), _TAB5, (1.5,), 6.0, (4.167,)),
    "general_latency_tab2_sat": (cg.general_latency(0.5), _TAB5, (1.0, 0.8), 6.0, (4.288, 3.593)),
    "general_latency_tab3": (
        cg.general_latency(0.5), _TAB5, (1.0, 0.6, 0.5), 6.0, (4.89, 3.816, 3.583)),
    "general_latency_uniform1": (cg.general_latency(0.5), uniform(), (1.5,), 6.0, (5.227,)),
    "general_latency_uniform1_sat": (cg.general_latency(0.5), uniform(), (1.5,), 6.0, (4.167,)),
    "general_latency_uniform2": (
        cg.general_latency(0.5), uniform(), (1.0, 0.8), 6.0, (4.877, 4.404)),
    "general_latency_uniform3_sat": (
        cg.general_latency(0.5), uniform(), (1.0, 0.6, 0.5), 6.0, (4.52, 3.526, 3.18)),
    "latency_tab1": (cg.latency(), _TAB5, (1.5,), 6.0, (5.091,)),
    "latency_tab1_sat": (cg.latency(), _TAB5, (1.5,), 6.0, (3.8,)),
    "latency_tab2_sat": (cg.latency(), _TAB5, (1.0, 0.8), 6.0, (4.057, 3.17)),
    "latency_tab3": (cg.latency(), _TAB5, (1.0, 0.6, 0.5), 6.0, (4.803, 3.505, 3.233)),
    "latency_uniform1": (cg.latency(), uniform(), (1.5,), 6.0, (5.125,)),
    "latency_uniform1_sat": (cg.latency(), uniform(), (1.5,), 6.0, (3.8,)),
    "latency_uniform2": (cg.latency(), uniform(), (1.0, 0.8), 6.0, (4.769, 4.176)),
    "latency_uniform3_sat": (cg.latency(), uniform(), (1.0, 0.6, 0.5), 6.0, (4.367, 3.173, 2.744)),
    "loss_tab1": (cg.loss(2), _TAB5, (1.5,), 2.0, (1.904,)),
    "loss_tab1_sat": (cg.loss(2), _TAB5, (1.5,), 2.0, (1.768,)),
    "loss_tab2_sat": (cg.loss(2), _TAB5, (1.0, 0.8), 2.0, (1.845, 1.827)),
    "loss_tab3": (cg.loss(2), _TAB5, (1.0, 0.6, 0.5), 2.0, (1.948, 1.891, 1.89)),
    "loss_uniform1": (cg.loss(2), uniform(), (1.5,), 2.0, (1.909,)),
    "loss_uniform1_sat": (cg.loss(2), uniform(), (1.5,), 2.0, (1.768,)),
    "loss_uniform2": (cg.loss(2), uniform(), (1.0, 0.8), 2.0, (1.933, 1.895)),
    "loss_uniform3_sat": (cg.loss(2), uniform(), (1.0, 0.6, 0.5), 2.0, (1.885, 1.867, 1.859)),
    "outage_tab1": (cg.outage(0.5), _TAB5, (1.5,), 2.0, (1.916,)),
    "outage_tab1_sat": (cg.outage(0.5), _TAB5, (1.5,), 2.0, (1.788,)),
    "outage_tab2_sat": (cg.outage(0.5), _TAB5, (1.0, 0.8), 2.0, (1.74, 1.668)),
    "outage_tab3": (cg.outage(0.5), _TAB5, (1.0, 0.6, 0.5), 2.0, (1.877, 1.692, 1.669)),
    "outage_uniform1": (cg.outage(0.5), uniform(), (1.5,), 2.0, (1.921,)),
    "outage_uniform1_sat": (cg.outage(0.5), uniform(), (1.5,), 2.0, (1.788,)),
    "outage_uniform2": (cg.outage(0.5), uniform(), (1.0, 0.8), 2.0, (1.86, 1.776)),
    "outage_uniform3_sat": (cg.outage(0.5), uniform(), (1.0, 0.6, 0.5), 2.0, (1.79, 1.647, 1.619)),
    "utilization_default_tab1": (cg.utilization_default(0.1), _TAB5, (1.5,), 2.0, (1.706,)),
    "utilization_default_tab1_sat": (cg.utilization_default(0.1), _TAB5, (1.5,), 2.0, (1.34,)),
    "utilization_default_tab2_sat": (
        cg.utilization_default(0.1), _TAB5, (1.0, 0.8), 2.0, (1.6, 1.54)),
    "utilization_default_tab3": (
        cg.utilization_default(0.1), _TAB5, (1.0, 0.6, 0.5), 2.0, (1.898, 1.792, 1.658)),
    "utilization_default_uniform1": (cg.utilization_default(0.1), uniform(), (1.5,), 2.0, (1.72,)),
    "utilization_default_uniform1_sat": (
        cg.utilization_default(0.1), uniform(), (1.5,), 2.0, (1.34,)),
    "utilization_default_uniform2": (
        cg.utilization_default(0.1), uniform(), (1.0, 0.8), 2.0, (1.8, 1.716)),
    "utilization_default_uniform3_sat": (
        cg.utilization_default(0.1), uniform(), (1.0, 0.6, 0.5), 2.0, (1.7, 1.666, 1.656)),
    "utilization_tab1": (cg.utilization(), _TAB5, (1.5,), 2.0, (1.659,)),
    "utilization_tab1_sat": (cg.utilization(), _TAB5, (1.5,), 2.0, (1.267,)),
    "utilization_tab2_sat": (cg.utilization(), _TAB5, (1.0, 0.8), 2.0, (1.5, 1.426)),
    "utilization_tab3": (cg.utilization(), _TAB5, (1.0, 0.6, 0.5), 2.0, (1.754, 1.608, 1.605)),
    "utilization_uniform1": (cg.utilization(), uniform(), (1.5,), 2.0, (1.673,)),
    "utilization_uniform1_sat": (cg.utilization(), uniform(), (1.5,), 2.0, (1.267,)),
    "utilization_uniform2": (cg.utilization(), uniform(), (1.0, 0.8), 2.0, (1.72, 1.624)),
    "utilization_uniform3_sat": (
        cg.utilization(), uniform(), (1.0, 0.6, 0.5), 2.0, (1.6, 1.525, 1.505)),
}

_NEWTON_BITS = {
    'general_latency_tab1': (
        ('0x1.664bb172c41fdp-1',),
        ('0x1.4ced916872b02p+2',),
        ('0x1.759d2ba0ac2c9p-1',),
        ('0x1.23eccb17d4617p+0',),
    ),
    'general_latency_tab1_sat': (
        ('0x1.0000000000000p+0',),
        ('0x1.0ab020c49ba5ep+2',),
        ('0x1.0000000000000p+0',),
        ('0x1.aaaaaaaaaaaaap+0',),
    ),
    'general_latency_tab2_sat': (
        ('0x1.0000000000000p+0', '0x1.18ad3f86f962dp-1'),
        ('0x1.126e978d4fdf4p+2', '0x1.cbe76c8b43958p+1'),
        ('0x1.ee1ae7b945b82p-2', '0x1.08f28c235d23fp-1'),
        ('0x1.b308357607d41p+0', '0x1.7bcb24a50d7aep+1'),
    ),
    'general_latency_tab3': (
        ('0x1.b324c3cba83f5p-1', '0x1.333cfb616a34ep-1', '0x1.666fbc21d3be2p-2'),
        ('0x1.38f5c28f5c28fp+2', '0x1.e872b020c49bap+1', '0x1.ca9fbe76c8b44p+1'),
        ('0x1.28c3463517048p-2', '0x1.47be4481c4e32p-2', '0x1.148614f5647dcp-2'),
        ('0x1.4e59655bae31cp+0', '0x1.8c441f87b081cp+1', '0x1.e17807998518dp+1'),
    ),
    'general_latency_uniform1': (
        ('0x1.666c134b4a3e9p-1',),
        ('0x1.4e872b020c49cp+2',),
        ('0x1.666c134b4a3e9p-1',),
        ('0x1.1aadfe0494005p+0',),
    ),
    'general_latency_uniform1_sat': (
        ('0x1.0000000000000p+0',),
        ('0x1.0ab020c49ba5ep+2',),
        ('0x1.0000000000000p+0',),
        ('0x1.aaaaaaaaaaaaap+0',),
    ),
    'general_latency_uniform2': (
        ('0x1.9992ddd100b46p-1', '0x1.ccc0383f8e7acp-2'),
        ('0x1.3820c49ba5e35p+2', '0x1.19db22d0e5604p+2'),
        ('0x1.6665836272ee0p-2', '0x1.ccc0383f8e7acp-2'),
        ('0x1.676211686a92ap+0', '0x1.3a3f84338d018p+1'),
    ),
    'general_latency_uniform3_sat': (
        ('0x1.0000000000000p+0', '0x1.3bf29a879a546p-1', '0x1.3244d97a41f9dp-2'),
        ('0x1.2147ae147ae14p+2', '0x1.c353f7ced9168p+1', '0x1.970a3d70a3d71p+1'),
        ('0x1.881acaf0cb574p-2', '0x1.45a05b94f2aefp-2', '0x1.3244d97a41f9dp-2'),
        ('0x1.7723dfb6f63a9p+0', '0x1.89c09425f6010p+1', '0x1.0ee9f275d1df6p+2'),
    ),
    'latency_tab1': (
        ('0x1.66625cdd990a8p-1',),
        ('0x1.45d2f1a9fbe77p+2',),
        ('0x1.75bce8696fdb8p-1',),
        ('0x1.4c72ec0befd99p+0',),
    ),
    'latency_tab1_sat': (
        ('0x1.0000000000000p+0',),
        ('0x1.e666666666666p+1',),
        ('0x1.0000000000000p+0',),
        ('0x1.0000000000000p+1',),
    ),
    'latency_tab2_sat': (
        ('0x1.0000000000000p+0', '0x1.18e51dde7faa2p-1'),
        ('0x1.03a5e353f7ceep+2', '0x1.95c28f5c28f5cp+1'),
        ('0x1.ed7e792a9a8a0p-2', '0x1.0940c36ab2bb0p-1'),
        ('0x1.ee23bc3f88268p+0', '0x1.c6045a0b13025p+1'),
    ),
    'latency_tab3': (
        ('0x1.b32e382866daep-1', '0x1.33378cbae1cd4p-1', '0x1.666f1f201c626p-2'),
        ('0x1.33645a1cac083p+2', '0x1.c0a3d70a3d70ap+1', '0x1.9dd2f1a9fbe77p+1'),
        ('0x1.28e19c9bc5ec6p-2', '0x1.47afcb17efc8ap-2', '0x1.1485588ceedc8p-2'),
        ('0x1.68863bf7849b1p+0', '0x1.c9274d9f3dc27p+1', '0x1.164f26631bd24p+2'),
    ),
    'latency_uniform1': (
        ('0x1.6666666666703p-1',),
        ('0x1.4800000000000p+2',),
        ('0x1.6666666666703p-1',),
        ('0x1.400000000007ap+0',),
    ),
    'latency_uniform1_sat': (
        ('0x1.0000000000000p+0',),
        ('0x1.e666666666666p+1',),
        ('0x1.0000000000000p+0',),
        ('0x1.0000000000000p+1',),
    ),
    'latency_uniform2': (
        ('0x1.999dfb77ed81dp-1', '0x1.ccbcbddf348c0p-2'),
        ('0x1.31374bc6a7efap+2', '0x1.0b4395810624ep+2'),
        ('0x1.667f3910a677ap-2', '0x1.ccbcbddf348c0p-2'),
        ('0x1.89e74e3e3f000p+0', '0x1.6da679568943cp+1'),
    ),
    'latency_uniform3_sat': (
        ('0x1.0000000000000p+0', '0x1.3c4f0e228dcebp-1', '0x1.328eb5eb898f8p-2'),
        ('0x1.177ced916872bp+2', '0x1.9624dd2f1a9fcp+1', '0x1.5f3b645a1cac1p+1'),
        ('0x1.8761e3bae462ap-2', '0x1.460f6659920dep-2', '0x1.328eb5eb898f8p-2'),
        ('0x1.9e613e78481c2p+0', '0x1.c6931febe28f9p+1', '0x1.3effca07f9254p+2'),
    ),
    'loss_tab1': (
        ('0x1.66276cbfc78e1p-1',),
        ('0x1.e76c8b4395810p+0',),
        ('0x1.756a650c7dc6ep-1',),
        ('0x1.190fbd7c2283ap-3',),
    ),
    'loss_tab1_sat': (
        ('0x1.0000000000000p+0',),
        ('0x1.c49ba5e353f7dp+0',),
        ('0x1.0000000000000p+0',),
        ('0x1.af286bca1af29p-3',),
    ),
    'loss_tab2_sat': (
        ('0x1.0000000000000p+0', '0x1.0baedf6b5bfe4p-1'),
        ('0x1.d851eb851eb85p+0', '0x1.d3b645a1cac08p+0'),
        ('0x1.093e60d018cf4p-1', '0x1.ed833e5fce618p-2'),
        ('0x1.33acf5b9c0877p-3', '0x1.7a2f8d2150a41p-3'),
    ),
    'loss_tab3': (
        ('0x1.b2f180fff9971p-1', '0x1.330b4c72ba889p-1', '0x1.664f506f73fd1p-2'),
        ('0x1.f2b020c49ba5ep+0', '0x1.e4189374bc6a8p+0', '0x1.e3d70a3d70a3dp+0'),
        ('0x1.28fc5ebeb8402p-2', '0x1.475a0f21e581fp-2', '0x1.145f2d528b2fbp-2'),
        ('0x1.f5740e1a2d9f5p-5', '0x1.4005a84ffb4f4p-3', '0x1.45e0000c7d662p-3'),
    ),
    'loss_uniform1': (
        ('0x1.673342b3f213fp-1',),
        ('0x1.e8b4395810625p+0',),
        ('0x1.673342b3f213fp-1',),
        ('0x1.09a598cee0cfcp-3',),
    ),
    'loss_uniform1_sat': (
        ('0x1.0000000000000p+0',),
        ('0x1.c49ba5e353f7dp+0',),
        ('0x1.0000000000000p+0',),
        ('0x1.af286bca1af29p-3',),
    ),
    'loss_uniform2': (
        ('0x1.9a05dd15090c5p-1', '0x1.cc5f8123635bep-2'),
        ('0x1.eed916872b021p+0', '0x1.e51eb851eb852p+0'),
        ('0x1.67ac3906aebccp-2', '0x1.cc5f8123635bep-2'),
        ('0x1.56afa9aa265b2p-4', '0x1.5872190e17ccbp-3'),
    ),
    'loss_uniform3_sat': (
        ('0x1.0000000000000p+0', '0x1.2933f8ffb4ca1p-1', '0x1.2185d0ef87dd6p-2'),
        ('0x1.e28f5c28f5c29p+0', '0x1.ddf3b645a1cacp+0', '0x1.dbe76c8b43958p+0'),
        ('0x1.ad980e00966bep-2', '0x1.30e2210fe1b6cp-2', '0x1.2185d0ef87dd6p-2'),
        ('0x1.c3d3bb1a8ac35p-4', '0x1.216b915ab6956p-3', '0x1.5b5e36f284f08p-3'),
    ),
    'outage_tab1': (
        ('0x1.665de82b36914p-1',),
        ('0x1.ea7ef9db22d0ep+0',),
        ('0x1.75b6ab6fb2cb6p-1',),
        ('0x1.eb90c4cc8087dp-4',),
    ),
    'outage_tab1_sat': (
        ('0x1.0000000000000p+0',),
        ('0x1.c9ba5e353f7cfp+0',),
        ('0x1.0000000000000p+0',),
        ('0x1.8a2345cc04425p-3',),
    ),
    'outage_tab2_sat': (
        ('0x1.0000000000000p+0', '0x1.0f83c0cb27f3ap-1'),
        ('0x1.bd70a3d70a3d7p+0', '0x1.ab020c49ba5e3p+0'),
        ('0x1.03e12549fb448p-1', '0x1.f83db56c09770p-2'),
        ('0x1.03e12549fb448p-2', '0x1.8ee8e01996f35p-2'),
    ),
    'outage_tab3': (
        ('0x1.b2f4d557fedfbp-1', '0x1.3337753b99114p-1', '0x1.65cad18d5dee7p-2'),
        ('0x1.e083126e978d5p+0', '0x1.b126e978d4fdfp+0', '0x1.ab4395810624ep+0'),
        ('0x1.28860d191e68ep-2', '0x1.4874b3306f123p-2', '0x1.13c02ea9a3eafp-2'),
        ('0x1.28860d191e68ep-3', '0x1.cffa620813e03p-2', '0x1.09b11feed64ccp-1'),
    ),
    'outage_uniform1': (
        ('0x1.6696100860aa8p-1',),
        ('0x1.ebc6a7ef9db23p+0',),
        ('0x1.6696100860aa8p-1',),
        ('0x1.ce05d9292919bp-4',),
    ),
    'outage_uniform1_sat': (
        ('0x1.0000000000000p+0',),
        ('0x1.c9ba5e353f7cfp+0',),
        ('0x1.0000000000000p+0',),
        ('0x1.8a2345cc04425p-3',),
    ),
    'outage_uniform2': (
        ('0x1.995d0f366607ep-1', '0x1.cc1eb71a0d853p-2'),
        ('0x1.dc28f5c28f5c3p+0', '0x1.c6a7ef9db22d1p+0'),
        ('0x1.669b6752be8a9p-2', '0x1.cc1eb71a0d853p-2'),
        ('0x1.669b6752be8a9p-3', '0x1.72bb91710f8acp-2'),
    ),
    'outage_uniform3_sat': (
        ('0x1.0000000000000p+0', '0x1.3175c5c6e928ap-1', '0x1.287e6b109cc4fp-2'),
        ('0x1.ca3d70a3d70a4p+0', '0x1.a5a1cac083127p+0', '0x1.9e76c8b439581p+0'),
        ('0x1.9d1474722daecp-2', '0x1.3a6d207d358c5p-2', '0x1.287e6b109cc4fp-2'),
        ('0x1.9d1474722daecp-3', '0x1.c3fbc388a6abdp-2', '0x1.138101e301d9ap-1'),
    ),
    'utilization_default_tab1': (
        ('0x1.6666666666667p-1',),
        ('0x1.b4bc6a7ef9db2p+0',),
        ('0x1.75c28f5c28f5ep-1',),
        ('0x1.ae147ae147ae4p-2',),
    ),
    'utilization_default_tab1_sat': (
        ('0x1.0000000000000p+0',),
        ('0x1.570a3d70a3d71p+0',),
        ('0x1.0000000000000p+0',),
        ('0x1.3333333333333p-1',),
    ),
    'utilization_default_tab2_sat': (
        ('0x1.0000000000000p+0', '0x1.141d9496b8a5dp-1'),
        ('0x1.999999999999ap+0', '0x1.8a3d70a3d70a4p+0'),
        ('0x1.fae05ff394962p-2', '0x1.028fd00635b4fp-1'),
        ('0x1.9479f98d2e2fcp-2', '0x1.0333c407c3223p-1'),
    ),
    'utilization_default_tab3': (
        ('0x1.b34638d5abd1bp-1', '0x1.4cd9966b8e629p-1', '0x1.cd12237ecee4dp-2'),
        ('0x1.e5e353f7ced91p+0', '0x1.cac083126e979p+0', '0x1.a872b020c49bap+0'),
        ('0x1.c2849eb7d5440p-3', '0x1.144b7a94fcce2p-2', '0x1.8faf5dcb5eac4p-2'),
        ('0x1.eb6fa3d610ee6p-4', '0x1.21d321a2faacep-2', '0x1.2948f764f845ep-1'),
    ),
    'utilization_default_uniform1': (
        ('0x1.6666666666667p-1',),
        ('0x1.b851eb851eb85p+0',),
        ('0x1.6666666666667p-1',),
        ('0x1.999999999999bp-2',),
    ),
    'utilization_default_uniform1_sat': (
        ('0x1.0000000000000p+0',),
        ('0x1.570a3d70a3d71p+0',),
        ('0x1.0000000000000p+0',),
        ('0x1.3333333333333p-1',),
    ),
    'utilization_default_uniform2': (
        ('0x1.996de1d657126p-1', '0x1.cc5a078159a3bp-2'),
        ('0x1.ccccccccccccdp+0', '0x1.b74bc6a7ef9dbp+0'),
        ('0x1.6681bc2b54811p-2', '0x1.cc5a078159a3bp-2'),
        ('0x1.001b55c4ee1aap-2', '0x1.bf708961b00c9p-2'),
    ),
    'utilization_default_uniform3_sat': (
        ('0x1.0000000000000p+0', '0x1.35621b98b3d4fp-1', '0x1.2c1895b87fb65p-2'),
        ('0x1.b333333333333p+0', '0x1.aa7ef9db22d0ep+0', '0x1.a7ef9db22d0e5p+0'),
        ('0x1.953bc8ce98562p-2', '0x1.3eaba178e7f39p-2', '0x1.2c1895b87fb65p-2'),
        ('0x1.2ed5626831efcp-2', '0x1.687362742d40ap-2', '0x1.8b645ea4329fdp-2'),
    ),
    'utilization_tab1': (
        ('0x1.668cb74a32edep-1',),
        ('0x1.a8b4395810625p+0',),
        ('0x1.75f833ce474d0p-1',),
        ('0x1.f2a0451309bc0p-2',),
    ),
    'utilization_tab1_sat': (
        ('0x1.0000000000000p+0',),
        ('0x1.445a1cac08312p+0',),
        ('0x1.0000000000000p+0',),
        ('0x1.5555555555555p-1',),
    ),
    'utilization_tab2_sat': (
        ('0x1.0000000000000p+0', '0x1.14428c3a70a5ap-1'),
        ('0x1.8000000000000p+0', '0x1.6d0e560418937p+0'),
        ('0x1.fa78ddc2c496ap-2', '0x1.02c3911e9db4bp-1'),
        ('0x1.fa78ddc2c496ap-2', '0x1.437475664521dp-1'),
    ),
    'utilization_tab3': (
        ('0x1.b311ec63b05a6p-1', '0x1.334f29636dad8p-1', '0x1.66f4bf5cf188ep-2'),
        ('0x1.c10624dd2f1aap+0', '0x1.9ba5e353f7ceep+0', '0x1.9ae147ae147aep+0'),
        ('0x1.287239891a448p-2', '0x1.47518e4077a7ep-2', '0x1.1525b26f883dep-2'),
        ('0x1.287239891a448p-2', '0x1.10c3f68b0e614p-1', '0x1.1525b26f883dep-1'),
    ),
    'utilization_uniform1': (
        ('0x1.66953311f8a2dp-1',),
        ('0x1.ac49ba5e353f8p+0',),
        ('0x1.66953311f8a2dp-1',),
        ('0x1.de1c4417f62e7p-2',),
    ),
    'utilization_uniform1_sat': (
        ('0x1.0000000000000p+0',),
        ('0x1.445a1cac08312p+0',),
        ('0x1.0000000000000p+0',),
        ('0x1.5555555555555p-1',),
    ),
    'utilization_uniform2': (
        ('0x1.99bf12b0bdf4cp-1', '0x1.cd3885efabdacp-2'),
        ('0x1.b851eb851eb85p+0', '0x1.9fbe76c8b4396p+0'),
        ('0x1.66459f71d00ecp-2', '0x1.cd3885efabdacp-2'),
        ('0x1.66459f71d00ecp-2', '0x1.204353b5cb68bp-1'),
    ),
    'utilization_uniform3_sat': (
        ('0x1.0000000000000p+0', '0x1.35be7964c16f4p-1', '0x1.2c9c9943200e3p-2'),
        ('0x1.999999999999ap+0', '0x1.8666666666666p+0', '0x1.8147ae147ae14p+0'),
        ('0x1.94830d367d218p-2', '0x1.3ee0598662d05p-2', '0x1.2c9c9943200e3p-2'),
        ('0x1.94830d367d218p-2', '0x1.09baf54552584p-1', '0x1.2c9c9943200e3p-1'),
    ),
}


@pytest.mark.parametrize("name", sorted(_NEWTON_CASES))
def test_newton_solves_keep_exact_bits(name, monkeypatch):
    def no_fallback(*args):
        raise AssertionError("the nested bisection ran")

    monkeypatch.setattr(eqm, "_solve_active_bisect", no_fallback)
    model, dist, caps, v, prices = _NEWTON_CASES[name]
    eq = eqm.cutoffs_from_prices(eqm.MarketScenario(v, caps, model, dist), prices)
    assert eq.saturated == name.endswith("_sat")
    got = tuple(tuple(float.hex(x) for x in getattr(eq, field))
                for field in ("cutoffs", "prices", "usages", "levels"))
    assert got == _NEWTON_BITS[name]

# ---------------------------------------------------------------------------
# Newton's linear solve against the max()/sum() reference
# ---------------------------------------------------------------------------

def _ref_solve_linear(a, b):
    n = len(b)
    m = [row[:] + [rhs] for row, rhs in zip(a, b)]
    for col in range(n):
        piv = max(range(col, n), key=lambda r: abs(m[r][col]))
        if abs(m[piv][col]) < 1e-300:
            return None
        m[col], m[piv] = m[piv], m[col]
        inv = 1.0 / m[col][col]
        for r in range(col + 1, n):
            fac = m[r][col] * inv
            if fac != 0.0:
                for c in range(col, n + 1):
                    m[r][c] -= fac * m[col][c]
    x = [0.0] * n
    for r in range(n - 1, -1, -1):
        acc = m[r][n] - sum(m[r][c] * x[c] for c in range(r + 1, n))
        x[r] = acc / m[r][r]
    return x


def _hex_or_none(x):
    return None if x is None else [float.hex(v) for v in x]


# powers of two keep elimination exact, so ties and exact zeros survive it
_exact_entries = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, -2.0, 0.5, -0.5, 4.0])
_entries = st.one_of(_exact_entries, st.floats(-10.0, 10.0))


# infinities, NaN and a subnormal reach the pivot tests and the row
# operations' zero-factor skip
_wild_entries = st.sampled_from([math.inf, -math.inf, math.nan, 1e-310, -1e300])


@st.composite
def _tridiagonal_systems(draw):
    n = draw(st.integers(2, 3))
    entry = draw(st.sampled_from([_exact_entries, _entries, st.one_of(_entries, _wild_entries)]))
    a = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(max(i - 1, 0), min(i + 2, n)):
            a[i][j] = draw(entry)
    b = [draw(entry) for _ in range(n)]
    # a forced-singular system of finite entries meets a zero pivot
    singular = draw(st.sampled_from([None, "zero_column", "zero_row", "repeated_row"]))
    if entry not in (_exact_entries, _entries):
        singular = None
    elif singular == "zero_column":
        k = draw(st.integers(0, n - 1))
        for i in range(max(k - 1, 0), min(k + 2, n)):
            a[i][k] = draw(st.sampled_from([0.0, -0.0]))
    elif singular == "zero_row":
        a[draw(st.integers(0, n - 1))] = [0.0] * n
    elif singular == "repeated_row" and n == 2 and entry is _exact_entries:
        a[1] = list(a[0])
    else:
        singular = None
    return a, b, singular


@settings(max_examples=800, deadline=None)
@given(system=_tridiagonal_systems())
@example(system=([[1.0, 3.0], [-1.0, 1.0]], [-0.0, 2.0], None))  # |1| and |-1| tie
@example(system=([[1.0, 2.0, 0.0], [4.0, -1.0, 0.5], [0.0, 2.0, 1.0]], [1.0, -0.0, 2.0], None))
@example(system=([[2.0, 1.0, 0.0], [0.5, 0.0, 1.0], [0.0, 4.0, -2.0]], [1.0, 0.5, -0.0], None))
@example(system=([[math.nan, 1.0, 0.0], [0.5, 1.0, 1.0], [0.0, 4.0, 2.0]], [1.0, 0.5, 1.0], None))
def test_straight_line_solves_match_reference_bits(system):
    a, b, singular = system
    if len(b) == 2:
        got = eqm._solve2(a[0][0], a[0][1], b[0], a[1][0], a[1][1], b[1])
    else:
        got = eqm._solve3(a[0][0], a[0][1], b[0], a[1][0], a[1][1], a[1][2], b[1],
                          a[2][1], a[2][2], b[2])
    assert _hex_or_none(got) == _hex_or_none(_ref_solve_linear(a, b))
    if singular is not None:
        assert got is None


# ---------------------------------------------------------------------------
# Newton's saturation bound against the four-attempt reference
# ---------------------------------------------------------------------------

# how a reference attempt ended
_ENDINGS = ("converged", "capacity", "singular", "damping", "iterations")


def _ref_capacity_seed(scenario, caps):
    n = len(caps)
    min_q = scenario.model.min_usage()
    theta_bar = scenario.dist.support_end
    qs = [max(min(0.4 * c, 0.8 / n), min_q * 1.2 + tol.SEED_USAGE_PAD) for c in caps]
    total = sum(qs)
    if total > 0.9:
        qs = [q * 0.9 / total for q in qs]
    xs = [0.0] * n
    cum = 0.0
    for i in range(n - 1, -1, -1):
        cum += qs[i]
        xs[i] = scenario.dist.quantile(min(cum, 1.0)) * 0.98
    for i in range(n - 2, -1, -1):
        if xs[i] <= xs[i + 1]:
            xs[i] = min(xs[i + 1] * 1.05 + tol.SEED_CUTOFF_GAP, theta_bar)
    return xs


def _ref_start(scenario, n, pinned, seed):
    theta_bar = scenario.dist.support_end
    x = list(seed) if seed else [theta_bar * (n - i) / (n + 0.5) * 0.9 for i in range(n)]
    if pinned:
        x[0] = theta_bar
    return x


def _ref_attempt(scenario, prices, caps, x, pinned, solve=_ref_solve_linear, endings=None):
    """One attempt from the cutoffs x, building the Jacobian and the
    right-hand side apart; appends how it ended to ``endings``."""
    v = scenario.v
    dist = scenario.dist
    model = scenario.model
    value_capped = model._value_capped
    slope = model._slope
    theta_bar = dist.support_end
    n = len(caps)
    slope_at = model.min_usage() + tol.SLOPE_FLOOR
    ended = endings.append if endings is not None else lambda how: None

    def residual(x):
        cum = [dist.cdf(t) for t in x] + [0.0]
        qs = [cum[i] - cum[i + 1] for i in range(n)]
        if model._saturates:
            for q, c in zip(qs, caps):
                if q >= c:
                    return None
        ks = [value_capped(q, c) for q, c in zip(qs, caps)]
        res = [] if pinned else [v - prices[0] - x[0] * ks[0]]
        for i in range(1, n):
            res.append((prices[i - 1] - prices[i]) - x[i] * (ks[i] - ks[i - 1]))
        return res, ks, qs

    def jacobian(x, ks, qs):
        sl = [slope(max(q, slope_at), c) for q, c in zip(qs, caps)]
        fs = [dist.density(t) for t in x]
        rows = range(1, n) if pinned else range(n)
        jac = []
        for i in rows:
            row = [0.0] * n
            if i == 0:
                row[0] = -ks[0] - x[0] * sl[0] * fs[0]
                if n > 1:
                    row[1] = x[0] * sl[0] * fs[1]
            else:
                row[i - 1] = x[i] * sl[i - 1] * fs[i - 1]
                row[i] = -(ks[i] - ks[i - 1]) - x[i] * (sl[i] + sl[i - 1]) * fs[i]
                if i + 1 < n:
                    row[i + 1] = x[i] * sl[i] * fs[i + 1]
            jac.append(row[1:] if pinned else row)
        return jac

    top_cap = theta_bar * (3.0 if not pinned else 1.0)
    off = 1 if pinned else 0
    for _ in range(tol.NEWTON_ITERATIONS):
        got = residual(x)
        if got is None:
            ended("capacity")
            return None
        res, ks, qs = got
        if max(abs(r) for r in res) < tol.NEWTON_CONVERGED:
            ended("converged")
            return x, ks, qs
        step = solve(jacobian(x, ks, qs), [-r for r in res])
        if step is None:
            ended("singular")
            return None
        lam = 1.0
        base = list(x)
        for _damp in range(tol.NEWTON_HALVINGS):
            trial = list(base)
            for k, s in enumerate(step):
                trial[k + off] = base[k + off] + lam * s
            ok = all(
                trial[i] > trial[i + 1] - tol.ORDER_ROUNDOFF for i in range(n - 1)
            ) and trial[-1] >= -tol.ORDER_ROUNDOFF and trial[0] <= top_cap
            if ok:
                x = [min(max(t, 0.0), top_cap) for t in trial]
                break
            lam *= 0.5
        else:
            ended("damping")
            return None
    ended("iterations")
    return None


def _ref_newton_chain(scenario, act_groups, solve=_ref_solve_linear):
    """``_newton_chain`` as it was before the saturation bound: every chain
    tries both unpinned attempts first."""
    v = scenario.v
    theta_bar = scenario.dist.support_end
    prices = [g.price for g in act_groups]
    caps = [g.caps[0] for g in act_groups]
    n = len(act_groups)
    min_q = scenario.model.min_usage()

    def run(pinned, seed=None):
        if pinned and n == 1:
            q0 = scenario.dist.cdf(theta_bar)
            return [theta_bar], [scenario.model._value_capped(q0, caps[0])], [q0]
        x = _ref_start(scenario, n, pinned, seed)
        return _ref_attempt(scenario, prices, caps, x, pinned, solve)

    seed = _ref_capacity_seed(scenario, caps)
    out = run(pinned=False, seed=seed)
    if out is None:
        out = run(pinned=False)
    saturated = False
    if out is not None and out[0][0] > theta_bar + tol.SUPPORT_END_SLACK:
        out = None
        saturated = True
    if out is None:
        got = run(pinned=True, seed=seed)
        if got is None:
            got = run(pinned=True)
        if got is None:
            return None
        x, ks, qs = got
        slack = v - prices[0] - theta_bar * ks[0]
        if slack < -tol.PRICE_TOL:
            return None
        saturated = True
    else:
        x, ks, qs = out
        saturated = x[0] >= theta_bar - tol.SATURATION_SLACK

    xs = list(x) + [0.0]
    for i in range(n):
        if xs[i] - xs[i + 1] <= tol.NEWTON_COLLAPSE:
            return None  # a collapsed interval: the bisection takes over
    if any(q < min_q - tol.NEWTON_MIN_USAGE_SLACK for q in qs):
        return None
    return list(x), list(ks), saturated


def _singleton_groups(scenario, prices):
    return [eqm._Group(p, [c], [i]) for i, (p, c) in enumerate(zip(prices, scenario.capacities))]


def _chain_outcome(chain, scenario, prices):
    """A chain solve's cutoffs and levels in float.hex with its saturation
    flag, None, or the exception type it raised."""
    try:
        got = chain(scenario, _singleton_groups(scenario, prices))
    except Exception as exc:  # both versions must fail alike
        return type(exc).__name__
    if got is None:
        return None
    xs, ks, saturated = got
    return [float.hex(x) for x in xs], [float.hex(k) for k in ks], saturated


_chain_models = st.one_of(
    st.just(cg.utilization()),
    st.just(cg.latency()),
    st.floats(0.0, 2.0).map(cg.general_latency),
    st.integers(1, 3).map(cg.loss),
    st.floats(0.05, 1.0).map(cg.outage),
    st.floats(0.0, 0.3).map(cg.utilization_default),
)


@st.composite
def _chain_markets(draw, sizes=(1, 3)):
    n = draw(st.integers(*sizes))
    model = draw(_chain_models)
    if draw(st.booleans()):
        dist = uniform(draw(st.floats(0.3, 1.0)))
    else:
        # breakpoints from positive increments, normalized to end at (theta_bar, 1)
        k = draw(st.integers(1, 4))
        dx = draw(st.lists(st.floats(0.05, 1.0), min_size=k, max_size=k))
        df = draw(st.lists(st.floats(0.05, 1.0), min_size=k, max_size=k))
        theta_bar = draw(st.floats(0.3, 1.0))
        points, x, f = [(0.0, 0.0)], 0.0, 0.0
        for a, b in zip(dx, df):
            x, f = x + a, f + b
            points.append((x, f))
        dist = tabulated([(px * theta_bar / x, pf / f) for px, pf in points[:-1]]
                         + [(theta_bar, 1.0)])
    caps = tuple(10.0 ** draw(st.floats(-6.0, 0.5)) for _ in range(n))
    v = draw(st.floats(0.2, 8.0))
    # a low top price against a high V is where the bound skips both
    # unpinned attempts; a top price near V is where it cannot
    fracs = sorted(draw(st.lists(st.floats(0.0, 0.999), min_size=n, max_size=n)),
                   reverse=True)
    return eqm.MarketScenario(v, caps, model, dist), [v * f for f in fracs]


# For one, two and three classes, pinned and not, a market where an
# attempt from the capacity seed or the default start ends each way, so
# that every exit of the straight-line kernels is taken.  A pinned
# one-class attempt has nothing left to solve, so only its unpinned
# attempts are listed.  Capacity 200 makes outage levels and slopes
# underflow to 0.0, which the singular pivots need.
_GL_TINY2 = (eqm.MarketScenario(1.51, (1.09e-05, 0.00268), cg.general_latency(0.5), uniform()),
             [1.07, 0.412])
_OUT_TAB2 = (eqm.MarketScenario(4.06, (0.0922, 4.55e-05), cg.outage(0.5), _TAB5), [2.64, 1.82])
_GL_TAB3 = (eqm.MarketScenario(0.98, (0.000507, 0.903, 0.987), cg.general_latency(0.5), _TAB5),
            [0.708, 0.616, 0.29])
_UTL3 = (eqm.MarketScenario(4.02, (0.115, 0.00243, 0.00036), cg.utilization(), uniform()),
         [2.82, 0.175, 0.119])
_UTD_HALF3 = (eqm.MarketScenario(7.53, (0.0522, 0.00269, 0.0921), cg.utilization_default(0.1),
                                 uniform(0.5)), [5.09, 4.16, 2.6])
_KERNEL_ENDINGS = {
    (1, False, "converged"): (
        eqm.MarketScenario(4.19, (0.000159,), cg.loss(2), uniform()), [1.69]),
    (1, False, "capacity"): (
        eqm.MarketScenario(7.28, (0.0909,), cg.general_latency(1.94), uniform(0.5)), [3.67]),
    (1, False, "singular"): (
        eqm.MarketScenario(5.7, (216.0,), cg.outage(0.55), _TAB5), [4.32]),
    (1, False, "damping"): (
        eqm.MarketScenario(2.67, (6.06,), cg.general_latency(0.89), _TAB5), [0.646]),
    (1, False, "iterations"): (
        eqm.MarketScenario(5.48, (0.0069,), cg.utilization_default(0.01), _TAB5), [0.651]),
    (2, False, "converged"): (
        eqm.MarketScenario(0.216, (0.00065, 0.0901), cg.utilization(), uniform(0.5)),
        [0.156, 0.0961]),
    (2, False, "capacity"): _GL_TINY2,
    (2, False, "singular"): _OUT_TAB2,
    (2, False, "damping"): _OUT_TAB2,
    (2, False, "iterations"): (
        eqm.MarketScenario(1.13, (0.000534, 0.0232), cg.utilization_default(0.1), _TAB5),
        [0.315, 0.3]),
    (2, True, "converged"): (
        eqm.MarketScenario(0.398, (0.723, 1.58e-06), cg.outage(0.5), _TAB5), [0.373, 0.215]),
    (2, True, "capacity"): _GL_TINY2,
    (2, True, "singular"): (
        eqm.MarketScenario(2.0, (200.0, 200.0), cg.outage(0.5), uniform()), [1.5, 1.0]),
    (2, True, "damping"): _OUT_TAB2,
    (2, True, "iterations"): (
        eqm.MarketScenario(1.07, (1.01e-06, 1.88e-06), cg.utilization_default(0.1), _TAB5),
        [0.543, 0.149]),
    (3, False, "converged"): _UTL3,
    (3, False, "capacity"): _GL_TAB3,
    (3, False, "singular"): (
        eqm.MarketScenario(6.91, (2.42, 0.102, 0.00322), cg.utilization_default(0.1), uniform()),
        [6.57, 3.55, 1.6]),
    (3, False, "damping"): _UTD_HALF3,
    (3, False, "iterations"): (
        eqm.MarketScenario(5.56, (1.51e-06, 0.0139, 0.0692), cg.utilization(), uniform()),
        [4.7, 3.68, 2.16]),
    (3, True, "converged"): _UTL3,
    (3, True, "capacity"): _GL_TAB3,
    (3, True, "singular"): (
        eqm.MarketScenario(2.0, (200.0, 200.0, 200.0), cg.outage(0.5), uniform()),
        [1.5, 1.0, 0.5]),
    (3, True, "damping"): _UTD_HALF3,
    (3, True, "iterations"): (
        eqm.MarketScenario(6.41, (5.52e-06, 0.000107, 0.000171), cg.utilization_default(0.1),
                           uniform(0.5)), [4.68, 1.65, 1.62]),
}


def _with_kernel_examples(**more):
    def add(test):
        for market in _KERNEL_ENDINGS.values():
            test = example(market=market, **more)(test)
        return test
    return add


@settings(max_examples=600, deadline=None)
@given(market=_chain_markets())
@example(market=(eqm.MarketScenario(6.0, (1.0, 0.8), cg.latency(), uniform()), [4.769, 4.176]))
@example(market=(eqm.MarketScenario(2.0, (1.0, 0.6, 0.5), cg.utilization()), [1.6, 1.525, 1.505]))
@_with_kernel_examples()
def test_newton_chain_matches_the_four_attempt_reference(market):
    scenario, prices = market
    assert (_chain_outcome(eqm._newton_chain, scenario, prices)
            == _chain_outcome(_ref_newton_chain, scenario, prices))


@settings(max_examples=40, deadline=None)
@given(market=_chain_markets(sizes=(4, 4)))
# the bisection stops on the cutoff resolution, so a near-empty class with
# a steep level can miss validate()'s PRICE_TOL: here by an indifference
# residual of -5.8e-9 and by a level inversion of 5.4e-9, both at class 4
@example(market=(eqm.MarketScenario(1.0, (1.0, 1.0, 1.0, 0.0001), cg.latency(), uniform(0.5)),
                 [0.75, 0.5, 1.1754943508222875e-38, 0.0]))
@example(market=(eqm.MarketScenario(1.0, (1.0, 1.0, 1.0, 1.8469139561431391e-06),
                                    cg.utilization()), [0.75, 0.5, 5e-324, 0.0]))
def test_four_class_chains_go_to_the_bisection(market):
    scenario, prices = market
    assume(len(set(prices)) == 4)
    ref = _ref_newton_chain(scenario, _singleton_groups(scenario, prices))

    def no_attempt(*args):
        raise AssertionError("a Newton attempt started")

    with pytest.MonkeyPatch.context() as mp:
        for kernel in ("_newton_attempt1", "_newton_attempt2", "_newton_attempt3"):
            mp.setattr(eqm, kernel, no_attempt)
        try:
            eq = eqm.cutoffs_from_prices(scenario, prices)
        except PmplabError:
            eq = None
    if eq is not None:
        # validate()'s cutoff ordering, and its level ordering and
        # indifference equations to within the bound the solve enforces
        report = eqm.validate(scenario, eq)
        assert report.c1_ok
        assert report.c2_violation <= tol.SOLVED_RESIDUAL_TOL
        assert max(map(abs, report.c3_residuals)) <= tol.SOLVED_RESIDUAL_TOL
    if ref is not None:
        # where the reference Newton converges, both paths find one chain
        assert eq is not None
        assert eq.cutoffs == pytest.approx(ref[0], rel=0.0, abs=1e-10)


def _attempt_hex(attempt):
    """An attempt's cutoffs, levels and usages in float.hex, None, or the
    exception type it raised."""
    try:
        got = attempt()
    except Exception as exc:
        return type(exc).__name__
    return None if got is None else tuple(tuple(map(float.hex, part)) for part in got)


def _kernel_attempts(scenario, prices, starts=()):
    """Each of the four attempts on a chain of one to three classes, and the
    attempts from each of ``starts``, pinned and not: how the reference
    ended it, and its outcome from the reference and from the straight-line
    kernel.  A pinned one-class attempt is left out: the reference has no
    residual to take the max() of, and the chain property checks that
    closed form through ``_ref_newton_chain``."""
    groups = _singleton_groups(scenario, prices)
    chain = eqm._Chain.of(scenario, groups)
    kernel = {1: eqm._newton_attempt1, 2: eqm._newton_attempt2,
              3: eqm._newton_attempt3}[len(groups)]
    caps = list(chain.caps)
    out = []
    for pinned in (False, True) if len(caps) > 1 else (False,):
        for seed in (_ref_capacity_seed(scenario, caps), None, *starts):
            x = _ref_start(scenario, len(caps), pinned, seed)
            endings = []
            ref = _attempt_hex(lambda: _ref_attempt(scenario, prices, caps, list(x), pinned,
                                                    endings=endings))
            straight = _attempt_hex(lambda: kernel(chain, list(x), pinned))
            out.append((pinned, endings[0] if endings else None, ref, straight))
    return out


@settings(max_examples=300, deadline=None)
@given(market=_chain_markets(),
       start=st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3))
@_with_kernel_examples(start=[0.9, 0.4, 0.0])
def test_newton_kernels_match_the_reference(market, start):
    scenario, prices = market
    # one more start: any decreasing cutoffs inside the support
    start = sorted((scenario.dist.support_end * t for t in start[:len(prices)]), reverse=True)
    for _, _, ref, straight in _kernel_attempts(scenario, prices, [start]):
        assert straight == ref


_KERNEL_EXITS = [(n, pinned, ending) for n in (1, 2, 3)
                 for pinned in ((False, True) if n > 1 else (False,)) for ending in _ENDINGS]


@pytest.mark.parametrize("n, pinned, ending", _KERNEL_EXITS,
                         ids=[f"{ending}-{pinned}-{n}" for n, pinned, ending in _KERNEL_EXITS])
def test_kernel_examples_reach_each_ending(n, pinned, ending):
    scenario, prices = _KERNEL_ENDINGS[n, pinned, ending]
    assert len(prices) == n
    attempts = _kernel_attempts(scenario, prices)
    assert (pinned, ending) in {(p, how) for p, how, *_ in attempts}


def test_saturated_duopoly_market_skips_the_unpinned_attempts(monkeypatch):
    # a seed-0 duopoly_split market that saturates: the reference pays for
    # two unpinned attempts before the pinned one succeeds
    scenario = eqm.MarketScenario(2.007415360252278, (1.0018904398940613, 0.9951727861772595),
                                  cg.utilization())
    prices = (0.8029661441009113, 0.0)
    ref_rows = []

    def ref_solve(a, b):
        ref_rows.append(len(b))
        return _ref_solve_linear(a, b)

    ref = _chain_outcome(lambda *args: _ref_newton_chain(*args, solve=ref_solve),
                         scenario, prices)
    pins = []
    attempt2 = eqm._newton_attempt2

    def record(chain, x, pinned):
        pins.append(pinned)
        return attempt2(chain, x, pinned)

    monkeypatch.setattr(eqm, "_newton_attempt2", record)
    got = _chain_outcome(eqm._newton_chain, scenario, prices)
    assert ref is not None and ref[2] is True
    assert 2 in ref_rows          # the reference ran unpinned steps ...
    assert pins and all(pins)     # ... this one only pinned attempts
    assert got == ref
