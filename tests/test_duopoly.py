import math

import pytest

from pmplab import congestion as cg
from pmplab import duopoly as duo
from pmplab.duopoly import DuopolyScenario, ProviderStrategy
from pmplab.errors import BoundaryError, DomainError, NoConvergenceError


UTL = DuopolyScenario(2.0, 1.0, 1.0, cg.utilization())


# ---------------------------------------------------------------------------
# merged market
# ---------------------------------------------------------------------------

def test_hand_solved_market():
    me = duo.market_equilibrium(UTL, ProviderStrategy.one(1.2, 1.0),
                                ProviderStrategy.one(1.0, 1.0))
    th2 = (1.0 + math.sqrt(2.6)) / 4.0
    assert me.eq.saturated
    assert me.eq.cutoffs[1] == pytest.approx(th2, abs=1e-9)
    assert me.pi_i == pytest.approx(1.2 * (1.0 - th2), abs=1e-9)
    assert me.pi_ii == pytest.approx(th2, abs=1e-9)


def test_symmetric_tie_splits_equally():
    me = duo.market_equilibrium(UTL, ProviderStrategy.one(1.0, 1.0),
                                ProviderStrategy.one(1.0, 1.0))
    assert me.usage_of("I") == pytest.approx(me.usage_of("II"), abs=1e-12)


def test_free_economy_class_absorbs_leftover():
    strat = ProviderStrategy.two(1.0, 0.5, 0.0, 0.5)
    me = duo.market_equilibrium(UTL, ProviderStrategy.one(1.2, 1.0), strat)
    assert me.eq.saturated
    assert me.eq.opt_out == pytest.approx(0.0, abs=1e-12)
    assert me.usage_of("I") + me.usage_of("II") <= 1.0 + 1e-12


def test_ownership_conservation():
    strat = ProviderStrategy.two(1.3, 0.4, 0.9, 0.6)
    me = duo.market_equilibrium(UTL, ProviderStrategy.one(1.1, 1.0), strat)
    total = me.usage_of("I") + me.usage_of("II")
    assert total == sum(me.eq.usages)  # bit-exact attribution


def test_market_rejects_overpriced_classes():
    with pytest.raises(DomainError):
        duo.market_equilibrium(UTL, ProviderStrategy.one(2.5, 1.0),
                               ProviderStrategy.one(1.0, 1.0))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_duopoly_inputs_are_rejected(bad):
    for args in [(bad, 1.0, 1.0), (2.0, bad, 1.0), (2.0, 1.0, bad)]:
        with pytest.raises(DomainError, match="finite"):
            DuopolyScenario(*args, cg.utilization())
    with pytest.raises(DomainError, match="finite"):
        ProviderStrategy.one(bad, 1.0)
    with pytest.raises(DomainError, match="finite"):
        ProviderStrategy.one(1.0, bad)  # was dropped as if zero
    with pytest.raises(DomainError, match="finite"):
        ProviderStrategy.two(1.2, 0.5, bad, 0.0)


def test_a_negative_capacity_is_rejected_and_zero_sits_out():
    with pytest.raises(DomainError, match="nonnegative"):
        ProviderStrategy.one(1.0, -1.0)  # was dropped as if zero
    with pytest.raises(DomainError, match="nonnegative"):
        ProviderStrategy.two(1.2, 0.5, 1.0, -0.5)
    assert ProviderStrategy.one(1.0, 0.0).classes == ()
    assert ProviderStrategy.two(1.2, 0.0, 1.0, 0.5).classes == ((1.0, 0.5),)


def test_duopoly_curve_records_a_nan_price_as_an_error():
    (point,) = duo.duopoly_curve(UTL, [math.nan], grid=16)
    assert point.error is not None and "finite" in point.error


# ---------------------------------------------------------------------------
# profit derivative and the published closed forms
# ---------------------------------------------------------------------------

def test_derivative_cross_check_one_class_case():
    rep = duo.profit_derivative_I(UTL, 1.7, ProviderStrategy.one(1.6, 1.0))
    assert rep.case == "I>=II"
    assert rep.closed_form_status == "agrees"
    assert rep.relative_gap < 1e-3


def test_derivative_matches_secant_sign():
    strat = ProviderStrategy.one(1.0, 1.0)
    rep = duo.profit_derivative_I(UTL, 1.25, strat)
    up = duo._profit_i(UTL, 1.25 + 1e-4, strat)
    dn = duo._profit_i(UTL, 1.25 - 1e-4, strat)
    assert math.copysign(1.0, rep.finite_difference) == math.copysign(1.0, up - dn)


def test_derivative_boundary_guard():
    with pytest.raises(BoundaryError):
        duo.profit_derivative_I(UTL, 1.000004, ProviderStrategy.one(1.0, 1.0))


def test_derivative_near_zero_at_best_response():
    strat = ProviderStrategy.one(1.0, 1.0)
    p_star, _v = duo.best_response_I(UTL, strat)
    if min(abs(p_star - 1.0), p_star, UTL.v - p_star) > 2e-5:
        rep = duo.profit_derivative_I(UTL, p_star, strat)
        assert abs(rep.finite_difference) <= 1e-4


def test_corrupted_rows_never_evaluated():
    rep = duo.profit_derivative_I(UTL, 0.5, ProviderStrategy.one(1.0, 1.0))
    assert rep.case == "II>=I"
    assert rep.closed_form is None
    assert rep.closed_form_status == "corrupted-source"


def test_case_continuity_of_profit_I():
    strat = ProviderStrategy.one(1.0, 1.0)
    left = duo._profit_i(UTL, 1.0 - 1e-7, strat)
    right = duo._profit_i(UTL, 1.0 + 1e-7, strat)
    at = duo._profit_i(UTL, 1.0, strat)
    assert left == pytest.approx(right, abs=1e-6)
    assert at == pytest.approx(0.5 * (left + right), abs=1e-6)


# ---------------------------------------------------------------------------
# best responses
# ---------------------------------------------------------------------------

def test_best_response_I_monopoly_limit():
    absent = DuopolyScenario(2.0, 1.0, 0.0, cg.utilization())
    p_star, v_star = duo.best_response_I(absent, ProviderStrategy(()))
    assert p_star == pytest.approx(4.0 / 3.0, abs=1e-4)
    assert v_star == pytest.approx(4.0 * math.sqrt(6.0) / 9.0, abs=1e-6)


def test_best_response_I_against_free_rival():
    flooded = DuopolyScenario(2.0, 1.0, 50.0, cg.utilization())
    p_star, v_star = duo.best_response_I(flooded, ProviderStrategy.one(0.0, 50.0))
    assert v_star >= 0.0


def test_best_response_I_matches_brute_force():
    strat = ProviderStrategy.one(1.0, 1.0)
    p_star, v_star = duo.best_response_I(UTL, strat)
    best = max(
        (duo._profit_i(UTL, 2.0 * k / 10000, strat), 2.0 * k / 10000)
        for k in range(10001)
    )
    assert v_star == pytest.approx(best[0], abs=1e-4)
    assert p_star == pytest.approx(best[1], abs=1e-3)


def test_best_response_II_one_class_matches_brute_force():
    p_star, v_star = None, None
    strat, v_star = duo.best_response_II(UTL, 1.2, mode="one")
    best = max(
        (duo._profit_ii(UTL, 1.2, ProviderStrategy.one(2.0 * k / 10000, 1.0)), 2.0 * k / 10000)
        for k in range(10001)
    )
    assert v_star == pytest.approx(best[0], abs=1e-4)


@pytest.mark.parametrize("model", [cg.utilization(), cg.utilization_default(0.1)])
def test_two_class_dominates_one_class(model):
    d = DuopolyScenario(2.0, 1.0, 1.0, model)
    for p_i in (0.6, 1.2, 1.7):
        _s1, v1 = duo.best_response_II(d, p_i, mode="one")
        _s2, v2 = duo.best_response_II(d, p_i, mode="two")
        assert v2 >= v1 - 1e-9


def test_two_class_strictly_better_with_default_consumption():
    d = DuopolyScenario(2.0, 1.0, 1.0, cg.utilization_default(0.1))
    _s1, v1 = duo.best_response_II(d, 1.2, mode="one")
    _s2, v2 = duo.best_response_II(d, 1.2, mode="two")
    assert v2 > v1 + 1e-4


def test_an_unknown_mode_is_rejected_before_any_search(monkeypatch):
    solved = []
    market = duo.market_equilibrium
    monkeypatch.setattr(duo, "market_equilibrium",
                        lambda *args: solved.append(args) or market(*args))
    for scenario in (UTL, DuopolyScenario(2.0, 1.0, 0.0, cg.utilization())):
        with pytest.raises(DomainError, match="mode"):
            duo.best_response_II(scenario, 1.2, mode="bogus")
    assert solved == []


def test_absent_provider_II():
    d = DuopolyScenario(2.0, 1.0, 0.0, cg.utilization())
    strat, value = duo.best_response_II(d, 1.0, mode="two")
    assert strat.classes == () and value == 0.0


# ---------------------------------------------------------------------------
# Nash search
# ---------------------------------------------------------------------------

def test_nash_monopoly_degenerate():
    d = DuopolyScenario(2.0, 1.0, 0.0, cg.utilization())
    res = duo.find_nash(d, mode="one")
    assert res.rounds == 1
    assert res.p_i == pytest.approx(4.0 / 3.0, abs=1e-4)
    assert res.verified


def test_nash_symmetric_one_class():
    res = duo.find_nash(UTL, mode="one")
    assert res.verified
    p_ii = res.strat_ii.classes[0][0]
    assert abs(res.p_i - p_ii) <= 1e-5


def test_nash_budget_exhaustion_reported(monkeypatch):
    monkeypatch.setattr(duo, "NASH_MAX_ROUNDS", 1)
    with pytest.raises(NoConvergenceError) as err:
        duo.find_nash(UTL, mode="one")
    assert err.value.trajectory


# separable stand-in profits: provider I's peaks at price 1.0; provider II's
# at price 1.2 for one class, and at prices (1.2, 0.8) with a premium share
# of 0.3 for two, so moving one coordinate spoils only its own check
def _peaked_profit_i(_duo, p_i, _strat_ii):
    return -(p_i - 1.0) ** 2


def _peaked_profit_ii(_duo, _p_i, strat):
    cls = strat.classes
    value = -sum((p - target) ** 2 for (p, _c), target in zip(cls, (1.2, 0.8)))
    if len(cls) == 2:
        value -= (cls[0][1] / (cls[0][1] + cls[1][1]) - 0.3) ** 2
    return value


_BEST_TWO = ProviderStrategy.two(1.2, 0.3, 0.8, 0.7)


@pytest.mark.parametrize("p_i, strat_ii, verified", [
    (1.0, ProviderStrategy(()), True),
    (1.0, ProviderStrategy.one(1.2, 1.0), True),
    (1.0, _BEST_TWO, True),
    (1.01, ProviderStrategy(()), False),
    (1.01, _BEST_TWO, False),
    (1.0, ProviderStrategy.one(1.21, 1.0), False),
    (1.0, ProviderStrategy.two(1.21, 0.3, 0.8, 0.7), False),
    (1.0, ProviderStrategy.two(1.2, 0.3, 0.79, 0.7), False),
    (1.0, ProviderStrategy.two(1.2, 0.35, 0.8, 0.65), False),
], ids=["best-absent", "best-one", "best-two", "I-absent", "I", "II-one-price",
        "II-premium-price", "II-economy-price", "II-split"])
def test_nash_verification_rejects_each_unilateral_improvement(p_i, strat_ii, verified,
                                                                monkeypatch):
    monkeypatch.setattr(duo, "_profit_i", _peaked_profit_i)
    monkeypatch.setattr(duo, "_profit_ii", _peaked_profit_ii)
    assert duo._verify_nash(UTL, p_i, strat_ii) is verified


# ---------------------------------------------------------------------------
# curves
# ---------------------------------------------------------------------------

def test_duopoly_curve_dominance_and_errors():
    pts = duo.duopoly_curve(UTL, (0.8, 1.2, 1.6), grid=128)
    assert len(pts) == 3
    for pt in pts:
        assert pt.error is None
        assert pt.pi_ii_two >= pt.pi_ii_one - 1e-9
        assert pt.pi_i >= 0.0


# ---------------------------------------------------------------------------
# exact bits and the per-call market memo
# ---------------------------------------------------------------------------

UD = DuopolyScenario(2.0, 1.0, 1.0, cg.utilization_default(0.1))
ABSENT = DuopolyScenario(2.0, 1.0, 0.0, cg.utilization())
RIVAL = ProviderStrategy.two(1.3, 0.4, 0.9, 0.6)


def _offer(result):
    strat, value = result
    return [x for price_cap in strat.classes for x in price_cap] + [value]


def _curve(points):
    return [(pt.p_i, pt.pi_i, pt.pi_ii_one, pt.pi_ii_two) for pt in points]


# the utilization_default reply runs into a near-empty premium class, where
# most markets fall back to the nested bisection
_CALLS = {
    "br_I_utilization": lambda: duo.best_response_I(UTL, RIVAL),
    "br_I_default": lambda: duo.best_response_I(UD, RIVAL),
    "br_II_one": lambda: _offer(duo.best_response_II(UTL, 1.2, mode="one", grid=64)),
    "br_II_two": lambda: _offer(duo.best_response_II(UTL, 1.2, mode="two", grid=64)),
    "br_II_two_default": lambda: _offer(duo.best_response_II(UD, 1.2, mode="two", grid=32)),
    "curve": lambda: _curve(duo.duopoly_curve(UTL, (0.8, 1.6), grid=32)),
    "curve_absent": lambda: _curve(duo.duopoly_curve(ABSENT, (0.8,), grid=32)),
}

# float.hex of each result as found with every offer solved afresh and a
# second one-class search per curve point: the memo must not move a bit.
# The best-response pins run at the package's default search limits.
_BITS = {
    "br_I_utilization": ("0x1.b3c186e051838p-1", "0x1.0fa7685ca7e7dp-1"),
    "br_I_default": ("0x1.96bb97809b054p-1", "0x1.0c719299bb3f9p-1"),
    "br_II_one": ("0x1.03bfaa6db005cp+0", "0x1.0000000000000p+0", "0x1.4e84af0defa05p-1"),
    "br_II_two": ("0x1.11e62e9080180p+0", "0x1.941a1b4924634p-1",
                  "0x1.e5224db987bebp-1", "0x1.af9792db6e730p-3", "0x1.58feff56a1fdbp-1"),
    "br_II_two_default": ("0x1.6029d899eb112p+0", "0x1.05d220ec554afp-21",
                          "0x1.033f3fbb81af4p+0", "0x1.ffffefa2ddf14p-1",
                          "0x1.800ab3bab0be6p-1"),
    "curve": (
        ("0x1.999999999999ap-1", "0x1.534ed9930705fp-2",
         "0x1.a4602dc25f4aap-2", "0x1.b2d4a833c91bcp-2"),
        ("0x1.999999999999ap+0", "0x1.b9877579a278ap-2",
         "0x1.d93b2dc5bedb6p-1", "0x1.e73febfca6be6p-1"),
    ),
    "curve_absent": (("0x1.999999999999ap-1", "0x1.999999999999ap-1", "0x0.0p+0", "0x0.0p+0"),),
}


def _hex(value):
    if isinstance(value, (tuple, list)):
        return tuple(_hex(x) for x in value)
    return float.hex(float(value))


@pytest.mark.parametrize("name", sorted(_CALLS))
def test_best_responses_keep_exact_bits(name):
    assert _hex(_CALLS[name]()) == _BITS[name]


@pytest.mark.parametrize("name", ["br_I_default", "br_II_one", "br_II_two_default"])
def test_best_response_solves_each_market_once(name, monkeypatch):
    solved = []
    market = duo.market_equilibrium

    def counting(d, strat_i, strat_ii):
        solved.append((strat_i.classes, strat_ii.classes))
        return market(d, strat_i, strat_ii)

    monkeypatch.setattr(duo, "market_equilibrium", counting)
    _CALLS[name]()
    assert solved and len(set(solved)) == len(solved)


@pytest.mark.parametrize("scenario", [UTL, ABSENT], ids=["utilization", "absent"])
def test_curve_points_equal_separate_best_responses(scenario, monkeypatch):
    searches = []
    search = duo._segmented_price_max
    monkeypatch.setattr(duo, "_segmented_price_max",
                        lambda *a, **k: searches.append(1) or search(*a, **k))
    (point,) = duo.duopoly_curve(scenario, (0.4,), grid=32)
    # one one-class search per point (none when provider II is absent)
    assert len(searches) == (1 if scenario.cap_ii > 0.0 else 0)
    _s1, pi_one = duo.best_response_II(scenario, 0.4, mode="one", grid=32)
    s2, pi_two = duo.best_response_II(scenario, 0.4, mode="two", grid=32)
    me = duo.market_equilibrium(scenario, ProviderStrategy.one(0.4, scenario.cap_i), s2)
    assert point == duo.CurvePoint(0.4, me.pi_i, pi_one, pi_two)
