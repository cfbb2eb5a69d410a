"""Acceptance suite: every release criterion with its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion.  Three clauses concerning the all-servers-failure
(outage) model are strict xfails: with a failure factor at or below one,
that congestion function scales multiplexing-preferred on every admissible
grid point (scaling usage and capacity down raises the all-fail
probability), so the partition-preferred behaviour those clauses demand is
mathematically unattainable; the tests assert it anyway and must keep
failing.
"""

import math
import time

import pytest

from pmplab import congestion as cg
from pmplab import duopoly as duop
from pmplab import monopoly as mono
from pmplab.duopoly import DuopolyScenario, ProviderStrategy
from pmplab.equilibrium import (
    MarketScenario,
    cutoffs_from_prices,
    prices_from_cutoffs,
)
from pmplab.errors import NoConvergenceError, OrderError, DomainError, PmplabError


def report(criterion, ok, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


P_GRID_64 = [2.0 * k / 63 for k in range(64)]


# ---------------------------------------------------------------------------
# 1. monopoly closed forms
# ---------------------------------------------------------------------------

def test_criterion_01_monopoly_closed_forms():
    sc = MarketScenario(2.0, (1.0,), cg.utilization())
    t0 = time.monotonic()
    p_star, profit = mono.maximize_single_price(sc, "profit")
    _pw, welfare = mono.maximize_single_price(sc, "welfare")
    elapsed = time.monotonic() - t0
    ok = (
        abs(profit - 4.0 * math.sqrt(6.0) / 9.0) <= 1e-4
        and abs(p_star - 4.0 / 3.0) <= 1e-4
        and abs(welfare - 1.5) <= 1e-6
        and elapsed < 1.0
    )
    report(1, ok, f"profit {profit:.7f} @ {p_star:.6f}, welfare {welfare:.7f}, {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 2. latency partition closed forms + multiplexing-preferred inequalities
# ---------------------------------------------------------------------------

def test_criterion_02_latency_partition():
    sc = MarketScenario(2.0, (1.0,), cg.latency())
    pc = mono.partition_comparison(sc, 1.0, (0.5, 0.5))
    closed = (
        abs(pc.single_welfare - 0.75) <= 1e-6
        and abs(pc.single_profit - 0.5) <= 1e-6
        and abs(pc.split_welfare - 0.5) <= 1e-6
        and abs(pc.split_profit - 1.0 / 3.0) <= 1e-6
    )
    worst = 0.0
    for p in P_GRID_64:
        r = mono.partition_comparison(sc, p, (0.5, 0.5))
        worst = max(worst, r.split_welfare - r.single_welfare,
                    r.split_profit - r.single_profit)
    report(2, closed and worst <= 1e-9,
           f"closed forms ok={closed}, worst split-minus-single gap {worst:.2e}")


# ---------------------------------------------------------------------------
# 3. scale-invariant kinds: identical-price split exactly equivalent
# ---------------------------------------------------------------------------

def test_criterion_03_indifference_equalities():
    worst = 0.0
    for model in (cg.utilization(), cg.loss(2)):
        sc = MarketScenario(2.0, (1.0,), model)
        for split in ((0.5, 0.5), (0.3, 0.7)):
            for p in P_GRID_64:
                r = mono.partition_comparison(sc, p, split)
                worst = max(worst, abs(r.split_welfare - r.single_welfare),
                            abs(r.split_profit - r.single_profit))
    report(3, worst <= 1e-8, f"worst |split - single| = {worst:.2e}")


# ---------------------------------------------------------------------------
# 4. identical-pricing signs at a = 1
# ---------------------------------------------------------------------------

def _identical_vs_single(model, objective):
    sc = MarketScenario(2.0, (0.3, 0.7), model)
    curve = mono.ratio_sweep(sc, (1.0,), objective, grid=384)
    return curve.points[0].best_value, curve.baseline_single


def test_criterion_04_latency_single_beats_split():
    gaps = []
    for objective in ("welfare", "profit"):
        two, single = _identical_vs_single(cg.latency(), objective)
        gaps.append(single - two)
    ok = all(g > 1e-4 for g in gaps)
    report("4 (latency)", ok, f"single-minus-two gaps {[f'{g:.5f}' for g in gaps]}")


@pytest.mark.xfail(
    strict=True,
    reason="with failure factor 0.5 the all-fail probability rises when a class "
    "is scaled down, so the identically priced split is strictly worse than "
    "the merged class; the demanded opposite sign cannot occur",
)
def test_criterion_04_outage_split_beats_single():
    gaps = []
    for objective in ("welfare", "profit"):
        two, single = _identical_vs_single(cg.outage(0.5), objective)
        gaps.append(two - single)
    ok = all(g > 1e-4 for g in gaps)
    report("4 (outage)", ok, f"two-minus-single gaps {[f'{g:.5f}' for g in gaps]}")


# ---------------------------------------------------------------------------
# 5. differentiated pricing beats the single class where it should
# ---------------------------------------------------------------------------

A_GRID_21 = tuple(k / 20 for k in range(21))


def test_criterion_05_differentiated_profit_gains():
    details = []
    ok = True
    for model, expect_gain in ((cg.utilization(), True), (cg.loss(2), True),
                               (cg.latency(), False)):
        sc = MarketScenario(2.0, (0.3, 0.7), model)
        t0 = time.monotonic()
        curve = mono.ratio_sweep(sc, A_GRID_21, "profit", grid=384)
        elapsed = time.monotonic() - t0
        best = curve.best()
        if expect_gain:
            good = (best.ratio < 1.0
                    and best.best_value > curve.baseline_single + 1e-4)
        else:
            good = best.best_value <= curve.baseline_single + 1e-6
        ok = ok and good and elapsed < 60.0
        details.append(f"{model.kind}: best {best.best_value:.6f}@a={best.ratio:.2f} "
                       f"vs single {curve.baseline_single:.6f} in {elapsed:.1f}s")
    report("5 (utilization/loss/latency)", ok, "; ".join(details))


@pytest.mark.xfail(
    strict=True,
    reason="the outage split is strictly dominated at every ratio (scaled-down "
    "classes fail-all more often), so no ratio below one can beat the single class",
)
def test_criterion_05_outage_differentiated_gain():
    sc = MarketScenario(2.0, (0.3, 0.7), cg.outage(0.5))
    t0 = time.monotonic()
    curve = mono.ratio_sweep(sc, A_GRID_21, "profit", grid=384)
    elapsed = time.monotonic() - t0
    best = curve.best()
    ok = (best.ratio < 1.0 and best.best_value > curve.baseline_single + 1e-4
          and elapsed < 60.0)
    report("5 (outage)", ok,
           f"best {best.best_value:.6f}@a={best.ratio:.2f} vs single "
           f"{curve.baseline_single:.6f} in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 6. constructive differentiated-pricing improvement probe
# ---------------------------------------------------------------------------

def test_criterion_06_improvement_probe():
    sc = MarketScenario(2.0, (0.3, 0.7), cg.utilization())
    res = mono.local_improvement_probe(sc, 0.9, 1e-3)
    wrong = mono.local_improvement_probe(sc, 0.9, 1e-3, direction=-res.direction)
    ok = res.d_welfare > 0.0 and res.d_profit > 0.0 and wrong.d_welfare < 0.0
    report(6, ok, f"dS {res.d_welfare:.3e}, dpi {res.d_profit:.3e}, "
                  f"wrong-sign dS {wrong.d_welfare:.3e}")


# ---------------------------------------------------------------------------
# 7. classifier verdicts
# ---------------------------------------------------------------------------

def test_criterion_07_classifier_verdicts():
    checks = [
        (cg.utilization(), cg.INDIFFERENT),
        (cg.latency(), cg.MULTIPLEXING_PREFERRED),
        (cg.general_latency(0.5), cg.MULTIPLEXING_PREFERRED),
        (cg.general_latency(1.0), cg.MULTIPLEXING_PREFERRED),
        (cg.general_latency(2.0), cg.MULTIPLEXING_PREFERRED),
        (cg.loss(2), cg.INDIFFERENT),
        (cg.utilization_default(0.1), cg.PARTITION_PREFERRED),
    ]
    got = [(m.describe(), cg.classify_scaling(m).verdict) for m, _ in checks]
    verdicts_ok = all(v == want for (_d, v), (_m, want) in zip(got, checks))

    witness_profiles = ((0.05, 0.5), (0.2, 0.5))
    rep = cg.global_monotone(cg.latency(), (0.3, 0.7), profiles=witness_profiles)
    lat_ok = (
        rep.verdict == "Violated"
        and ((0.05, 0.5), "M1") in rep.witnesses
        and ((0.2, 0.5), "M2") in rep.witnesses
        and cg.global_monotone(cg.latency(), (0.3, 0.7)).verdict == "Violated"
    )
    report("7 (non-outage)", verdicts_ok and lat_ok,
           f"{got}; latency monotone Violated with both witnesses={lat_ok}")


@pytest.mark.xfail(
    strict=True,
    reason="(0.5 q / c)^c falls, not rises, when usage and capacity scale down "
    "together (smaller exponent on a base below one), so the classifier "
    "reports multiplexing-preferred",
)
def test_criterion_07_outage_partition_preferred():
    verdict = cg.classify_scaling(cg.outage(0.5)).verdict
    report("7 (outage)", verdict == cg.PARTITION_PREFERRED, f"verdict {verdict}")


# ---------------------------------------------------------------------------
# 8. price <-> cutoff bijection roundtrip
# ---------------------------------------------------------------------------

def _lcg(seed):
    while True:
        seed = (seed * 6364136223846793005 + 1442695040888963407) % 2**63
        yield (seed >> 20) / float(2**43)


ROUNDTRIP_MODELS = [
    cg.utilization(),
    cg.latency(),
    cg.general_latency(0.5),
    cg.general_latency(2.0),
    cg.loss(2),
    cg.outage(0.5),
    cg.utilization_default(0.05),
]


def test_criterion_08_bijection_roundtrip():
    rng = _lcg(20240817)
    built, attempts, worst = 0, 0, 0.0
    while built < 200 and attempts < 5000:
        attempts += 1
        model = ROUNDTRIP_MODELS[attempts % len(ROUNDTRIP_MODELS)]
        m = 1 + attempts % 3
        th = sorted(0.08 + 0.8 * next(rng) for _ in range(m))[::-1]
        if any(a - b < 0.05 for a, b in zip(th, th[1:])) or th[0] > 0.9:
            continue
        caps, bounds = [], list(th) + [0.0]
        for i in range(m):
            q = bounds[i] - bounds[i + 1]
            lo = q / 0.8 if model.kind in ("latency", "general_latency") else q * (0.4 + next(rng))
            caps.append(max(lo, model.min_usage() * 3, 0.1) + 0.3 * next(rng))
        sc = MarketScenario(2.0, tuple(caps), model)
        try:
            eq = prices_from_cutoffs(sc, th)
            if eq.prices[-1] <= 1e-6 or eq.saturated:
                continue
            back = cutoffs_from_prices(sc, eq.prices)
            again = prices_from_cutoffs(sc, back.cutoffs)
        except (OrderError, DomainError):
            continue
        worst = max(worst, *(abs(a - b) for a, b in zip(th, back.cutoffs)))
        worst = max(worst, *(abs(a - b) for a, b in zip(eq.prices, again.prices)))
        built += 1
    report(8, built == 200 and worst <= 1e-8,
           f"{built} scenarios, worst roundtrip error {worst:.2e}")


# ---------------------------------------------------------------------------
# 9. duopoly hand-solved market
# ---------------------------------------------------------------------------

def test_criterion_09_duopoly_hand_solved():
    duo = DuopolyScenario(2.0, 1.0, 1.0, cg.utilization())
    me = duop.market_equilibrium(duo, ProviderStrategy.one(1.2, 1.0),
                                 ProviderStrategy.one(1.0, 1.0))
    th2 = (1.0 + math.sqrt(2.6)) / 4.0
    ok = (
        abs(me.eq.cutoffs[1] - th2) <= 1e-5
        and abs(me.pi_i - 1.2 * (1.0 - th2)) <= 1e-5
        and abs(me.pi_ii - th2) <= 1e-5
    )
    report(9, ok, f"theta2 {me.eq.cutoffs[1]:.6f}, piI {me.pi_i:.6f}, piII {me.pi_ii:.6f}")


# ---------------------------------------------------------------------------
# 10. duopoly dominance curves
# ---------------------------------------------------------------------------

def test_criterion_10_duopoly_dominance_curves():
    t0 = time.monotonic()
    scenarios = {
        "utl-V2": DuopolyScenario(2.0, 1.0, 1.0, cg.utilization()),
        "utl_d-0.1": DuopolyScenario(2.0, 1.0, 1.0, cg.utilization_default(0.1)),
        "utl_d-0.2": DuopolyScenario(2.0, 1.0, 1.0, cg.utilization_default(0.2)),
        "utl-V3": DuopolyScenario(3.0, 2.0, 2.0, cg.utilization()),
    }
    max_gap, strict_share, provider_gap = {}, {}, {}
    ok = True
    details = []
    for name, duo in scenarios.items():
        grid = [duo.v * k / 12 for k in range(13)]
        pts = duop.duopoly_curve(duo, grid, grid=128)
        assert all(pt.error is None for pt in pts), f"errors in {name}"
        gaps = [pt.pi_ii_two - pt.pi_ii_one for pt in pts]
        ok = ok and all(g >= -1e-9 for g in gaps)
        max_gap[name] = max(gaps)
        strict_share[name] = sum(1 for g in gaps if g > 1e-9) / len(gaps)
        provider_gap[name] = max(pt.pi_ii_two - pt.pi_i for pt in pts)
        details.append(f"{name}: max2v1gap {max_gap[name]:.5f}, "
                       f"strict {strict_share[name]:.0%}")
    ok = ok and strict_share["utl_d-0.1"] >= 0.9 and strict_share["utl_d-0.2"] >= 0.9
    # more capacity and value amplify the benefit of the flexible provider:
    # the largest profit lead of provider II over provider I grows
    ok = ok and provider_gap["utl-V3"] > provider_gap["utl-V2"]
    # and the default consumption amplifies the split advantage itself
    ok = ok and max_gap["utl_d-0.2"] > max_gap["utl_d-0.1"] > max_gap["utl-V2"]
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 300.0
    report(10, ok, "; ".join(details)
           + f"; provider gaps V3 {provider_gap['utl-V3']:.3f} vs V2 "
             f"{provider_gap['utl-V2']:.3f}; elapsed {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 11. Nash verification discipline
# ---------------------------------------------------------------------------

def test_criterion_11_nash_verification(monkeypatch):
    duo = DuopolyScenario(2.0, 1.0, 1.0, cg.utilization())
    res = duop.find_nash(duo, mode="one")
    converged_verified = res.verified

    degenerate = DuopolyScenario(2.0, 1.0, 0.0, cg.utilization())
    res0 = duop.find_nash(degenerate, mode="one")

    monkeypatch.setattr(duop, "NASH_MAX_ROUNDS", 1)
    try:
        duop.find_nash(duo, mode="one")
        reported = False
    except NoConvergenceError as exc:
        reported = bool(exc.trajectory)
    ok = converged_verified and res0.verified and reported
    report(11, ok, f"verified={converged_verified}, degenerate verified={res0.verified}, "
                   f"non-convergence carries trajectory={reported}")
