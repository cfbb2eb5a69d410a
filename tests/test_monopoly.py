import math

import pytest

from pmplab import congestion as cg
from pmplab import monopoly as mono
from pmplab.equilibrium import (
    MarketScenario, identical_price_equilibrium, provider_profit, social_welfare,
)
from pmplab.errors import ConvergenceError, DomainError, PmplabError, PreconditionError
from pmplab.population import tabulated


def market(model, caps, v=2.0):
    return MarketScenario(v, caps, model)


# ---------------------------------------------------------------------------
# single-price maximization
# ---------------------------------------------------------------------------

def test_profit_maximum_closed_form():
    p, v = mono.maximize_single_price(market(cg.utilization(), (1.0,)), "profit")
    assert p == pytest.approx(4.0 / 3.0, abs=1e-4)
    assert v == pytest.approx(4.0 * math.sqrt(6.0) / 9.0, abs=1e-7)


def test_welfare_plateau_edge():
    p, v = mono.maximize_single_price(market(cg.utilization(), (1.0,)), "welfare")
    assert v == pytest.approx(1.5, abs=1e-9)
    assert p == pytest.approx(1.0, abs=1e-6)   # largest maximizing price


def test_latency_profit_lower_bound():
    _p, v = mono.maximize_single_price(market(cg.latency(), (1.0,)), "profit")
    assert v >= 0.5 - 1e-9
    assert v == pytest.approx(2.0 * (2.0 - math.sqrt(3.0)), abs=1e-6)


def test_single_price_requires_one_class():
    with pytest.raises(PreconditionError):
        mono.maximize_single_price(market(cg.utilization(), (0.5, 0.5)))


# ---------------------------------------------------------------------------
# ratio sweep
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def utl_sweep():
    sc = market(cg.utilization(), (0.3, 0.7))
    return mono.ratio_sweep(sc, (0.5, 0.9, 1.0), "profit", grid=256)


def test_sweep_identical_ratio_matches_single(utl_sweep):
    at_one = [pt for pt in utl_sweep.points if pt.ratio == 1.0][0]
    assert at_one.best_value == pytest.approx(utl_sweep.baseline_single, abs=1e-6)


def test_sweep_finds_differentiated_gain(utl_sweep):
    best = utl_sweep.best()
    assert best.ratio < 1.0
    assert best.best_value > utl_sweep.baseline_single + 1e-4


def test_latency_sweep_never_beats_single():
    sc = market(cg.latency(), (0.3, 0.7))
    curve = mono.ratio_sweep(sc, (0.5, 0.9, 1.0), "profit", grid=256)
    assert curve.best().best_value <= curve.baseline_single + 1e-6


def test_sweep_validates_inputs():
    sc = market(cg.utilization(), (0.3, 0.7))
    with pytest.raises(PreconditionError):
        mono.ratio_sweep(sc, (), "profit")
    with pytest.raises(DomainError):
        mono.ratio_sweep(sc, (1.5,), "profit")
    with pytest.raises(DomainError):
        mono.ratio_sweep(sc, (0.5, math.nan), "profit")


# ---------------------------------------------------------------------------
# free-price maximization
# ---------------------------------------------------------------------------

def test_free_prices_beat_identical_pricing():
    sc = market(cg.utilization(), (0.3, 0.7))
    for objective, floor in (("profit", 1.0886621), ("welfare", 1.5)):
        prices, value, cutoffs = mono.maximize_free_prices(sc, objective)
        assert value > floor + 1e-4
        assert prices[0] >= prices[1] - 1e-9
        assert cutoffs[0] > cutoffs[1]


def test_free_prices_dominate_sweep(utl_sweep):
    sc = market(cg.utilization(), (0.3, 0.7))
    _prices, value, _th = mono.maximize_free_prices(sc, "profit")
    for pt in utl_sweep.points:
        assert value >= pt.best_value - 1e-9


def test_free_prices_vanishing_class():
    sc = market(cg.utilization(), (1.0, 1e-7))
    _prices, value, _th = mono.maximize_free_prices(sc, "profit")
    assert value == pytest.approx(4.0 * math.sqrt(6.0) / 9.0, abs=1e-4)


def test_free_prices_fall_back_to_identical_pricing_when_no_start_is_priced():
    # identical pricing leaves the premium class empty, and
    # prices_from_cutoffs prices an empty class below the next one; the
    # spread starts cannot be priced either
    sc = MarketScenario(2.0, (0.2, 0.3, 0.5), cg.general_latency(0.5))
    for objective, price, best in (("profit", 1.1529, 0.28725), ("welfare", 0.5132, 0.45540)):
        prices, value, cutoffs = mono.maximize_free_prices(sc, objective)
        assert prices == (prices[0],) * 3
        assert prices[0] == pytest.approx(price, abs=1e-4)
        assert value == pytest.approx(best, abs=1e-5)
        eq = identical_price_equilibrium(sc, prices[0])
        assert cutoffs == eq.cutoffs
        of = (lambda e: provider_profit(e)) if objective == "profit" else (
            lambda e: social_welfare(sc, e))
        assert value == of(eq)
        # never worse than identical pricing, where the optimizer can
        # evaluate it (an empty class in a tie group can still fail the
        # welfare integral by an ulp, and counts as infeasible)
        for k in range(201):
            try:
                other = of(identical_price_equilibrium(sc, k / 100))
            except PmplabError:
                continue
            assert other <= value + 1e-9


# ---------------------------------------------------------------------------
# partition comparison
# ---------------------------------------------------------------------------

def test_partition_latency_closed_forms():
    sc = market(cg.latency(), (1.0,))
    pc = mono.partition_comparison(sc, 1.0, (0.5, 0.5))
    assert pc.single_welfare == pytest.approx(0.75, abs=1e-8)
    assert pc.single_profit == pytest.approx(0.5, abs=1e-8)
    assert pc.split_welfare == pytest.approx(0.5, abs=1e-8)
    assert pc.split_profit == pytest.approx(1.0 / 3.0, abs=1e-8)


def test_partition_utilization_indifferent():
    sc = market(cg.utilization(), (1.0,))
    pc = mono.partition_comparison(sc, 1.0, (0.5, 0.5))
    assert pc.split_welfare == pytest.approx(pc.single_welfare, abs=1e-8)
    assert pc.split_profit == pytest.approx(pc.single_profit, abs=1e-8)


def test_partition_degenerate_split_is_single():
    sc = market(cg.utilization(), (1.0,))
    pc = mono.partition_comparison(sc, 0.8, (1.0, 0.0))
    assert pc.split_welfare == pc.single_welfare
    assert pc.split_profit == pc.single_profit


def test_partition_split_mismatch():
    sc = market(cg.utilization(), (1.0,))
    with pytest.raises(DomainError):
        mono.partition_comparison(sc, 1.0, (0.5, 0.4))


@pytest.mark.parametrize("split", [(math.nan, 0.5), (1.5, -0.5)])
def test_partition_rejects_a_nan_or_negative_part(split):
    # both once came back as the single class
    sc = market(cg.utilization(), (1.0,))
    with pytest.raises(DomainError, match="nonnegative and finite"):
        mono.partition_comparison(sc, 1.0, split)


@pytest.mark.parametrize("model,direction", [
    (cg.latency(), -1),                 # splitting hurts
    (cg.general_latency(2.0), -1),
    (cg.utilization_default(0.1), +1),  # splitting helps
])
def test_partition_direction_matches_scaling_class(model, direction):
    sc = MarketScenario(2.0, (1.0,), model)
    for k in range(8):
        p = 2.0 * (k + 0.5) / 8
        pc = mono.partition_comparison(sc, p, (0.5, 0.5))
        assert direction * (pc.split_welfare - pc.single_welfare) >= -1e-9
        assert direction * (pc.split_profit - pc.single_profit) >= -1e-9


def test_three_way_latency_partition_never_helps():
    sc = market(cg.latency(), (1.0,))
    for k in range(8):
        p = 2.0 * (k + 0.5) / 8
        pc = mono.partition_comparison(sc, p, (1 / 3, 1 / 3, 1 / 3))
        assert pc.split_welfare <= pc.single_welfare + 1e-9
        assert pc.split_profit <= pc.single_profit + 1e-9


# ---------------------------------------------------------------------------
# improvement probe
# ---------------------------------------------------------------------------

def test_probe_improves_both_objectives():
    sc = market(cg.utilization(), (0.3, 0.7))
    res = mono.local_improvement_probe(sc, 0.9, 1e-3)
    assert res.case == "M2"
    assert res.d_welfare > 0.0
    assert res.d_profit > 0.0
    assert res.d_welfare == pytest.approx(4.9666e-4, rel=1e-3)
    assert res.d_profit == pytest.approx(9.9333e-4, rel=1e-3)


def test_probe_wrong_direction_hurts_welfare():
    sc = market(cg.utilization(), (0.3, 0.7))
    auto = mono.local_improvement_probe(sc, 0.9, 1e-3)
    wrong = mono.local_improvement_probe(sc, 0.9, 1e-3, direction=-auto.direction)
    assert wrong.d_welfare < 0.0


def test_probe_zero_delta():
    sc = market(cg.utilization(), (0.3, 0.7))
    res = mono.local_improvement_probe(sc, 0.9, 0.0)
    assert res.d_welfare == 0.0 and res.d_profit == 0.0


@pytest.mark.parametrize("price, delta", [(math.nan, 1e-3), (0.9, math.nan), (0.9, math.inf)])
def test_probe_rejects_non_finite_inputs(price, delta):
    # an infinite delta used to halve forever
    sc = market(cg.utilization(), (0.3, 0.7))
    with pytest.raises(DomainError, match="finite"):
        mono.local_improvement_probe(sc, price, delta)


def test_probe_interior_price_too():
    # unsaturated identical pricing: the same contract must hold
    sc = market(cg.utilization(), (0.3, 0.7))
    res = mono.local_improvement_probe(sc, 1.2, 1e-3)
    assert res.d_welfare > 0.0 and res.d_profit > 0.0


def test_probe_rejects_empty_market():
    sc = market(cg.utilization(), (0.3, 0.7))
    with pytest.raises(PreconditionError):
        mono.local_improvement_probe(sc, 2.0, 1e-3)


def test_probe_loss_model():
    sc = market(cg.loss(2), (0.3, 0.7))
    res = mono.local_improvement_probe(sc, 1.2, 1e-3)
    assert res.d_welfare > 0.0 and res.d_profit > 0.0


# ---------------------------------------------------------------------------
# theorem-style grid properties
# ---------------------------------------------------------------------------

GRID_64 = [2.0 * k / 63 for k in range(64)]


def test_multiplexing_preferred_inequalities_on_grid():
    sc = market(cg.latency(), (1.0,))
    for p in GRID_64:
        pc = mono.partition_comparison(sc, p, (0.5, 0.5))
        assert pc.split_welfare <= pc.single_welfare + 1e-9
        assert pc.split_profit <= pc.single_profit + 1e-9


def test_indifferent_equalities_on_grid():
    for model in (cg.utilization(), cg.loss(2)):
        sc = MarketScenario(2.0, (1.0,), model)
        for split in ((0.5, 0.5), (0.3, 0.7)):
            for p in GRID_64[::4]:
                pc = mono.partition_comparison(sc, p, split)
                assert abs(pc.split_welfare - pc.single_welfare) <= 1e-8
                assert abs(pc.split_profit - pc.single_profit) <= 1e-8


def test_partition_preferred_inequalities_on_grid():
    sc = market(cg.utilization_default(0.05), (1.0,))
    for p in GRID_64[::4]:
        pc = mono.partition_comparison(sc, p, (0.5, 0.5))
        assert pc.split_welfare >= pc.single_welfare - 1e-9
        assert pc.split_profit >= pc.single_profit - 1e-9


# ---------------------------------------------------------------------------
# viability report
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("model,verdict", [
    (cg.utilization(), "PMP-viable"),
    (cg.loss(2), "PMP-viable"),
    (cg.latency(), "PMP-nonviable"),
])
def test_viability_verdicts(model, verdict):
    sc = MarketScenario(2.0, (1.0,), model)
    rep = mono.viability_report(sc, splits=((0.3, 0.7),), a_grid=(0.5, 0.9, 1.0))
    assert rep.verdict == verdict


# ---------------------------------------------------------------------------
# exact bits, search grids and the per-search solve memo
# ---------------------------------------------------------------------------

TAB = tabulated([(0.0, 0.0), (0.4, 0.7), (1.0, 1.0)])


def _curve(curve):
    return ([(pt.ratio, pt.best_value, pt.argmax_p1, pt.skipped) for pt in curve.points]
            + [(curve.baseline_single, curve.baseline_argmax)])


_CALLS = {
    "free_2_uniform": lambda: mono.maximize_free_prices(
        market(cg.utilization(), (0.3, 0.7)), "profit"),
    "free_2_tabulated": lambda: mono.maximize_free_prices(
        MarketScenario(2.0, (0.3, 0.7), cg.latency(), TAB), "welfare"),
    "free_3_uniform": lambda: mono.maximize_free_prices(
        market(cg.utilization(), (0.2, 0.3, 0.5)), "profit"),
    "free_3_tabulated": lambda: mono.maximize_free_prices(
        MarketScenario(2.0, (0.2, 0.3, 0.5), cg.utilization_default(0.05), TAB), "profit"),
    "sweep_uniform": lambda: _curve(mono.ratio_sweep(
        market(cg.general_latency(1.0), (0.3, 0.7)), (0.5, 1.0), "profit", grid=32)),
    "sweep_tabulated": lambda: _curve(mono.ratio_sweep(
        MarketScenario(2.0, (0.3, 0.7), cg.latency(), TAB), (0.5, 0.9), "welfare", grid=32)),
    "single_profit": lambda: mono.maximize_single_price(
        MarketScenario(2.0, (1.0,), cg.outage(0.5), TAB), "profit", grid=64),
    "single_welfare": lambda: mono.maximize_single_price(
        market(cg.utilization(), (1.0,)), "welfare", grid=64),
}

# float.hex of each result (skip counts as ints) as found with every point
# solved afresh by its own hand-written search: sharing the searches and the
# solve memo must not move a bit
_BITS = {
    'free_2_tabulated': (
        ('0x1.6fde583e95e98p-1', '0x1.6fde583e95e90p-1'),
        '0x1.6fde0e9b9592bp-1',
        ('0x1.354db9fe5a0d6p-2', '0x1.0fae2d7434573p-2'),
    ),
    'free_2_uniform': (
        ('0x1.782ef1763e8c0p+0', '0x1.4ae925bfe4533p+0'),
        '0x1.1bcf4179a6d5fp+0',
        ('0x1.a9b6e811229bdp-1', '0x1.47b53171891f2p-1'),
    ),
    'free_3_tabulated': (
        ('0x1.c663f094dc554p+0', '0x1.aa75abb0fbd27p+0', '0x1.7140601ab8dfap+0'),
        '0x1.60a7adae44220p+0',
        ('0x1.9ad9896da7257p-1', '0x1.2e37236a81354p-1', '0x1.6254fdd70fddap-2'),
    ),
    'free_3_uniform': (
        ('0x1.7b217923caac4p+0', '0x1.6d04a9bd05e8bp+0', '0x1.4285316c387a0p+0'),
        '0x1.1f26172549f95p+0',
        ('0x1.aeb7969893e4fp-1', '0x1.6f8a27989c7bep-1', '0x1.04fa50db3d1abp-1'),
    ),
    'single_profit': (
        '0x1.8000100000000p+0',
        '0x1.8000000000000p+0',
    ),
    'single_welfare': (
        '0x1.0000000000000p+0',
        '0x1.8000000000000p+0',
    ),
    'sweep_tabulated': (
        ('0x1.0000000000000p-1', '0x1.58011293a7beep-1', '0x1.2a98391d44380p-1', 0),
        ('0x1.ccccccccccccdp-1', '0x1.6c5d28fc28776p-1', '0x1.7366fd0d54a24p-1', 0),
        ('0x1.e90df15b89be2p-1', '0x1.e90e2d8bc14f5p-1'),
    ),
    'sweep_uniform': (
        ('0x1.0000000000000p-1', '0x1.6666666666666p-2', '0x1.0000000000000p+1', 0),
        ('0x1.0000000000000p+0', '0x1.8021c8477ec3bp-2', '0x1.44986a8042118p+0', 0),
        ('0x1.126145e9ecd56p-1', '0x1.4498661bd3fb3p+0'),
    ),
}


def _hex(value):
    if isinstance(value, (tuple, list)):
        return tuple(_hex(x) for x in value)
    return value if isinstance(value, int) else float.hex(float(value))


@pytest.mark.parametrize("name", sorted(_CALLS))
def test_optimizers_keep_exact_bits(name):
    assert _hex(_CALLS[name]()) == _BITS[name]


@pytest.mark.parametrize("name", ["free_2_tabulated", "free_3_uniform", "sweep_uniform",
                                  "single_profit"])
def test_each_search_solves_each_point_once(name, monkeypatch):
    solved = []
    for fn_name in ("cutoffs_from_prices", "identical_price_equilibrium",
                    "prices_from_cutoffs"):
        def counting(scenario, point, *rest, _fn=getattr(mono, fn_name), _name=fn_name):
            key = tuple(point) if isinstance(point, (tuple, list)) else point
            solved.append((_name, scenario.capacities, key))
            return _fn(scenario, point, *rest)
        monkeypatch.setattr(mono, fn_name, counting)
    if name.startswith("sweep"):
        # one ratio: p1 = 0 is the same market at every ratio
        mono.ratio_sweep(market(cg.general_latency(1.0), (0.3, 0.7)), (0.5,), "profit", grid=32)
    else:
        _CALLS[name]()
    assert solved and len(set(solved)) == len(solved)


@pytest.mark.parametrize("grid", [0, -3])
def test_a_search_grid_without_intervals_is_a_domain_error(grid):
    with pytest.raises(DomainError, match="at least one interval"):
        mono.maximize_single_price(market(cg.utilization(), (1.0,)), grid=grid)
    with pytest.raises(DomainError, match="at least one interval"):
        mono.ratio_sweep(market(cg.utilization(), (0.3, 0.7)), (0.5,), grid=grid)
