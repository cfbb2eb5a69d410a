import copy
import math
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from pmplab import congestion as cg
from pmplab.errors import DomainError

ALL_MODELS = [
    cg.utilization(),
    cg.latency(),
    cg.general_latency(0.5),
    cg.general_latency(2.0),
    cg.loss(2),
    cg.loss(5),
    cg.outage(0.5),
    cg.utilization_default(0.1),
]


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def test_table_values():
    assert cg.utilization().evaluate(0.4, 1.0) == pytest.approx(0.4, abs=1e-15)
    assert cg.utilization().evaluate(0.0, 3.7) == 0.0
    assert cg.latency().evaluate(0.5, 1.0) == pytest.approx(2.0, abs=1e-15)
    assert cg.loss(2).evaluate(0.5, 1.0) == pytest.approx(1.0 / 7.0, abs=1e-12)
    assert cg.outage(0.5).evaluate(0.5, 2.0) == pytest.approx(0.015625, abs=1e-15)
    assert cg.general_latency(1.0).evaluate(0.3, 1.0) == pytest.approx(1.0 / 0.7, abs=1e-12)


def test_utilization_default_level():
    m = cg.utilization_default(0.1)
    assert m.evaluate(0.1, 0.5) == 0.0          # inactive class at minimum usage
    assert m.evaluate(0.6, 0.5) == pytest.approx(1.0, abs=1e-15)


def test_domain_errors():
    with pytest.raises(DomainError):
        cg.utilization().evaluate(-0.1, 1.0)
    with pytest.raises(DomainError):
        cg.utilization().evaluate(0.5, 0.0)
    with pytest.raises(DomainError):
        cg.latency().evaluate(1.0, 1.0)          # saturation
    with pytest.raises(DomainError):
        cg.general_latency(1.0).evaluate(2.0, 2.0)
    with pytest.raises(DomainError):
        cg.utilization_default(0.2).evaluate(0.1, 1.0)


def test_parameter_validation():
    with pytest.raises(DomainError):
        cg.loss(0)
    with pytest.raises(DomainError):
        cg.outage(1.5)
    with pytest.raises(DomainError):
        cg.utilization_default(-0.1)


# a parameter value each kind accepts; None for the kinds that take none
_ACCEPTED_PARAM = {"utilization": None, "latency": None, "general_latency": 0.5,
                   "loss": 2, "outage": 0.5, "utilization_default": 0.1}


@pytest.mark.parametrize("kind", sorted(_ACCEPTED_PARAM))
def test_a_model_takes_exactly_the_parameter_its_kind_has(kind):
    value = _ACCEPTED_PARAM[kind]
    if value is None:
        assert cg.CongestionModel(kind).param is None
        for stray in (0.5, 7, 0.0):
            with pytest.raises(DomainError, match="takes no parameter"):
                cg.CongestionModel(kind, stray)
    else:
        assert cg.CongestionModel(kind, value).param == value
        with pytest.raises(DomainError, match="needs parameter"):
            cg.CongestionModel(kind)
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError, match="must be finite"):
                cg.CongestionModel(kind, bad)


def test_a_parameter_the_kind_does_not_use_is_not_silently_dropped():
    for kind, param in (("latency", 0.5), ("utilization", 7)):
        with pytest.raises(DomainError):
            cg.CongestionModel(kind, param)
    with pytest.raises(DomainError):
        cg.CongestionModel("outage")   # used to build outage with eps = 1


def test_an_integral_float_kappa_builds_the_integer_loss_model():
    m = cg.CongestionModel("loss", 2.0)
    assert m == cg.loss(2) and type(m.param) is int
    assert m.evaluate(0.5, 1.0) == cg.loss(2).evaluate(0.5, 1.0)
    assert m.describe() == "loss(kappa=2)"


def test_loss_continuous_at_full_load():
    m = cg.loss(2)
    assert abs(m.evaluate(1.0, 1.0) - 1.0 / 3.0) <= 1e-9
    # approaching from below stays continuous
    assert m.evaluate(1.0 - 1e-9, 1.0) == pytest.approx(1.0 / 3.0, abs=1e-8)
    m5 = cg.loss(5)
    assert abs(m5.evaluate(2.0, 2.0) - 1.0 / 6.0) <= 1e-9


def test_general_latency_collapses_to_latency():
    g = cg.general_latency(1.0)
    l = cg.latency()
    for q in (0.05, 0.3, 0.6, 0.89):
        assert abs(g.evaluate(q, 0.9) - l.evaluate(q, 0.9)) <= 1e-12


@pytest.mark.parametrize("model", ALL_MODELS)
def test_monotone_in_usage_and_capacity(model):
    lo = model.min_usage()
    c = 1.0
    qs = [lo + (0.95 * c - lo) * k / 12 for k in range(13)]
    vals = [model.evaluate(q, c) for q in qs]
    for a, b in zip(vals, vals[1:]):
        assert b > a - 1e-15
    # capacity relief: more capacity, less congestion (weak at the floor)
    q = max(0.4, lo + 0.05)
    assert model.evaluate(q, 1.0) >= model.evaluate(q, 1.3) - 1e-15


# ---------------------------------------------------------------------------
# marginals
# ---------------------------------------------------------------------------

def test_marginal_closed_forms():
    assert cg.utilization().marginal(0.123, 0.5) == pytest.approx(2.0, abs=1e-15)
    assert cg.utilization_default(0.05).marginal(0.3, 0.5) == pytest.approx(2.0, abs=1e-15)
    assert cg.latency().marginal(0.2, 0.3) == pytest.approx(100.0, rel=1e-9)


def test_marginal_loss_matches_symbolic():
    # d/drho of rho^2 (1-rho) / (1-rho^3) at rho=0.5 equals (2 rho + rho^2)/(1+rho+rho^2)^2
    exact = (2 * 0.5 + 0.25) / (1 + 0.5 + 0.25) ** 2
    assert cg.loss(2).marginal(0.5, 1.0) == pytest.approx(exact, rel=1e-5)


def test_marginal_is_the_analytic_slope_up_to_the_domain_edges():
    for model in ALL_MODELS:
        lo = model.min_usage()
        saturates = model.kind in ("latency", "general_latency")
        for c in (0.5, 1.0, 2.0):
            inside = [lo, lo + 1e-9, 0.5 * (lo + c), c - 1e-9] + ([] if saturates else [c])
            for q in inside:
                assert float.hex(model.marginal(q, c)) == float.hex(model._slope(q, c))
            outside = [(lo - 1e-9, c), (0.5 * c, 0.0)] + ([(c, c)] if saturates else [])
            for q, cap in outside:
                with pytest.raises(DomainError):
                    model.marginal(q, cap)


@pytest.mark.parametrize("model", ALL_MODELS)
def test_internal_slope_matches_finite_differences(model):
    # deterministic pseudo-random interior points
    seed = 12345
    lo = model.min_usage()
    for k in range(100):
        seed = (seed * 6364136223846793005 + 1442695040888963407) % 2**63
        u = (seed >> 20) / float(2**43)
        c = 0.3 + 1.5 * ((seed >> 5) % 1000) / 1000.0
        q = lo + (0.9 * c - lo) * (0.05 + 0.9 * u)
        if q <= lo + 2e-6:
            continue
        h = 1e-7 * max(c, 1.0)
        fd = (model._value(q + h, c) - model._value(q - h, c)) / (2 * h)
        assert model._slope(q, c) == pytest.approx(fd, rel=2e-5, abs=1e-9)


# ---------------------------------------------------------------------------
# inversion
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("model", ALL_MODELS)
def test_usage_at_level_roundtrip(model):
    c = 0.8
    lo = model.min_usage()
    for frac in (0.1, 0.35, 0.6, 0.9):
        q = lo + (0.93 * c - lo) * frac
        lev = model.evaluate(q, c)
        assert model.usage_at_level(lev, c) == pytest.approx(q, rel=1e-9, abs=1e-9)


def test_usage_at_level_floor():
    assert cg.latency().usage_at_level(0.5, 1.0) == 0.0   # below the empty-queue level
    assert cg.utilization_default(0.2).usage_at_level(0.0, 1.0) == pytest.approx(0.2)


# float.hex of a tie group's level at q = frac * sum(caps), frac in
# _TIE_FRACS (past capacity, 1.1, for the latency kinds only), and of loss's
# inverse at _LOSS_LEVELS, as the fixed-count bisections returned them before
# they stopped early
_TIE_MODELS = {
    "latency": cg.latency(), "general_latency(0.6)": cg.general_latency(0.6),
    "outage(0.6)": cg.outage(0.6), "outage(1.0)": cg.outage(1.0),
}
_TIE_FRACS = (0.0, 1e-9, 0.5, 1 - 1e-5, 1 - 1e-7, 1.1)
_TIE_LEVEL_BITS = {
    ('latency', (0.7, 1.3)): (
        '0x1.89d89d89d89d8p-1', '0x1.89d89d9403028p-1', '0x1.0000000000000p+1',
        '0x1.86a0000007a2ap+16', '0x1.312d0002b1e7cp+23', '0x1.176592e000001p+40',
    ),
    ('latency', (1e-07, 0.5)): (
        '0x1.0000000000000p+1', '0x1.000000044b830p+1', '0x1.0000035afe5e8p+2',
        '0x1.8e98cba5f66f8p+17', '0x1.312cfbf30cac2p+25', '0x1.e8f1c15620002p+39',
    ),
    ('latency', (0.4, 0.9, 1.5)): (
        '0x1.5555555555555p-1', '0x1.5555556005e54p-1', '0x1.ffffffffffffep+0',
        '0x1.a286db6da6cdep+16', '0x1.46f95b6d56ca8p+23', '0x1.2a05f20000001p+40',
    ),
    ('general_latency(0.6)', (0.7, 1.3)): (
        '0x1.89d89d89d89d8p-1', '0x1.89d89d91fa87ep-1', '0x1.d28ee16d37cbep+0',
        '0x1.3880384385662p+16', '0x1.e84800e4e2d30p+22', '0x1.176592e000001p+40',
    ),
    ('general_latency(0.6)', (1e-07, 0.5)): (
        '0x1.0000000000000p+1', '0x1.000000036f9c0p+1', '0x1.ccccd22b30974p+1',
        '0x1.3ee0d61e63bb2p+17', '0x1.f8042d4620bc0p+24', '0x1.e8f1c15620002p+39',
    ),
    ('general_latency(0.6)', (0.4, 0.9, 1.5)): (
        '0x1.5555555555555p-1', '0x1.5555555de2954p-1', '0x1.c76d4a6ecb082p+0',
        '0x1.4ed29226733c6p+16', '0x1.059449b7c10bap+23', '0x1.2a05f20000001p+40',
    ),
    ('outage(0.6)', (0.7, 1.3)): (
        '0x0.0p+0', '0x1.fa1d645e9c260p-40', '0x1.1db7fc6378beep-2',
        '0x1.2f36113ec5130p-1', '0x1.2f36e010c598ap-1',
    ),
    ('outage(0.6)', (1e-07, 0.5)): (
        '0x0.0p+0', '0x1.9af4cb3c7fb76p-16', '0x1.186f192605bc6p-1',
        '0x1.8c976fe894270p-1', '0x1.8c97f090a6ed8p-1',
    ),
    ('outage(0.6)', (0.4, 0.9, 1.5)): (
        '0x0.0p+0', '0x1.519c6004c011ep-45', '0x1.0fb8f209a8586p-2',
        '0x1.3175007e5799ep-1', '0x1.3175d7b995c34p-1',
    ),
    ('outage(1.0)', (0.7, 1.3)): (
        '0x0.0p+0', '0x1.eb9ca83c5dc66p-39', '0x1.f3d09ea7bc0c2p-2',
        '0x1.fffeb0749c920p-1', '0x1.fffffca501ac6p-1',
    ),
    ('outage(1.0)', (1e-07, 0.5)): (
        '0x0.0p+0', '0x1.09456706cb29ap-15', '0x1.6a09e8c75a27cp-1',
        '0x1.ffff5b9535730p-1', '0x1.ffffff1b4b4cap-1',
    ),
    ('outage(1.0)', (0.4, 0.9, 1.5)): (
        '0x0.0p+0', '0x1.6b3617251707ep-44', '0x1.f2f6a081b72acp-2',
        '0x1.fffec6d31e272p-1', '0x1.fffffcde45d34p-1',
    ),
}
_LOSS_LEVELS = (1e-9, 0.1, 0.5, 0.9, 0.999)
_LOSS_USAGE_BITS = {
    (1, 0.3): (
        '0x1.49da7e3ba59aap-32', '0x1.1111111111111p-5', '0x1.3333333333333p-2',
        '0x1.5999999999997p+1', '0x1.2bb3333333209p+8',
    ),
    (1, 2.0): (
        '0x1.12e0be870a00ep-29', '0x1.c71c71c71c71cp-3', '0x1.0000000000000p+1',
        '0x1.1fffffffffffep+4', '0x1.f37fffffffe10p+10',
    ),
    (4, 0.3): (
        '0x1.bade36a25dd94p-10', '0x1.c64e1d2eff905p-3', '0x1.2812d22b6d698p-1',
        '0x1.7ff726428eb3dp+1', '0x1.2bfffffffea36p+8',
    ),
    (4, 2.0): (
        '0x1.710e82dca38a6p-7', '0x1.7a966da72a4dap+0', '0x1.ed74b39db65a8p+1',
        '0x1.3ff89fe22195ep+4', '0x1.f3fffffffdbb0p+10',
    ),
}


@pytest.mark.parametrize("name, caps", list(_TIE_LEVEL_BITS))
def test_tie_level_bits(name, caps):
    model = _TIE_MODELS[name]
    level = model._tie_level(caps)
    fracs = [f for f in _TIE_FRACS if f <= 1.0 or model._saturates]
    got = tuple(float.hex(level(f * sum(caps))) for f in fracs)
    assert got == _TIE_LEVEL_BITS[name, caps]


@pytest.mark.parametrize("kappa, c", list(_LOSS_USAGE_BITS))
def test_loss_usage_at_level_bits(kappa, c):
    model = cg.loss(kappa)
    got = tuple(float.hex(model.usage_at_level(lev, c)) for lev in _LOSS_LEVELS)
    assert got == _LOSS_USAGE_BITS[kappa, c]


@pytest.mark.parametrize("model", [cg.latency(), cg.general_latency(0.6), cg.outage(0.6)])
def test_usage_at_a_nan_level_is_nan(model):
    assert math.isnan(model.usage_at_level(math.nan, 0.8))
    assert math.isnan(model._usage((0.5, 0.8))(math.nan))


def _ref_loss_usage(model, level, c):
    """Loss's inverse as a plain 80-step bisection over ``_value``, with no
    early stop, which ``usage_at_level`` must reproduce bit for bit."""
    lo, hi = 0.0, 1.0
    while model._value(hi * c, c) < level:
        hi *= 2.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if model._value(mid * c, c) < level:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi) * c


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 5).map(cg.loss),
    st.floats(1e-6, 3.0),
    st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
)
def test_loss_inverse_matches_bisection_reference(model, c, level):
    assert float.hex(model.usage_at_level(level, c)) == float.hex(_ref_loss_usage(model, level, c))


# ---------------------------------------------------------------------------
# scaling classifier
# ---------------------------------------------------------------------------

def test_classify_verdicts():
    assert cg.classify_scaling(cg.utilization()).verdict == cg.INDIFFERENT
    assert cg.classify_scaling(cg.loss(2)).verdict == cg.INDIFFERENT
    assert cg.classify_scaling(cg.latency()).verdict == cg.MULTIPLEXING_PREFERRED
    for d2 in (0.5, 1.0, 2.0):
        assert cg.classify_scaling(cg.general_latency(d2)).verdict == cg.MULTIPLEXING_PREFERRED
    assert cg.classify_scaling(cg.utilization_default(0.1)).verdict == cg.PARTITION_PREFERRED


def test_classify_utilization_gap_is_numerically_zero():
    res = cg.classify_scaling(cg.utilization())
    assert abs(res.max_gap) <= 1e-14 and abs(res.min_gap) <= 1e-14


def test_classify_witnesses_present():
    res = cg.classify_scaling(cg.latency())
    q, c, a = res.witness_up
    assert cg.latency().evaluate(a * q, a * c) > cg.latency().evaluate(q, c)


def test_classify_mixed_detection():
    # no family on the fixed grids is Mixed; the check is that a one-sided
    # verdict carries no witness in the other direction: scaling latency
    # down never lowers its level
    res = cg.classify_scaling(cg.latency())
    assert res.verdict == cg.MULTIPLEXING_PREFERRED
    assert res.witness_down is None


# ---------------------------------------------------------------------------
# monotone preference
# ---------------------------------------------------------------------------

def test_monotone_case_latency_profiles():
    m = cg.latency()
    assert cg.monotone_case(m, (0.3, 0.7), (0.2, 0.5)) == "M2"
    assert cg.monotone_case(m, (0.3, 0.7), (0.05, 0.5)) == "M1"


def test_monotone_case_equal_usage_is_both():
    for model in (cg.utilization(), cg.latency(), cg.loss(2)):
        assert cg.monotone_case(model, (0.3, 0.7), (0.25, 0.25)) == "Both"


def test_monotone_case_utilization_depends_on_order():
    m = cg.utilization()
    # larger usage on the larger capacity: slopes 1/C flip against usage
    assert cg.monotone_case(m, (0.3, 0.7), (0.1, 0.5)) == "M2"
    assert cg.monotone_case(m, (0.3, 0.7), (0.25, 0.1)) == "M1"


def test_global_monotone_latency_violated():
    rep = cg.global_monotone(cg.latency(), (0.3, 0.7))
    assert rep.verdict == "Violated"
    assert len(rep.witnesses) == 2
    cases = {case for _prof, case in rep.witnesses}
    assert cases == {"M1", "M2"}


def test_global_monotone_latency_has_canonical_witnesses():
    rep = cg.global_monotone(cg.latency(), (0.3, 0.7), profiles=[(0.05, 0.5), (0.2, 0.5)])
    assert rep.verdict == "Violated"
    assert ((0.05, 0.5), "M1") in rep.witnesses
    assert ((0.2, 0.5), "M2") in rep.witnesses


def test_global_monotone_utilization_restricted_consistent():
    m = cg.utilization()
    caps = (0.3, 0.7)
    profiles = cg.c2_profile_filter(m, caps)
    assert profiles, "restricted sampler must keep some profiles"
    assert cg.global_monotone(m, caps, profiles).verdict == "ConsistentM2"


def test_global_monotone_utilization_unrestricted_violated():
    assert cg.global_monotone(cg.utilization(), (0.3, 0.7)).verdict == "Violated"


def test_global_monotone_outage_equal_caps_deterministic():
    r1 = cg.global_monotone(cg.outage(0.5), (0.5, 0.5))
    r2 = cg.global_monotone(cg.outage(0.5), (0.5, 0.5))
    assert r1.verdict == r2.verdict
    assert r1.verdict in ("ConsistentM1", "ConsistentM2")


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(
    q=st.floats(0.01, 0.9),
    c=st.floats(0.25, 2.0),
    a=st.floats(0.1, 0.95),
)
def test_general_latency_scaling_identity(q, c, a):
    # scaling usage and capacity by a multiplies the level by exactly 1/a
    m = cg.general_latency(0.7)
    usage = q * c
    assert m.evaluate(a * usage, a * c) == pytest.approx(m.evaluate(usage, c) / a, rel=1e-10)


@settings(max_examples=60, deadline=None)
@given(q=st.floats(0.01, 0.95), c=st.floats(0.3, 1.8), a=st.floats(0.1, 0.9))
def test_loss_scale_invariant(q, c, a):
    m = cg.loss(3)
    usage = q * c
    assert m.evaluate(a * usage, a * c) == pytest.approx(m.evaluate(usage, c), abs=1e-12)


# ---------------------------------------------------------------------------
# per-kind kernels against the dispatching reference
# ---------------------------------------------------------------------------

def _ref_value(model, q, c):
    kind = model.kind
    if kind == "utilization":
        return q / c
    if kind == "utilization_default":
        return (q - model.param) / c
    if kind == "latency":
        return 1.0 / (c - q)
    if kind == "general_latency":
        return q * (1.0 + model.param) / (2.0 * c * (c - q)) + 1.0 / c
    if kind == "loss":
        rho = q / c
        powers = 1.0
        acc = 1.0
        for _ in range(model.param):
            powers *= rho
            acc += powers
        return powers / acc
    return (model.param * q / c) ** c


def _ref_value_capped(model, q, c):
    if model.kind in ("latency", "general_latency") and q >= c:
        return 1e12 * (1.0 + q - c)
    if model.kind == "utilization_default" and q < model.param:
        return 0.0
    if q <= 0.0:
        q = 0.0
    return _ref_value(model, q, c)


def _ref_slope(model, q, c):
    kind = model.kind
    if kind in ("utilization", "utilization_default"):
        return 1.0 / c
    if kind == "latency":
        return 1.0 / ((c - q) ** 2)
    if kind == "general_latency":
        return (1.0 + model.param) / (2.0 * (c - q) ** 2)
    if kind == "loss":
        rho, kappa = q / c, model.param
        powers = [1.0]
        for _ in range(kappa):
            powers.append(powers[-1] * rho)
        s = sum(powers)
        sprime = sum(j * powers[j - 1] for j in range(1, kappa + 1))
        grho = (kappa * powers[kappa - 1] * s - powers[kappa] * sprime) / (s * s)
        return grho / c
    eps = model.param
    base = eps * q / c
    if base == 0.0:
        return 0.0 if c > 1.0 else (eps if c == 1.0 else float("inf"))
    return eps * (base ** (c - 1.0))


def _outcome(fn, model, q, c):
    """Exact result of ``fn(model, q, c)``: float.hex tells -0.0 from 0.0,
    and the type and any arithmetic error must match too."""
    try:
        x = fn(model, q, c)
    except ArithmeticError as exc:
        return type(exc).__name__
    return type(x).__name__, float.hex(x) if type(x) is float else repr(x)


_kernel_models = st.one_of(
    st.sampled_from(["utilization", "latency"]).map(cg.CongestionModel),
    st.floats(0.0, 3.0).map(cg.general_latency),
    st.integers(1, 6).map(cg.loss),
    st.floats(1e-3, 1.0).map(cg.outage),
    st.one_of(st.just(0.0), st.floats(0.0, 0.5)).map(cg.utilization_default),
)


@st.composite
def _kernel_cases(draw):
    model = draw(_kernel_models)
    c = draw(st.one_of(st.sampled_from([0.5, 1.0, 2.0]), st.floats(0.01, 3.0)))
    eps_d = model.min_usage()
    q = draw(st.one_of(
        st.sampled_from([0.0, -0.0, -1e-9, -0.5, c, eps_d, 0.5 * eps_d, eps_d + 1e-12]),
        st.floats(-0.5, 2.0).map(lambda a: a * c),  # below, inside and past capacity
        st.floats(-1.0, 3.0),
    ))
    return model, q, c


_KERNELS = (
    ("_value", _ref_value),
    ("_value_capped", _ref_value_capped),
    ("_slope", _ref_slope),
)


def _check_kernels(model, q, c):
    for name, ref in _KERNELS:
        got = _outcome(lambda m, q, c: getattr(m, name)(q, c), model, q, c)
        assert got == _outcome(ref, model, q, c), name


@settings(max_examples=600, deadline=None)
@given(case=_kernel_cases())
def test_kernels_match_dispatching_reference(case):
    _check_kernels(*case)


@pytest.mark.parametrize("c", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("q", [0.0, -0.0])
def test_outage_kernels_at_zero_base(q, c):
    _check_kernels(cg.outage(0.5), q, c)


# describe() of each model in ALL_MODELS, as scenario files write it
_DESCRIPTIONS = (
    "utilization", "latency", "general_latency(delta2=0.5)", "general_latency(delta2=2)",
    "loss(kappa=2)", "loss(kappa=5)", "outage(eps=0.5)", "utilization_default(eps=0.1)",
)


def test_kernels_survive_copy_and_pickle():
    for model, text in zip(ALL_MODELS, _DESCRIPTIONS, strict=True):
        assert model.describe() == text
        for twin in (copy.copy(model), copy.deepcopy(model),
                     pickle.loads(pickle.dumps(model))):
            assert twin == model
            assert twin.describe() == text
            _check_kernels(twin, 0.3, 0.8)
