import dataclasses
import math
from bisect import bisect_right

import pytest
from hypothesis import assume, given, settings, strategies as st

from pmplab.errors import DomainError
from pmplab.population import TypeDistribution, tabulated, tabulated_from_file, uniform


def test_uniform_cdf():
    d = uniform(1.0)
    assert d.cdf(0.4) == pytest.approx(0.4, abs=1e-15)
    assert d.cdf(2.0) == 1.0
    assert d.cdf(0.0) == 0.0


def test_uniform_cdf_scaled_support():
    d = uniform(0.5)
    assert d.cdf(0.25) == pytest.approx(0.5)
    assert d.cdf(0.8) == 1.0


def test_cdf_rejects_negative_type():
    with pytest.raises(DomainError):
        uniform().cdf(-0.1)


def test_tabulated_cdf_interpolates():
    d = tabulated([(0.0, 0.0), (0.5, 0.8), (1.0, 1.0)])
    assert d.cdf(0.25) == pytest.approx(0.4, abs=1e-15)
    assert d.cdf(0.75) == pytest.approx(0.9, abs=1e-15)
    assert d.cdf(1.5) == 1.0


def test_tabulated_quantile_roundtrip():
    d = tabulated([(0.0, 0.0), (0.3, 0.5), (1.0, 1.0)])
    for q in (0.0, 0.1, 0.5, 0.7, 1.0):
        assert d.cdf(d.quantile(q)) == pytest.approx(q, abs=1e-12)


def test_tabulated_validation():
    with pytest.raises(DomainError):
        tabulated([(0.0, 0.1), (1.0, 1.0)])          # F(0) != 0
    with pytest.raises(DomainError):
        tabulated([(0.0, 0.0), (0.5, 0.5), (0.5, 1.0)])  # non-increasing theta


def test_weighted_mass_uniform():
    d = uniform(1.0)
    assert d.weighted_mass(0.0, 1.0) == pytest.approx(0.5, abs=1e-15)
    assert d.weighted_mass(0.4, 0.8) == pytest.approx(0.24, abs=1e-15)
    assert d.weighted_mass(0.3, 0.3) == 0.0


def test_weighted_mass_uniform_closed_form():
    d = uniform(0.8)
    for theta in (0.1, 0.4, 0.8):
        assert d.weighted_mass(0.0, theta) == pytest.approx(theta**2 / (2 * 0.8), abs=1e-15)


def test_weighted_mass_clamps_beyond_support():
    d = uniform(1.0)
    assert d.weighted_mass(0.0, 5.0) == pytest.approx(0.5, abs=1e-15)


@given(st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
def test_weighted_mass_additive(a, b, c):
    lo, mid, hi = sorted((a, b, c))
    d = tabulated([(0.0, 0.0), (0.4, 0.7), (1.0, 1.0)])
    whole = d.weighted_mass(lo, hi)
    split = d.weighted_mass(lo, mid) + d.weighted_mass(mid, hi)
    assert whole == pytest.approx(split, abs=1e-12)


def test_welfare_integral_examples():
    d = uniform(1.0)
    assert d.welfare_integral(0.0, 1.0, 2.0, 1.0) == pytest.approx(1.5, abs=1e-12)
    assert d.welfare_integral(0.0, 0.5, 2.0, 2.0) == pytest.approx(0.75, abs=1e-12)
    assert d.welfare_integral(0.3, 0.3, 2.0, 1.0) == 0.0


def test_welfare_integral_zero_level_is_value_times_mass():
    d = tabulated([(0.0, 0.0), (0.5, 0.8), (1.0, 1.0)])
    got = d.welfare_integral(0.1, 0.9, 3.0, 0.0)
    assert got == pytest.approx(3.0 * (d.cdf(0.9) - d.cdf(0.1)), abs=1e-12)


def test_density_integrates_to_cdf():
    d = tabulated([(0.0, 0.0), (0.25, 0.4), (0.75, 0.85), (1.0, 1.0)])
    # midpoint rule over a fine grid reproduces the CDF
    n = 4000
    acc = 0.0
    for i in range(n):
        t = (i + 0.5) / n * 0.6
        acc += d.density(t) * 0.6 / n
    assert acc == pytest.approx(d.cdf(0.6), abs=1e-4)


def test_tabulated_from_file(tmp_path):
    f = tmp_path / "types.txt"
    f.write_text("# theta F\n0 0\n0.5 0.8\n1 1\n")
    d = tabulated_from_file(f)
    assert d.cdf(0.25) == pytest.approx(0.4)


def test_support_end_validation():
    with pytest.raises(DomainError):
        uniform(1.5)
    with pytest.raises(DomainError):
        uniform(0.0)


# -- tabulated tables against a brute-force reference -------------------------
#
# The reference rebuilds the breakpoint lists on every call and integrates over
# every segment; the library must give the same floats, not just close ones.

def _ref_cdf(d, theta):
    if theta >= d.support_end:
        return 1.0
    xs = [p[0] for p in d.points]
    i = bisect_right(xs, theta) - 1
    x0, f0 = d.points[i]
    x1, f1 = d.points[i + 1]
    return f0 + (f1 - f0) * (theta - x0) / (x1 - x0)


def _ref_density(d, theta):
    if theta < 0.0 or theta > d.support_end:
        return 0.0
    xs = [p[0] for p in d.points]
    i = min(max(bisect_right(xs, theta) - 1, 0), len(xs) - 2)
    x0, f0 = d.points[i]
    x1, f1 = d.points[i + 1]
    return (f1 - f0) / (x1 - x0)


def _ref_quantile(d, q):
    q = min(q, 1.0)
    fs = [p[1] for p in d.points]
    i = min(bisect_right(fs, q) - 1, len(fs) - 2)
    x0, f0 = d.points[i]
    x1, f1 = d.points[i + 1]
    return x0 + (x1 - x0) * (q - f0) / (f1 - f0)


def _ref_weighted_mass(d, lo, hi):
    hi = min(hi, d.support_end)
    lo = min(lo, d.support_end)
    if hi <= lo:
        return 0.0
    total = 0.0
    for (x0, f0), (x1, f1) in zip(d.points, d.points[1:]):
        a = max(lo, x0)
        b = min(hi, x1)
        if b > a:
            density = (f1 - f0) / (x1 - x0)
            total += density * (b * b - a * a) / 2.0
    return total


@st.composite
def _tables(draw):
    n = draw(st.integers(2, 300))
    steps = st.floats(1e-3, 1.0)
    dx = draw(st.lists(steps, min_size=n - 1, max_size=n - 1))
    df = draw(st.lists(steps, min_size=n - 1, max_size=n - 1))
    end = draw(st.floats(0.05, 1.0))
    xs, fs = [0.0], [0.0]
    for k in range(1, n - 1):
        xs.append(end * sum(dx[:k]) / sum(dx))
        fs.append(sum(df[:k]) / sum(df))
    xs.append(end)
    fs.append(1.0)
    try:
        return tabulated(zip(xs, fs))
    except DomainError:  # rounding merged two breakpoints
        assume(False)


def _arguments(d):
    """Types drawn across and beyond the support, and the breakpoints themselves."""
    return st.one_of(
        st.floats(0.0, 1.2 * d.support_end),
        st.sampled_from(d._xs),
    )


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_tabulated_matches_brute_force_reference(data):
    d = data.draw(_tables())
    theta = data.draw(_arguments(d))
    assert d.cdf(theta) == _ref_cdf(d, theta)
    assert d.density(theta) == _ref_density(d, theta)
    q = data.draw(st.one_of(st.floats(0.0, 1.0), st.sampled_from(d._fs)))
    assert d.quantile(q) == _ref_quantile(d, q)
    lo, hi = sorted((theta, data.draw(_arguments(d))))
    assert d.weighted_mass(lo, hi) == _ref_weighted_mass(d, lo, hi)
    v = data.draw(st.floats(0.0, 3.0))
    level = data.draw(st.floats(0.0, 10.0))
    ref = v * (_ref_cdf(d, hi) - _ref_cdf(d, lo)) - level * _ref_weighted_mass(d, lo, hi)
    assert d.welfare_integral(lo, hi, v, level) == ref


def test_breakpoint_cache_is_not_a_field():
    pts = [(0.0, 0.0), (0.4, 0.7), (1.0, 1.0)]
    d, same = tabulated(pts), tabulated(pts)
    assert [f.name for f in dataclasses.fields(TypeDistribution)] == ["kind", "support_end", "points"]
    assert d == same and hash(d) == hash(same)
    assert d != tabulated([(0.0, 0.0), (0.5, 0.7), (1.0, 1.0)])
    assert repr(d) == (
        "TypeDistribution(kind='tabulated', support_end=1.0, "
        "points=((0.0, 0.0), (0.4, 0.7), (1.0, 1.0)))"
    )
    assert dataclasses.replace(d, points=tuple(pts)) == d
