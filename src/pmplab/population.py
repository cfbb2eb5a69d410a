"""User-type distributions and the integrals welfare evaluation needs.

Users are indexed by a scalar type theta measuring how strongly they weigh
congestion against price.  The population is a unit mass described by a CDF
F on [0, theta_bar] with positive density inside the support.  Two families
are supported:

* ``uniform(theta_bar)``  -- F(theta) = theta / theta_bar,
* ``tabulated(points)``   -- piecewise-linear F through given breakpoints
  (piecewise-constant density), so every integral below stays closed form.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field

from ._tolerances import CDF_ROUNDOFF, TABLE_END_TOL
from .errors import DomainError

__all__ = ["TypeDistribution", "uniform", "tabulated", "tabulated_from_file"]


@dataclass(frozen=True)
class TypeDistribution:
    """Distribution of user types on [0, support_end].

    ``kind`` is "uniform" or "tabulated".  For the tabulated kind,
    ``points`` holds (theta, F(theta)) breakpoints with F(0) = 0 and
    F(support_end) = 1, strictly increasing in both coordinates.
    """

    kind: str
    support_end: float
    points: tuple = field(default=())

    def __post_init__(self):
        if not 0.0 < self.support_end <= 1.0:
            raise DomainError(f"support end must lie in (0, 1], got {self.support_end}")
        if self.kind == "tabulated":
            pts = self.points
            if len(pts) < 2 or pts[0] != (0.0, 0.0):
                raise DomainError("tabulated CDF must start at (0, 0)")
            if (abs(pts[-1][0] - self.support_end) > TABLE_END_TOL
                    or abs(pts[-1][1] - 1.0) > CDF_ROUNDOFF):
                raise DomainError("tabulated CDF must end at (support_end, 1)")
            for (x0, f0), (x1, f1) in zip(pts, pts[1:]):
                if not (x1 > x0 and f1 > f0):  # also rejects a NaN breakpoint
                    raise DomainError("tabulated CDF breakpoints must be strictly increasing")
        elif self.kind != "uniform":
            raise DomainError(f"unknown distribution kind {self.kind!r}")
        # breakpoint coordinates for bisection, built once: every solve
        # evaluates the CDF hundreds of times.  Plain attributes, not
        # fields, so equality, hashing and repr still see only the fields.
        object.__setattr__(self, "_xs", tuple(p[0] for p in self.points))
        object.__setattr__(self, "_fs", tuple(p[1] for p in self.points))

    # -- CDF / quantile -----------------------------------------------------

    def cdf(self, theta: float) -> float:
        """F(theta); clamps to 1 beyond the support end."""
        if theta < 0.0:
            raise DomainError(f"type must be nonnegative, got {theta}")
        if theta >= self.support_end:
            return 1.0
        if self.kind == "uniform":
            return theta / self.support_end
        xs = self._xs
        i = bisect_right(xs, theta) - 1
        x0, f0 = self.points[i]
        x1, f1 = self.points[i + 1]
        return f0 + (f1 - f0) * (theta - x0) / (x1 - x0)

    def density(self, theta: float) -> float:
        """f(theta); zero outside the support, segment slope inside."""
        if theta < 0.0 or theta > self.support_end:
            return 0.0
        if self.kind == "uniform":
            return 1.0 / self.support_end
        xs = self._xs
        i = min(max(bisect_right(xs, theta) - 1, 0), len(xs) - 2)
        x0, f0 = self.points[i]
        x1, f1 = self.points[i + 1]
        return (f1 - f0) / (x1 - x0)

    def quantile(self, q: float) -> float:
        """Inverse CDF: the type theta with F(theta) = q."""
        if not 0.0 <= q <= 1.0 + CDF_ROUNDOFF:
            raise DomainError(f"quantile argument must lie in [0, 1], got {q}")
        q = min(q, 1.0)
        if self.kind == "uniform":
            return q * self.support_end
        fs = self._fs
        i = min(bisect_right(fs, q) - 1, len(fs) - 2)
        x0, f0 = self.points[i]
        x1, f1 = self.points[i + 1]
        return x0 + (x1 - x0) * (q - f0) / (f1 - f0)

    # -- integrals ----------------------------------------------------------

    def weighted_mass(self, lo: float, hi: float) -> float:
        """Integral of theta * f(theta) over [lo, hi], exact per segment."""
        if lo < 0.0 or hi < lo:
            raise DomainError(f"bad integration bounds [{lo}, {hi}]")
        hi = min(hi, self.support_end)
        lo = min(lo, self.support_end)
        if hi <= lo:
            return 0.0
        if self.kind == "uniform":
            return (hi * hi - lo * lo) / (2.0 * self.support_end)
        xs = self._xs
        total = 0.0
        # only the segments overlapping [lo, hi] add a term
        for i in range(bisect_right(xs, lo) - 1, bisect_left(xs, hi)):
            x0, f0 = self.points[i]
            x1, f1 = self.points[i + 1]
            a = max(lo, x0)
            b = min(hi, x1)
            density = (f1 - f0) / (x1 - x0)
            total += density * (b * b - a * a) / 2.0
        return total

    def welfare_integral(self, lo: float, hi: float, v: float, level: float) -> float:
        """Integral of (v - theta * level) * f(theta) over [lo, hi].

        This is the utility mass (payments excluded) of the users in the
        type range [lo, hi] when they all face congestion ``level``.
        """
        if hi < lo:
            raise DomainError(f"bad integration bounds [{lo}, {hi}]")
        return v * (self.cdf(hi) - self.cdf(lo)) - level * self.weighted_mass(lo, hi)


def uniform(theta_bar: float = 1.0) -> TypeDistribution:
    """Uniform types on [0, theta_bar]."""
    return TypeDistribution("uniform", float(theta_bar))


def tabulated(points) -> TypeDistribution:
    """Piecewise-linear CDF through the given (theta, F) breakpoints."""
    pts = tuple((float(x), float(f)) for x, f in points)
    return TypeDistribution("tabulated", pts[-1][0], pts)


def tabulated_from_file(path) -> TypeDistribution:
    """Load a two-column ``theta F`` text file (ascending) as a tabulated CDF."""
    pts = []
    with open(path) as fh:
        for row, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            cols = line.split()
            if len(cols) != 2:
                raise DomainError(f"expected two columns in {path!r}, got {raw!r}")
            try:
                pts.append((float(cols[0]), float(cols[1])))
            except ValueError:
                raise DomainError(
                    f"expected two numbers in {path!r} row {row}, got {line!r}"
                ) from None
    return tabulated(pts)
