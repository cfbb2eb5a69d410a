"""Congestion (negative-externality) functions and their structural classifiers.

A congestion function K(Q, C) maps the usage Q of a service class with
capacity C to the performance penalty its users perceive.  K is strictly
increasing in Q and decreasing in C.  The families implemented here:

========================  =====================================================
utilization               Q / C
latency                   1 / (C - Q)                    (M/M/1 sojourn time)
general_latency(delta2)   Q (1 + delta2) / (2 C (C - Q)) + 1 / C
                          (M/G/1 Pollaczek-Khinchine; delta2 = squared
                          coefficient of variation of service time)
loss(kappa)               rho^kappa / (1 + rho + ... + rho^kappa), rho = Q / C
                          (M/M/1/kappa blocking probability; written this way
                          the formula is continuous at rho = 1 where the
                          textbook ratio form is 0/0)
outage(eps)               (eps Q / C)^C   (all-of-C-servers failure, each
                          failing in proportion eps to its utilization)
utilization_default(eps)  (Q - eps) / C   (a default consumption eps is
                          incurred whenever the class is accessed, so Q >= eps)
========================  =====================================================

Domain notes.  Capacity must be positive and usage nonnegative (at least
``eps`` for utilization_default).  The latency kinds additionally require
Q < C: the queue diverges at saturation.  The remaining kinds stay finite,
monotone and meaningful for Q > C (overload), and equilibrium computations
do push class usage slightly past the nominal capacity share, so no upper
cap is enforced for them.

This module is the only one that knows the families.  Each one's value,
slope and inverse (usage at a given level), and the common level of a tie
group of equal-price classes, are written once, in ``_kernels``; its
scenario-file parameter is listed once, in ``DESCRIPTOR_PARAMETERS``.  The
solvers and the scenario parser reach the families only through
:class:`CongestionModel` and that table, and never name a kind.

Two classifiers probe the structure that decides whether splitting a class
into smaller ones can help:

* :func:`classify_scaling` compares K(Q, C) against K(aQ, aC) for scale
  factors a < 1 — does congestion fall or rise when a class is scaled down?
* :func:`monotone_case` / :func:`global_monotone` check whether the usage
  ordering of classes implies a consistent ordering of the marginal slopes
  dK/dQ across classes.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

from ._tolerances import (
    DIVERGED_LEVEL, LEVEL_BRACKET_CAP, LEVEL_BRACKET_START, LEVEL_INVERSION_STEPS,
    MONOTONE_TIE, PROFILE_LEVEL_TIE, SCALING_GAP_TOL, SCALING_INDIFFERENT_TOL,
)
from .errors import DomainError

__all__ = [
    "CongestionModel",
    "ScalingClass",
    "MonotoneReport",
    "DESCRIPTOR_PARAMETERS",
    "utilization",
    "latency",
    "general_latency",
    "loss",
    "outage",
    "utilization_default",
    "classify_scaling",
    "monotone_case",
    "global_monotone",
    "c2_profile_filter",
    "PARTITION_PREFERRED",
    "MULTIPLEXING_PREFERRED",
    "INDIFFERENT",
    "MIXED",
]

PARTITION_PREFERRED = "PartitionPreferred"
MULTIPLEXING_PREFERRED = "MultiplexingPreferred"
INDIFFERENT = "Indifferent"
MIXED = "Mixed"

# Every kind, with the one parameter its descriptor takes, if any, as
# (descriptor parameter, type).  ``describe`` prints a model in this form and
# scenario files are parsed from it.
DESCRIPTOR_PARAMETERS = {
    "utilization": None,
    "latency": None,
    "general_latency": ("delta2", float),
    "loss": ("kappa", int),
    "outage": ("eps", float),
    "utilization_default": ("eps", float),
}


@dataclass(frozen=True)
class CongestionModel:
    """One congestion family plus its one parameter: delta2 >= 0, kappa a
    positive integer, eps in (0, 1] or the default consumption >= 0, as the
    kind's descriptor names it; None for utilization and latency.

    Instances are immutable; all methods are pure functions of their
    arguments, so a model can be shared freely across threads.
    """

    kind: str
    param: Optional[float] = None

    def __post_init__(self):
        if self.kind not in DESCRIPTOR_PARAMETERS:
            raise DomainError(f"unknown congestion kind {self.kind!r}")
        spec, p = DESCRIPTOR_PARAMETERS[self.kind], self.param
        if spec is None:
            if p is not None:
                raise DomainError(f"congestion kind {self.kind!r} takes no parameter")
        elif p is None:
            raise DomainError(f"congestion kind {self.kind!r} needs parameter {spec[0]!r}")
        elif not math.isfinite(p):
            raise DomainError(f"{spec[0]} must be finite, got {p}")
        if self.kind == "general_latency" and p < 0.0:
            raise DomainError("delta2 must be nonnegative")
        if self.kind == "loss" and (p < 1 or int(p) != p):
            raise DomainError("kappa must be a positive integer")
        if self.kind == "outage" and not 0.0 < p <= 1.0:
            raise DomainError("eps must lie in (0, 1]")
        if self.kind == "utilization_default" and p < 0.0:
            raise DomainError("default consumption must be nonnegative")
        if spec is not None and spec[1] is int:
            object.__setattr__(self, "param", int(p))  # so kappa = 2.0 loops twice
        # per-kind kernels, built once: the solvers evaluate them millions of
        # times.  Plain attributes, not fields, so equality, hashing and repr
        # still see only the fields.
        for name, kernel in _kernels(self).items():
            object.__setattr__(self, name, kernel)

    def __reduce__(self):
        # the kernels are closures: rebuild them rather than pickle them
        return (type(self), (self.kind, self.param))

    # -- domain -------------------------------------------------------------

    def min_usage(self) -> float:
        """Smallest admissible usage (0, or the default consumption)."""
        return self.param if self.kind == "utilization_default" else 0.0

    def check_domain(self, q: float, c: float) -> None:
        if c <= 0.0:
            raise DomainError(f"capacity must be positive, got {c}")
        lo = self.min_usage()
        if q < lo:
            raise DomainError(f"usage {q} below the minimum {lo} for kind {self.kind!r}")
        if self._saturates and q >= c:
            raise DomainError(f"latency diverges at saturation: usage {q} >= capacity {c}")

    # -- evaluation ---------------------------------------------------------

    def evaluate(self, q: float, c: float) -> float:
        """Congestion level K(q, c)."""
        self.check_domain(q, c)
        return self._value(q, c)

    def marginal(self, q: float, c: float) -> float:
        """Slope dK/dQ at (q, c), in closed form for every kind."""
        self.check_domain(q, c)
        return self._slope(q, c)

    # -- inversion ----------------------------------------------------------

    def usage_at_level(self, level: float, c: float) -> float:
        """Inverse of ``evaluate`` in Q at fixed capacity.

        Returns the smallest usage producing the given level; levels at or
        below the empty-class floor map to the minimum usage.  Where a tie
        group's level has no closed form, its bisection sums this same
        inverse over the group's members.
        """
        if c <= 0.0:
            raise DomainError(f"capacity must be positive, got {c}")
        return self._usage((c,))(level)

    def level_floor(self, c: float) -> float:
        """Level seen by the first infinitesimal user of an empty class."""
        return self._value(self.min_usage(), c)

    # -- misc ---------------------------------------------------------------

    def describe(self) -> str:
        spec = DESCRIPTOR_PARAMETERS[self.kind]
        if spec is None:
            return self.kind
        name, typ = spec
        value = f"{self.param:g}" if typ is float else f"{self.param}"
        return f"{self.kind}({name}={value})"


def _kernels(model: CongestionModel) -> dict:
    """Every formula of one model's family, keyed by the attribute it becomes.

    * ``_value(q, c)`` is K(q, c) with no domain check.
    * ``_value_capped(q, c)`` is the solver-internal evaluation: diverged
      latency maps to a huge finite level instead of raising, sub-default
      usage clamps to level 0 and negative usage to 0.
    * ``_slope(q, c)`` is the analytic dK/dQ.
    * ``_usage(caps)`` is the inverse: a function of a common level giving
      the summed usage of classes with capacities ``caps``, each at its
      minimum usage where the level is at or below its empty-class floor.
      ``usage_at_level`` is its one-class case.
    * ``_tie_level(caps)`` is the common level of a tie group with member
      capacities ``caps`` as a function of the mass q the group serves
      (members share q so that their levels match: no member may offer a
      strictly better deal at the same price).
    * ``_saturates`` marks the latency kinds, whose level diverges as usage
      reaches capacity.

    The level bisections run up to ``LEVEL_INVERSION_STEPS`` steps and stop
    once a midpoint equals an end of its bracket, which every later step
    would only collapse onto: the result bits are those of the full count.

    The kind and parameter are settled here, once per model, so the calls
    do no dispatch.
    """
    kind = model.kind
    saturates = kind in ("latency", "general_latency")

    if kind in ("utilization", "utilization_default"):
        # plain utilization is default consumption with a default of 0
        default = model.min_usage()

        def value(q, c):
            return (q - default) / c

        def slope(q, c):
            return 1.0 / c

        def capped(floor_usage):
            def value_capped(q, c):
                if q < floor_usage:
                    return 0.0
                return ((0.0 if q <= 0.0 else q) - floor_usage) / c
            return value_capped

        def usage(caps):
            return lambda lev: sum([default if lev <= 0.0 else lev * c + default for c in caps])

        def tie_level(caps):
            # one class of the pooled capacity and pooled default consumption
            pooled, total = capped(len(caps) * default), sum(caps)
            return lambda q: pooled(q, total)

        return {"_value": value, "_value_capped": capped(default), "_slope": slope,
                "_usage": usage, "_tie_level": tie_level, "_saturates": saturates}

    if kind == "latency":
        def value(q, c):
            return 1.0 / (c - q)

        def slope(q, c):
            return 1.0 / ((c - q) ** 2)

        def usage(caps):
            members = [(c, value(0.0, c)) for c in caps]

            def usage_at(lev):
                total = 0.0
                for c, fl in members:
                    if not lev <= fl:
                        total += c - 1.0 / lev
                return total
            return usage_at
    elif kind == "general_latency":
        delta2 = model.param

        def value(q, c):
            return q * (1.0 + delta2) / (2.0 * c * (c - q)) + 1.0 / c

        def slope(q, c):
            return (1.0 + delta2) / (2.0 * (c - q) ** 2)

        def usage(caps):
            members = [(c, value(0.0, c)) for c in caps]
            b = 1.0 + delta2

            def usage_at(lev):
                total = 0.0
                for c, fl in members:
                    if not lev <= fl:
                        a = 2.0 * c * lev - 2.0
                        total += a * c / (b + a)
                return total
            return usage_at
    elif kind == "loss":
        kappa = model.param

        def value(q, c):
            rho = q / c
            powers = 1.0
            acc = 1.0
            for _ in range(kappa):
                powers *= rho
                acc += powers
            return powers / acc

        def slope(q, c):
            rho = q / c
            powers = [1.0]
            for _ in range(kappa):
                powers.append(powers[-1] * rho)
            s = sum(powers)
            sprime = sum(j * powers[j - 1] for j in range(1, kappa + 1))
            grho = (kappa * powers[kappa - 1] * s - powers[kappa] * sprime) / (s * s)
            return grho / c

        def inverse(level, c):
            # monotone in rho on (0, inf); cap the bracket where K -> 1
            if level >= 1.0:
                raise DomainError(f"loss level must be below 1, got {level}")
            lo, hi = 0.0, 1.0
            while value(hi * c, c) < level:
                hi *= 2.0
            for _ in range(LEVEL_INVERSION_STEPS):
                mid = 0.5 * (lo + hi)
                if not lo < mid < hi:
                    break
                if value(mid * c, c) < level:
                    lo = mid
                else:
                    hi = mid
            return 0.5 * (lo + hi) * c

        def usage(caps):
            return lambda lev: sum([0.0 if lev <= 0.0 else inverse(lev, c) for c in caps])
    else:  # outage
        eps = model.param

        def value(q, c):
            return (eps * q / c) ** c

        def slope(q, c):
            # d/dq (eps q / c)^c = (eps/c) * c * (eps q / c)^(c-1)
            base = eps * q / c
            if base == 0.0:
                return 0.0 if c > 1.0 else (eps if c == 1.0 else float("inf"))
            return eps * (base ** (c - 1.0))

        def usage(caps):
            roots = [(c, 1.0 / c) for c in caps]

            def usage_at(lev):
                if lev <= 0.0:
                    return 0.0
                total = 0.0
                try:
                    for c, r in roots:
                        total += c * (lev ** r) / eps
                except OverflowError:
                    # lev ** (1/c) of a small class passed the float range
                    # above lev = 1: its usage exceeds any finite mass
                    return math.inf
                return total
            return usage_at

    if saturates:
        def value_capped(q, c):
            if q >= c:
                return DIVERGED_LEVEL * (1.0 + q - c)
            return value(0.0 if q <= 0.0 else q, c)
    else:
        def value_capped(q, c):
            return value(0.0 if q <= 0.0 else q, c)

    if kind == "loss":
        def tie_level(caps):
            # one class of the pooled capacity
            total = sum(caps)
            return lambda q: value_capped(q, total)
    else:
        def tie_level(caps):
            # levels match only by inversion: bisect the summed usage for q,
            # with a huge finite level once q reaches a latency group's
            # pooled capacity so the solvers can bracket
            if len(caps) == 1:
                c = caps[0]
                return lambda q: value_capped(q, c)
            cap = sum(caps) if saturates else math.inf
            floor = min(value(0.0, c) for c in caps)
            usage_at = usage(caps)

            def level(q):
                q = max(q, 0.0)
                if q >= cap:
                    return DIVERGED_LEVEL * (1.0 + q - cap)
                if q <= 0.0:
                    return floor
                lo = floor
                hi = max(lo * 2.0, LEVEL_BRACKET_START)
                while usage_at(hi) < q:
                    hi *= 2.0
                    if hi > LEVEL_BRACKET_CAP:
                        return hi
                for _ in range(LEVEL_INVERSION_STEPS):
                    mid = 0.5 * (lo + hi)
                    if not lo < mid < hi:
                        break
                    if usage_at(mid) < q:
                        lo = mid
                    else:
                        hi = mid
                return 0.5 * (lo + hi)
            return level

    return {"_value": value, "_value_capped": value_capped, "_slope": slope,
            "_usage": usage, "_tie_level": tie_level, "_saturates": saturates}


def utilization() -> CongestionModel:
    return CongestionModel("utilization")


def latency() -> CongestionModel:
    return CongestionModel("latency")


def general_latency(delta2: float) -> CongestionModel:
    return CongestionModel("general_latency", float(delta2))


def loss(kappa: int) -> CongestionModel:
    return CongestionModel("loss", int(kappa))


def outage(eps: float) -> CongestionModel:
    return CongestionModel("outage", float(eps))


def utilization_default(eps: float) -> CongestionModel:
    return CongestionModel("utilization_default", float(eps))


# ---------------------------------------------------------------------------
# scaling classifier
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScalingClass:
    """Verdict of the scale-down comparison K(Q, C) vs K(aQ, aC).

    ``witness_down`` is a (Q, C, a) point where scaling down strictly
    lowers congestion (the partition-preferred direction), ``witness_up``
    one where it strictly raises it.  A Mixed verdict carries both.
    """

    verdict: str
    witness_down: Optional[tuple] = None
    witness_up: Optional[tuple] = None
    max_gap: float = 0.0
    min_gap: float = 0.0


_SCALING_POINTS = tuple(
    ((0.05 + 0.90 * j / 19) * c, c)
    for c in (0.2 + (2.0 - 0.2) * i / 19 for i in range(20))
    for j in range(20)
)
_SCALE_FACTORS = tuple(0.1 * k for k in range(1, 10))


def classify_scaling(model: CongestionModel, tol: float = SCALING_GAP_TOL) -> ScalingClass:
    """Classify how congestion responds to scaling a class down.

    For every point (Q, C) of a fixed 20 x 20 grid (C in [0.2, 2], Q from
    5 % to 95 % of C) and every scale factor a = 0.1, ..., 0.9 the gap
    ``K(Q, C) - K(aQ, aC)`` is evaluated.  All gaps within
    ``SCALING_INDIFFERENT_TOL`` of zero: Indifferent.  All gaps >= -tol with at
    least one above tol: PartitionPreferred (scaled-down copies are no more
    congested).  The mirror image: MultiplexingPreferred.  Anything else:
    Mixed, with one witness in each direction.

    Grid points whose scaled image leaves the model's domain are skipped;
    this only affects utilization_default, whose minimum-usage bound must
    hold on both sides of the comparison.
    """
    lo = model.min_usage()
    max_gap, min_gap = 0.0, 0.0
    witness_down = witness_up = None
    evaluated = 0
    for q, c in _SCALING_POINTS:
        if q < lo or (model._saturates and q >= c):
            continue
        base = model.evaluate(q, c)
        for a in _SCALE_FACTORS:
            if a * q < lo:
                continue
            gap = base - model.evaluate(a * q, a * c)
            evaluated += 1
            if gap > max_gap:
                max_gap, witness_down = gap, (q, c, a)
            if gap < min_gap:
                min_gap, witness_up = gap, (q, c, a)
    if evaluated == 0:
        raise DomainError("no admissible grid points for scaling classification")
    if max_gap <= SCALING_INDIFFERENT_TOL and -min_gap <= SCALING_INDIFFERENT_TOL:
        return ScalingClass(INDIFFERENT, max_gap=max_gap, min_gap=min_gap)
    if min_gap >= -tol and max_gap > tol:
        return ScalingClass(PARTITION_PREFERRED, witness_down=witness_down,
                            max_gap=max_gap, min_gap=min_gap)
    if max_gap <= tol and min_gap < -tol:
        return ScalingClass(MULTIPLEXING_PREFERRED, witness_up=witness_up,
                            max_gap=max_gap, min_gap=min_gap)
    return ScalingClass(MIXED, witness_down=witness_down, witness_up=witness_up,
                        max_gap=max_gap, min_gap=min_gap)


# ---------------------------------------------------------------------------
# monotone-preference classifier
# ---------------------------------------------------------------------------

def monotone_case(
    model: CongestionModel,
    capacities: Sequence[float],
    usage_profile: Sequence[float],
) -> str:
    """Monotone-preference case of one concrete usage profile.

    Over every class pair with distinct usages, tests whether the larger
    usage always carries the larger marginal slope ("M1"), always the
    smaller ("M2"), or neither.  Profiles with no distinct-usage pair
    return "Both".  Usages, and slopes, within ``MONOTONE_TIE`` of each
    other are tied; a slope tie satisfies both directions rather than
    spoiling either.
    """
    if len(capacities) != len(usage_profile):
        raise DomainError("capacities and usage profile must have equal length")
    for q, c in zip(usage_profile, capacities):
        model.check_domain(q, c)
    slopes = [model._slope(q, c) for q, c in zip(usage_profile, capacities)]
    m1_ok = m2_ok = True
    any_pair = False
    n = len(capacities)
    for i in range(n):
        for j in range(n):
            if usage_profile[i] > usage_profile[j] + MONOTONE_TIE:
                any_pair = True
                if abs(slopes[i] - slopes[j]) <= MONOTONE_TIE:
                    continue
                if slopes[i] > slopes[j]:
                    m2_ok = False
                else:
                    m1_ok = False
    if not any_pair or (m1_ok and m2_ok):
        return "Both"
    if m1_ok:
        return "M1"
    if m2_ok:
        return "M2"
    return "Neither"


@dataclass(frozen=True)
class MonotoneReport:
    """Outcome of a profile sweep: verdict plus the offending profiles.

    ``witnesses`` holds (profile, case) pairs: on a Violated verdict either
    one profile whose case is Neither, or an M1 profile and an M2 profile.
    """

    verdict: str
    witnesses: tuple = ()


_DEFAULT_FRACTIONS = (1.0 / 6.0, 1.0 / 3.0, 1.0 / 2.0, 2.0 / 3.0, 5.0 / 7.0, 9.0 / 10.0)


def _default_profiles(model: CongestionModel, capacities):
    """Deterministic lattice of usage profiles: every combination of
    per-class usage fractions, skipping sub-minimum points."""
    lo = model.min_usage()
    usages = [[q for q in (f * c for f in _DEFAULT_FRACTIONS) if q >= lo] for c in capacities]
    return list(itertools.product(*usages))


def c2_profile_filter(model: CongestionModel, capacities):
    """The default profile lattice of ``global_monotone``, keeping only the
    profiles whose congestion levels are nondecreasing from class 1 to
    class m — the ordering an equilibrium can actually produce."""
    def nondecreasing(prof):
        levels = [model._value_capped(q, c) for q, c in zip(prof, capacities)]
        return all(a <= b + PROFILE_LEVEL_TIE for a, b in zip(levels, levels[1:]))
    return [prof for prof in _default_profiles(model, capacities) if nondecreasing(prof)]


def global_monotone(
    model: CongestionModel,
    capacities: Sequence[float],
    profiles: Optional[Sequence[Sequence[float]]] = None,
) -> MonotoneReport:
    """Sweep usage profiles and test for a globally consistent monotone case.

    Violated means either some profile is Neither, or two profiles disagree
    (one M1, one M2); the witnesses name the profiles.  Profiles that are
    "Both" are compatible with every verdict.
    """
    if profiles is None:
        profiles = _default_profiles(model, capacities)
    first_m1 = first_m2 = None
    for prof in profiles:
        case = monotone_case(model, capacities, prof)
        if case == "Neither":
            return MonotoneReport("Violated", ((tuple(prof), "Neither"),))
        if case == "M1" and first_m1 is None:
            first_m1 = tuple(prof)
        elif case == "M2" and first_m2 is None:
            first_m2 = tuple(prof)
        if first_m1 is not None and first_m2 is not None:
            return MonotoneReport(
                "Violated", ((first_m1, "M1"), (first_m2, "M2"))
            )
    if first_m1 is not None:
        return MonotoneReport("ConsistentM1", ((first_m1, "M1"),))
    if first_m2 is not None:
        return MonotoneReport("ConsistentM2", ((first_m2, "M2"),))
    return MonotoneReport("ConsistentM2", ())
