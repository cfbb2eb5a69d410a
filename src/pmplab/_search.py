"""The deterministic searches every monopoly and duopoly optimizer runs on.

All maximizations are deterministic: a fixed grid scan followed by
golden-section refinement, with plateau ties resolved to the largest
maximizing point so repeated runs and regression baselines agree bit for
bit.  An objective returns None at an infeasible point.
"""

from __future__ import annotations

import math

from ._tolerances import PLATEAU_TOL, PRICE_XTOL, SEGMENT_GRID_FLOOR
from .errors import ConvergenceError, DomainError, PmplabError

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def _feasible(fn):
    """``fn`` of one hashable point as a search objective: each point is
    solved once, and one where ``fn`` raises PmplabError is infeasible."""
    memo = {}

    def at(x):
        if x not in memo:
            try:
                memo[x] = fn(x)
            except PmplabError:
                memo[x] = None
        return memo[x]
    return at


def _golden_max(f, lo, hi, xtol):
    a, b = lo, hi
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = f(c), f(d)
    while b - a > xtol:
        if (fc if fc is not None else -math.inf) >= (fd if fd is not None else -math.inf):
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = f(d)
    x = 0.5 * (a + b)
    return x, f(x)


def _grid_golden_max(f, lo, hi, n, xtol):
    """Global scan + local refinement + plateau edge resolution.

    ``f`` may return None for infeasible points; those are skipped and
    counted.  On value ties (within ``PLATEAU_TOL``) the largest maximizer
    wins, and a final bisection walks to the right edge of any plateau.

    Returns (argmax, value, skipped_count).
    """
    if n < 1:
        raise DomainError(f"a search grid needs at least one interval, got {n}")
    xs = [lo + (hi - lo) * k / n for k in range(n + 1)]
    vals = [f(x) for x in xs]
    skipped = sum(1 for v in vals if v is None)
    best = max((v for v in vals if v is not None), default=None)
    if best is None:
        return None, None, skipped
    i_best = max(i for i, v in enumerate(vals) if v is not None and v >= best - PLATEAU_TOL)

    a = xs[max(i_best - 1, 0)]
    b = xs[min(i_best + 1, n)]
    xg, vg = _golden_max(f, a, b, xtol)
    x_star, v_star = xs[i_best], best
    if vg is not None and vg > v_star:
        x_star, v_star = xg, vg

    # plateau: push the reported argmax to the right edge
    if hi > x_star:
        ge = lambda x: (lambda v: v is not None and v >= v_star - PLATEAU_TOL)(f(x))
        if ge(hi):
            x_star = hi
        else:
            plo, phi = x_star, hi
            while phi - plo > xtol:
                mid = 0.5 * (plo + phi)
                if ge(mid):
                    plo = mid
                else:
                    phi = mid
            x_star = plo
    v_final = f(x_star)
    if v_final is not None and v_final > v_star:
        v_star = v_final
    return x_star, v_star, skipped


def _segmented_price_max(f, v, boundaries, grid):
    """Maximize f over [0, v], scanning each price-ordering case separately."""
    cuts = sorted({0.0, v, *(b for b in boundaries if 0.0 < b < v)})
    best_x = best_v = None
    for lo, hi in zip(cuts, cuts[1:]):
        n = max(SEGMENT_GRID_FLOOR, int(grid * (hi - lo) / v))
        x, val, _ = _grid_golden_max(f, lo, hi, n, PRICE_XTOL)
        if val is not None and (best_v is None or val > best_v
                                or (val >= best_v - PLATEAU_TOL and x > best_x)):
            best_x, best_v = x, val
    if best_x is None:
        raise ConvergenceError("no feasible price in any case segment")
    return best_x, best_v


def _ascend(f, x, val, lines, rounds, gain):
    """Coordinate ascent of ``f`` from point ``x`` of value ``val``.

    Each round searches every line ``(span, n, xtol, place)`` in turn over
    ``span(x) = (lo, hi)``, skipping an empty one, and moves to
    ``place(x, t)`` when that gains more than ``gain``; it stops after
    ``rounds`` rounds or a round without a move.  Returns (point, value).
    """
    for _ in range(rounds):
        moved = False
        for span, n, xtol, place in lines:
            lo, hi = span(x)
            if hi <= lo:
                continue
            t, v, _ = _grid_golden_max(lambda t: f(place(x, t)), lo, hi, n, xtol)
            if t is not None and v is not None and v > val + gain:
                x, val, moved = place(x, t), v, True
        if not moved:
            break
    return x, val
