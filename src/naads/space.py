"""State spaces: the unit interval [0, 1] and the circle R/Z in turn coordinates.

All circle angles are measured in turns, i.e. fractions of a full revolution,
so rational rotation amounts stay exact.  Functions here are type-agnostic:
they work on floats and on fractions.Fraction alike and return the same kind.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from enum import Enum
from fractions import Fraction

from .errors import BudgetError

# Slack accepted at space boundaries before a point is rejected; floating
# round-off from map evaluation must not trip the domain check.
BOUNDARY_TOL = 1e-9

# Most points a grid, net or ball sample may hold: a size of 10**30 must end
# in a budget error, not in an attempt to build the list.
GRID_BUDGET = 1 << 16


def check_grid_size(count: int) -> int:
    """``count``, or BudgetError if it exceeds GRID_BUDGET."""
    if count > GRID_BUDGET:
        raise BudgetError(f"{count} grid points exceed the budget of {GRID_BUDGET}")
    return count


class Space(Enum):
    UNIT_INTERVAL = "unit_interval"
    CIRCLE = "circle"


def wrap_circle(x):
    """Reduce a circle coordinate mod 1, guarding against y == 1.0 round-off."""
    if isinstance(x, Fraction):
        return x % 1
    y = x % 1.0
    if y >= 1.0:
        y -= 1.0
    return y


def metric(space: Space, x, y):
    """|x - y|; on the circle min(d, |1 - d|), never negative, even past 1 apart."""
    d = abs(x - y)
    if space is Space.CIRCLE:
        return min(d, abs(1 - d))
    return d


def distances(space: Space, xs, ys) -> list:
    """``[metric(space, x, y) for x, y in zip(xs, ys)]`` bit for bit, in two passes."""
    ds = [abs(x - y) for x, y in zip(xs, ys)]
    if space is Space.CIRCLE:
        return [abs(e) if (e := 1 - d) < d else d for d in ds]
    return ds


def _across_one(sorted_points, q, d, below: bool):
    """min(d, the circle distances from q of the points that straddle q -+ 1).

    ``d`` is the distance from q to an extreme more than 1 away, below q or
    above it.  Rounded subtraction is monotone, so on that side |q - p| - 1 is
    least at the nearest point still over 1 away, 1 - |q - p| at the next one.
    """
    j = bisect_left(sorted_points, True,
                    key=(lambda p: q - p <= 1) if below else (lambda p: p - q > 1))
    for p in sorted_points[max(j - 1, 0):j + 1]:
        if (e := metric(Space.CIRCLE, q, p)) < d:
            d = e
    return d


def nearest_distances(space: Space, sorted_points, sorted_queries):
    """``[nearest_distance(space, sorted_points, q) for q in sorted_queries]``, bit for bit.

    Both lists ascend, so one sweep reads them: each query's bisection starts
    where the last one's ended.  Rounded subtraction is monotone, so |q - p| is
    least at the sorted neighbours of q and 1 - |q - p| at the two extremes.
    The candidates are read in place in nearest_distance's order: the left
    neighbour (or the first point), the right one if q lies inside, then on the
    circle the first and the last point, each followed by _across_one's if it
    lies over 1 from q.  min(d, |1 - d|) is |1 - d| if 1 - d < d, else d, and
    the strict < keeps the first least candidate, as min keeps it, so a
    Fraction/float tie returns the same typed value.  Values come lazily.
    """
    circle, n = space is Space.CIRCLE, len(sorted_points)
    ends = (sorted_points[0], sorted_points[-1]) if circle else ()
    i = 0
    for q in sorted_queries:
        i = bisect_left(sorted_points, q, i)
        best = abs(q - sorted_points[i - 1 if i else 0])
        if circle and (e := 1 - best) < best:
            best = abs(e)
        if 0 < i < n:
            d = abs(q - sorted_points[i])
            if circle and (e := 1 - d) < d:
                d = abs(e)
            if d < best:
                best = d
        for p in ends:
            d = abs(q - p)
            if (e := 1 - d) < d:
                d = e if e >= 0 else _across_one(sorted_points, q, -e, p < q)
            if d < best:
                best = d
        yield best


def nearest_distance(space: Space, sorted_points, q):
    """``min(metric(space, q, p) for p in sorted_points)``, non-empty and ascending.

    Bit for bit on floats and exactly on fractions (see nearest_distances).
    """
    return next(nearest_distances(space, sorted_points, (q,)))


def spread_exceeds(space: Space, points, delta) -> bool:
    """``any(metric(space, p, q) > delta for pairs p, q of points)``, bit for bit.

    Rounded subtraction is monotone, so once the points are sorted, q - p
    grows with q.  On the interval the widest pair decides, and on the circle
    it decides the pairs over 1 apart, at d - 1.  Among the others
    min(d, 1 - d) > delta needs d > delta, and 1 - d only falls as d grows, so
    for each p only the first q with q - p > delta can pass; that q never moves
    left as p moves right.  O(m log m) instead of m^2 / 2 metric calls.
    """
    s = sorted(points)
    if len(s) < 2:
        return False
    if space is not Space.CIRCLE:
        return abs(s[0] - s[-1]) > delta
    if (d := abs(s[0] - s[-1])) > 1 and d - 1 > delta:
        return True
    j = 0
    for i, p in enumerate(s):
        j = max(j, i + 1)
        while j < len(s) and not s[j] - p > delta:
            j += 1
        if j == len(s):
            return False
        if 1 - abs(p - s[j]) > delta:  # and |p - s[j]| > delta, as found above
            return True
    return False


def diameter(space: Space) -> float:
    return 0.5 if space is Space.CIRCLE else 1.0


def uniform_grid(space: Space, count: int) -> list[float]:
    """``count`` evenly spaced points; interval grids include both endpoints."""
    if count < 2:
        raise ValueError("grid needs at least 2 points")
    check_grid_size(count)
    if space is Space.CIRCLE:
        return [i / count for i in range(count)]
    return [i / (count - 1) for i in range(count)]


def net_size(eps) -> int:
    """m = ceil(1/eps): the centers i/m of the eps-net, exact for a Fraction eps.

    The budget reads 1/eps (inf for a subnormal eps): ceil(1/eps) > B iff 1/eps > B.
    """
    if not (inv := 1 / eps) <= GRID_BUDGET:
        raise BudgetError(f"an eps-net at eps={eps} exceeds the budget of {GRID_BUDGET} "
                          "grid points")
    return math.ceil(inv)


def net_centers(space: Space, eps) -> list[float]:
    """Centers of a ceil(1/eps)-uniform net covering the space."""
    if not 0 < eps < math.inf:
        raise ValueError("eps must be positive and finite")
    m = net_size(eps)
    if space is Space.CIRCLE:
        return [i / m for i in range(m)]
    return [i / m for i in range(m + 1)]
