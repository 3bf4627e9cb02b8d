"""Invertible self-maps of the interval and the circle.

Each map evaluates forward and inverse; construction validates invertibility
so evaluation never has to.  Piecewise-linear data must describe a strictly
increasing homeomorphism of [0, 1]; decreasing maps (such as x -> 1 - sqrt(x))
are expressed as a Composite with a Reflection.
"""

from __future__ import annotations

import bisect
import math
from fractions import Fraction

from .errors import ConstructionError, DomainError
from .space import BOUNDARY_TOL, wrap_circle


def _unit_clamp(x):
    """Clamp a value into [0, 1], rejecting anything clearly outside."""
    if x < -BOUNDARY_TOL or x > 1 + BOUNDARY_TOL:
        raise DomainError(f"point {x!r} outside [0, 1]")
    if x < 0:
        return 0.0
    if x > 1:
        return 1.0
    return x


class Homeomorphism:
    """Base class; subclasses implement forward and inverse evaluation.

    ``turns``, unless None, holds the float angles of the rotations the map is
    made of, first applied first; FlowCache then applies the map inline.
    ``kind`` names a class of maps that commute with each other ("rotation",
    "power"), or is None; ``isometric`` says that the map preserves distances.
    MapFamily checks its declarations against these two facts.
    """

    turns = None
    kind = None
    isometric = False

    def forward(self, x):
        raise NotImplementedError

    def inverse(self, x):
        raise NotImplementedError


class PiecewiseLinear(Homeomorphism):
    """Strictly increasing piecewise-linear homeomorphism of [0, 1].

    ``breakpoints`` is an ascending list of (x, f(x)) nodes starting at x=0
    and ending at x=1, with f(0)=0 and f(1)=1.  Evaluation at a node returns
    the stored node value (the left piece's limit; continuity makes the
    choice observationally irrelevant).
    """

    def __init__(self, breakpoints):
        pts = [(float(x), float(y)) for x, y in breakpoints]
        if len(pts) < 2:
            raise ConstructionError("need at least two breakpoints")
        xs = [p[0] for p in pts]
        ys = [p[1] for p in pts]
        if xs[0] != 0.0 or xs[-1] != 1.0:
            raise ConstructionError("breakpoints must span [0, 1]")
        if ys[0] != 0.0 or ys[-1] != 1.0:
            raise ConstructionError("values must map onto [0, 1]")
        for i in range(1, len(pts)):
            if xs[i] <= xs[i - 1] or ys[i] <= ys[i - 1]:
                raise ConstructionError(
                    "breakpoints must be strictly increasing in x and f(x)"
                )
        self.xs = xs
        self.ys = ys

    @staticmethod
    def _interp(xs, ys, x):
        i = bisect.bisect_left(xs, x)
        if i < len(xs) and xs[i] == x:
            return ys[i]
        t = (x - xs[i - 1]) / (xs[i] - xs[i - 1])
        return _unit_clamp(ys[i - 1] + t * (ys[i] - ys[i - 1]))

    def forward(self, x):
        return self._interp(self.xs, self.ys, _unit_clamp(x))

    def inverse(self, y):
        return self._interp(self.ys, self.xs, _unit_clamp(y))


class PowerMap(Homeomorphism):
    """x -> x**e on [0, 1] for a positive rational exponent; fixes 0 and 1.

    Interior points go through floating pow; the fixed points are returned
    exactly so orbits through 0 and 1 never drift.
    """

    kind = "power"

    def __init__(self, exponent):
        e = Fraction(exponent)
        if e <= 0:
            raise ConstructionError(f"exponent must be positive, got {exponent!r}")
        self.exponent = e
        self.isometric = e == 1
        self._e = float(e)
        self._e_inv = float(1 / e)

    @staticmethod
    def _pow(x, e):
        x = _unit_clamp(x)
        if x == 0:
            return 0.0
        if x == 1:
            return 1.0
        return x ** e

    def forward(self, x):
        return self._pow(x, self._e)

    def inverse(self, x):
        return self._pow(x, self._e_inv)


class CircleRotation(Homeomorphism):
    """Rotation of the circle by ``angle`` turns.

    Rational angles are kept exact; rotating a Fraction point by a rational
    angle stays in exact arithmetic, everything else runs in floats mod 1.
    A Fraction angle already in [0, 1) is kept as the same object, so a map
    built from an exact step shares its value.  ``turns`` is the float angle
    alone, or None if it is NaN, which no inline loop may carry.
    """

    kind = "rotation"
    isometric = True

    def __init__(self, angle):
        if type(angle) is Fraction and 0 <= angle.numerator < angle.denominator:
            self.angle = angle
        elif isinstance(angle, (int, str, Fraction)):
            a = Fraction(angle)
            self.angle = a - a.numerator // a.denominator
        else:
            self.angle = float(angle) % 1.0
        self._angle_float = float(self.angle)
        if not math.isnan(self._angle_float):
            self.turns = (self._angle_float,)

    def _shift(self, x, amount, amount_float):
        if isinstance(x, Fraction) and isinstance(self.angle, Fraction):
            return (x + amount) % 1
        if not (-BOUNDARY_TOL <= x < 1 + BOUNDARY_TOL):
            raise DomainError(f"point {x!r} outside circle coordinates")
        return wrap_circle(x + amount_float)

    def forward(self, x):
        return self._shift(x, self.angle, self._angle_float)

    def inverse(self, x):
        return self._shift(x, -self.angle, -self._angle_float)


class Reflection(Homeomorphism):
    """The involution x -> 1 - x on the unit interval."""

    isometric = True

    def forward(self, x):
        return 1 - _unit_clamp(x)

    inverse = forward


class Composite(Homeomorphism):
    """Composition of maps; ``maps[0]`` is applied first going forward.

    It has its parts' kind when they all share one, and is isometric when
    they all are.
    """

    def __init__(self, maps):
        maps = list(maps)
        if not maps:
            raise ConstructionError("composite needs at least one map")
        self.maps = maps
        if all(h.turns for h in maps):
            self.turns = tuple(a for h in maps for a in h.turns)
        if len({h.kind for h in maps}) == 1:
            self.kind = maps[0].kind
        self.isometric = all(h.isometric for h in maps)

    def forward(self, x):
        for h in self.maps:
            x = h.forward(x)
        return x

    def inverse(self, x):
        for h in reversed(self.maps):
            x = h.inverse(x)
        return x
