"""Unit tests for the state spaces and the individual map types."""

import math
import random
from fractions import Fraction

import pytest

from naads import (
    CircleRotation,
    Composite,
    ConstructionError,
    DomainError,
    MapFamily,
    PiecewiseLinear,
    PowerMap,
    RationalRotationFamily,
    Reflection,
    Space,
    diameter,
    metric,
    net_centers,
    uniform_grid,
    wrap_circle,
)
from naads.maps import _unit_clamp


class TestSpace:
    def test_wrap_circle(self):
        assert wrap_circle(1.25) == 0.25
        assert wrap_circle(-0.25) == 0.75
        assert wrap_circle(Fraction(5, 4)) == Fraction(1, 4)
        # guard against x % 1.0 returning 1.0 for tiny negatives
        assert 0 <= wrap_circle(-1e-18) < 1

    def test_metric(self):
        assert metric(Space.UNIT_INTERVAL, 0.2, 0.9) == pytest.approx(0.7)
        assert metric(Space.CIRCLE, 0.1, 0.9) == pytest.approx(0.2)
        # exact on Fractions
        assert metric(Space.CIRCLE, Fraction(1, 8), Fraction(7, 8)) == Fraction(1, 4)
        assert diameter(Space.CIRCLE) == 0.5
        assert diameter(Space.UNIT_INTERVAL) == 1.0

    def test_uniform_grid(self):
        g = uniform_grid(Space.UNIT_INTERVAL, 5)
        assert g == [0.0, 0.25, 0.5, 0.75, 1.0]
        g = uniform_grid(Space.CIRCLE, 4)
        assert g == [0.0, 0.25, 0.5, 0.75]
        with pytest.raises(ValueError):
            uniform_grid(Space.CIRCLE, 1)

    def test_net_centers_cover(self):
        for eps in (0.3, 0.1, 0.07):
            for space in Space:
                centers = net_centers(space, eps)
                # every point of a fine probe grid is within eps of a center
                for x in [i / 200 for i in range(200)]:
                    assert min(metric(space, x, c) for c in centers) <= eps


class TestPiecewiseLinear:
    def test_construction_validation(self):
        with pytest.raises(ConstructionError):
            PiecewiseLinear([(0, 0)])
        with pytest.raises(ConstructionError):
            PiecewiseLinear([(0, 0), (0.5, 0.6), (0.9, 1)])  # does not span
        with pytest.raises(ConstructionError):
            PiecewiseLinear([(0, 0), (0.5, 0.6), (1, 0.9)])  # not onto
        with pytest.raises(ConstructionError):
            PiecewiseLinear([(0, 0), (0.6, 0.5), (0.4, 0.7), (1, 1)])

    def test_values_and_inverse(self):
        h = PiecewiseLinear([(0, 0), (Fraction(1, 2), Fraction(1, 4)), (1, 1)])
        assert h.forward(0.5) == 0.25  # node value, exact
        assert h.forward(0.25) == 0.125
        assert h.forward(0.75) == pytest.approx(0.625)
        assert h.inverse(0.25) == 0.5
        for x in [i / 17 for i in range(18)]:
            assert h.inverse(h.forward(x)) == pytest.approx(x, abs=1e-15)

    def test_endpoints_fixed(self):
        h = PiecewiseLinear([(0, 0), (0.3, 0.7), (1, 1)])
        assert h.forward(0.0) == 0.0 and h.forward(1.0) == 1.0


class TestPowerMap:
    def test_exponent_validation(self):
        with pytest.raises(ConstructionError):
            PowerMap(0)
        with pytest.raises(ConstructionError):
            PowerMap(Fraction(-1, 2))

    def test_fixed_points_exact(self):
        h = PowerMap(Fraction(1, 2))
        assert h.forward(0.0) == 0.0 and h.forward(1.0) == 1.0
        assert h.inverse(0.0) == 0.0 and h.inverse(1.0) == 1.0

    def test_values(self):
        sq = PowerMap(2)
        assert sq.forward(0.5) == 0.25
        assert sq.inverse(0.25) == 0.5
        rt = PowerMap(Fraction(1, 2))
        assert rt.forward(0.25) == 0.5
        assert rt.forward(0.5) == pytest.approx(math.sqrt(0.5), abs=1e-16)

    def test_domain_guard(self):
        with pytest.raises(DomainError):
            PowerMap(2).forward(1.5)

    @pytest.mark.parametrize("h", [
        PowerMap(2), PiecewiseLinear([(0, 0), (0.5, 0.25), (1, 1)]), Reflection(),
    ], ids=["power", "piecewise", "reflection"])
    def test_nan_is_outside_the_interval(self, h):
        for f in (h.forward, h.inverse):
            with pytest.raises(DomainError, match="outside"):
                f(math.nan)


class TestCircleRotation:
    def test_rational_angle_stays_exact(self):
        r = CircleRotation(Fraction(1, 3))
        assert r.forward(Fraction(5, 6)) == Fraction(1, 6)
        assert r.inverse(Fraction(1, 6)) == Fraction(5, 6)

    def test_float_path_wraps(self):
        r = CircleRotation(0.75)
        assert r.forward(0.5) == pytest.approx(0.25)
        assert 0 <= r.forward(0.9999999999) < 1
        assert CircleRotation(-0.25).angle == 0.75
        assert CircleRotation(Fraction(5, 4))._angle_float == 0.25

    def test_reduced_fraction_angle_kept(self):
        a = Fraction(2, 7)
        assert CircleRotation(a).angle is a
        assert CircleRotation(Fraction(9, 7)).angle == a
        assert CircleRotation(Fraction(-5, 7)).angle == a

    def test_turns_equal_float_of_the_angle(self):
        """An exact family's inline turn a / b is float(Fraction(a, b)) bit for bit."""
        rng = random.Random(7)
        steps = []
        for _ in range(400):
            d = rng.getrandbits(rng.choice((8, 64, 1100, 4000))) + 1
            n = rng.randrange(-3 * d, 3 * d)
            if rng.random() < 0.5:  # float(n) and float(d) alone would overflow
                d = (1 << 1100) + rng.getrandbits(1200)
                n = rng.randrange(1 << 1050, d)
            steps.append(Fraction(n, d) % 1)
        exact = RationalRotationFamily(
            lambda k: (steps[k - 1].numerator, steps[k - 1].denominator), "steps")
        fam = MapFamily(Space.CIRCLE, None, "steps", declared_commutative=True, exact=exact)
        turns = fam._turns_through(len(steps))
        assert [t.hex() for t in turns] == [float(a).hex() for a in steps]
        assert fam.map_at(len(steps))._angle_float.hex() == float(steps[-1]).hex()

    def test_inverse_roundtrip(self):
        r = CircleRotation(Fraction(2, 7))
        for x in [i / 13 for i in range(13)]:
            assert metric(Space.CIRCLE, r.inverse(r.forward(x)), x) < 1e-15


class TestReflectionComposite:
    def test_reflection_is_involution(self):
        h = Reflection()
        assert h.forward(0.3) == 0.7
        assert h.forward(h.forward(0.3)) == pytest.approx(0.3, abs=1e-15)
        assert h.forward(h.forward(0.25)) == 0.25  # exact on dyadics
        assert h.inverse(0.3) == 0.7

    def test_composite_order(self):
        # sqrt then reflect: x -> 1 - sqrt(x)
        h = Composite([PowerMap(Fraction(1, 2)), Reflection()])
        assert h.forward(0.25) == 0.5
        assert h.forward(0.0) == 1.0
        assert h.inverse(0.5) == 0.25
        for x in [i / 11 for i in range(12)]:
            assert h.inverse(h.forward(x)) == pytest.approx(x, abs=1e-12)

    def test_composite_needs_maps(self):
        with pytest.raises(ConstructionError):
            Composite([])


# The unit interval maps' specification, written from their docstrings: a point
# within 1e-9 of [0, 1] is clamped into it, one farther off or NaN is a
# DomainError; a PowerMap fixes 0 and 1 exactly and takes x ** e inside; a
# PiecewiseLinear takes the node value at a node and the clamped interpolation
# elsewhere; a Reflection takes 1 - x.

def _spec_clamp(x):
    if x != x or x < -1e-9 or x > 1 + 1e-9:
        raise DomainError(f"point {x!r} outside [0, 1]")
    return 0.0 if x < 0 else 1.0 if x > 1 else x


def _spec_power(e):
    def power(x):
        x = _spec_clamp(x)
        return 0.0 if x == 0 else 1.0 if x == 1 else x ** float(e)
    return power


def _spec_piecewise(nodes):
    def piecewise(x):
        x = _spec_clamp(x)
        for (x0, y0), (x1, y1) in zip(nodes, nodes[1:]):
            if x == x0:
                return y0
            if x0 < x < x1:
                return _spec_clamp(y0 + (x - x0) / (x1 - x0) * (y1 - y0))
        return nodes[-1][1]
    return piecewise


def _spec_reflection(x):
    return 1 - _spec_clamp(x)


def _outcome(f, x):
    """A float result by hex, any other by type and repr, an error by type and message."""
    try:
        y = f(x)
    except Exception as exc:  # the specification fixes the type and the message
        return type(exc), str(exc)
    return (float, y.hex()) if type(y) is float else (type(y), repr(y))


SPEC_POINTS = [0, 0.0, -0.0, 1, 1.0, 5e-324, 1 - 2 ** -53, -1e-10, 1 + 1e-10, -2e-9,
               1.5, math.nan, Fraction(1, 3), Fraction(0), Fraction(1)]

_NODES = [(0.0, 0.0), (0.5, 0.25), (1.0, 1.0)]
_INVERSE_NODES = [(y, x) for x, y in _NODES]
_SPEC_MAPS = [
    ("square", PowerMap(2), _spec_power(2), _spec_power(Fraction(1, 2))),
    ("root", PowerMap(Fraction(1, 2)), _spec_power(Fraction(1, 2)), _spec_power(2)),
    ("cube_root", PowerMap(Fraction(1, 3)), _spec_power(Fraction(1, 3)), _spec_power(3)),
    ("identity", PowerMap(1), _spec_power(1), _spec_power(1)),
    ("piecewise", PiecewiseLinear([(0, 0), (Fraction(1, 2), Fraction(1, 4)), (1, 1)]),
     _spec_piecewise(_NODES), _spec_piecewise(_INVERSE_NODES)),
    ("reflection", Reflection(), _spec_reflection, _spec_reflection),
    # example1_tent_sqrt's even map, x -> 1 - sqrt(x)
    ("example1_even", Composite([PowerMap(Fraction(1, 2)), Reflection()]),
     lambda x: _spec_reflection(_spec_power(Fraction(1, 2))(x)),
     lambda x: _spec_power(2)(_spec_reflection(x))),
]


class TestUnitIntervalSpecification:
    @pytest.mark.parametrize("h, forward, inverse", [m[1:] for m in _SPEC_MAPS],
                             ids=[m[0] for m in _SPEC_MAPS])
    @pytest.mark.parametrize("x", SPEC_POINTS, ids=repr)
    def test_map_meets_its_specification(self, h, forward, inverse, x):
        assert _outcome(h.forward, x) == _outcome(forward, x)
        assert _outcome(h.inverse, x) == _outcome(inverse, x)

    def test_specification_outcomes(self):
        """The cases the inputs are chosen for, spelled out once."""
        sq = PowerMap(2)
        assert _outcome(sq.forward, -0.0) == (float, "0x0.0p+0")
        assert _outcome(sq.forward, 0) == (float, "0x0.0p+0")
        assert _outcome(sq.inverse, Fraction(1)) == (float, "0x1.0000000000000p+0")
        assert _outcome(sq.forward, -1e-10) == (float, "0x0.0p+0")
        assert _outcome(sq.forward, 1 + 1e-10) == (float, "0x1.0000000000000p+0")
        assert _outcome(sq.forward, 1.5) == (DomainError, "point 1.5 outside [0, 1]")
        assert _outcome(sq.inverse, -2e-9) == (DomainError, "point -2e-09 outside [0, 1]")
        assert _outcome(sq.forward, math.nan) == (DomainError, "point nan outside [0, 1]")
        assert _outcome(Reflection().forward, Fraction(1, 3)) == (Fraction, "Fraction(2, 3)")

    @pytest.mark.parametrize("h", [m[1] for m in _SPEC_MAPS], ids=[m[0] for m in _SPEC_MAPS])
    @pytest.mark.parametrize("x", ["0.5", None, 1j], ids=repr)
    def test_a_point_that_does_not_compare_fails_as_in_the_clamp(self, h, x):
        assert _outcome(h.forward, x) == _outcome(h.inverse, x) == _outcome(_unit_clamp, x)

    def test_exponent_floats_are_float_of_the_exponent(self):
        rng = random.Random(11)
        for _ in range(400):
            bits = rng.choice((1, 8, 64, 1100))
            n = rng.getrandbits(bits) + 1
            d = rng.getrandbits(rng.choice((bits, 1100))) + 1
            e = Fraction(n, d)
            if not 2.0 ** -1000 < e < 2.0 ** 1000:  # both floats stay finite
                continue
            h = PowerMap(e)
            assert h._e.hex() == float(e).hex()
            assert h._e_inv.hex() == float(1 / e).hex()
            assert h == PowerMap(Fraction(n, d)) == PowerMap(str(e))
            assert h.isometric == (e == 1)
        assert PowerMap(2) != PowerMap(Fraction(1, 2))

    @pytest.mark.parametrize("exponent", ["1e400", "1e-400", "5e-324", Fraction(10 ** 400),
                                          Fraction(1, 3 ** 700)],
                             ids=["1e400", "1e-400", "5e-324", "10**400", "3**-700"])
    def test_exponent_whose_float_overflows(self, exponent):
        with pytest.raises(ConstructionError, match="^exponent") as info:
            PowerMap(exponent)
        assert len(str(info.value)) < 80
