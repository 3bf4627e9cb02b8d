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
