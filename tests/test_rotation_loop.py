"""The inline rotation loop of FlowCache against the per-map loop it replaces.

A family with no rule (exact rotation steps), and so a block family of one,
extends float trajectories along the float turns of its steps without calling
forward/inverse; a family with a rule takes the per-map path.  Every value must
equal, bit for bit, what one forward/inverse call per map gives, and every
point the loop cannot take must raise the same error through that path.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from naads import (
    CircleRotation,
    DomainError,
    FlowCache,
    MapFamily,
    RationalRotationFamily,
    Space,
    block_family,
    corpus,
    omega,
)


def _reference_omega(family, n, x):
    """omega as one map_at call and one forward/inverse call per step."""
    if n >= 0:
        for k in range(1, n + 1):
            x = family.map_at(k).forward(x)
        return x
    ks = range(1, -n + 1) if family.declared_commutative else range(-n, 0, -1)
    for k in ks:
        x = family.map_at(k).inverse(x)
    return x


def _outcome(f, *args):
    """Type and exact value (repr keeps -0.0 and nan), or the error raised."""
    try:
        y = f(*args)
    except DomainError as exc:
        return DomainError, str(exc)
    if isinstance(y, list):
        return [(type(v), repr(v)) for v in y]
    return type(y), repr(y)


def _rotations(angles) -> MapFamily:
    """CircleRotation maps cycling through ``angles``, built by a rule."""
    return MapFamily(
        Space.CIRCLE,
        lambda n: CircleRotation(angles[(n - 1) % len(angles)]),
        "random_rotations",
        declared_commutative=True,
        declared_isometric=True,
    )


def _exact_rotations(angles) -> MapFamily:
    """The same rotations as exact steps, a float angle taken at its exact value."""
    steps = [(Fraction(a) % 1).as_integer_ratio() for a in angles]
    exact = RationalRotationFamily(lambda n: steps[(n - 1) % len(steps)], "exact")
    return MapFamily(Space.CIRCLE, None, "exact_rotations", declared_commutative=True,
                     declared_isometric=True, exact=exact)


def _check_accesses(fam, x, accesses):
    cache = FlowCache(fam)
    for kind, n in accesses:
        if kind == "omega":
            got = _outcome(cache.omega, n, x)
            assert got == _outcome(_reference_omega, fam, n, x), n
            assert got == _outcome(omega, fam, n, x), n
        else:
            want = [_outcome(_reference_omega, fam, m, x) for m in range(-n, n + 1)]
            errors = [w for w in want if w[0] is DomainError]
            got = _outcome(cache.window, x, n)
            assert got == (errors[0] if errors else want), n


_ANGLE = st.one_of(
    st.fractions(min_value=-2, max_value=2, max_denominator=1 << 20),
    st.floats(min_value=-2, max_value=2),
    # steps that land within one rounding of 1.0 and are folded back to 0.0
    st.sampled_from([Fraction(1, 2**80), 1e-20, -1e-20, 0.0, 0.75, Fraction(3, 4)]),
)

_POINT = st.one_of(
    st.sampled_from([0.0, -0.0, 1 - 2**-53, 1 + 1e-10, -1e-10, -1e-20, 0,
                     math.nextafter(0.25, 0)]),
    st.floats(min_value=0, max_value=1, exclude_max=True),
    st.fractions(min_value=0, max_value=1, max_denominator=64),
    # outside the circle coordinates: the per-map path raises DomainError
    st.sampled_from([1.5, -0.5, -1e-8, 1 + 1e-8, math.nan, math.inf]),
)

_ACCESS = st.lists(
    st.one_of(
        st.tuples(st.just("omega"), st.integers(min_value=-30, max_value=30)),
        st.tuples(st.just("window"), st.integers(min_value=0, max_value=12)),
    ),
    min_size=1,
    max_size=6,
)


class TestInlineRotationLoop:
    @settings(max_examples=300, deadline=None)
    @given(angles=st.lists(_ANGLE, min_size=1, max_size=4),
           r=st.integers(min_value=1, max_value=4), x=_POINT, accesses=_ACCESS)
    # a step that rounds to 1.0 and is folded to 0.0: forward from a point just
    # below 0, inverse from 0.0 by a tiny angle; at the end of a block, or
    # before a turn where 1.0 + a and 0.0 + a round apart
    @example(angles=[0.0], r=1, x=-1e-20, accesses=[("omega", 1)])
    @example(angles=[Fraction(1, 2**80)], r=1, x=0.0, accesses=[("omega", -3)])
    @example(angles=[0.0, 0.1], r=2, x=-1e-20, accesses=[("omega", 1)])
    @example(angles=[Fraction(1, 2**80), 0.0], r=2, x=0.0, accesses=[("window", 3)])
    # a block inverse subtracts the block's one turn
    @example(angles=[0.1, 0.7], r=2, x=0.3, accesses=[("omega", -5)])
    def test_matches_per_map_loop(self, angles, r, x, accesses):
        inline = block_family(_exact_rotations(angles), r)
        _check_accesses(inline, x, accesses)
        assert inline._turns is not None
        _check_accesses(block_family(_rotations(angles), r), x, accesses)

    def test_nan_angle_has_no_turns(self):
        fam = _rotations([math.nan])
        # nan after one step, then the range check of the next step raises
        _check_accesses(fam, 0.3, [("omega", 1), ("omega", 2), ("omega", -2)])

    def test_corpus_blocks_are_inline(self):
        fam = block_family(corpus("circle_harmonic").family, 3)
        _check_accesses(fam, 0.3, [("window", 40), ("omega", 50), ("omega", -50)])
        assert fam._turns is not None


class TestMapList:
    def test_map_at_any_index(self):
        fam = corpus("circle_ex4").family
        assert fam.map_at(9).angle == Fraction(1, 8)
        assert fam.map_at(1).angle == Fraction(1, 2)
        # maps are built on demand, and the turns are read apart from them
        assert len(fam._maps) == 9 and fam._turns == []
        assert len(fam._turns_through(9)) == 9 and len(fam._maps) == 9

    @pytest.mark.parametrize("n", [1, 2, 2999, 3000])
    def test_harmonic_steps_without_recursion(self, n):
        entry = corpus("circle_harmonic")
        h = sum(Fraction(1, k) for k in range(1, (n + 1) // 2 + 1))
        assert entry.exact.step(n) == (h if n % 2 else -h) % 1
        assert entry.family.map_at(n).angle == entry.exact.step(n)

    def test_harmonic_steps_in_order(self):
        entry = corpus("circle_harmonic")
        h = Fraction(0)
        for n in range(1, 3001):
            if n % 2:
                h += Fraction(1, (n + 1) // 2)
            v, ref = entry.exact.step(n), (h if n % 2 else -h) % 1
            # an unreduced Fraction compares unequal to its reduced twin
            assert math.gcd(v.numerator, v.denominator) == 1
            assert v == ref and hash(v) == hash(ref)
            assert entry.family.map_at(n).angle == v

    def test_ex4_steps_in_lowest_terms(self):
        entry = corpus("circle_ex4")
        for n in range(1, 1001):  # blocks (+a, -a, -a, +a), a = 2^-k
            sign = 1 if n % 4 in (0, 1) else -1
            v, ref = entry.exact.step(n), Fraction(sign, 2 ** ((n + 3) // 4)) % 1
            assert math.gcd(v.numerator, v.denominator) == 1
            assert v == ref and hash(v) == hash(ref)
            assert entry.family.map_at(n).angle == v
