"""Named constructor catalogue of the built-in example families.

Six nontrivial families (two interval, one interval counterexample pair, and
three circle rotation sequences) plus the identity family for trivial cases.
A circle family is its exact rational view: each step is a coprime int pair,
its float turns are read from the pairs, and a map is built only when asked
for.  Each entry records the verdicts the checker suite is expected to
produce, which drives the acceptance tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import UnknownNameError
from .exact import RationalRotationFamily
from .flow import MapFamily
from .maps import Composite, PiecewiseLinear, PowerMap, Reflection
from .report import Verdict
from .space import Space

@dataclass
class CorpusEntry:
    name: str
    description: str
    family: MapFamily
    expected: dict[str, Verdict] = field(default_factory=dict)
    notes: dict[str, str] = field(default_factory=dict)

    @property
    def exact(self) -> RationalRotationFamily | None:
        return self.family.exact


def rotation_family(name: str, step) -> MapFamily:
    """The circle family rotating by ``step(n)``, a coprime int pair (a, b), at index n."""
    return MapFamily(
        space=Space.CIRCLE,
        rule=None,
        name=name,
        declared_commutative=True,
        declared_isometric=True,
        exact=RationalRotationFamily(step, name),
    )


def _identity() -> CorpusEntry:
    one = PowerMap(1)
    fam = MapFamily(
        space=Space.UNIT_INTERVAL,
        rule=lambda n: one,
        name="identity",
        declared_commutative=True,
        declared_isometric=True,
    )
    return CorpusEntry(
        name="identity",
        description="constant identity sequence on [0,1]; every orbit is a point",
        family=fam,
        expected={
            "equicontinuous": Verdict.EVIDENCE_FOR,
            "transitive": Verdict.EVIDENCE_AGAINST,
            "uniformly_almost_periodic": Verdict.EVIDENCE_FOR,
        },
        notes={
            "transitive": "singleton orbits cannot be dense",
        },
    )


def _example1() -> CorpusEntry:
    odd = PiecewiseLinear([(0, 0), (Fraction(1, 2), Fraction(1, 4)), (1, 1)])
    # decreasing map 1 - sqrt(x), expressed as sqrt followed by reflection
    even = Composite([PowerMap(Fraction(1, 2)), Reflection()])
    fam = MapFamily(
        space=Space.UNIT_INTERVAL,
        rule=lambda n: odd if n % 2 == 1 else even,
        name="example1_tent_sqrt",
        declared_commutative=False,
        declared_period=2,
    )
    return CorpusEntry(
        name="example1_tent_sqrt",
        description="piecewise-linear odd steps, 1-sqrt(x) even steps; non-commuting",
        family=fam,
        expected={
            "half_period_2": Verdict.EVIDENCE_FOR,
            "quarter_period_2": Verdict.REFUTED,
        },
        notes={
            "quarter_period_2": "the image of the period-2 point 1/2 is itself "
            "not periodic: the generating maps do not commute",
        },
    )


def _example2() -> CorpusEntry:
    def rule(n: int) -> PowerMap:
        m = (n + 1) // 2
        return PowerMap(2 * m) if n % 2 == 1 else PowerMap(Fraction(1, 2 * m))

    fam = MapFamily(
        space=Space.UNIT_INTERVAL,
        rule=rule,
        name="example2_powers",
        declared_commutative=True,
    )
    return CorpusEntry(
        name="example2_powers",
        description="x^(2m) on odd steps undone by x^(1/2m); period 2 everywhere "
        "yet interior pairs collapse together at odd times",
        family=fam,
        expected={
            "period_2": Verdict.EVIDENCE_FOR,
            "li_yorke_dense": Verdict.EVIDENCE_FOR,
            "equicontinuous": Verdict.EVIDENCE_AGAINST,
        },
        notes={
            "li_yorke_dense": "interior points all sink toward 0 at odd times "
            "while even times restore the initial separation",
        },
    )


def _settling_step(n: int) -> tuple[int, int]:
    if n <= 2:
        return (1, 2) if n == 1 else (3, 4)  # 1/2, then -1/4
    d = 1 << n // 2
    return (1, d) if n % 2 else (2 * d - 3, 2 * d)  # 1/d, then -1/d - 1/(2d)


def _settling() -> CorpusEntry:
    fam = rotation_family("circle_settling", _settling_step)
    return CorpusEntry(
        name="circle_settling",
        description="rotation amounts converging so every point settles opposite "
        "its start; hulls are dense but nothing returns",
        family=fam,
        expected={
            "almost_periodic_points": Verdict.EVIDENCE_AGAINST,
            "minimal": Verdict.CERTIFIED,
        },
        notes={
            "almost_periodic_points": "net displacement tends to one half turn, "
            "so return-time gaps grow with the window",
        },
    )


def _ex4_step(n: int) -> tuple[int, int]:
    d = 1 << ((n + 3) // 4)  # the step is +-1/d, in lowest terms in [0, 1)
    return 1 if n % 4 in (0, 1) else d - 1, d


def _ex4() -> CorpusEntry:
    fam = rotation_family("circle_ex4", _ex4_step)
    return CorpusEntry(
        name="circle_ex4",
        description="four-step rotation blocks (+a,-a,-a,+a) with shrinking a; "
        "period 2 everywhere while hulls fill the circle",
        family=fam,
        expected={
            "period_2": Verdict.CERTIFIED,
            "minimal": Verdict.CERTIFIED,
            "transitive": Verdict.EVIDENCE_AGAINST,
        },
        notes={
            "transitive": "orbit displacements are only 0 and +-2^-k, so single "
            "orbits are nowhere near dense even though hulls are",
        },
    )


def _harmonic() -> CorpusEntry:
    fracs = [(0, 1)]  # fracs[k] = H_k mod 1 as a coprime pair, extended on demand

    def step(n: int) -> tuple[int, int]:
        k = (n + 1) // 2
        while len(fracs) <= k:
            # a/b + 1/j in lowest terms with no full-width gcd (Knuth, TAOCP 4.5.1)
            j, (a, b) = len(fracs), fracs[-1]
            if (g := math.gcd(b, j)) == 1:  # already coprime: no division
                a, b = a * j + b, b * j
            else:
                a, b = a * (j // g) + b // g, b * (j // g)
                if (g := math.gcd(a, g)) != 1:
                    a, b = a // g, b // g
            fracs.append((a - b if a >= b else a, b))
        a, b = fracs[k]
        return (a, b) if n % 2 == 1 or not a else (b - a, b)

    fam = rotation_family("circle_harmonic", step)
    return CorpusEntry(
        name="circle_harmonic",
        description="odd steps rotate by the k-th harmonic sum of turns, even "
        "steps undo it; orbits are 1/n-dense yet every point has period 2",
        family=fam,
        expected={
            "period_2": Verdict.CERTIFIED,
            "transitive": Verdict.EVIDENCE_FOR,
            "sensitive": Verdict.EVIDENCE_AGAINST,
            "equicontinuous": Verdict.EVIDENCE_FOR,
            "r2_transitive": Verdict.EVIDENCE_AGAINST,
        },
        notes={
            "sensitive": "isometries preserve diameters, so no neighborhood "
            "ever expands",
            "r2_transitive": "every two-step block is the identity rotation",
        },
    )


def _square_sqrt() -> CorpusEntry:
    sq = PowerMap(2)
    rt = PowerMap(Fraction(1, 2))
    fam = MapFamily(
        space=Space.UNIT_INTERVAL,
        rule=lambda n: sq if n % 2 == 1 else rt,
        name="interval_square_sqrt",
        declared_commutative=True,
    )
    return CorpusEntry(
        name="interval_square_sqrt",
        description="x^2 alternating with sqrt(x); equicontinuous with the fixed "
        "point 0 obstructing minimality",
        family=fam,
        expected={
            "minimal": Verdict.REFUTED,
            "equicontinuous": Verdict.EVIDENCE_FOR,
        },
        notes={
            "minimal": "the hull of the fixed point 0 is {0} and misses every "
            "ball away from it",
        },
    )


_BUILDERS = {
    "identity": _identity,
    "example1_tent_sqrt": _example1,
    "example2_powers": _example2,
    "circle_settling": _settling,
    "circle_ex4": _ex4,
    "circle_harmonic": _harmonic,
    "interval_square_sqrt": _square_sqrt,
}

CORPUS_NAMES = tuple(_BUILDERS)


def corpus(name: str) -> CorpusEntry:
    """Build a fresh corpus entry by its stable public name."""
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise UnknownNameError(
            f"unknown corpus family {name!r}; known: {', '.join(CORPUS_NAMES)}"
        ) from None
    return builder()
