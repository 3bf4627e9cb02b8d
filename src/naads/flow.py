"""Two-sided flow evaluation for indexed families of homeomorphisms.

The flow at time n >= 1 is the composition f_n o ... o f_1; time 0 is the
identity; time -n is the inverse of the time-n flow, i.e.
f_1^{-1} o ... o f_n^{-1}.  For families declared commutative the inverse
factors are applied in ascending index order instead (mathematically equal,
and it makes backward windows incremental); non-commutative families use the
literal descending order.  A family's declarations (commutative, isometric,
period) are checked on every map it builds, so a flow never rests on a false
one.  FlowCache stores trajectories and reproduces these operation orders
exactly: ascending for commutative families, blocks of one period for
families with a declared period, and a per-time memo of omega otherwise (see
FlowCache).  While every map is a rotation, or a block of w rotations,
FlowCache moves float points by one inline loop over their turns.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass, field
from math import gcd
from typing import Callable, Optional

from .errors import BudgetError, ConstructionError
from .exact import RationalRotationFamily, points_budget
from .maps import Composite, Homeomorphism
from .space import BOUNDARY_TOL, Space, nearest_distance

DEFAULT_HORIZON = 100_000


class MapFamily:
    """A state space plus the rule n -> f_n generating the flow.

    ``rule(n)`` must be defined for every n >= 1 up to the horizon; maps are
    built in index order on first use and kept in one list.  The declarations
    are checked on every map built, and a map that breaks one raises
    ConstructionError at its first use:

    * ``declared_commutative``: f_n has a ``kind`` (maps of one kind commute)
      and it is f_1's;
    * ``declared_isometric``: f_n is ``isometric``;
    * ``declared_period`` (a p >= 1, or None): for n > p, f_n is f_{n-p}, or
      has the same type and equal attributes.

    ``exact`` optionally carries the exact rational view of a rotation family.
    """

    def __init__(
        self,
        space: Space,
        rule: Callable[[int], Homeomorphism],
        name: str,
        declared_commutative: bool = False,
        declared_isometric: bool = False,
        horizon: int = DEFAULT_HORIZON,
        exact: Optional[RationalRotationFamily] = None,
        declared_period: int | None = None,
    ):
        if declared_period is not None and (
            not isinstance(declared_period, int)
            or isinstance(declared_period, bool)
            or declared_period < 1
        ):
            raise ConstructionError(
                f"declared_period must be a positive int, got {declared_period!r}"
            )
        self.space = space
        self.rule = rule
        self.name = name
        self.declared_commutative = declared_commutative
        self.declared_isometric = declared_isometric
        self.horizon = horizon
        self.exact = exact
        self.declared_period = declared_period
        self._maps: list[Homeomorphism] = []  # _maps[n - 1] = f_n
        # the turns of f_1, f_2, ..., _width per map, and in _back the inverse
        # steps: negated, each map's last to first; until a map has no turns or
        # another width
        self._turns: list[float] | None = []
        self._back: list[float] = []
        self._width = 0

    def map_at(self, n: int) -> Homeomorphism:
        if n < 1:
            raise ConstructionError("map indices start at 1")
        return self._maps_through(n)[n - 1]

    def _maps_through(self, n: int) -> list[Homeomorphism]:
        """The map list, built through f_n, with the flat turns while they last.

        Each new map is checked against the declarations before it is kept.
        """
        maps, turns, p = self._maps, self._turns, self.declared_period
        for k in range(len(maps) + 1, n + 1):
            h = self.rule(k)
            if self.declared_commutative and (
                    h.kind is None or maps and h.kind != maps[0].kind):
                raise ConstructionError(
                    f"{self.name!r} is declared commutative, but f_{k} has kind "
                    f"{h.kind!r}, not one kind shared with f_1")
            if self.declared_isometric and not h.isometric:
                raise ConstructionError(
                    f"{self.name!r} is declared isometric, but f_{k} is not")
            if p and k > p and not (h is (g := maps[k - p - 1]) or (
                    type(h) is type(g) and vars(h) == vars(g))):
                raise ConstructionError(
                    f"{self.name!r} declares period {p}, but f_{k} differs "
                    f"from f_{k - p}")
            maps.append(h)
            t = h.turns
            if turns is not None and t and len(t) == (self._width or len(t)):
                turns += t
                self._back += [-a for a in reversed(t)]
                self._width = len(t)
            else:
                self._turns = turns = None
        return maps

    def __repr__(self):
        return f"MapFamily({self.name!r}, space={self.space.value})"


def omega(family: MapFamily, n: int, x):
    """State of the flow at signed time n started from x."""
    if abs(n) > family.horizon:
        raise BudgetError(f"time {n} exceeds horizon {family.horizon}")
    if n == 0:
        return x
    maps = family._maps_through(abs(n))
    if n > 0:
        for h in maps[:n]:
            x = h.forward(x)
        return x
    m = -n
    for h in maps[:m] if family.declared_commutative else maps[m - 1::-1]:
        x = h.inverse(x)
    return x


def _extend(family: MapFamily, traj: list, n: int, inverse: bool) -> None:
    """Extend ``traj`` through entry n, entry k being f_k (or f_k^{-1}) of entry k - 1.

    A float circle point moves along the family's turns, or for an inverse
    its _back steps, with CircleRotation's float operations in its order:
    wrap_circle(y + a), where y - a is y + (-a) in IEEE arithmetic.  Once y is
    in [0, 1), the range check of the first step holds at every later one.
    """
    lo, y = len(traj), traj[-1]
    maps = family._maps_through(n)
    w = family._width
    if (family._turns is None or type(y) is not float
            or not -BOUNDARY_TOL <= y < 1 + BOUNDARY_TOL):
        for h in maps[lo - 1:n]:
            y = h.inverse(y) if inverse else h.forward(y)
            traj.append(y)
        return
    out = traj if w == 1 else []  # one value per turn; traj takes each w-th
    append = out.append
    for a in (family._back if inverse else family._turns)[(lo - 1) * w:n * w]:
        y = (y + a) % 1.0
        if y >= 1.0:
            y -= 1.0
        append(y)
    if w > 1:
        traj += out[w - 1::w]


class FlowCache:
    """Memoized flow evaluation; cached values equal fresh omega() bit-for-bit.

    One trajectory store holds every value, keyed by (type(x), x, tag):
    Fraction(1, 2) and 0.5 are equal and hash alike but have different
    trajectories.  Tag "+" is the forward trajectory [x, omega_1(x), ...],
    extended one map at a time as omega's loop does, inline over the family's
    turns where it has them (see _extend).  Backward values use one of three
    strategies, chosen from the family's declarations when the cache is made:

    * commutative ascending (tag "-"): entry m is omega_{-m}(x), extended by
      f_m^{-1} -- the ascending order omega itself uses for these families --
      by the same routine as the forward trajectory;
    * periodic blocks (declared_period p, tags 0 <= s < p): with m = jp + s,
      omega_{-m}(x) is entry j of the trajectory that starts at
      omega(-s, x) and is extended by f_p^{-1}, then ..., then f_1^{-1}.
      omega's descending loop applies f_m^{-1}, ..., f_1^{-1}; as
      f_{k+p} = f_k, its first s maps are f_s^{-1}, ..., f_1^{-1} and the
      rest are j copies of that block, so both paths make the same float
      operations in the same order and agree bit for bit;
    * per-time memo (any other family, tag n < 0): each omega(n, x) is
      computed by omega and kept, O(|n|) map applications per value.

    ``window`` extends the trajectories once and assembles its list by
    slicing.  Confine an instance to one worker, or wrap it yourself.
    """

    def __init__(self, family: MapFamily):
        self.family = family
        self._store: dict = {}
        self._commutative = family.declared_commutative
        self._period = family.declared_period

    def _grow(self, key, i: int, traj=None) -> list:
        """The backward trajectory stored under ``key``, extended through entry i.

        ``traj`` is the list already stored under ``key``, if the caller
        looked it up.
        """
        fam, (_, x, tag) = self.family, key
        if traj is None:
            traj = self._store.get(key)
        if traj is None:
            traj = self._store[key] = [x if tag == "-" else omega(fam, -tag, x)]
        if tag == "-":
            _extend(fam, traj, i, True)
        elif len(traj) <= i:
            block = [fam.map_at(k).inverse for k in range(self._period, 0, -1)]
            y = traj[-1]
            while len(traj) <= i:
                for inverse in block:
                    y = inverse(y)
                traj.append(y)
        return traj

    def _memo(self, x, n: int):
        key = (type(x), x, n)
        if key not in self._store:
            self._store[key] = omega(self.family, n, x)
        return self._store[key]

    def omega(self, n: int, x):
        fam = self.family
        if abs(n) > fam.horizon:
            raise BudgetError(f"time {n} exceeds horizon {fam.horizon}")
        if n == 0:
            return x
        if n > 0:  # inline: hull enumeration makes many short forward misses
            key = (type(x), x, "+")
            traj = self._store.get(key)
            if traj is None:
                traj = self._store[key] = [x]
            if len(traj) <= n:
                _extend(fam, traj, n, False)
            return traj[n]
        if self._commutative:
            tag, i = "-", -n
        elif self._period:
            i, tag = divmod(-n, self._period)
        else:
            return self._memo(x, n)
        key = (type(x), x, tag)
        traj = self._store.get(key)
        if traj is None or len(traj) <= i:
            traj = self._grow(key, i, traj)
        return traj[i]

    def window(self, x, n_max: int) -> list:
        """Flow values at times -n_max..n_max, index i holding time i - n_max."""
        if n_max < 0:
            raise ValueError("window size must be >= 0")
        if n_max > self.family.horizon:
            raise BudgetError(f"time {-n_max} exceeds horizon {self.family.horizon}")
        self.omega(n_max, x)  # extends the forward trajectory
        key = (type(x), x)
        forward = self._store.get(key + ("+",), [x])[:n_max + 1]
        if self._commutative:
            return self._grow(key + ("-",), n_max)[n_max:0:-1] + forward
        p = self._period
        if p:
            back = [None] * (n_max + 1)  # back[m] = omega_{-m}(x)
            for s in range(min(p, n_max + 1)):
                j = (n_max - s) // p
                back[s::p] = self._grow(key + (s,), j)[:j + 1]
            return back[n_max:0:-1] + forward
        return [self._memo(x, -m) for m in range(n_max, 0, -1)] + forward


def orbit_window(family: MapFamily, x, n_max: int, cache: FlowCache | None = None):
    """Ordered list of (n, point) for n in [-n_max, n_max]."""
    cache = cache or FlowCache(family)
    return list(zip(range(-n_max, n_max + 1), cache.window(x, n_max)))


def block_family(family: MapFamily, r: int) -> MapFamily:
    """The family whose k-th map is the composite of the k-th length-r block.

    Block k applies f_{(k-1)r+1} first and f_{kr} last, so the block flow at
    time k equals the original flow at time k*r.  A declared period p becomes
    p // gcd(p, r).  r = 1 returns the family unchanged.
    """
    if r < 1:
        raise ValueError("block size must be >= 1")
    if r == 1:
        return family

    def rule(k: int) -> Homeomorphism:
        return Composite([family.map_at((k - 1) * r + j) for j in range(1, r + 1)])

    return MapFamily(
        space=family.space,
        rule=rule,
        name=f"{family.name}|blocks[r={r}]",
        declared_commutative=family.declared_commutative,
        declared_isometric=family.declared_isometric,
        horizon=family.horizon // r,
        exact=family.exact.block(r) if family.exact is not None else None,
        declared_period=p // gcd(p, r) if (p := family.declared_period) else None,
    )


@dataclass
class HullSample:
    """Finite deduplicated approximation of an order-k truncated hull.

    ``points`` lists points in discovery order (breadth-first by word length,
    then by flow index ascending); no two are closer than dedup_eps.
    ``stabilized`` records that an expansion round added nothing, i.e. the
    sample is closed under the truncated flow at this tolerance.
    """

    base: float
    order_k: int
    depth: int
    dedup_eps: float
    points: list = field(default_factory=list)
    budget_exhausted: bool = False
    stabilized: bool = False


def hull_sample(
    family: MapFamily,
    x,
    order_k: int,
    depth: int,
    dedup_eps: float = 1e-9,
    max_points: int | None = None,
    cache: FlowCache | None = None,
) -> HullSample:
    """Breadth-first enumeration of flow words applied to x.

    Words are compositions of flow maps at times r in {-order_k, .., order_k}
    (time 0 is the identity and is harmless), at most ``depth`` letters long.
    Each point's 2k + 1 successors come from one flow window, in time order.
    Deduplication keeps the first representative within dedup_eps: each
    candidate is tested against a sorted copy of the kept points
    (space.nearest_distance), so a test costs O(log n) comparisons and at most
    4 inline distances, and keeping a point costs one O(n) insertion.  Hitting
    ``max_points`` (globally capped by NAADS_BUDGET_POINTS) sets
    budget_exhausted; truncation is reported, never silent.
    """
    if order_k < 1 or depth < 1 or dedup_eps <= 0:
        raise ValueError("order_k, depth must be >= 1 and dedup_eps > 0")
    cap = points_budget(max_points, 4096)
    cache = cache or FlowCache(family)
    space = family.space
    points = [x]
    index = [x]  # the kept points, sorted
    frontier = [x]
    exhausted = False
    stabilized = False
    for _ in range(depth):
        new = []
        for y in frontier:
            for z in cache.window(y, order_k):  # times -order_k..order_k
                if nearest_distance(space, index, z) >= dedup_eps:
                    points.append(z)
                    insort(index, z)
                    new.append(z)
                    if len(points) >= cap:
                        exhausted = True
                        break
            if exhausted:
                break
        if exhausted:
            break
        if not new:
            stabilized = True
            break
        frontier = new
    return HullSample(
        base=x,
        order_k=order_k,
        depth=depth,
        dedup_eps=dedup_eps,
        points=points,
        budget_exhausted=exhausted,
        stabilized=stabilized,
    )
