"""Seeded job tables for the three benchmark workloads.

Every job is a scenario for ``naads run``.  A template fixes the task, the
family and the expected outcome; the seed only picks parameters inside the
range where that outcome holds.  Expected verdicts, exit codes and the report
facts in ``facts`` are written by hand from the corpus ``expected`` maps, the
acceptance-suite oracles or a closed form given in the comment above each
template; none of them is read back from a naads run.

Each template contributes a fixed number of jobs, and sizes sit on a fixed
ladder that the seed only jitters, so the cost of a pool varies little from
seed to seed while the inputs themselves (points, angles, numerators,
families) differ.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

DEFAULT_SEED = 1

# Fractional parts of sqrt(p): rationally independent for the depths used.
SURDS = tuple(repr(math.sqrt(p) % 1.0) for p in (2, 3, 5, 7, 11, 13))


@dataclass
class Job:
    template: str
    scenario: dict  # family, task, params (no outputs, no expect)
    expect: str | None  # verdict the scenario's "expect" carries
    exit_code: int
    outputs: tuple = ()  # extra output kinds beside the report
    facts: dict = field(default_factory=dict)  # report line -> exact value

    @property
    def key(self) -> str:
        """Stable identity of the job's inputs, used to look up frozen digests."""
        body = dict(self.scenario, outputs=list(self.outputs))
        if self.expect is not None:
            body["expect"] = self.expect
        return json.dumps(body, sort_keys=True, separators=(",", ":"))


def l1_ball_size(dim: int, radius: int) -> int:
    """Lattice points of Z^dim with L1 norm <= radius."""
    return sum(2 ** i * math.comb(dim, i) * math.comb(radius, i)
               for i in range(min(dim, radius) + 1))


def _ladder(rng: random.Random, lo: int, hi: int, count: int, step: int = 1):
    """``count`` evenly spaced sizes in [lo, hi], each moved by at most two steps.

    The seed changes the sizes a little and the inputs a lot; the cost of a
    pool stays nearly the same from seed to seed.
    """
    width = (hi - lo) / count
    return [min(hi, max(lo, lo + step * round((i + 0.5) * width / step)
                        + step * rng.randint(-2, 2)))
            for i in range(count)]


def _neg(a: str) -> str:
    return "-" + a


# ---------------------------------------------------------------------------
# hull_float


def _hull_float(rng: random.Random) -> list[Job]:
    jobs = []
    # Period-2 cycles [a1, -a1, ..., am, -am]: the flow at even times is the
    # identity, so every hull point is period 2 (EvidenceFor, exit 0).  The
    # generators at order 2m are 0 and +-a_i, so the depth-d hull is the L1
    # ball of radius d in Z^m: its size is l1_ball_size(m, d).
    # The largest class fills 4 of the pool's 27 slots, so the tail percentile
    # falls among jobs of one size rather than on the step between two sizes.
    size_classes = [(2, 4), (2, 5), (3, 3), (2, 6), (3, 3), (3, 4), (4, 3),
                    (3, 5), (3, 5), (4, 4), (4, 4), (4, 4), (4, 4)]
    for m, d in size_classes:
        picks = rng.sample(SURDS, m)
        angles = [s for a in picks for s in (a, _neg(a))]
        x = round(rng.random(), 6)
        jobs.append(Job(
            "hull_periodicity_pairs",
            {"family": {"kind": "rotations", "angles": angles},
             "task": "hull_periodicity_property",
             "params": {"x": x, "r": 2, "order_k": 2 * m, "depth": d}},
            "EvidenceFor", 0,
            facts={"detail.hull_size": str(l1_ball_size(m, d)),
                   "detail.failing_points": "0"},
        ))
    # Cycles of m independent angles, order k <= m: the generators are 0 and
    # +- the first k partial sums, which are independent, so each hull is an
    # L1 ball of radius depth in Z^k.  eps = 1/2 is the circle's diameter, so
    # no Hausdorff distance can exceed it (EvidenceFor).
    for k, d in [(2, 3), (3, 2), (2, 4), (2, 5), (3, 3), (2, 4), (3, 4), (3, 3),
                 (3, 3), (3, 4)]:
        m = rng.choice((k, k + 1)) if k < 4 else 4
        angles = rng.sample(SURDS, m)
        x = round(rng.random(), 6)
        jobs.append(Job(
            "hull_closure_independent",
            {"family": {"kind": "rotations", "angles": angles},
             "task": "hull_closure_equality",
             "params": {"x": x, "eps": "1/2", "order_k": k, "depth": d}},
            "EvidenceFor", 0,
            facts={"detail.hull_size": str(l1_ball_size(k, d))},
        ))
    # Rotations are isometries: equicontinuous with delta = eps, and a ball
    # of radius <= eps keeps diameter 2 eps < 1/8 = delta, so no grid point
    # is sensitive.  Equicontinuous and nothing sensitive: EvidenceFor.
    for n_max in _ladder(rng, 40, 80, 4):
        angles = rng.sample(SURDS, rng.choice((2, 3, 4)))
        eps = rng.choice(("1/20", "1/25", "1/32"))
        jobs.append(Job(
            "dichotomy_isometry",
            {"family": {"kind": "rotations", "angles": angles},
             "task": "dichotomy_scan",
             "params": {"eps": eps, "N": n_max}},
            "EvidenceFor", 0,
            facts={"detail.sensitive_points": "[]",
                   "detail.equicontinuity": "EvidenceFor"},
        ))
    return jobs


# ---------------------------------------------------------------------------
# orbit_scan


def _orbit_scan(rng: random.Random) -> list[Job]:
    jobs = []
    # example1_tent_sqrt at x = 0: the 0.1-ball expands at time -1 (odd
    # inverse doubles [0, 0.1]); the 0.01-ball is blown up by the square-root
    # branch, g^2 maps [0, r] onto about [0, 0.75 sqrt(r/2)], and passes
    # diameter 1/8 by |time| 6.  EvidenceFor.
    for n_max in _ladder(rng, 100, 200, 3):
        jobs.append(Job(
            "sensitivity_tent_sqrt",
            {"family": "example1_tent_sqrt", "task": "sensitivity_at_point",
             "params": {"x": 0, "N": n_max, "samples": 10}},
            "EvidenceFor", 0,
        ))
    # circle_harmonic is an isometry: the 0.01-ball keeps diameter 0.02 <
    # 1/8 forever (corpus: sensitive -> EvidenceAgainst).
    for n_max in _ladder(rng, 100, 300, 3):
        jobs.append(Job(
            "sensitivity_harmonic",
            {"family": "circle_harmonic", "task": "sensitivity_at_point",
             "params": {"x": round(rng.random(), 6), "N": n_max}},
            "EvidenceAgainst", 0,
            facts={"detail.unexpanded_radius": "0.01"},
        ))
    # The orbit of 0 (or 1) under example1 is {0, 1}: the odd map fixes both
    # ends, 1 - sqrt(x) swaps them.  With ceil(1/eps) even, 1/2 is a net
    # center at distance 1/2 > eps: EvidenceAgainst.
    for i, n_max in enumerate(_ladder(rng, 100, 300, 3)):
        out = ("orbit_csv",) if i == 0 else ()
        jobs.append(Job(
            "density_tent_sqrt_endpoint",
            {"family": "example1_tent_sqrt", "task": "orbit_density",
             "params": {"x": rng.choice((0, 1)), "eps": rng.choice(("1/10", "1/8", "1/4")),
                        "N": n_max}},
            "EvidenceAgainst", 0, outputs=out,
            facts={"detail.max_center_distance": "0.5"},
        ))
    # Acceptance 5: the orbit window of 0 is 1/20-dense at N = 120.  Windows
    # only grow with N, and a 1/20-dense set is within 1/20 + 1/40 of every
    # point, so eps >= 3/40 holds too.  EvidenceFor.
    for n_max in _ladder(rng, 120, 300, 2):
        jobs.append(Job(
            "density_harmonic",
            {"family": "circle_harmonic", "task": "orbit_density",
             "params": {"x": 0, "eps": rng.choice(("1/20", "1/12", "1/10")), "N": n_max}},
            "EvidenceFor", 0,
        ))
    # Acceptance 9 at (0.05, N=120, grid 16); both sub-scans are monotone in
    # N, so EvidenceFor holds for N >= 120.
    for n_max in _ladder(rng, 120, 240, 3):
        jobs.append(Job(
            "transitivity_harmonic",
            {"family": "circle_harmonic", "task": "transitivity_scan",
             "params": {"eps": 0.05, "N": n_max}},
            "EvidenceFor", 0,
            facts={"detail.dense_orbit": "true", "detail.open_set_scan": "true"},
        ))
    # circle_ex4 displacements are only 0 and +-2^-k (corpus note): no orbit
    # is 0.05-dense and balls 0.35 apart are never linked, for any N.
    for n_max in _ladder(rng, 100, 300, 2):
        jobs.append(Job(
            "transitivity_ex4",
            {"family": "circle_ex4", "task": "transitivity_scan",
             "params": {"eps": 0.05, "N": n_max}},
            "EvidenceAgainst", 0,
            facts={"detail.dense_orbit": "false", "detail.open_set_scan": "false"},
        ))
    # Period 2 everywhere (corpus): every even time returns and time +-1 (ex4)
    # or +-3 (harmonic) does not, so both windows have gap bound 2.
    for fam, n_max in zip(("circle_harmonic", "circle_ex4", "circle_harmonic"),
                          _ladder(rng, 100, 300, 3)):
        jobs.append(Job(
            "uniform_ap_period2",
            {"family": fam, "task": "uniform_ap_report",
             "params": {"eps": rng.choice((0.05, 0.1)), "N": n_max, "grid_size": 16}},
            "EvidenceFor", 0,
            facts={"detail.M": "2"},
        ))
    # Isometry: pairs 0.75 eps apart stay 0.75 eps apart, so the first
    # candidate delta = eps passes at every window (acceptance 5 at eps=0.1).
    for i, n_max in enumerate(_ladder(rng, 100, 200, 2)):
        out = ("modulus_curve",) if i == 0 else ()
        eps = rng.choice((0.1, 0.05))
        jobs.append(Job(
            "equicontinuity_harmonic",
            {"family": "circle_harmonic", "task": "equicontinuity_modulus",
             "params": {"eps": eps, "N": n_max, "pair_grid": 9}},
            "EvidenceFor", 0, outputs=out,
            facts={"detail.delta": repr(eps)},
        ))
    # example2_powers: at odd time 2m-1 both points are raised to x^(2m) and
    # 0.95^200 < 1e-3; even times restore |x - y| >= 0.3 > 0.25 (acceptance 2).
    pairs = [(0.1, 0.6), (0.2, 0.7), (0.3, 0.6), (0.35, 0.9), (0.5, 0.85), (0.15, 0.95)]
    for n_max in _ladder(rng, 200, 300, 3):
        x, y = rng.choice(pairs)
        jobs.append(Job(
            "li_yorke_powers",
            {"family": "example2_powers", "task": "li_yorke_classify",
             "params": {"x": x, "y": y, "N": n_max, "high_tol": 0.25}},
            "EvidenceFor", 0,
        ))
    # example1 keeps 0 and 1 exactly opposite: distance 1 at every time.
    for n_max in _ladder(rng, 100, 300, 2):
        jobs.append(Job(
            "li_yorke_tent_sqrt_ends",
            {"family": "example1_tent_sqrt", "task": "li_yorke_classify",
             "params": {"x": 0, "y": 1, "N": n_max}},
            "EvidenceAgainst", 0,
            facts={"detail.min_distance": "1.0", "detail.max_distance": "1.0"},
        ))
    # Acceptance 3: circle_settling returns to 0 within 0.3 only at 0, +-2, +-3.
    for n_max in _ladder(rng, 100, 300, 2):
        jobs.append(Job(
            "return_times_settling",
            {"family": "circle_settling", "task": "return_time_set",
             "params": {"x": 0, "eps": 0.3, "N": n_max}},
            None, 0, outputs=("return_raster",),
            facts={"times": "[-3, -2, 0, 2, 3]",
                   "censored_right_gap": str(n_max - 3)},
        ))
    # 1/2 is period 2 for example1 in both directions (corpus half_period_2),
    # so every even time returns; N is even, so time -N is a return.
    for n_max in _ladder(rng, 100, 200, 2, step=2):
        jobs.append(Job(
            "return_times_tent_sqrt",
            {"family": "example1_tent_sqrt", "task": "return_time_set",
             "params": {"x": 0.5, "eps": rng.choice((0.01, 0.05)), "N": n_max}},
            None, 0, outputs=("orbit_csv",),
            facts={"censored_left_gap": "0", "censored_right_gap": "0"},
        ))
    return jobs


# ---------------------------------------------------------------------------
# exact_certify


def _exact_certify(rng: random.Random) -> list[Job]:
    jobs = []
    # Acceptance 4: circle_ex4 is Certified at eps=1/8 (order 9, depth 8);
    # the order-8 hull is the multiples of 1/4, which hit every 1/4-net center.
    for eps, grid in (("1/8", 32), ("1/4", 16)):
        jobs.append(Job(
            "minimality_ex4",
            {"family": "circle_ex4", "task": "minimality_certificate",
             "params": {"eps": eps, "order_cap": 9, "depth": 8, "grid": grid}},
            "Certified", 0,
        ))
    # circle_settling: 3/8 - 1/4 = 1/8 and 7/16 - 3/8 = 1/16 are sums of two
    # generators by order 6, so the depth-8 hull is all multiples of 1/16.
    for eps, grid in (("1/8", 32), ("1/16", 16)):
        jobs.append(Job(
            "minimality_settling",
            {"family": "circle_settling", "task": "minimality_certificate",
             "params": {"eps": eps, "order_cap": 9, "depth": 8, "grid": grid}},
            "Certified", 0,
        ))
    # Inline cycles [a, -a + 1/q] with a = p/r: the flow at time 2j moves by
    # j/q, so the order-6 depth-8 hull holds j/q for |j| <= 24, i.e. all of
    # (1/q)Z for q <= 47, whose points lie within 1/(2q) < 1/32 of any
    # center.  Certified.
    for q, r in ((29, 7), (31, 5), (37, 3), (41, 5), (43, 3), (47, 3)):
        a = Fraction(rng.randrange(1, r), r)
        b = -a + Fraction(1, q)
        jobs.append(Job(
            "minimality_inline_cycle",
            {"family": {"kind": "rotations", "angles": [str(a), str(b)]},
             "task": "minimality_certificate",
             "params": {"eps": "1/32", "order_cap": 6, "depth": 8, "grid": 16}},
            "Certified", 0,
        ))
    # Cycles [p/13, u/17]: the order-1 depth-8 hull holds j p/13 for |j| <= 8,
    # i.e. all of (1/13)Z, within 1/26 < 1/16 of any center.  Certified.
    for _ in range(2):
        a = Fraction(rng.randrange(1, 13), 13)
        b = Fraction(rng.randrange(1, 17), 17)
        jobs.append(Job(
            "minimality_thirteen_cycle",
            {"family": {"kind": "rotations", "angles": [str(a), str(b)]},
             "task": "minimality_certificate",
             "params": {"eps": "1/16", "order_cap": 4, "depth": 8, "grid": 16}},
            "Certified", 0,
            facts={"detail.k": "1"},
        ))
    # Corpus: circle_harmonic is period 2 (Certified), so every even r is a
    # period too.  Prefix length r * horizon spans 1000..2000.
    for prefix in _ladder(rng, 1000, 2000, 4, step=4):
        r = rng.choice((2, 4))
        jobs.append(Job(
            "periodicity_harmonic",
            {"family": "circle_harmonic", "task": "periodicity_check",
             "params": {"x": round(rng.random(), 6), "r": r, "horizon": prefix // r}},
            "Certified", 0,
        ))
    # Corpus: every two-step block of circle_harmonic is the identity, so
    # every even block is too; orbits are points, which are not 1/4-dense and
    # never link balls 1/2 apart (EvidenceAgainst).  The r = 10 job is the
    # pool's heaviest and comes twice at one size, so the tail percentile
    # falls inside one size class, not on the step below the heaviest job.
    top = _ladder(rng, 180, 200, 1)[0]
    for r, n_max in zip((4, 6, 10, 10), _ladder(rng, 100, 160, 2) + [top, top]):
        jobs.append(Job(
            "r_transitivity_harmonic",
            {"family": "circle_harmonic", "task": "r_transitivity_check",
             "params": {"r": r, "eps": 0.25, "N": n_max, "grid": 8}},
            "EvidenceAgainst", 0,
            facts={"detail.identity_blocks": "true"},
        ))
    return jobs


WORKLOADS = {
    "hull_float": _hull_float,
    "orbit_scan": _orbit_scan,
    "exact_certify": _exact_certify,
}


def job_pool(workload: str, seed: int) -> list[Job]:
    """The seeded pool of distinct jobs; a timed run repeats it in passes."""
    rng = random.Random(f"{workload}/{seed}")
    return WORKLOADS[workload](rng)


def write_scenarios(pool, work: Path):
    """One scenario file per job; returns (scenario path, [output paths])."""
    files = []
    for i, job in enumerate(pool):
        stem = work / f"job{i:03d}"
        outputs = [{"kind": "report", "path": f"{stem}.report.txt"}]
        outputs += [{"kind": kind, "path": f"{stem}.{kind}.csv"} for kind in job.outputs]
        scenario = dict(job.scenario, outputs=outputs)
        if job.expect is not None:
            scenario["expect"] = job.expect
        path = f"{stem}.json"
        with open(path, "w") as fh:
            json.dump(scenario, fh)
        files.append((path, [o["path"] for o in outputs]))
    return files
