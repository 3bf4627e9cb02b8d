"""End-to-end acceptance suite: one scenario per numbered criterion.

Each test prints a single PASS/FAIL line; tolerances are pinned in the
assertions.  Oracle values were derived independently (closed-form prefix
sums, direct rational enumeration) before being frozen here.
"""

import json
import math
import sys
from fractions import Fraction

import pytest

from naads import (
    FlowCache,
    Space,
    Verdict,
    corpus,
    equicontinuity_modulus,
    exact_periodicity,
    hull_periodicity_property,
    hull_sample,
    li_yorke_classify,
    metric,
    minimality_certificate,
    orbit_density,
    periodicity_check,
    r_transitivity_check,
    return_time_set,
    transitivity_scan,
    uniform_grid,
)
from naads.cli import EXIT_OK, main as cli_main


def _line(num: int, ok: bool, desc: str):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:2d}: {status} — {desc}", file=sys.stderr, flush=True)
    assert ok, f"acceptance criterion {num} failed: {desc}"


def test_acceptance_01_alternating_tent_sqrt_periodicity():
    fam = corpus("example1_tent_sqrt").family
    rep_half = periodicity_check(fam, 0.5, 2, horizon=25)
    rep_quarter = periodicity_check(fam, 0.25, 2, horizon=25)
    ok = (
        rep_half.verdict is Verdict.EVIDENCE_FOR
        and rep_half.details["max_deviation"] <= 1e-12
        and rep_quarter.verdict is Verdict.REFUTED
        and rep_quarter.witnesses[0].times == (2,)
        and abs(FlowCache(fam).omega(2, 0.25) - (1 - 8 ** -0.5)) <= 1e-12
    )
    _line(1, ok, "x=1/2 is period-2 (dev<=1e-12); x=1/4 refuted at n=2 "
                 "with omega_2 = 1 - 8^(-1/2)")


def test_acceptance_02_power_family_li_yorke_density():
    fam = corpus("example2_powers").family
    # 2-D low-discrepancy point set (Kronecker sequence with the plastic
    # constant), filtered to well-separated interior pairs
    g = 1.324717957244746
    a1, a2 = 1 / g, 1 / g ** 2
    pairs = []
    i = 0
    while len(pairs) < 100:
        i += 1
        x = 0.05 + 0.9 * ((0.5 + i * a1) % 1.0)
        y = 0.05 + 0.9 * ((0.5 + i * a2) % 1.0)
        if abs(x - y) >= 0.3:
            pairs.append((x, y))
    hits = sum(
        li_yorke_classify(fam, x, y, 200, low_tol=1e-3, high_tol=0.25).verdict
        is Verdict.EVIDENCE_FOR
        for x, y in pairs
    )
    _line(2, hits >= 95,
          f"{hits}/100 separated interior pairs classified as Li-Yorke pairs")


def test_acceptance_03_settling_family_never_almost_periodic():
    fam = corpus("circle_settling").family
    rts = return_time_set(fam, 0.0, 0.3, 20)
    ok = rts.times == [-3, -2, 0, 2, 3]
    for n in (20, 40, 80):
        gap = return_time_set(fam, 0.0, 0.3, n).censored_right_gap
        ok = ok and gap == n - 3
    _line(3, ok, "returns at {0, ±2, ±3} only; censored edge gap grows as N-3")


def test_acceptance_04_exact_minimality_certificate():
    entry = corpus("circle_ex4")
    rep = minimality_certificate(entry.family, Fraction(1, 8), order_cap=9, depth=8)
    per = exact_periodicity(entry.exact, 2, 50)

    # independent re-derivation: signed steps are ±2^-k in four-step blocks;
    # order-9 prefix sums generate exactly the multiples of 1/8 under <= 8
    # additions, while order 8 only reaches the multiples of 1/4
    def prefix(n):
        s = Fraction(0)
        for m in range(1, n + 1):
            k = (m + 3) // 4
            s += Fraction(1 if m % 4 in (0, 1) else -1, 2 ** k)
        return s % 1

    def span(order, depth):
        gens = {prefix(r) for r in range(order + 1)} | {
            (-prefix(r)) % 1 for r in range(order + 1)
        }
        reach = {Fraction(0)}
        for _ in range(depth):
            reach |= {(a + g) % 1 for a in reach for g in gens}
        return reach

    ok = (
        rep.verdict is Verdict.CERTIFIED
        and rep.details["k"] == 9
        and per is None
        and span(9, 8) == {Fraction(m, 8) for m in range(8)}
        and span(8, 8) == {Fraction(m, 4) for m in range(4)}
    )
    _line(4, ok, "minimality Certified(k=9) at eps=1/8, period-2 certificate, "
                 "hull re-derived by direct rational enumeration")


def test_acceptance_05_harmonic_family_dense_not_sensitive():
    fam = corpus("circle_harmonic").family
    dens = orbit_density(fam, 0.0, Fraction(1, 20), 120)
    rt = r_transitivity_check(fam, 2)
    eq = equicontinuity_modulus(fam, 0.1)
    ok = (
        dens.verdict is Verdict.EVIDENCE_FOR
        and rt.verdict is Verdict.EVIDENCE_AGAINST
        and rt.details["identity_blocks"] is True
        and eq.verdict is Verdict.EVIDENCE_FOR
        and eq.details["delta"] == 0.1
    )
    _line(5, ok, "orbit of 0 is 1/20-dense; 2-step blocks are exactly the "
                 "identity; equicontinuity modulus delta = eps = 0.1")


def test_acceptance_06_square_sqrt_counterexample():
    fam = corpus("interval_square_sqrt").family
    rep = minimality_certificate(fam, 0.1)
    hs = hull_sample(fam, 0.5, order_k=1, depth=2)
    expected = sorted([2 ** -4, 2 ** -2, 2 ** -1, 2 ** -0.5, 2 ** -0.25])
    got = sorted(hs.points)
    ok = (
        rep.verdict is Verdict.REFUTED
        and rep.witnesses[0].points[0] == 0.0
        and len(got) == 5
        and all(abs(a - b) <= 1e-12 for a, b in zip(got, expected))
    )
    _line(6, ok, "minimality refuted at the fixed point 0; order-1 hull of "
                 "1/2 is {2^-4, 2^-2, 2^-1, 2^-1/2, 2^-1/4} within 1e-12")


def test_acceptance_07_hull_periodicity_suite():
    ok = True
    for name in ("circle_ex4", "circle_harmonic"):
        fam = corpus(name).family
        for x in uniform_grid(Space.CIRCLE, 16):
            rep = hull_periodicity_property(
                fam, x, 2, order_k=8, depth=6, horizon=25, tol=1e-9
            )
            ok = ok and rep.verdict is Verdict.EVIDENCE_FOR
            ok = ok and rep.details["failing_points"] == 0
    _line(7, ok, "period 2 propagates to every sampled hull point over 16 "
                 "base points on both periodic circle families")


def test_acceptance_08_inversion_and_isometry_invariants():
    ok = True
    for name in ("identity", "example1_tent_sqrt", "example2_powers",
                 "circle_settling", "circle_ex4", "circle_harmonic",
                 "interval_square_sqrt"):
        fam = corpus(name).family
        cache = FlowCache(fam)
        for x in uniform_grid(fam.space, 100):
            for n in range(1, 101):
                y = cache.omega(n, x)
                if metric(fam.space, cache.omega(-n, y), x) > 1e-9:
                    ok = False
    for name in ("circle_settling", "circle_ex4", "circle_harmonic"):
        fam = corpus(name).family
        cache = FlowCache(fam)
        grid = uniform_grid(Space.CIRCLE, 100)
        wins = {x: cache.window(x, 100) for x in grid}
        for i, a in enumerate(grid):
            for b in grid[i + 1:]:
                d0 = metric(Space.CIRCLE, a, b)
                for idx in (0, 63, 100, 137, 200):
                    d = metric(Space.CIRCLE, wins[a][idx], wins[b][idx])
                    if abs(d - d0) > 1e-12:
                        ok = False
    _line(8, ok, "omega_{-n} undoes omega_n within 1e-9 on all families; "
                 "rotation flows preserve pairwise distances within 1e-12")


def test_acceptance_09_transitivity_subscan_coherence():
    harm = transitivity_scan(corpus("circle_harmonic").family, 0.05, 120, grid=16)
    ex4 = transitivity_scan(corpus("circle_ex4").family, 0.05, 120, grid=16)
    ok = (
        harm.verdict is Verdict.EVIDENCE_FOR
        and harm.details["dense_orbit"] is True
        and harm.details["open_set_scan"] is True
        and ex4.verdict is Verdict.EVIDENCE_AGAINST
        and ex4.details["dense_orbit"] is False
        and ex4.details["open_set_scan"] is False
    )
    _line(9, ok, "dense-orbit and open-set sub-scans agree at matched "
                 "(eps=0.05, N=120, grid=16) on both circle families")


def test_acceptance_10_deterministic_reports(tmp_path):
    scenarios = [
        {"family": "example1_tent_sqrt", "task": "periodicity_check",
         "params": {"x": 0.25, "r": 2}},
        {"family": "circle_settling", "task": "return_time_set",
         "params": {"x": 0, "eps": 0.3, "N": 20}},
        {"family": "circle_ex4", "task": "minimality_certificate",
         "params": {"eps": "1/8", "order_cap": 9, "depth": 8}},
        {"family": "circle_harmonic", "task": "equicontinuity_modulus",
         "params": {"eps": 0.1, "N": 25}},
    ]
    ok = True
    for i, payload in enumerate(scenarios):
        renders = []
        for run in range(2):
            out = tmp_path / f"s{i}r{run}.txt"
            spath = tmp_path / f"s{i}r{run}.json"
            spath.write_text(json.dumps(dict(
                payload, outputs=[{"kind": "report", "path": str(out)}]
            )))
            code = cli_main(["--no-timestamp", "run", str(spath)])
            if code not in (EXIT_OK, 1):
                ok = False
            renders.append(out.read_bytes())
        ok = ok and renders[0] == renders[1]
    _line(10, ok, "repeated runs emit byte-identical reports with "
                  "timestamps disabled")
