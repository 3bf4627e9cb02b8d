"""naads benchmark: seeded checker jobs timed end to end through naads.cli.main.

Run from the repository root:

    python3 bench/run.py --workload hull_float --seed 1 --seconds 35 --trace 0
    python3 bench/run.py --workload all          # every workload, one process each

Each run imports naads from ``src/``, draws the workload's job pool from the
seed, writes one scenario file per job and then runs whole passes over the
pool (shuffled per pass) until ``--seconds`` have elapsed.  Every job is the
call ``naads.cli.main(["--no-timestamp", "run", <scenario>])``.  Outside the
timed region every job is checked: exit code, verdict, hand-written report
facts, witness replay within 1e-12, byte-identical reports across passes and,
where frozen, the SHA-256 digest from ``digests.json``.

With ``--trace 0`` the last line reports the end-to-end metrics; with
``--trace 1`` one untraced pass is followed by traced passes and the last line
reports the per-layer metrics of one pass.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".bench_work"
OUT_DIR = ROOT / ".bench_out"
DIGESTS = BENCH_DIR / "digests.json"

sys.path.insert(0, str(BENCH_DIR))
from workloads import DEFAULT_SEED, WORKLOADS, job_pool, write_scenarios  # noqa: E402

SETUP_REPS = 15
TAIL_PERCENTILES = (99, 95, 90, 75, 50)
REPLAY_TOL = 1e-12

# The speed of a small shared host drifts by a fifth over minutes, which would
# swamp the differences the benchmark is meant to show.  A fixed unit of
# interpreter work (``calibrate``) runs before every job, outside its timing;
# each pass's times are scaled by CALIBRATION_S over that unit's mean time in
# the pass, so they read as on a host where the unit takes CALIBRATION_S.
# Raw figures are printed beside the scaled ones.
CALIBRATION_S = 0.0035


def calibrate() -> float:
    """Seconds that one fixed unit of float, dict, list and Fraction work takes.

    The cyclic collector is off inside the unit, so a collection that a job's
    garbage is due for never fires here: it falls in a job's timing instead,
    and the unit's time does not depend on what naads left behind.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        table = {}
        acc = 0.0
        for i in range(4000):
            x = (i * 0.6180339887498949) % 1.0
            table[x] = [x, x * x]
            acc += min(abs(x - 0.5), 1 - abs(x - 0.5))
        q = Fraction(0)
        for k in range(1, 80):
            q += Fraction(1, k)
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


# ---------------------------------------------------------------------------
# set-up


def import_naads():
    """Import naads from this checkout's src/."""
    sys.path.insert(0, str(SRC))
    naads = importlib.import_module("naads")
    importlib.import_module("naads.cli")
    if Path(naads.__file__).resolve().parent != SRC / "naads":
        raise ImportError(f"naads imported from {naads.__file__}, not {SRC}")
    return naads


# A fresh interpreter that does a run's set-up and nothing else: import naads
# first, then draw the pool and write its scenario files.  It prints the
# seconds since the system-wide monotonic time given as its argument, which
# the parent reads just before starting it.
SETUP_CHILD = """\
import sys, time
sys.path[:0] = [{src!r}, {bench!r}]
import naads, naads.cli
from pathlib import Path
from workloads import job_pool, write_scenarios
write_scenarios(job_pool({workload!r}, {seed!r}), Path({work!r}))
print(time.clock_gettime(time.CLOCK_MONOTONIC) - float(sys.argv[1]))
"""


def set_up(workload: str, seed: int, work: Path):
    """Set up in this process, then time SETUP_REPS set-ups in fresh processes.

    Each timed set-up is one child interpreter, from just before it is
    started to its first job being ready, so interpreter start and every
    import naads makes are inside it.  The child times itself: waiting on it
    with a timeout polls at steps of up to 50 ms, far coarser than the
    set-up.  The child runs without ``site`` (``-I -S``): site-packages hooks
    would import standard modules that naads then gets for free, and their
    cost belongs to the environment, not to naads, which needs only the
    standard library.
    Returns the median set-up time, raw and scaled by calibration.
    """
    naads = import_naads()
    caches = process_caches(naads)
    pool = job_pool(workload, seed)
    files = write_scenarios(pool, work)
    code = SETUP_CHILD.format(src=str(SRC), bench=str(BENCH_DIR), workload=workload,
                              seed=seed, work=str(work / "setup"))
    raw, scaled = [], []
    for _ in range(SETUP_REPS):
        unit = statistics.fmean(calibrate() for _ in range(5))
        (work / "setup").mkdir()
        start = repr(time.clock_gettime(time.CLOCK_MONOTONIC))
        proc = subprocess.run([sys.executable, "-I", "-S", "-c", code, start],
                              check=True, timeout=120, capture_output=True, text=True)
        raw.append(float(proc.stdout))
        scaled.append(raw[-1] * CALIBRATION_S / unit)
        shutil.rmtree(work / "setup")
    return naads, caches, pool, files, statistics.median(raw), statistics.median(scaled)


def process_caches(naads) -> list:
    """The ``cache_clear`` of every function-level cache in naads' modules.

    A CLI call starts with these empty; clearing them before each job keeps a
    job from reusing what an earlier job of the run computed.
    """
    clears = []
    for name, module in sorted(sys.modules.items()):
        if name == "naads" or name.startswith("naads."):
            clears += [obj.cache_clear for obj in vars(module).values()
                       if callable(getattr(obj, "cache_clear", None))
                       and getattr(obj, "__module__", None) == name]
    return clears


# ---------------------------------------------------------------------------
# timed loop


def job_digest(paths) -> str:
    h = hashlib.sha256()
    for p in paths:
        with open(p, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


class Runs:
    """Every execution of every pool job: times, exit codes, digests."""

    def __init__(self, pool):
        self.times = []  # raw seconds per execution
        self.scales = []  # calibration factor of each execution's pass
        self.codes = [[] for _ in pool]
        self.digests = [[] for _ in pool]
        self.errors = [[] for _ in pool]
        self.first_files = [None] * len(pool)  # report text of the first execution
        self.output_bytes = 0

    @property
    def attempted(self):
        return len(self.times)


def run_passes(naads, caches, files, runs: Runs, seconds: float, rng: random.Random,
               tracer=None, max_passes: int | None = None):
    """Whole passes until ``seconds`` elapsed; returns (wall, scale) per pass.

    A pass's wall time excludes the calibration units, the clearing of naads'
    caches and the per-job bookkeeping (reading and hashing output files),
    which are timed and subtracted.  The cyclic collector runs only inside
    jobs.  ``scale`` is CALIBRATION_S over the pass's mean unit time.
    """
    gc.disable()
    try:
        passes = _passes(naads, caches, files, runs, seconds, rng, tracer, max_passes)
    finally:
        gc.enable()
    return passes


def _passes(naads, caches, files, runs, seconds, rng, tracer, max_passes):
    clock = time.perf_counter
    sink = io.StringIO()
    order = list(range(len(files)))
    passes = []
    start = clock()
    while True:
        rng.shuffle(order)
        book = 0.0
        units = 0.0
        pass_start = clock()
        for i in order:
            u0 = clock()
            units += calibrate()
            for clear in caches:
                clear()
            book += clock() - u0
            path, outs = files[i]
            if tracer is not None:
                tracer.job = runs.attempted
            sink.seek(0)
            sink.truncate()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                gc.enable()
                t0 = clock()
                try:
                    code = naads.cli.main(["--no-timestamp", "run", path])
                    err = None
                except (Exception, SystemExit) as exc:  # a failed job, not a crash
                    code, err = None, f"{type(exc).__name__}: {exc}"
                t1 = clock()
                gc.disable()
            runs.times.append(t1 - t0)
            b0 = clock()
            runs.codes[i].append(code)
            if err is None and code != 0 and sink.getvalue():
                err = sink.getvalue().strip()
            try:
                runs.digests[i].append(job_digest(outs))
                if runs.first_files[i] is None:
                    with open(outs[0]) as fh:
                        runs.first_files[i] = fh.read()
                if tracer is not None:
                    runs.output_bytes += sum(os.path.getsize(p) for p in outs)
            except OSError as exc:
                runs.digests[i].append(None)
                err = f"missing output: {exc}"
            runs.errors[i].append(err)
            book += clock() - b0
        scale = CALIBRATION_S * len(order) / units
        runs.scales += [scale] * len(order)
        passes.append((clock() - pass_start - book, scale))
        if max_passes is not None and len(passes) >= max_passes:
            break
        if clock() - start >= seconds:
            break
    return passes


# ---------------------------------------------------------------------------
# correctness gate


def _scalar(text: str):
    text = text.strip()
    if "/" in text:
        return Fraction(text)
    try:
        return int(text)
    except ValueError:
        return float(text)


def _tuple(text: str):
    inner = text.strip()[1:-1].strip()
    return tuple(_scalar(t) for t in inner.split(",")) if inner else ()


def parse_report(text: str) -> dict:
    fields = {}
    for line in text.splitlines():
        key, sep, value = line.partition(": ")
        if sep:
            fields[key] = value
    return fields


def replay_family(naads, spec):
    """The family a scenario names, built through the public API."""
    if isinstance(spec, str):
        return naads.corpus(spec).family
    if spec.get("kind") != "rotations":
        raise ValueError(f"no replay family for {spec!r}")
    angles = [Fraction(a) for a in spec["angles"]]
    return naads.MapFamily(
        space=naads.Space.CIRCLE,
        rule=lambda n: naads.CircleRotation(angles[(n - 1) % len(angles)]),
        name="replay",
        declared_commutative=True,
        declared_isometric=True,
    )


def check_report(naads, job, text: str) -> list[str]:
    """Problems with one job's report; an empty list means it passed."""
    problems = []
    fields = parse_report(text)
    if job.expect is not None and fields.get("verdict") != job.expect:
        problems.append(f"verdict {fields.get('verdict')!r} != {job.expect!r}")
    for key, want in job.facts.items():
        if fields.get(key) != want:
            problems.append(f"{key} {fields.get(key)!r} != {want!r}")
    params = {k[len("param."):]: _scalar(v) for k, v in fields.items()
              if k.startswith("param.") and not v.startswith(("[", "none"))
              and k != "param.family"}
    family = None
    i = 1
    while f"witness.{i}.kind" in fields:
        w = naads.Witness(
            fields[f"witness.{i}.kind"],
            _tuple(fields[f"witness.{i}.points"]),
            _tuple(fields[f"witness.{i}.times"]),
            _tuple(fields[f"witness.{i}.distances"]),
        )
        family = family or replay_family(naads, job.scenario["family"])
        got = naads.replay_witness(family, w, params)
        if len(got) != len(w.distances) or any(
                abs(a - b) > REPLAY_TOL for a, b in zip(got, w.distances)):
            problems.append(f"witness {i} replays to {got}, report says {w.distances}")
        i += 1
    return problems


def gate(naads, pool, runs: Runs, frozen: dict) -> tuple[int, list[str]]:
    """Count failed executions; a job whose report is wrong fails every time."""
    failed = 0
    notes = []
    for i, job in enumerate(pool):
        if not runs.codes[i]:
            continue
        text = runs.first_files[i]
        problems = ["no report"] if text is None else check_report(naads, job, text)
        want = frozen.get(job.key)
        first = runs.digests[i][0]
        if want is not None and first != want:
            problems.append(f"digest {first} != frozen {want}")
        if problems:
            notes.append(f"job {i} ({job.template}): " + "; ".join(problems))
        for code, digest, err in zip(runs.codes[i], runs.digests[i], runs.errors[i]):
            bad = bool(problems) or code != job.exit_code or digest != first
            if bad:
                failed += 1
                if not problems:
                    notes.append(f"job {i} ({job.template}): exit {code}, "
                                 f"digest {'same' if digest == first else 'differs'}, {err}")
    return failed, notes


def combined_digest(runs: Runs) -> str:
    h = hashlib.sha256()
    for digests in runs.digests:
        h.update((digests[0] if digests else "-").encode())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# metrics


def tail(times_ms):
    """(percentile, value, samples beyond): highest rung with >= 10 beyond."""
    xs = sorted(times_ms)
    n = len(xs)
    for p in TAIL_PERCENTILES:
        rank = math.ceil(p / 100 * n)
        if n - rank >= 10 or p == TAIL_PERCENTILES[-1]:
            return p, xs[rank - 1], n - rank


def pass_rate(runs: Runs, passes, scaled=True) -> float:
    """Jobs completed per second of the median pass; a pass is the whole pool."""
    completed = sum(1 for codes in runs.codes for c in codes[-len(passes):]
                    if c is not None)
    walls = [wall * scale if scaled else wall for wall, scale in passes]
    return completed / len(passes) / statistics.median(walls)


def end_to_end(setup, runs: Runs, passes):
    raw_ms = [t * 1000 for t in runs.times]
    ms = [t * f for t, f in zip(raw_ms, runs.scales)]
    p, tail_ms, beyond = tail(ms)
    metrics = {
        "setup_s": (setup[1], "s"),
        "jobs_per_s": (pass_rate(runs, passes), "1/s"),
        "job_p50_ms": (statistics.median(ms), "ms"),
        "job_tail_ms": (tail_ms, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    notes = [f"passes {len(passes)}, jobs {len(ms)}, pass walls "
             + " ".join(f"{w:.3f}" for w, _ in passes) + " s, scales "
             + " ".join(f"{f:.3f}" for _, f in passes),
             f"job_tail_ms is p{p} of {len(ms)} samples ({beyond} beyond it)",
             f"raw: setup_s {setup[0]:.6g}, jobs_per_s {pass_rate(runs, passes, False):.6g}, "
             f"job_p50_ms {statistics.median(raw_ms):.6g}, job_tail_ms {tail(raw_ms)[1]:.6g}"]
    return metrics, notes


def load_frozen(workload: str) -> dict:
    if not DIGESTS.exists():
        return {}
    with open(DIGESTS) as fh:
        return json.load(fh).get(workload, {})


# ---------------------------------------------------------------------------
# entry points


def run_workload(args) -> int:
    os.environ.pop("NAADS_BUDGET_POINTS", None)  # jobs run at the default budgets
    work = WORK_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        naads, caches, pool, files, *setup = set_up(args.workload, args.seed, work)
        runs = Runs(pool)
        order_rng = random.Random(f"order/{args.workload}/{args.seed}")
        lines = [f"workload {args.workload}, seed {args.seed}, pool {len(pool)} jobs"]
        if not args.trace:
            passes = run_passes(naads, caches, files, runs, args.seconds, order_rng)
            metrics, notes = end_to_end(setup, runs, passes)
            metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
        else:
            from tracer import DENOMINATOR_BITS, Tracer

            untraced = run_passes(naads, caches, files, runs, 0, order_rng, max_passes=1)
            untraced_jps = pass_rate(runs, untraced)
            tracer = Tracer()
            tracer.install()
            try:
                traced = run_passes(naads, caches, files, runs, args.seconds, order_rng,
                                    tracer=tracer)
            finally:
                tracer.uninstall()
            passes = len(traced)
            overhead = 1 - pass_rate(runs, traced) / untraced_jps
            values = tracer.metrics(passes, overhead, runs.output_bytes)
            scale = statistics.median(f for _, f in traced)
            values = {k: v * scale if k.endswith("_s") else v for k, v in values.items()}
            units = per_layer_units()
            metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
            OUT_DIR.mkdir(exist_ok=True)
            span_path = OUT_DIR / f"spans-{args.workload}-{args.seed}.jsonl"
            tracer.write_spans(span_path)
            notes = [f"traced passes {passes}, spans {len(tracer.spans)} in {span_path}",
                     f"headroom: hull points cap {values['flow.hull_cap_headroom_min']} "
                     f"points, denominator bits {values['exact.den_bits_max']} of "
                     f"{DENOMINATOR_BITS} ({values['exact.den_bits_headroom']} left)"]
        failed, problems = gate(naads, pool, runs, load_frozen(args.workload))
        lines += notes
        lines += problems[:20]
        lines.append(f"fail_frac {failed / runs.attempted:.6g} ({failed}/{runs.attempted})")
        lines.append(f"report_digest {combined_digest(runs)}")
        for name, m in metrics.items():
            lines.append(f"{name} {m['value']:.6g} {m['unit']}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("\n".join(lines))
    print(json.dumps({"correct": failed == 0, "attempted": runs.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def per_layer_units() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def run_all(args) -> int:
    """Every workload in its own process; prints one table of results."""
    rows = []
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=600)
        if proc.returncode != 0:
            print(proc.stdout + proc.stderr, file=sys.stderr)
            status = 1
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        fail_frac = result["failed"] / result["attempted"]
        status |= not result["correct"]
        rows.append((name, fail_frac, result["metrics"]))
    for name, fail_frac, metrics in rows:
        print(f"[{name}]")
        for key, m in metrics.items():
            print(f"  {key:42s} {m['value']:14.6g} {m['unit']}")
        print(f"  {'fail_frac':42s} {fail_frac:14.6g} share")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "naads" / "__init__.py").is_file():
        print(f"error: no naads sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
