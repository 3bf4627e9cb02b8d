"""Self-tests of the benchmark: traced counts repeat, tracing leaves reports alone.

Run from the repository root with ``python -m pytest bench/test_bench.py``.
Each case starts ``bench/run.py`` in a child process for one pass per mode.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("hull_float", "orbit_scan", "exact_certify")
REPEATED_COUNTS = ("maps.applications", "space.metric_calls", "flow.hull_points",
                   "exact.hull_size", "flow.omega_calls", "exact.displacement_calls",
                   "corpus.build_calls", "cli.checker_reruns")


def _run(workload, trace):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    digest = next(line.split()[1] for line in lines if line.startswith("report_digest "))
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0, proc.stdout
    return digest, {k: v["value"] for k, v in result["metrics"].items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_and_reports_match_untraced(workload):
    digest_a, traced_a = _run(workload, 1)
    digest_b, traced_b = _run(workload, 1)
    digest_plain, _ = _run(workload, 0)
    for name in REPEATED_COUNTS:
        assert traced_a[name] == traced_b[name], name
    # every traced execution is also checked against the untraced pass inside
    # a run; across runs the combined report digest must not move either
    assert digest_a == digest_b == digest_plain
