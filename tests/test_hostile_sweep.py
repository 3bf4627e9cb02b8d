"""Every task, every parameter, every hostile value: exit 0, 2 or 64, never a traceback.

Each case runs ``naads check`` in-process on one family with one parameter of
one task set to a hostile value and every other parameter at a small valid
value, so that a case that is accepted still runs fast.  The case must end in
exit 0 (a verdict), 2 (a budget) or 64 (bad input), with no exception out of
``main`` and within a time bound.  No parameter is boolean, so ``true`` must
exit 64.
"""

import contextlib
import io
import time

import pytest

from naads.cli import EXIT_INCONCLUSIVE, EXIT_OK, EXIT_USAGE, TASKS, main

HOSTILE = ("nan", "inf", "-inf", "1e308", "-1e308", "5e-324", "0", "-0.0", "-1", "2",
           "1/3", "12345678901234567890", "1e20", "true", "[]", "abc")

# A small valid value for every task parameter.
BASE = {"x": "0.3", "y": "0.7", "eps": "0.2", "delta": "0.25", "r": "2", "N": "4",
        "horizon": "3", "tol": "1e-9", "low_tol": "0.001", "high_tol": "0.3",
        "grid": "2", "grid_size": "2", "pair_grid": "3", "samples": "3",
        "radii": "0.1", "order_cap": "1", "order_k": "1", "depth": "1"}

CASE_SECONDS = 2.0


def _run(family, task, params):
    argv = ["--no-timestamp", "check", family, task]
    for key, value in params.items():
        argv += ["--param", f"{key}={value}"]
    err = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)  # an exception here would reach the user as a traceback
    return code, time.perf_counter() - start, err.getvalue()


def test_base_values_cover_every_task_parameter():
    assert set(BASE) == {key for task in TASKS.values() for key in task.params}


@pytest.mark.parametrize("family", ["circle_ex4", "example1_tent_sqrt", "circle_harmonic",
                                    "interval_square_sqrt"])
@pytest.mark.parametrize("task", sorted(TASKS))
def test_sweep(family, task):
    base = {key: BASE[key] for key in TASKS[task].params}
    cases = [base] + [{**base, key: value} for key in base for value in HOSTILE]
    bad = []
    for params in cases:
        code, seconds, err = _run(family, task, params)
        allowed = ((EXIT_USAGE,) if "true" in params.values()
                   else (EXIT_OK, EXIT_INCONCLUSIVE, EXIT_USAGE))
        if code not in allowed or seconds > CASE_SECONDS:
            bad.append((params, code, round(seconds, 2), err))
    assert not bad


# Found by the sweep: 1/eps overflowed to inf in the net size, a traceback.
@pytest.mark.parametrize("task", ["orbit_density", "minimality_certificate",
                                  "transitivity_scan", "r_transitivity_check"])
def test_subnormal_eps_is_a_budget_exit(task):
    params = {"x": "0", "eps": "5e-324", "N": "10", "r": "2"}
    params = {key: params[key] for key in TASKS[task].params if key in params}
    code, _, err = _run("circle_harmonic", task, params)
    assert code == EXIT_INCONCLUSIVE
    assert err == ("error: budget exceeded: an eps-net at eps=5e-324 exceeds the "
                   "budget of 65536 grid points\n")


def test_tiny_eps_names_eps_not_the_grid_size():
    code, _, err = _run("circle_harmonic", "orbit_density",
                        {"x": "0", "eps": "1e-300", "N": "10"})
    assert code == EXIT_INCONCLUSIVE
    assert "eps=1e-300" in err and len(err) < 120
