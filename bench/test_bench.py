"""Tests for the benchmark's own code: span arithmetic, output checks,
metric declarations, and a tiny traced measurement end to end."""

import json
import math
import re
from dataclasses import replace

import numpy as np
import pytest

import run
import spans
import workloads as wl
from aspic import IterationRecord

SPEC = json.loads((wl.ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def record(**kw):
    base = dict(run=0, iteration=0, mean_cost=1.0, std_cost=0.5, alpha=0.2,
                kl_est=0.1, eta=0.3, achieved_kl=0.1, wall_ms=5.0, seed=7)
    base.update(kw)
    return IterationRecord(**base)


# -- span arithmetic ---------------------------------------------------------

def test_self_times_subtract_direct_children_only():
    #   0: [0, 10]  ->  1: [1, 6]  ->  2: [2, 3]
    #               ->  3: [7, 9]
    start = [0.0, 1.0, 2.0, 7.0]
    end = [10.0, 6.0, 3.0, 9.0]
    parent = [-1, 0, 1, 0]
    np.testing.assert_allclose(spans.self_times(start, end, parent),
                               [10 - 5 - 2, 5 - 1, 1, 2])


def test_recorder_builds_iterations_that_self_times_account_for():
    rec = spans.SpanRecorder()
    run_span = rec.begin_run()
    setup = rec.open("policies.features")   # before the first iteration
    rec.close(setup)
    for _ in range(2):
        rec.begin_iteration()
        outer = rec.open("environments.sample_batch")
        inner = rec.open("policies.mean")
        rec.close(inner)
        rec.close(outer)
        step = rec.open(spans.STEP)
        rec.close(step)
        rec.end_iteration(wall_s=1.0)
    rec.end_run(run_span)

    cols = rec.arrays()
    names = np.array(rec.names)[cols["name"]]
    iters = np.flatnonzero(names == spans.ITERATION)
    assert len(iters) == 2
    assert cols["parent"][setup] == run_span
    assert cols["iteration"][setup] == -1
    for it, idx in enumerate(iters):
        members = np.flatnonzero(cols["iteration"] == it)
        top = members[cols["parent"][members] == idx]
        assert [names[j] for j in top] == ["environments.sample_batch",
                                           spans.STEP]
        self_t = spans.self_times(cols["start"], cols["end"], cols["parent"])
        assert math.isclose(self_t[members].sum(), 1.0, rel_tol=1e-12)


def overlong_iteration(child_s):
    """Columns of one iteration lasting 1 s that ended at t=10, with one
    top-level child of ``child_s`` seconds that ended at t=9.9."""
    rec = spans.SpanRecorder()
    run_span = rec.begin_run()
    rec.begin_iteration()
    rec.close(rec.open("environments.sample_batch", start=9.9 - child_s),
              end=9.9)
    rec.end_iteration(wall_s=1.0, now=10.0)
    rec.end_run(run_span)
    return rec.arrays(), rec.names.index(spans.ITERATION)


def test_iteration_check_passes_a_child_inside_the_iteration():
    cols, iteration_id = overlong_iteration(0.5)
    assert spans.iteration_problems(cols, iteration_id) == []


def test_iteration_check_flags_children_longer_than_wall_ms():
    cols, iteration_id = overlong_iteration(1.5)
    problems = spans.iteration_problems(cols, iteration_id)
    assert any("longer than the iteration" in p for p in problems)
    assert any("outside its iteration span" in p for p in problems)


def test_tracer_restores_every_wrapped_name():
    before = [owner.__dict__[attr] for owner, attr, _ in spans.TARGETS]
    with spans.Tracer(spans.SpanRecorder()):
        during = [owner.__dict__[attr] for owner, attr, _ in spans.TARGETS]
        assert all(a is not b for a, b in zip(before, during))
    after = [owner.__dict__[attr] for owner, attr, _ in spans.TARGETS]
    assert all(a is b for a, b in zip(before, after))


# -- output checks -----------------------------------------------------------

def test_checks_pass_a_clean_run():
    runs = [wl.RunOutcome("run", [record(), record(iteration=1)])]
    assert wl.check_runs(runs, 0.1, None) == (2, 0, [])


@pytest.mark.parametrize("bad", [
    dict(mean_cost=float("nan")),
    dict(alpha=float("inf")),
    dict(achieved_kl=0.12),           # 20% off epsilon with eta > 0
    dict(eta=float("nan")),
])
def test_checks_flag_a_corrupted_record(bad):
    runs = [wl.RunOutcome("run", [record(), record(iteration=1, **bad)])]
    attempted, failed, problems = wl.check_runs(runs, 0.1, None)
    assert (attempted, failed) == (2, 1)
    assert "iteration 1" in problems[0]


def test_kl_band_applies_only_to_taken_steps():
    runs = [wl.RunOutcome("run", [record(eta=0.0, achieved_kl=0.0)])]
    assert wl.check_runs(runs, 0.1, None)[1] == 0


def test_checks_count_errors_and_missed_thresholds():
    runs = [wl.RunOutcome("a", [record(mean_cost=5.0)]),
            wl.RunOutcome("b", [record()], error="RunError('boom')"),
            wl.RunOutcome("c", [record(mean_cost=3.0)])]
    attempted, failed, problems = wl.check_runs(runs, 0.1, threshold=4.0)
    assert (attempted, failed) == (4, 2)
    assert any("above the threshold" in p for p in problems)
    assert any("boom" in p for p in problems)


def test_digest_ignores_wall_ms_and_sees_value_changes():
    runs = [wl.RunOutcome("run", [record(), record(iteration=1)])]
    same = [wl.RunOutcome("run", [record(wall_ms=99.0),
                                  record(iteration=1, wall_ms=1.0)])]
    moved = [wl.RunOutcome("run", [record(),
                                   record(iteration=1, mean_cost=1.0 + 1e-15)])]
    assert wl.digest(runs) == wl.digest(same)
    assert wl.digest(runs) != wl.digest(moved)
    assert wl.digest(runs, 1) == wl.digest([wl.RunOutcome("run", [record()])])


@pytest.mark.parametrize("threshold, outcome, count", [
    (None, wl.RunOutcome("run", [record(), record(iteration=1)]), 2),
    (0.5, wl.RunOutcome("run", [record(), record(iteration=1,
                                                 mean_cost=0.4)]), 2),
    (0.5, wl.RunOutcome("run", [record(), record(iteration=1)]), 11),
    (None, wl.RunOutcome("run", [], error="RunError('boom')"), 11),
])
def test_failed_runs_never_read_as_faster_convergence(threshold, outcome,
                                                      count):
    assert run.iters_to_threshold(outcome, threshold, budget=10) == count


# -- declarations ------------------------------------------------------------

def test_benchmark_json_follows_the_naming_rules():
    assert SPEC["command"][:2] == ["python3", "bench/run.py"]
    assert SPEC["paths"] == ["bench"]
    names = [w["name"] for w in SPEC["workloads"]]
    assert names == list(wl.WORKLOADS)
    for w in SPEC["workloads"]:
        assert NAME.match(w["name"])
        assert "\n" not in w["why"] and len(w["why"]) <= 200
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    assert len({m["name"] for m in metrics}) == len(metrics)
    for m in metrics:
        assert NAME.match(m["name"]) and UNIT.match(m["unit"])
        assert m["better"] in ("lower", "higher")
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("n, pct", [(10, 50), (40, 75), (99, 75), (100, 90),
                                    (1000, 99), (9999, 99)])
def test_tail_percentile_keeps_ten_samples_beyond(n, pct):
    assert wl.tail_percentile(n) == pct


# -- a tiny measurement through the public API -------------------------------

TINY = wl.Workload(
    name="tiny", min_iterations=1,
    prefix_iterations=2,
    config=dict(env="lq_viapoints", n_rollouts=8, iterations=3, epsilon=0.1,
                gamma=1.0, delta={"lognfrac": 0.2},
                solver={"kind": "per_timestep_pinv", "rcond": 1e-4}),
    sweep_deltas=(0, {"lognfrac": 0.2}))
TINY_MLP = replace(
    TINY, name="tiny_mlp", sweep_deltas=None,
    config=dict(env="pendulum", n_rollouts=4, iterations=2, epsilon=0.1,
                gamma=1.0, delta={"absolute": 0.5},
                solver={"kind": "cg", "iters": 3}, policy="mlp"))


@pytest.mark.parametrize("workload", [TINY, TINY_MLP], ids=["lq", "mlp"])
def test_traced_measurement_reports_the_declared_layers(workload):
    declared = run.declared_metrics()
    metrics, details, attempted, failed, problems, rec = run.measure(
        workload, seed=3, seconds=0.01, trace=True)
    assert set(metrics) == set(declared["per_layer"])
    assert (failed, problems) == (0, [])
    assert attempted > 0
    assert math.isclose(details["accounted_frac"], 1.0, rel_tol=1e-9)
    kind = (metrics["policies.features.calls"] > 0,
            metrics["policies.jac_y_steps.calls"] > 0)
    assert kind == ((True, True) if workload is TINY else (False, True))

    units = run.run_units(workload, 3, 0.01, started=0.0)
    e2e, _ = run.end_to_end(workload, units, setup_s=0.1)
    assert set(e2e) == set(declared["end_to_end"])
    assert all(v > 0 for v in e2e.values())
