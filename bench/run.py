"""Run the aspic benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S --trace 0|1

``--trace 0`` measures the end-to-end metrics with no wrappers loaded.
``--trace 1`` first runs an untraced reference prefix of the workload, then
installs span wrappers (bench/spans.py) and reports the per-layer metrics,
including the tracing overhead.  Metric names and units come from
BENCHMARK.json.  Every metric is printed by name with its unit, then one
line of details (machine fingerprint, record digest, tail percentile,
sample counts, failed checks), then the result as one JSON object.
``--workload all`` runs each workload in turn, one child process each, so
that every workload gets its own peak RSS.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import subprocess
import sys
import time
from statistics import median

import numpy as np

import workloads as wl

SETUP_REPEATS = 5  # before the measurement, and as many again after it
WARMUP_ITERATIONS = 2
WARMUP_UNIT = 999  # unit index of the untimed warm-up run
OUT_DIR = wl.ROOT / "bench" / "out"  # span files of traced runs

# Times the runner's own set-up through the public API: a one-iteration
# run_aspic, less the wall time the runner records for that iteration.
SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, {src!r})
import aspic
result = aspic.run_aspic(aspic.ExperimentConfig(**{config!r}))
print(time.perf_counter() - t0 - result.records[0][0].wall_ms / 1e3)
"""


def declared_metrics() -> dict:
    """{"end_to_end": {name: unit}, "per_layer": {name: unit}}."""
    spec = json.loads((wl.ROOT / "BENCHMARK.json").read_text())
    return {kind: {m["name"]: m["unit"] for m in spec[kind]}
            for kind in ("end_to_end", "per_layer")}


def measure_setup(workload: wl.Workload, seed: int) -> list:
    """Seconds to import aspic and build config, env and policy, each time
    in a fresh interpreter, SETUP_REPEATS times."""
    config = dict(workload.config, seed=wl.unit_seed(seed, 0), repeats=1,
                  iterations=1)
    code = SETUP_CODE.format(src=str(wl.SRC), config=config)
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run([sys.executable, "-c", code], cwd=wl.ROOT,
                             capture_output=True, text=True, timeout=120,
                             check=True)
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return times


def warm_up(workload: wl.Workload, seed: int) -> None:
    wl.run_unit(workload, wl.unit_config(workload, seed, WARMUP_UNIT,
                                         iterations=WARMUP_ITERATIONS))


def run_units(workload: wl.Workload, seed: int, seconds: float,
              started: float, min_iterations: int = 0) -> list:
    """Units 0, 1, ... until the next would end past ``seconds`` after
    ``started``; at least one, and at least ``min_iterations`` iterations."""
    units = []
    iterations = 0
    while True:
        unit = wl.run_unit(workload, wl.unit_config(workload, seed,
                                                    len(units)))
        units.append(unit)
        iterations += sum(len(r.records) for r in unit.runs)
        elapsed = time.perf_counter() - started
        per_unit = sum(u.wall_s for u in units) / len(units)
        if iterations >= min_iterations and elapsed + per_unit > seconds:
            return units


def all_runs(units) -> list:
    return [run for unit in units for run in unit.runs]


def iter_ms(runs, max_iterations: int | None = None) -> list:
    return [rec.wall_ms for run in runs
            for rec in run.records[:max_iterations]]


def iters_to_threshold(run, threshold: float | None, budget: int) -> int:
    """Iterations a run took to reach the threshold, or its length without
    one.  A run that never reached it or ended in an error counts as
    ``budget + 1``, worse than any run that finished; the output checks
    flag it as well."""
    if run.error is None:
        if threshold is None:
            return len(run.records)
        for rec in run.records:
            if rec.mean_cost <= threshold:
                return rec.iteration + 1
    return budget + 1


def end_to_end(workload: wl.Workload, units, setup_s: float):
    runs = all_runs(units)
    samples = iter_ms(runs)
    cfg = workload.config
    steps = cfg["n_rollouts"] * wl.aspic.make_env(cfg["env"]).num_steps
    tail_pct = wl.tail_percentile(workload.min_iterations)
    metrics = {
        "setup_s": setup_s,
        "wall_s": median([u.wall_s for u in units]),
        "iter_ms.p50": median(samples),
        "iter_ms.tail": wl.percentile(samples, tail_pct),
        "rollout_steps_per_s": steps * len(samples) / (sum(samples) / 1e3),
        "iters_to_threshold.p50": median(
            [iters_to_threshold(r, workload.threshold, cfg["iterations"])
             for r in runs]),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    details = {
        "iter_ms.tail_percentile": tail_pct,
        "iter_samples": len(samples),
        "iter_samples_beyond_tail": sum(
            1 for s in samples if s > metrics["iter_ms.tail"]),
        "units": len(units),
        "runs": len(runs),
        "digest": wl.digest(runs),
    }
    return metrics, details


def per_layer(workload: wl.Workload, prefix, units, rec):
    """Per-iteration layer metrics from the spans of the traced units."""
    import spans

    cols = rec.arrays()
    ids = {name: i for i, name in enumerate(rec.names)}
    dur = cols["end"] - cols["start"]
    self_t = spans.self_times(cols["start"], cols["end"], cols["parent"])
    in_iter = cols["iteration"] >= 0

    def named(*span_names):
        return np.isin(cols["name"], [ids[n] for n in span_names if n in ids])

    is_iter = named(spans.ITERATION)
    n_iter = int(is_iter.sum())

    def ms(*span_names):
        return float(self_t[in_iter & named(*span_names)].sum()) / n_iter * 1e3

    def calls(name):
        return float((in_iter & named(name)).sum()) / n_iter

    iter_mean_ms = float(dur[is_iter].mean()) * 1e3
    run_s = dur[named(spans.RUN)]
    alpha_calls = calls("smoothing.find_alpha")
    eps = workload.config["epsilon"]
    kl_err = [abs(r.achieved_kl - eps) / eps for run in all_runs(units)
              for r in run.records if r.eta > 0]
    n_prefix = workload.prefix_iterations
    untraced_p50 = median(iter_ms(prefix.runs))
    traced_p50 = median(iter_ms(units[0].runs, n_prefix))
    m = {
        "environments.sample_batch.ms": ms("environments.sample_batch"),
        "trajectory.objects.calls": calls("trajectory.objects"),
        "trajectory.objects.ms": ms("trajectory.objects"),
        "policies.features.calls": calls("policies.features"),
        "policies.features.ms": ms("policies.features"),
        "policies.mean.calls": calls("policies.mean"),
        "policies.mean.ms": ms("policies.mean"),
        "policies.jac_y_steps.calls": calls("policies.jac_y_steps"),
        "policies.jac_y_steps.ms": ms("policies.jac_y_steps"),
        "policies.jac_t_v_steps.calls": calls("policies.jac_t_v_steps"),
        "policies.jac_t_v_steps.ms": ms("policies.jac_t_v_steps"),
        "policies.log_prob_steps.calls": calls("policies.log_prob_steps"),
        "policies.log_prob_steps.ms": ms("policies.log_prob_steps"),
        "smoothing.find_alpha.ms": ms("smoothing.find_alpha",
                                      "smoothing.normalized_weights"),
        "smoothing.weight_evals": (calls("smoothing.normalized_weights")
                                   / alpha_calls if alpha_calls else 0.0),
        "gradients.estimator.ms": ms("gradients.estimator"),
        "natural_gradient.step.ms": float(
            dur[in_iter & named(spans.STEP)].sum()) / n_iter * 1e3,
        "natural_gradient.solve.ms": ms("natural_gradient.solve"),
        "natural_gradient.line_search.ms": ms(spans.STEP),
        "natural_gradient.cg_iterations": (
            sum(rec.cg_iterations) / len(rec.cg_iterations)
            if rec.cg_iterations else 0.0),
        "natural_gradient.kl_rel_err.max": max(kl_err, default=0.0),
        "runner.self.ms": ms(spans.ITERATION),
        "runner.run_s.p50": float(median(run_s)),
        "runner.parallel_efficiency": float(run_s.sum())
        / sum(u.wall_s for u in units),
        "trace.overhead_ms": traced_p50 - untraced_p50,
    }
    m["environments.sample_batch.share"] = (
        m["environments.sample_batch.ms"] / iter_mean_ms)
    accounted = float(self_t[in_iter].sum()) / float(dur[is_iter].sum())
    details = {
        "iterations_traced": n_iter,
        "spans": len(dur),
        "iter_ms.mean_traced": iter_mean_ms,
        "iter_ms.p50_untraced_prefix": untraced_p50,
        "iter_ms.p50_traced_prefix": traced_p50,
        "accounted_frac": accounted,
        "workers": 1,
    }
    problems = []
    n_records = sum(len(run.records) for run in all_runs(units))
    if n_iter != n_records:
        problems.append(f"{n_iter} iteration spans for {n_records} records")
    if not math.isclose(accounted, 1.0, rel_tol=1e-9):
        problems.append(f"layer self times cover {accounted!r} of the "
                        f"iteration time")
    problems.extend(spans.iteration_problems(cols, ids[spans.ITERATION]))
    prefix_digest = wl.digest(prefix.runs)
    if prefix_digest != wl.digest(units[0].runs, n_prefix):
        problems.append("traced records differ from the untraced reference")
    details["digest_prefix"] = prefix_digest
    details["digest"] = wl.digest(all_runs(units))
    return m, details, problems


def measure(workload: wl.Workload, seed: int, seconds: float, trace: bool):
    """Returns (metrics, details, attempted, failed, problems, recorder);
    the span recorder is None for an untraced measurement."""
    eps = workload.config["epsilon"]
    if not trace:
        if "spans" in sys.modules:
            raise RuntimeError("untraced measurement with spans loaded")
        # Set-up is timed on both sides of the measurement, so that it
        # samples the host at the start and at the end of the run.
        setup = measure_setup(workload, seed)
        warm_up(workload, seed)
        started = time.perf_counter()
        units = run_units(workload, seed, seconds, started,
                          workload.min_iterations)
        measured_s = time.perf_counter() - started
        setup += measure_setup(workload, seed)
        metrics, details = end_to_end(workload, units, median(setup))
        details["measured_s"] = measured_s
        attempted, failed, problems = wl.check_runs(
            all_runs(units), eps, workload.threshold)
        return metrics, details, attempted, failed, problems, None

    warm_up(workload, seed)
    started = time.perf_counter()
    prefix = wl.run_unit(workload, wl.unit_config(
        workload, seed, 0, iterations=workload.prefix_iterations))
    import spans

    rec = spans.SpanRecorder()
    with spans.Tracer(rec):
        units = run_units(workload, seed, seconds, started)
    metrics, details, problems = per_layer(workload, prefix, units, rec)
    details["measured_s"] = time.perf_counter() - started
    a1, f1, p1 = wl.check_runs(prefix.runs, eps, None)
    a2, f2, p2 = wl.check_runs(all_runs(units), eps, workload.threshold)
    return metrics, details, a1 + a2, f1 + f2, problems + p1 + p2, rec


def run_one(args) -> int:
    workload = wl.WORKLOADS[args.workload]
    kind = "per_layer" if args.trace else "end_to_end"
    units = declared_metrics()[kind]
    metrics, details, attempted, failed, problems, rec = measure(
        workload, args.seed, args.seconds, bool(args.trace))
    if set(metrics) != set(units):
        raise RuntimeError(f"measured metrics {sorted(metrics)} do not match "
                           f"the {kind} list in BENCHMARK.json")
    if rec is not None:
        OUT_DIR.mkdir(exist_ok=True)
        spans_file = OUT_DIR / f"spans-{workload.name}-seed{args.seed}.npz"
        rec.save(spans_file)
        details["spans_file"] = str(spans_file.relative_to(wl.ROOT))
    for name in units:
        print(f"{args.workload} {name} = {metrics[name]!r} {units[name]}")
    # Not in BENCHMARK.json: a bounded metric may not be 0, and this one
    # is 0 whenever the program is right.
    print(f"{args.workload} failed_frac = {failed / attempted!r} fraction")
    details.update(workload=args.workload, seed=args.seed, trace=args.trace,
                   failed_frac=failed / attempted, problems=problems[:20],
                   fingerprint=wl.fingerprint())
    print(json.dumps(details))
    result = {"correct": failed == 0 and not problems,
              "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": metrics[name], "unit": units[name]}
                          for name in units}}
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own child process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in wl.WORKLOADS:
        out = subprocess.run(
            [sys.executable, __file__, "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600, check=True)
        lines = out.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(wl.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
