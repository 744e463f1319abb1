"""Tests for the experiment loop, sweeps, export and the CLI."""

import csv
import json
import pickle
import re
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import aspic.cli
import aspic.runner
from aspic import (ExperimentConfig, IterationRecord, MlpPolicy,
                   RolloutBlowupError, RunError, TimeVaryingLinearPolicy,
                   config_hash, export, make_env, resolve_delta, run_aspic,
                   sample_batch, sweep, trust_region_step)
from aspic.cli import main as cli_main
from aspic.natural_gradient import SOLVERS

RECORD_FIELDS = [f.name for f in fields(IterationRecord)]

SMALL_LQ = dict(env="lq_viapoints", n_rollouts=8, iterations=3, epsilon=0.1,
                gamma=1.0, delta={"lognfrac": 0.2},
                env_overrides={"horizon": 1.0, "dt": 0.1,
                               "viapoints": ((0.5, 1.0), (1.0, -1.0)),
                               "sigma": 0.5},
                solver={"kind": "per_timestep_pinv", "rcond": 1e-4})


# An acrobot grid coarse enough that the first iteration blows up.
COARSE_ACROBOT = dict(env="acrobot", n_rollouts=4, iterations=200,
                      epsilon=10.0, gamma=1.0, delta={"absolute": 0.5},
                      env_overrides={"dt": 0.5, "horizon": 100.0},
                      solver={"kind": "cg", "iters": 5})

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def small_config(**kwargs):
    d = dict(SMALL_LQ)
    d.update(kwargs)
    return ExperimentConfig(**d)


def _strip_wall(records):
    """Record streams minus the wall-clock column (not reproducible)."""
    return [[(r.run, r.iteration, r.mean_cost, r.std_cost, r.alpha, r.kl_est,
              r.eta, r.achieved_kl, r.seed) for r in run] for run in records]


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            small_config(n_rollouts=1)
        with pytest.raises(ValueError):
            small_config(iterations=0)
        with pytest.raises(ValueError):
            small_config(epsilon=-0.1)
        with pytest.raises(ValueError):
            small_config(estimator="adam")
        with pytest.raises(ValueError):
            small_config(delta=None)  # smoothed estimator needs delta > 0

    @pytest.mark.parametrize("overrides, key", [
        (dict(env="cartpole"), "env"),
        (dict(policy="rbf"), "policy"),
        (dict(solver={"kind": "lbfgs"}), "kind"),
        (dict(solver={"kind": "cg", "itrs": 3}), "itrs"),
        (dict(solver={"kind": "per_timestep_pinv", "iters": 3}), "iters"),
        (dict(gamma=-0.5), "gamma"),
        (dict(policy="mlp"), "per_timestep_pinv"),
        (dict(repeats=0), "repeats"),
        (dict(env_overrides={"horizon": 0.35}), "env_overrides"),
        (dict(env_overrides={"dtt": 0.1}), "env_overrides"),
        (dict(solver={"kind": "cg", "iters": "ten"}), "solver.iters"),
        (dict(solver={"kind": "cg", "iters": 2.5}), "solver.iters"),
        (dict(solver={"kind": "per_timestep_pinv", "rcond": "1e-4"}),
         "solver.rcond"),
        (dict(n_rollouts="8"), "n_rollouts"),
        (dict(iterations=2.5), "iterations"),
        (dict(repeats="1"), "repeats"),
        (dict(seed="0"), "seed"),
        (dict(epsilon="0.1"), "epsilon"),
        (dict(gamma=None), "gamma"),
        (dict(cost_threshold="2e4"), "cost_threshold"),
        (dict(rollout_budget=True), "rollout_budget"),
        (dict(solver="cg"), "solver"),
        (dict(solver={"kind": ["cg"]}), "kind"),
        (dict(delta=[0.5]), "delta"),
        (dict(delta=True), "delta"),
        (dict(delta={"absolute": [0.5]}), "delta"),
        (dict(env_overrides={"dt": 0}), "env_overrides.*dt must be > 0"),
        (dict(env_overrides={"dt": -0.1}), "env_overrides.*dt must be > 0"),
        (dict(env_overrides={"nu": 0}), "env_overrides.*nu must be > 0"),
        (dict(env_overrides={"horizon": -1.0}),
         "env_overrides.*horizon must be > 0"),
        (dict(env_overrides={"sigma": 0}), "env_overrides.*sigma"),
        (dict(estimator="pice", delta=None, gamma=0.0), "gamma"),
        (dict(solver={"kind": "cg", "iters": 0}), "solver.iters"),
        (dict(solver={"kind": "cg", "iters": -3}), "solver.iters"),
        (dict(solver={"kind": "cg", "damping": -1.0}), "solver.damping"),
        (dict(solver={"kind": "per_timestep_pinv", "rcond": -1.0}),
         "solver.rcond"),
        (dict(solver={"kind": "cg", "damping": float("inf")}),
         "solver.damping"),
        (dict(epsilon=float("inf")), "epsilon"),
        (dict(gamma=float("inf")), "gamma"),
        (dict(delta=float("inf")), "delta"),
        (dict(delta={"absolute": 0.5, "lognfrac": 0.2}), "delta"),
        (dict(delta={"absolute": 0.5, "absolut": 0.7}), "delta"),
        (dict(rollout_budget=-5), "rollout_budget"),
        (dict(rollout_budget=0), "rollout_budget"),
        (dict(epsilon=10 ** 400), "epsilon"),
        (dict(delta={"lognfrac": 1e308}), "delta"),
        (dict(env_overrides={"horizon": 1.0, "dt": 0.1,
                             "viapoints": ((0.5, 1.0), (2.0, -1.0))}),
         "env_overrides.*viapoints"),
        (dict(env_overrides={"viapoints": ((1e308, 1.0),)}), "env_overrides"),
        (dict(env_overrides={"dt": 1e-320}), "env_overrides"),
        (dict(env_overrides={"sigma": float("nan")}),
         "env_overrides.*sigma must be a finite number"),
        (dict(env_overrides={"viapoints": ((1.0, float("nan")),)}),
         "env_overrides.*viapoints target"),
        (dict(env_overrides={"viapoints": 5}),
         "env_overrides.*: viapoints must be a sequence"),
        (dict(seed=-1), "seed"),
    ])
    def test_invalid_config_rejected_at_construction(self, overrides, key):
        with pytest.raises(ValueError, match=key):
            small_config(**overrides)

    def test_solver_values_cast_at_construction(self):
        cfg = small_config(solver={"kind": "cg", "iters": 3.0, "damping": 1})
        assert cfg.solver == {"kind": "cg", "iters": 3, "damping": 1.0}
        assert type(cfg.solver["iters"]) is int
        assert type(cfg.solver["damping"]) is float

    def test_top_level_numbers_cast_at_construction(self):
        cfg = small_config(n_rollouts=8.0, epsilon=1, cost_threshold=2,
                           rollout_budget=80.0)
        assert (cfg.n_rollouts, cfg.epsilon) == (8, 1.0)
        assert type(cfg.n_rollouts) is int
        assert type(cfg.epsilon) is float
        assert type(cfg.cost_threshold) is float
        assert type(cfg.rollout_budget) is int
        assert small_config().cost_threshold is None

    @pytest.mark.parametrize("payload", [5, [1], "config", None])
    def test_from_dict_needs_an_object(self, payload):
        with pytest.raises(ValueError, match="JSON object"):
            ExperimentConfig.from_dict(payload)

    def test_from_dict_names_unknown_and_missing_keys(self):
        d = small_config().to_dict()
        with pytest.raises(ValueError, match="n_rolouts"):
            ExperimentConfig.from_dict({**d, "n_rolouts": 8})
        del d["gamma"]
        with pytest.raises(ValueError, match="gamma"):
            ExperimentConfig.from_dict(d)

    def test_solver_kind_defaults_to_cg(self):
        cfg = small_config(solver={"iters": 3, "damping": 0.1})
        assert run_aspic(cfg.replace(iterations=1)).records[0]

    def test_resolve_delta_forms(self):
        assert resolve_delta({"absolute": 0.5}, 100) == 0.5
        assert resolve_delta({"lognfrac": 0.2}, 100) == pytest.approx(
            0.2 * np.log(100))
        assert resolve_delta(0.7, 100) == 0.7
        assert resolve_delta(None, 100) == 0.0
        with pytest.raises(ValueError):
            resolve_delta({"relative": 0.1}, 100)
        for bad in ({}, {"absolute": 0.5, "lognfrac": 0.2},
                    {"lognfrac": 0.2, "lognfracc": 0.2}, {"lognfrac": 1e308}):
            with pytest.raises(ValueError, match="delta"):
                resolve_delta(bad, 100)

    def test_round_trip_and_hash(self):
        cfg = small_config()
        clone = ExperimentConfig.from_dict(cfg.to_dict())
        assert config_hash(clone) == config_hash(cfg)
        assert config_hash(cfg.replace(seed=1)) != config_hash(cfg)

    @pytest.mark.parametrize("solver", [{}, {"kind": "cg"}, {"iters": 4}])
    def test_solver_keeps_only_the_given_keys(self, solver):
        # The step fills in the defaults, so a config's hash does not move
        # when a default does.
        assert small_config(solver=solver).solver == solver


def bad_solver_values(kind, key):
    """Values of ``key`` that solver ``kind`` refuses: a key of another
    kind, or a value of another type or below its least value."""
    if key not in SOLVERS[kind]:
        return [1]
    typ, least, default = SOLVERS[kind][key]
    bad = [least - 1, True, str(default), None, [default], float("nan"),
           float("inf")]
    return bad + [default + 0.5] if typ is int else bad


@pytest.mark.parametrize("kind, key, value", [
    (kind, key, value) for kind in sorted(SOLVERS)
    for key in sorted({k for spec in SOLVERS.values() for k in spec})
    for value in bad_solver_values(kind, key)])
def test_config_and_step_refuse_the_same_solver_values(kind, key, value):
    """One table rules both: the config refuses a solver value, naming
    ``solver.<key>``, exactly when the step refuses it, naming ``key``."""
    with pytest.raises(ValueError) as config_error:
        small_config(solver={"kind": kind, key: value})
    env = make_env("lq_viapoints", SMALL_LQ["env_overrides"])
    policy = TimeVaryingLinearPolicy(*env.linear_basis, env.num_steps,
                                     env.noise_var)
    batch = sample_batch(env, policy, 4, 0, gamma=1.0)
    with pytest.raises(ValueError) as step_error:
        trust_region_step(batch, policy, np.ones(policy.params.size), 0.1,
                          kind, **{key: value})
    message = str(step_error.value)
    assert str(config_error.value) == (
        message if message.startswith("unknown") else "solver." + message)
    assert key in message


positive = st.floats(1e-6, 1e6)
solvers = st.one_of(
    st.fixed_dictionaries({"kind": st.just("cg")},
                          optional={"iters": st.integers(1, 100),
                                    "damping": st.floats(0.0, 1e3)}),
    st.fixed_dictionaries({"kind": st.just("per_timestep_pinv"),
                           "rcond": st.floats(1e-12, 1.0)}))
deltas = st.one_of(positive, st.fixed_dictionaries({"absolute": positive}),
                   st.fixed_dictionaries({"lognfrac": positive}))
# pice weights by gamma alone, so it needs gamma > 0.
configs = st.fixed_dictionaries({
    "env": st.sampled_from(["lq_viapoints", "pendulum", "acrobot"]),
    "n_rollouts": st.integers(2, 10**6),
    "iterations": st.integers(1, 10**6),
    "epsilon": positive,
    "gamma": st.floats(0.0, 1e6),
    "delta": deltas,
    "estimator": st.sampled_from(["smoothed", "direct", "pice"]),
    "solver": solvers,
    "seed": st.integers(0, 2**63),
    "repeats": st.integers(1, 100),
    "cost_threshold": st.none() | st.floats(-1e9, 1e9),
    "rollout_budget": st.none() | st.integers(2, 10**9),
}).filter(lambda d: d["gamma"] > 0 or d["estimator"] != "pice").flatmap(
    lambda d: st.sampled_from(
    ["linear"] if d["solver"]["kind"] == "per_timestep_pinv"
    else ["linear", "mlp"]).map(lambda policy: {**d, "policy": policy}))


@settings(deadline=None, max_examples=100)
@given(configs)
def test_config_round_trip_keeps_hash(d):
    cfg = ExperimentConfig.from_dict(d)
    for clone in (ExperimentConfig.from_dict(cfg.to_dict()),
                  ExperimentConfig.from_dict(json.loads(
                      json.dumps(cfg.to_dict())))):
        assert clone == cfg
        assert clone.to_dict() == cfg.to_dict()
        assert config_hash(clone) == config_hash(cfg)
    assert config_hash(cfg.replace(seed=cfg.seed + 1)) != config_hash(cfg)


class TestRun:
    def test_deterministic_record_stream(self):
        r1 = run_aspic(small_config())
        r2 = run_aspic(small_config())
        assert _strip_wall(r1.records) == _strip_wall(r2.records)

    def test_record_fields_finite(self):
        res = run_aspic(small_config(repeats=2))
        assert len(res.records) == 2
        for run in res.records:
            assert len(run) == 3
            for rec in run:
                assert np.isfinite(rec.mean_cost)
                assert np.isfinite(rec.eta)
                assert abs(rec.achieved_kl - 0.1) <= 0.01 or rec.eta == 0.0
                assert rec.alpha is not None and rec.kl_est is not None

    def test_direct_estimator_skips_alpha(self):
        res = run_aspic(small_config(estimator="direct", delta=None))
        assert all(rec.alpha is None for rec in res.records[0])

    def test_pice_estimator_runs(self):
        res = run_aspic(small_config(estimator="pice", delta=None))
        assert len(res.records[0]) == 3

    def test_cost_threshold_stops_early(self):
        res = run_aspic(small_config(iterations=50, cost_threshold=1e12))
        assert len(res.records[0]) == 1

    def test_failure_preserves_partial_records(self):
        cfg = ExperimentConfig(**COARSE_ACROBOT, repeats=2)
        with pytest.raises(RunError) as excinfo:
            run_aspic(cfg)
        err = excinfo.value
        assert err.partial.records == []
        assert (err.run, err.iteration) == (0, 0)
        assert str(err) == ("run terminated in repeat 0 at iteration 0: "
                            "state blow-up at rollout 3, step 7")

    def test_later_failure_keeps_the_repeats_before_it(self, monkeypatch):
        real = aspic.runner.sample_batch

        def failing(env, policy, n, seed, gamma):
            if seed[1:] == (1, 2):
                raise RolloutBlowupError(7, 3)
            return real(env, policy, n, seed, gamma)

        monkeypatch.setattr(aspic.runner, "sample_batch", failing)
        with pytest.raises(RunError) as excinfo:
            run_aspic(small_config(repeats=3))
        err = excinfo.value
        assert (err.run, err.iteration) == (1, 2)
        assert str(err).startswith("run terminated in repeat 1 at iteration 2")
        assert _strip_wall(err.partial.records) == _strip_wall(
            run_aspic(small_config()).records)

    def test_errors_survive_pickling(self):
        # A worker process hands its failure back pickled.
        blowup = RolloutBlowupError(3, 7)
        back = pickle.loads(pickle.dumps(blowup))
        assert type(back) is RolloutBlowupError
        assert (str(back), back.step, back.index) == (str(blowup), 3, 7)
        partial = run_aspic(small_config(iterations=2))
        err = RunError(blowup, partial, 1, 2)
        back = pickle.loads(pickle.dumps(err))
        assert type(back) is RunError
        assert str(back) == str(err) == ("run terminated in repeat 1 at "
                                         "iteration 2: state blow-up at "
                                         "rollout 7, step 3")
        assert (back.run, back.iteration) == (1, 2)
        assert type(back.cause) is RolloutBlowupError
        assert (back.cause.step, back.cause.index) == (3, 7)
        assert back.partial.config == partial.config
        assert back.partial.records == partial.records
        assert len(back.partial.records[0]) == 2

    def test_linear_policy_forms_its_batch_mean_once(self, monkeypatch):
        # Per iteration: the mean over the batch, shared by the gradient
        # and the closed-form KL root, one J y per CG iteration and one for
        # the root.  Forming the mean once more would add a product.
        log, products = [], TimeVaryingLinearPolicy._step_products

        def counted_products(self, xs, coef):
            log[-1]["products"] += 1
            return products(self, xs, coef)

        def counted_sample(*args, **kwargs):
            log.append({"products": 0, "cg": 0})
            return sample_batch(*args, **kwargs)

        def counted_step(*args, **kwargs):
            update = trust_region_step(*args, **kwargs)
            log[-1]["cg"] = update.cg_iterations or 0
            return update

        monkeypatch.setattr(TimeVaryingLinearPolicy, "_step_products",
                            counted_products)
        monkeypatch.setattr(aspic.runner, "sample_batch", counted_sample)
        monkeypatch.setattr(aspic.runner, "trust_region_step", counted_step)
        for solver in ({"kind": "per_timestep_pinv"},
                       {"kind": "cg", "iters": 3}):
            log.clear()
            run_aspic(small_config(solver=solver))
            assert len(log) == 3
            for counts in log:
                assert counts["products"] == 2 + counts["cg"]
            assert (sum(counts["cg"] for counts in log) > 0) == (
                solver["kind"] == "cg")

    def test_mlp_policy_runs(self):
        res = run_aspic(small_config(policy="mlp",
                                     solver={"kind": "cg", "iters": 10}))
        assert len(res.records[0]) == 3

    def test_mlp_evaluates_each_batch_once(self, monkeypatch):
        # Per iteration: one forward over all batch rows that keeps its
        # hidden layers, and one that keeps none per line-search trial.  A
        # caller handing an MLP product, or the sampling policy's
        # log-probabilities, ``batch.xs`` would add forwards over the batch.
        cfg = ExperimentConfig.from_json(CONFIGS / "pendulum.json").replace(
            policy="mlp", solver={"kind": "cg", "iters": 10}, n_rollouts=4,
            iterations=3, env_overrides={"horizon": 1.0}, cost_threshold=None)
        env = make_env(cfg.env, cfg.env_overrides)
        log, forward = [], MlpPolicy._forward

        def counted_forward(self, xs, keep):
            if np.size(xs) == cfg.n_rollouts * env.num_steps * env.state_dim:
                log[-1][keep] += 1
            return forward(self, xs, keep)

        def counted_sample(*args, **kwargs):
            log.append({True: 0, False: 0})
            return sample_batch(*args, **kwargs)

        def counted_step(*args, **kwargs):
            update = trust_region_step(*args, **kwargs)
            log[-1]["trials"] = update.kl_evaluations
            return update

        monkeypatch.setattr(MlpPolicy, "_forward", counted_forward)
        monkeypatch.setattr(aspic.runner, "sample_batch", counted_sample)
        monkeypatch.setattr(aspic.runner, "trust_region_step", counted_step)
        run_aspic(cfg)
        assert len(log) == 3
        for counts in log:
            assert counts[True] == 1
            assert counts[False] == counts["trials"] > 0

    def test_iterations_to_threshold(self):
        res = run_aspic(small_config(iterations=5))
        costs = [rec.mean_cost for rec in res.records[0]]
        hit = res.iterations_to_threshold(min(costs))[0]
        assert costs[hit - 1] == min(costs)
        assert res.iterations_to_threshold(-1e18) == [None]


class TestSweep:
    def test_delta_zero_switches_to_direct(self):
        cells = sweep(small_config(), "delta", [0, {"lognfrac": 0.2}])
        direct_cell = cells["delta=0"]
        assert direct_cell.config.estimator == "direct"
        smoothed_label = f"delta={0.2 * np.log(8):.6g}"
        assert cells[smoothed_label].config.estimator == "smoothed"

    def test_single_value_matches_run(self):
        cfg = small_config()
        cells = sweep(cfg, "delta", [{"lognfrac": 0.2}])
        (cell,) = cells.values()
        assert _strip_wall(cell.records) == _strip_wall(run_aspic(cfg).records)

    def test_n_axis_respects_budget(self):
        cfg = small_config(rollout_budget=48)
        cells = sweep(cfg, "n", [4, 8])
        assert cells["n=4"].config.iterations == 12
        assert cells["n=8"].config.iterations == 6

    def test_grid_axis(self):
        cells = sweep(small_config(), "grid",
                      [({"lognfrac": 0.2}, 0.1), ({"absolute": 0.5}, 0.2)])
        assert len(cells) == 2
        assert all(not isinstance(c, Exception) for c in cells.values())

    def test_grid_delta_zero_switches_to_direct(self):
        cells = sweep(small_config(), "grid", [(0, 0.1)])
        assert cells["delta=0,eps=0.1"].config.estimator == "direct"

    def test_bad_cell_config_does_not_stop_sweep(self):
        cells = sweep(small_config(), "grid",
                      [({"lognfrac": 0.2}, -1.0), ("bogus", 0.1),
                       ({"absolute": 0.5}, 0.2)])
        bad = cells["grid=({'lognfrac': 0.2}, -1.0)"]
        assert isinstance(bad, ValueError) and "epsilon" in str(bad)
        assert isinstance(cells["grid=('bogus', 0.1)"], ValueError)
        good = cells["delta=0.5,eps=0.2"]
        assert len(good.records[0]) == 3

    def test_cell_failure_does_not_stop_sweep(self):
        cells = sweep(ExperimentConfig(**COARSE_ACROBOT), "n", [4, 8])
        assert isinstance(cells["n=4"], Exception)
        assert "n=8" in cells  # the sweep kept going past the failure

    def test_mistyped_values_fail_their_own_cells(self):
        cells = sweep(small_config(iterations=1), "n", [2.7, "8", 4])
        for label in ("n=2.7", "n=8"):
            assert isinstance(cells[label], ValueError)
            assert "n must be an int" in str(cells[label])
        assert len(cells["n=4"].records[0]) == 1
        cells = sweep(small_config(iterations=1), "grid",
                      [({"absolute": 0.5}, "0.1"), ({"absolute": 0.5}, 0.1)])
        bad = cells["grid=({'absolute': 0.5}, '0.1')"]
        assert isinstance(bad, ValueError) and "eps" in str(bad)
        assert len(cells["delta=0.5,eps=0.1"].records[0]) == 1

    def test_empty_values_rejected(self):
        with pytest.raises(ValueError):
            sweep(small_config(), "delta", [])

    def test_unknown_axis_rejected(self):
        with pytest.raises(ValueError):
            sweep(small_config(), "gamma", [1.0])

    @pytest.mark.parametrize("axis, values, label", [
        ("delta", [0.5, {"absolute": 0.5}, 0.2], "delta=0.5"),
        ("n", [4, 4], "n=4"),
        ("n", [4, "8", "8"], "n=8"),  # two cells that cannot be built
        ("grid", [(0.5, 0.1), ({"absolute": 0.5}, 0.1)], "delta=0.5,eps=0.1"),
    ])
    def test_repeated_label_rejected_before_any_cell_runs(
            self, monkeypatch, axis, values, label):
        def never(config):
            raise AssertionError("a cell ran")
        monkeypatch.setattr(aspic.runner, "run_aspic", never)
        with pytest.raises(ValueError, match=f"label '{label}'"):
            sweep(small_config(), axis, values)


class TestExport:
    def test_csv_layout(self, tmp_path):
        res = run_aspic(small_config(repeats=2))
        written = export(res, tmp_path)
        assert written == [str(tmp_path / "records.csv"),
                           str(tmp_path / "summary.json")]
        with open(written[0]) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == RECORD_FIELDS
        assert rows[0][:2] == ["run", "iteration"]
        assert len(rows) == 1 + 2 * 3  # header + repeats * iterations
        first = res.records[0][0]
        assert rows[1][:3] == ["0", "0", repr(first.mean_cost)]
        assert rows[1][-1] == str(first.seed)
        assert json.loads((tmp_path / "summary.json").read_text())[
            "final_costs"] == res.final_costs()

    def test_summary_round_trip(self, tmp_path):
        res = run_aspic(small_config())
        export(res, tmp_path)
        with open(tmp_path / "summary.json") as fh:
            payload = json.load(fh)
        restored = ExperimentConfig.from_dict(payload["config"])
        assert config_hash(restored) == payload["config_hash"]
        assert payload["final_costs"] == res.final_costs()
        assert payload["error"] is None

    def test_direct_records_leave_alpha_empty(self, tmp_path):
        res = run_aspic(small_config(estimator="direct", delta=None))
        export(res, tmp_path)
        with open(tmp_path / "records.csv") as fh:
            row = dict(zip(RECORD_FIELDS, list(csv.reader(fh))[1]))
        assert (row["alpha"], row["kl_est"]) == ("", "")
        assert float(row["eta"]) == res.records[0][0].eta

    def test_readme_lists_the_record_fields(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        listed = re.search(r"`records\.csv` \(columns `([^`]*)`", readme)
        assert listed is not None
        assert re.split(r",\s*", listed.group(1)) == RECORD_FIELDS

    def test_outdir_that_cannot_be_made_is_an_os_error(self, tmp_path):
        (tmp_path / "file").write_text("")
        with pytest.raises(OSError, match="failed writing results under"):
            export(run_aspic(small_config(iterations=1)),
                   tmp_path / "file" / "sub")


class TestCli:
    def write_config(self, tmp_path, extra=None, drop=()):
        cfg = dict(SMALL_LQ)
        cfg["env_overrides"] = dict(cfg["env_overrides"])
        cfg["env_overrides"]["viapoints"] = [
            list(v) for v in cfg["env_overrides"]["viapoints"]]
        if extra:
            cfg.update(extra)
        for key in drop:
            del cfg[key]
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        return str(path)

    def test_run_subcommand(self, tmp_path):
        cfg = self.write_config(tmp_path)
        out = tmp_path / "results"
        assert cli_main(["run", cfg, "--out", str(out)]) == 0
        assert (out / "records.csv").exists()
        assert (out / "summary.json").exists()

    def test_sweep_subcommand(self, tmp_path):
        cfg = self.write_config(tmp_path)
        out = tmp_path / "sweep"
        assert cli_main(["sweep", cfg, "--axis", "delta", "--values",
                         '[0, {"lognfrac": 0.2}]', "--out", str(out)]) == 0
        assert (out / "delta=0" / "summary.json").exists()

    def write_coarse_acrobot(self, tmp_path):
        path = tmp_path / "acrobot.json"
        path.write_text(json.dumps(COARSE_ACROBOT))
        return str(path)

    def test_failed_run_writes_its_partial_result(self, tmp_path, capsys):
        out = tmp_path / "r"
        assert cli_main(["run", self.write_coarse_acrobot(tmp_path),
                         "--out", str(out)]) == 1
        assert "error: run terminated" in capsys.readouterr().err
        assert (out / "records.csv").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["error"] == ("run terminated in repeat 0 at iteration "
                                    "0: state blow-up at rollout 3, step 7")

    def test_export_of_a_failed_run_shows_its_error(self, tmp_path, capsys):
        out = tmp_path / "r"
        assert cli_main(["run", self.write_coarse_acrobot(tmp_path),
                         "--out", str(out)]) == 1
        capsys.readouterr()
        assert cli_main(["export", str(out / "summary.json")]) == 0
        printed = json.loads(capsys.readouterr().out)
        assert printed["error"].endswith("state blow-up at rollout 3, step 7")
        assert printed["iterations_to_threshold"] is None

    def test_export_of_an_older_summary_prints_null_for_new_keys(
            self, tmp_path, capsys):
        out = tmp_path / "r"
        assert cli_main(["run", self.write_config(tmp_path),
                         "--out", str(out)]) == 0
        path = out / "summary.json"
        saved = json.loads(path.read_text())
        del saved["error"], saved["iterations_to_threshold"]
        path.write_text(json.dumps(saved))
        capsys.readouterr()
        assert cli_main(["export", str(path)]) == 0
        printed = json.loads(capsys.readouterr().out)
        assert printed == {**saved, "error": None,
                           "iterations_to_threshold": None}

    def test_export_prints_the_validated_config(self, tmp_path, capsys):
        # A config key left out of the file takes its default on export.
        out = tmp_path / "r"
        assert cli_main(["run", self.write_config(tmp_path),
                         "--out", str(out)]) == 0
        path = out / "summary.json"
        saved = json.loads(path.read_text())
        del saved["config"]["repeats"]
        path.write_text(json.dumps(saved))
        capsys.readouterr()
        assert cli_main(["export", str(path)]) == 0
        printed = json.loads(capsys.readouterr().out)
        assert printed["config"] == {**saved["config"], "repeats": 1}

    def test_failed_sweep_cells_write_their_partial_results(self, tmp_path,
                                                            capsys):
        out = tmp_path / "s"
        assert cli_main(["sweep", self.write_coarse_acrobot(tmp_path),
                         "--axis", "n", "--values", "[4, 8]",
                         "--out", str(out)]) == 1
        err = capsys.readouterr().err
        for label in ("n=4", "n=8"):
            assert f"cell {label} failed: run terminated" in err
            assert (out / label / "records.csv").exists()
            summary = json.loads((out / label / "summary.json").read_text())
            assert summary["error"].startswith("run terminated in repeat 0")

    def test_repeated_sweep_label_exits_2_writing_nothing(self, tmp_path,
                                                          capsys):
        out = tmp_path / "s"
        assert cli_main(["sweep", self.write_config(tmp_path), "--axis", "n",
                         "--values", "[4, 4]", "--out", str(out)]) == 2
        assert "'n=4'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", [
        ["run"], ["sweep", "--axis", "delta", "--values", "[0]"]])
    def test_sweep_values_key_exits_2(self, tmp_path, capsys, command):
        cfg = self.write_config(tmp_path, {"sweep_values": [0]})
        out = tmp_path / "r"
        argv = [command[0], cfg, *command[1:], "--out", str(out)]
        assert cli_main(argv) == 2
        assert "sweep_values" in capsys.readouterr().err
        assert not out.exists()

    def test_export_subcommand_prints_summary_json(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path)
        out = tmp_path / "results"
        assert cli_main(["run", cfg, "--out", str(out)]) == 0
        capsys.readouterr()
        assert cli_main(["export", str(out / "summary.json")]) == 0
        printed = json.loads(capsys.readouterr().out)
        saved = json.loads((out / "summary.json").read_text())
        assert printed == saved
        assert list(printed) == list(saved)
        assert printed["error"] is None
        with pytest.raises(SystemExit):
            cli_main(["export", str(out / "summary.json"), "--format", "csv"])

    def test_invalid_config_exits_2(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, {"solver": {"kind": "cg",
                                                      "itrs": 3}})
        assert cli_main(["run", cfg, "--out", str(tmp_path / "r")]) == 2
        assert "itrs" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    def test_invalid_env_parameter_exits_2(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, {"env_overrides": {"dt": 0}})
        assert cli_main(["run", cfg, "--out", str(tmp_path / "r")]) == 2
        assert "dt must be > 0" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    def test_viapoint_outside_the_horizon_exits_2(self, tmp_path, capsys):
        # The default viapoints run to t = 9, past a 1 s horizon.
        cfg = self.write_config(tmp_path, {"env_overrides": {"horizon": 1.0}})
        assert cli_main(["run", cfg, "--out", str(tmp_path / "r")]) == 2
        assert "viapoints" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("command, payload", [
        (["run"], 5), (["sweep", "--axis", "n"], 5),
        (["sweep", "--axis", "n"], [1]),
    ])
    def test_config_not_an_object_exits_2(self, tmp_path, capsys, command,
                                          payload):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(payload))
        out = tmp_path / "r"
        argv = [command[0], str(path), *command[1:], "--out", str(out)]
        assert cli_main(argv) == 2
        assert "config must be a JSON object" in capsys.readouterr().err
        assert not out.exists()

    def test_non_bool_whiten_exits_2(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, {"whiten": "no"})
        assert cli_main(["run", cfg, "--out", str(tmp_path / "r")]) == 2
        assert "whiten" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("payload, named", [
        ({"config": {}, "final_costs": []}, "config_hash"),
        ([1, 2], "JSON object"),
    ])
    def test_export_of_malformed_summary_exits_2(self, tmp_path, capsys,
                                                 payload, named):
        path = tmp_path / "summary.json"
        path.write_text(json.dumps(payload))
        assert cli_main(["export", str(path)]) == 2
        assert named in capsys.readouterr().err

    def test_wrongly_typed_number_exits_2(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, {"n_rollouts": "8"})
        assert cli_main(["run", cfg, "--out", str(tmp_path / "r")]) == 2
        assert "n_rollouts" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    def test_negative_seed_exits_2(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, {"seed": -1})
        assert cli_main(["run", cfg, "--out", str(tmp_path / "r")]) == 2
        assert "seed must be >= 0" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("extra, drop, key", [
        ({"n_rolouts": 8}, (), "n_rolouts"),
        (None, ("gamma",), "gamma"),
    ])
    def test_unknown_or_missing_key_exits_2(self, tmp_path, capsys, extra,
                                            drop, key):
        cfg = self.write_config(tmp_path, extra, drop)
        assert cli_main(["run", cfg, "--out", str(tmp_path / "r")]) == 2
        assert key in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    def test_sweep_without_values_errors(self, tmp_path):
        cfg = self.write_config(tmp_path)
        assert cli_main(["sweep", cfg, "--axis", "delta"]) == 2

    def test_bad_grid_value_fails_its_cell_only(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path)
        out = tmp_path / "g"
        assert cli_main(["sweep", cfg, "--axis", "grid", "--values",
                         "[5, [0, 0.1]]", "--out", str(out)]) == 1
        assert "cell grid=5 failed" in capsys.readouterr().err
        assert (out / "delta=0,eps=0.1" / "summary.json").exists()

    def test_sweep_values_not_a_list_exits_2(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path)
        out = tmp_path / "s"
        assert cli_main(["sweep", cfg, "--axis", "delta", "--values", "5",
                         "--out", str(out)]) == 2
        assert "error: " in capsys.readouterr().err
        assert not out.exists()

    def test_outdir_env_var(self, tmp_path, monkeypatch):
        cfg = self.write_config(tmp_path)
        monkeypatch.setenv("ASPIC_OUTDIR", str(tmp_path / "from_env"))
        monkeypatch.chdir(tmp_path)
        assert cli_main(["run", cfg]) == 0
        assert (tmp_path / "from_env" / "summary.json").exists()

    def test_empty_outdir_env_var_means_the_default(self, tmp_path,
                                                    monkeypatch):
        cfg = self.write_config(tmp_path)
        monkeypatch.setenv("ASPIC_OUTDIR", "")
        monkeypatch.chdir(tmp_path)
        assert cli_main(["run", cfg]) == 0
        assert (tmp_path / "aspic_results" / "summary.json").exists()

    @pytest.mark.parametrize("command", [["run"],
                                         ["sweep", "--axis", "delta",
                                          "--values", "[0]"]])
    def test_outdir_under_a_file_exits_2_before_running(
            self, tmp_path, capsys, monkeypatch, command):
        def never(*args):
            raise AssertionError("ran despite a bad output directory")

        monkeypatch.setattr(aspic.cli, "run_aspic", never)
        monkeypatch.setattr(aspic.cli, "sweep", never)
        cfg = self.write_config(tmp_path)
        (tmp_path / "file").write_text("")
        out = str(tmp_path / "file" / "sub")
        assert cli_main([command[0], cfg, *command[1:], "--out", out]) == 2
        err = capsys.readouterr().err
        assert f"cannot create output directory {out}" in err

    @pytest.mark.parametrize("kind", ["missing", "directory"])
    @pytest.mark.parametrize("command", [["run"],
                                         ["sweep", "--axis", "delta",
                                          "--values", "[0]"],
                                         ["export"]])
    def test_unreadable_input_exits_2_and_writes_nothing(
            self, tmp_path, capsys, monkeypatch, command, kind):
        def never(*args):
            raise AssertionError("ran despite an unreadable input")

        monkeypatch.setattr(aspic.cli, "run_aspic", never)
        monkeypatch.setattr(aspic.cli, "sweep", never)
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "input.json"
        if kind == "directory":
            path.mkdir()
        out = ["--out", str(tmp_path / "out")] if command != ["export"] else []
        assert cli_main([command[0], str(path), *command[1:], *out]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: cannot read {path}: ")
        assert captured.out == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == (
            ["input.json"] if kind == "directory" else [])


@pytest.mark.slow
def test_shipped_lq_config_reaches_its_threshold():
    cfg = ExperimentConfig.from_json(CONFIGS / "lq_viapoints.json")
    result = run_aspic(cfg)
    assert result.iterations_to_threshold(cfg.cost_threshold) != [None]
