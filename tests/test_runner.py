"""Tests for the experiment loop, sweeps, export and the CLI."""

import csv
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aspic import (ExperimentConfig, RunError, config_hash, export,
                   resolve_delta, run_aspic, sweep)
from aspic.cli import main as cli_main
from aspic.runner import CSV_COLUMNS

SMALL_LQ = dict(env="lq_viapoints", n_rollouts=8, iterations=3, epsilon=0.1,
                gamma=1.0, delta={"lognfrac": 0.2},
                env_overrides={"horizon": 1.0, "dt": 0.1,
                               "viapoints": ((0.5, 1.0), (1.0, -1.0)),
                               "sigma": 0.5},
                solver={"kind": "per_timestep_pinv", "rcond": 1e-4})


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
        (dict(whiten="no"), "whiten"),
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
                    {"lognfrac": 0.2, "lognfracc": 0.2}):
            with pytest.raises(ValueError, match="delta"):
                resolve_delta(bad, 100)

    def test_round_trip_and_hash(self):
        cfg = small_config()
        clone = ExperimentConfig.from_dict(cfg.to_dict())
        assert config_hash(clone) == config_hash(cfg)
        assert config_hash(cfg.replace(seed=1)) != config_hash(cfg)


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
    "whiten": st.booleans(),
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
        # An acrobot run at a coarse, unstable grid blows up mid-run.
        cfg = ExperimentConfig(
            env="acrobot", n_rollouts=4, iterations=200, epsilon=10.0,
            gamma=1.0, delta={"absolute": 0.5},
            env_overrides={"dt": 0.5, "horizon": 100.0},
            solver={"kind": "cg", "iters": 5}, repeats=2)
        with pytest.raises(RunError) as excinfo:
            run_aspic(cfg)
        assert isinstance(excinfo.value.partial.records, list)

    def test_mlp_policy_runs(self):
        res = run_aspic(small_config(policy="mlp",
                                     solver={"kind": "cg", "iters": 10}))
        assert len(res.records[0]) == 3

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
        cfg = ExperimentConfig(
            env="acrobot", n_rollouts=4, iterations=200, epsilon=10.0,
            gamma=1.0, delta={"absolute": 0.5},
            env_overrides={"dt": 0.5, "horizon": 100.0},
            solver={"kind": "cg", "iters": 5})
        cells = sweep(cfg, "n", [4, 8])
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


class TestExport:
    def test_csv_layout(self, tmp_path):
        res = run_aspic(small_config(repeats=2))
        written = export(res, tmp_path)
        assert written == [str(tmp_path / "records.csv"),
                           str(tmp_path / "summary.json")]
        with open(written[0]) as fh:
            rows = list(csv.reader(fh))
        assert tuple(rows[0]) == CSV_COLUMNS
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

    def test_direct_records_leave_alpha_empty(self, tmp_path):
        res = run_aspic(small_config(estimator="direct", delta=None))
        export(res, tmp_path)
        with open(tmp_path / "records.csv") as fh:
            row = dict(zip(CSV_COLUMNS, list(csv.reader(fh))[1]))
        assert (row["alpha"], row["kl_est"]) == ("", "")
        assert float(row["eta"]) == res.records[0][0].eta


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
        cfg = self.write_config(tmp_path,
                                {"sweep_values": [0, {"lognfrac": 0.2}]})
        out = tmp_path / "sweep"
        assert cli_main(["sweep", cfg, "--axis", "delta",
                         "--out", str(out)]) == 0
        assert (out / "delta=0" / "summary.json").exists()

    def test_export_subcommand_prints_summary_json(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path)
        out = tmp_path / "results"
        assert cli_main(["run", cfg, "--out", str(out)]) == 0
        capsys.readouterr()
        assert cli_main(["export", str(out / "summary.json")]) == 0
        printed = json.loads(capsys.readouterr().out)
        saved = json.loads((out / "summary.json").read_text())
        assert printed["config_hash"] == saved["config_hash"]
        assert printed["final_costs"] == saved["final_costs"]
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
