"""Tests for the benchmark dynamics and the rollout sampler."""

import dataclasses

import numpy as np
import pytest

from aspic import (Acrobot, LqViapoints, MlpPolicy, Pendulum,
                   RolloutBlowupError, TimeVaryingLinearPolicy, lq_features,
                   make_env, rollout, sample_batch)

SEQUENCES = ("states", "actions", "noises", "state_costs", "logp_policy",
             "logp_base")


class ZeroPolicy:
    """Uncontrolled stand-in: zero mean everywhere."""

    def __init__(self, noise_var, action_dim=1):
        self.noise_var = noise_var
        self.action_dim = action_dim

    def mean(self, x, t):
        x = np.asarray(x, dtype=float)
        return np.zeros(x.shape[:-1] + (self.action_dim,))

    def mean_steps(self, xs):
        xs = np.asarray(xs, dtype=float)
        return np.zeros(xs.shape[:-1] + (self.action_dim,))


class TestStep:
    def test_lq_euler_step(self):
        env = LqViapoints()
        nxt = env.step(np.zeros(1), np.ones(1), 0)
        np.testing.assert_allclose(nxt, [0.1])

    def test_pendulum_rest_is_equilibrium(self):
        env = Pendulum()
        nxt = env.step(np.zeros(2), np.zeros(1), 0)
        np.testing.assert_array_equal(nxt, np.zeros(2))

    def test_acrobot_hanging_is_equilibrium(self):
        env = Acrobot()
        acc1, acc2 = env.accelerations(env.x0, 0.0)
        assert acc1 == pytest.approx(0.0, abs=1e-12)
        assert acc2 == pytest.approx(0.0, abs=1e-12)
        nxt = env.step(env.x0, np.zeros(1), 0)
        np.testing.assert_allclose(nxt, env.x0, rtol=0, atol=1e-15)

    def test_blowup_detected(self):
        env = LqViapoints()
        with pytest.raises(RolloutBlowupError):
            env.step(np.array([np.inf]), np.zeros(1), 3)

    def test_blowup_names_the_first_bad_row(self):
        env = LqViapoints()
        x = np.array([[0.0], [np.nan], [2e8]])
        with pytest.raises(RolloutBlowupError) as err:
            env.step(x, np.zeros((3, 1)), 4)
        assert (err.value.step, err.value.index) == (4, 1)
        with pytest.raises(RolloutBlowupError) as err:
            env.step(x[[0, 2]], np.zeros((2, 1)), 4)
        assert err.value.index == 1


def random_states(rng, n, dim):
    """n states: the first half angles in [-pi, pi], the rest speeds in
    [-5, 5]."""
    half = dim // 2
    return np.column_stack([rng.uniform(-np.pi, np.pi, (n, half)),
                            rng.uniform(-5.0, 5.0, (n, dim - half))])


class TestControlAffineRate:
    def test_acrobot_torque_term_is_the_mass_matrix_solve(self):
        env = Acrobot()
        rng = np.random.default_rng(0)
        x = random_states(rng, 1000, 4)
        a = rng.normal(0.0, 3.0, (1000, 1))
        effect = env.xdot(x, a) - env.xdot(x, np.zeros_like(a))
        free = np.stack(env.accelerations(x, 0.0), axis=-1)
        solved = (np.stack(env.accelerations(x, env.lam * a[:, 0]), axis=-1)
                  - free)
        np.testing.assert_array_equal(effect[:, :2], 0.0)
        # Both sides difference two accelerations, so they agree to the
        # rounding of the accelerations, not of their difference.
        np.testing.assert_allclose(effect[:, 2:], solved, rtol=1e-12,
                                   atol=1e-12 * np.abs(free).max())

    def test_pendulum_torque_enters_the_velocity_row(self):
        env = Pendulum(lam=0.7)
        rng = np.random.default_rng(1)
        x = random_states(rng, 1000, 2)
        a = rng.normal(0.0, 3.0, (1000, 1))
        free = env.xdot(x, np.zeros_like(a))
        effect = env.xdot(x, a) - free
        np.testing.assert_array_equal(effect[:, 0], 0.0)
        np.testing.assert_allclose(effect[:, 1], env.lam * a[:, 0],
                                   rtol=1e-12,
                                   atol=1e-12 * np.abs(free).max())

    def test_lq_rate_is_the_action(self):
        env = LqViapoints()
        a = np.random.default_rng(2).normal(size=(5, 1))
        np.testing.assert_array_equal(env.xdot(np.ones((5, 1)), a), a)


class TestCosts:
    def test_lq_zero_noise_zero_policy_cost(self):
        env = LqViapoints()
        traj = rollout(env, ZeroPolicy(env.noise_var), 0, noise_scale=0.0)
        # Particle stays at 0; each viapoint contributes target^2 / (2 sigma^2).
        targets = np.array([-10, 10, -10, -20, -100, -50, 10, 20, 30.0])
        expected = float(np.sum(targets ** 2) / (2 * 0.1 ** 2))
        assert expected == pytest.approx(730000.0, rel=1e-12)
        assert float(np.sum(traj.state_costs)) == pytest.approx(expected)

    def test_pendulum_terminal_cost_sign(self):
        env = Pendulum()
        upright = np.array([np.pi, 0.0])
        cost = float(env.event_cost(env.num_steps, upright))
        assert cost == pytest.approx(-500.0)
        hanging = np.array([0.0, 0.0])
        assert float(env.event_cost(env.num_steps, hanging)) == pytest.approx(
            500.0)
        # No terminal contribution before the final index.
        assert float(env.event_cost(env.num_steps - 1, upright)) == 0.0

    def test_acrobot_terminal_cost_uses_tip_height(self):
        env = Acrobot()
        up = np.array([np.pi, 0.0, 0.0, 0.0])  # both links pointing up
        assert float(env.event_cost(env.num_steps, up)) == pytest.approx(
            -500.0 * (env.l1 + env.l2))


class TestEventIndices:
    def test_declared_indices(self):
        assert LqViapoints().event_indices == tuple(range(10, 100, 10))
        assert Pendulum().event_indices == (300,)
        assert Acrobot(horizon=1.0).event_indices == (100,)

    def test_costs_only_at_event_indices(self):
        env = LqViapoints()
        batch = sample_batch(env, ZeroPolicy(env.noise_var), 4, 0, gamma=1.0)
        charged = np.flatnonzero(np.any(batch.state_costs != 0.0, axis=0))
        np.testing.assert_array_equal(charged + 1, env.event_indices)


class TestRollout:
    def test_deterministic_given_seed(self):
        env = Pendulum()
        pol = ZeroPolicy(env.noise_var)
        t1 = rollout(env, pol, 42)
        t2 = rollout(env, pol, 42)
        np.testing.assert_array_equal(t1.states, t2.states)
        np.testing.assert_array_equal(t1.actions, t2.actions)

    def test_action_mean_noise_decomposition(self):
        env = LqViapoints()
        pol = TimeVaryingLinearPolicy(lq_features, 2, env.num_steps,
                                      env.noise_var)
        pol = pol.with_params(np.random.default_rng(0).normal(
            size=pol.params.size))
        traj = rollout(env, pol, 7)
        means = pol.mean_steps(traj.states[:-1])
        np.testing.assert_allclose(traj.actions - means, traj.noises,
                                   atol=1e-12)

    def test_log_ratio_is_girsanov_form(self):
        env = LqViapoints()
        pol = TimeVaryingLinearPolicy(lq_features, 2, env.num_steps,
                                      env.noise_var)
        pol = pol.with_params(np.random.default_rng(1).normal(
            scale=0.5, size=pol.params.size))
        traj = rollout(env, pol, 11)
        u = pol.mean_steps(traj.states[:-1])[..., 0]
        xi = traj.noises[..., 0]
        girsanov = np.sum((0.5 * u ** 2 + u * xi) * env.dt / env.nu)
        log_ratio = np.sum(traj.logp_policy - traj.logp_base)
        assert log_ratio == pytest.approx(girsanov, rel=1e-10)

    @pytest.mark.parametrize("name", ["lq_viapoints", "pendulum", "acrobot"])
    def test_is_first_rollout_of_a_batch(self, name):
        env = make_env(name,
                       {} if name == "lq_viapoints" else {"horizon": 0.5})
        zero = ZeroPolicy(env.noise_var)
        for n in (2, 5):
            single = rollout(env, zero, (3, 1))
            first = sample_batch(env, zero, n, (3, 1), gamma=1.0)[0]
            for seq in SEQUENCES:
                np.testing.assert_array_equal(getattr(single, seq),
                                              getattr(first, seq))
        # A matmul over a different row count may take another BLAS kernel,
        # so with a network mean only the noise is equal bit for bit.
        mlp = MlpPolicy([env.state_dim, 8, 1], env.noise_var,
                        rng=np.random.default_rng(0))
        single = rollout(env, mlp, 4)
        first = sample_batch(env, mlp, 5, 4, gamma=1.0)[0]
        np.testing.assert_array_equal(single.noises, first.noises)
        for seq in SEQUENCES:
            np.testing.assert_allclose(getattr(single, seq),
                                       getattr(first, seq),
                                       rtol=1e-12, atol=1e-12)

    def test_noise_variance_scaling(self):
        env = Pendulum()
        draws = np.concatenate([rollout(env, ZeroPolicy(env.noise_var),
                                        seed).noises.ravel()
                                for seed in range(400)])
        target = env.nu / env.dt
        se = target * np.sqrt(2.0 / draws.size)
        assert draws.var() == pytest.approx(target, abs=3 * se)


class TestSampleBatch:
    def test_batch_is_deterministic_and_indexed(self):
        env = LqViapoints()
        pol = ZeroPolicy(env.noise_var)
        b1 = sample_batch(env, pol, 5, (0, 1), gamma=1.0)
        b2 = sample_batch(env, pol, 5, (0, 1), gamma=1.0)
        np.testing.assert_array_equal(b1.stochastic_costs,
                                      b2.stochastic_costs)

    def test_zero_noise_batch_cost(self):
        env = LqViapoints()
        batch = sample_batch(env, ZeroPolicy(env.noise_var), 3, 0, gamma=1.0,
                             noise_scale=0.0)
        np.testing.assert_allclose(batch.stochastic_costs, 730000.0)

    def test_standard_error_shrinks_with_n(self):
        env = LqViapoints()
        pol = ZeroPolicy(env.noise_var)

        def spread(n, seed_base):
            means = [np.mean(sample_batch(env, pol, n, (seed_base, k),
                                          gamma=1.0).stochastic_costs)
                     for k in range(20)]
            return np.std(means)

        s_small, s_large = spread(8, 0), spread(128, 1)
        ratio = s_small / s_large
        assert 2.0 < ratio < 8.0  # 1/sqrt(n) predicts 4, checked loosely

    def test_needs_two_rollouts(self):
        env = LqViapoints()
        with pytest.raises(ValueError):
            sample_batch(env, ZeroPolicy(env.noise_var), 1, 0, gamma=1.0)

    def test_blowup_carries_rollout_index(self):
        env = Acrobot(dt=0.5, horizon=500.0)  # coarse enough to diverge
        try:
            sample_batch(env, ZeroPolicy(env.noise_var), 4, 0, gamma=1.0,
                         noise_scale=100.0)
        except RolloutBlowupError as err:
            assert err.index is not None
        else:
            pytest.skip("fixture did not diverge on this platform")


class TestEnergyDrift:
    def test_undamped_pendulum_drift_linear_in_dt(self):
        drifts = {}
        for dt in (1e-2, 1e-3):
            env = Pendulum(dt=dt, c_omega0=0.0)
            x = np.array([2.5, 0.0])  # released from a large angle
            e0 = float(env.energy(x))
            for t in range(env.num_steps):
                x = env.step(x, np.zeros(1), t)
            drifts[dt] = abs(float(env.energy(x)) - e0)
        assert drifts[1e-2] <= 100.0 * 1e-2 * 3.0
        ratio = drifts[1e-2] / drifts[1e-3]
        assert 5.0 < ratio < 20.0  # ~10 for a first-order integrator


class TestAcrobotMassMatrix:
    def test_determinant_positive_on_random_states(self):
        env = Acrobot()
        rng = np.random.default_rng(0)
        states = np.column_stack([
            rng.uniform(-np.pi, np.pi, 10_000),
            rng.uniform(-np.pi, np.pi, 10_000),
            rng.uniform(-20, 20, 10_000),
            rng.uniform(-20, 20, 10_000)])
        d11, d12, d22 = env.mass_matrix_terms(states)
        assert np.all(d11 * d22 - d12 ** 2 > 0.0)


# Each task's parameters, the keys env_overrides accepts.  Spelled out here,
# so a field that is renamed, dropped or added fails the test.
OVERRIDE_KEYS = {
    "lq_viapoints": {"dt", "horizon", "nu", "sigma", "viapoints"},
    "pendulum": {"dt", "horizon", "nu", "c_omega0", "omega0_sq", "lam"},
    "acrobot": {"dt", "horizon", "nu", "lam", "m1", "m2", "l1", "l2", "lc1",
                "lc2", "i1", "i2", "gravity"},
}


class TestParameters:
    @pytest.mark.parametrize("name", sorted(OVERRIDE_KEYS))
    def test_fields_are_the_override_keys(self, name):
        env = make_env(name)
        keys = {f.name for f in dataclasses.fields(env)}
        assert keys == OVERRIDE_KEYS[name]
        same = make_env(name, {k: getattr(env, k) for k in keys})
        np.testing.assert_array_equal(same.x0, env.x0)
        assert same.event_indices == env.event_indices
        with pytest.raises(TypeError):
            make_env(name, {"state_dim": 3})

    @pytest.mark.parametrize("name", sorted(OVERRIDE_KEYS))
    def test_repr_names_the_parameters(self, name):
        env = make_env(name, {"nu": 2.0})
        text = repr(env)
        assert text.startswith(type(env).__name__ + "(")
        assert "nu=2.0" in text
        for key in OVERRIDE_KEYS[name]:
            assert f"{key}=" in text

    @pytest.mark.parametrize("name", sorted(OVERRIDE_KEYS))
    @pytest.mark.parametrize("overrides, message", [
        ({"dt": 0}, "dt must be > 0"),
        ({"dt": -0.1}, "dt must be > 0"),
        ({"horizon": 0.0}, "horizon must be > 0"),
        ({"nu": 0}, "nu must be > 0"),
        ({"nu": float("nan")}, "nu must be > 0"),
        ({"horizon": 1e-12}, "whole number of steps"),
    ])
    def test_out_of_range_parameters_rejected(self, name, overrides, message):
        with pytest.raises(ValueError, match=message):
            make_env(name, overrides)

    def test_lq_zero_sigma_rejected(self):
        with pytest.raises(ValueError, match="sigma"):
            make_env("lq_viapoints", {"sigma": 0.0})
        assert make_env("lq_viapoints", {"sigma": -0.1}).sigma == -0.1


class TestMakeEnv:
    def test_known_names(self):
        assert isinstance(make_env("lq_viapoints"), LqViapoints)
        assert isinstance(make_env("pendulum"), Pendulum)
        assert isinstance(make_env("acrobot"), Acrobot)

    def test_overrides_applied(self):
        env = make_env("pendulum", {"dt": 0.005, "lam": 0.4})
        assert env.dt == 0.005
        assert env.lam == 0.4
        assert env.num_steps == 600

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            make_env("cartpole")

    def test_non_integer_horizon_rejected(self):
        with pytest.raises(ValueError):
            make_env("lq_viapoints", {"horizon": 0.35})
