"""Tests for the benchmark dynamics and the rollout sampler."""

import numpy as np
import pytest

from aspic import (Acrobot, LqViapoints, Pendulum, RolloutBlowupError,
                   TimeVaryingLinearPolicy, lq_features, make_env, rollout,
                   sample_batch)


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
        pol = TimeVaryingLinearPolicy(lq_features, env.num_steps,
                                      env.noise_var)
        pol.features(env.x0)
        pol = pol.with_params(np.random.default_rng(0).normal(
            size=pol.params.size))
        traj = rollout(env, pol, 7)
        means = pol.mean_steps(traj.states[:-1])
        np.testing.assert_allclose(traj.actions - means, traj.noises,
                                   atol=1e-12)

    def test_log_ratio_is_girsanov_form(self):
        env = LqViapoints()
        pol = TimeVaryingLinearPolicy(lq_features, env.num_steps,
                                      env.noise_var)
        pol.features(env.x0)
        pol = pol.with_params(np.random.default_rng(1).normal(
            scale=0.5, size=pol.params.size))
        traj = rollout(env, pol, 11)
        u = pol.mean_steps(traj.states[:-1])[..., 0]
        xi = traj.noises[..., 0]
        girsanov = np.sum((0.5 * u ** 2 + u * xi) * env.dt / env.nu)
        log_ratio = np.sum(traj.logp_policy - traj.logp_base)
        assert log_ratio == pytest.approx(girsanov, rel=1e-10)

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
