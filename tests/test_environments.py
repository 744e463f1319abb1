"""Tests for the benchmark dynamics and the rollout sampler."""

import dataclasses

import numpy as np
import pytest

from aspic import (Acrobot, LqViapoints, MlpPolicy, Pendulum,
                   RolloutBlowupError, TimeVaryingLinearPolicy,
                   acrobot_features, environments, lq_features, make_env,
                   pendulum_features, rollout, sample_batch)

# Each array of a rollout and its rollout axis in a batch.
ROLLOUT_AXES = {"states": 1, "actions": 1, "state_cost": 0, "log_ratio": 0}


def rollouts(batch, name, idx):
    """Rollouts ``idx`` of the batch array ``name``."""
    return np.take(getattr(batch, name), idx, axis=ROLLOUT_AXES[name])


def noise_draw(env, n, seed, scale=1.0):
    """The (n, T) noise ``sample_batch`` draws for ``seed``."""
    return scale * np.random.default_rng(seed).normal(
        0.0, np.sqrt(env.noise_var), (n, env.num_steps))


class ZeroPolicy:
    """Uncontrolled stand-in: zero mean everywhere."""

    def __init__(self, noise_var):
        self.noise_var = noise_var

    def mean(self, x, t):
        x = np.asarray(x, dtype=float)
        return np.zeros(x.shape[:-1])

    def mean_steps(self, xs):
        xs = np.asarray(xs, dtype=float)
        return np.zeros(xs.shape[:-1])


class InjectingPolicy(ZeroPolicy):
    """Zero mean, except ``bad[(step, row)]`` at that step and row."""

    def __init__(self, noise_var, bad):
        super().__init__(noise_var)
        self.bad = bad

    def mean(self, x, t):
        out = super().mean(x, t)
        for (step, row), value in self.bad.items():
            if step == t:
                out[row] = value
        return out


def reference_blowup(env, policy, n):
    """(step, rollout) a check after every noiseless ``env.step`` names."""
    x = np.broadcast_to(env.x0, (n, env.state_dim))
    with np.errstate(invalid="ignore", over="ignore"):
        try:
            for k in range(env.num_steps):
                x = env.step(x, policy.mean(x, k), k)
        except RolloutBlowupError as err:
            return err.step, err.index
    return None


class TestStep:
    def test_lq_euler_step(self):
        env = LqViapoints()
        nxt = env.step(np.zeros(1), 1.0, 0)
        np.testing.assert_allclose(nxt, [0.1])

    def test_pendulum_rest_is_equilibrium(self):
        env = Pendulum()
        nxt = env.step(np.zeros(2), 0.0, 0)
        np.testing.assert_array_equal(nxt, np.zeros(2))

    def test_acrobot_hanging_is_equilibrium(self):
        env = Acrobot()
        acc1, acc2 = env.accelerations(env.x0, 0.0)
        assert acc1 == pytest.approx(0.0, abs=1e-12)
        assert acc2 == pytest.approx(0.0, abs=1e-12)
        nxt = env.step(env.x0, 0.0, 0)
        np.testing.assert_allclose(nxt, env.x0, rtol=0, atol=1e-15)

    def test_blowup_detected(self):
        env = LqViapoints()
        with pytest.raises(RolloutBlowupError):
            env.step(np.array([np.inf]), 0.0, 3)

    def test_blowup_names_the_first_bad_row(self):
        env = LqViapoints()
        x = np.array([[0.0], [np.nan], [2e8]])
        with pytest.raises(RolloutBlowupError) as err:
            env.step(x, np.zeros(3), 4)
        assert (err.value.step, err.value.index) == (4, 1)
        with pytest.raises(RolloutBlowupError) as err:
            env.step(x[[0, 2]], np.zeros(2), 4)
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
        a = rng.normal(0.0, 3.0, 1000)
        free = env.xdot(x, np.zeros_like(a), np.empty(x.shape))
        effect = env.xdot(x, a, np.empty(x.shape)) - free
        # The two-link arm's mass matrix, written out from the textbook
        # formulas rather than taken from the environment.
        m1, m2, l1, lc1, lc2 = env.m1, env.m2, env.l1, env.lc1, env.lc2
        c2 = np.cos(x[:, 1])
        d11 = (m1 * lc1 ** 2 + m2 * (l1 ** 2 + lc2 ** 2 + 2 * l1 * lc2 * c2)
               + env.i1 + env.i2)
        d12 = m2 * (lc2 ** 2 + l1 * lc2 * c2) + env.i2
        d22 = np.full_like(c2, m2 * lc2 ** 2 + env.i2)
        mass = np.stack([np.stack([d11, d12], -1),
                         np.stack([d12, d22], -1)], -2)
        torque = np.stack([np.zeros(1000), env.lam * a], -1)
        solved = np.linalg.solve(mass, torque[..., None])[..., 0]
        np.testing.assert_array_equal(effect[:, :2], 0.0)
        # effect differences two accelerations, so it carries their
        # rounding, not the rounding of the torque term alone.
        np.testing.assert_allclose(effect[:, 2:], solved, rtol=1e-12,
                                   atol=1e-12 * np.abs(free[:, 2:]).max())

    def test_pendulum_torque_enters_the_velocity_row(self):
        env = Pendulum(lam=0.7)
        rng = np.random.default_rng(1)
        x = random_states(rng, 1000, 2)
        a = rng.normal(0.0, 3.0, 1000)
        free = env.xdot(x, np.zeros_like(a), np.empty(x.shape))
        effect = env.xdot(x, a, np.empty(x.shape)) - free
        np.testing.assert_array_equal(effect[:, 0], 0.0)
        np.testing.assert_allclose(effect[:, 1], env.lam * a,
                                   rtol=1e-12,
                                   atol=1e-12 * np.abs(free).max())

    def test_lq_rate_is_the_action(self):
        env = LqViapoints()
        a = np.random.default_rng(2).normal(size=5)
        rate = env.xdot(np.ones((5, 1)), a, np.empty((5, 1)))
        np.testing.assert_array_equal(rate[:, 0], a)


class TestCosts:
    def test_lq_zero_noise_zero_policy_cost(self):
        env = LqViapoints()
        traj = rollout(env, ZeroPolicy(env.noise_var), 0, noise_scale=0.0)
        # Particle stays at 0; each viapoint contributes target^2 / (2 sigma^2).
        targets = np.array([-10, 10, -10, -20, -100, -50, 10, 20, 30.0])
        expected = float(np.sum(targets ** 2) / (2 * 0.1 ** 2))
        assert expected == pytest.approx(730000.0, rel=1e-12)
        assert float(traj.state_cost) == pytest.approx(expected)

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

    @pytest.mark.parametrize("name, overrides, events", [
        ("lq_viapoints", {}, 9), ("pendulum", {"horizon": 0.5}, 1),
        ("acrobot", {"horizon": 0.5}, 1)])
    def test_costs_only_at_event_indices(self, name, overrides, events):
        env = make_env(name, overrides)
        charged, event_cost = [], env.event_cost
        env.event_cost = lambda index, x: (charged.append(index)
                                           or event_cost(index, x))
        batch = sample_batch(env, ZeroPolicy(env.noise_var), 4, 0, gamma=1.0)
        assert tuple(charged) == env.event_indices
        assert len(charged) == events
        want = sum(event_cost(k, batch.states[k]) for k in env.event_indices)
        np.testing.assert_array_equal(batch.state_cost, want)


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
        np.testing.assert_allclose(traj.actions - means,
                                   noise_draw(env, 1, 7)[0], atol=1e-12)

    def test_log_ratio_is_girsanov_form(self):
        env = LqViapoints()
        pol = TimeVaryingLinearPolicy(lq_features, 2, env.num_steps,
                                      env.noise_var)
        pol = pol.with_params(np.random.default_rng(1).normal(
            scale=0.5, size=pol.params.size))
        traj = rollout(env, pol, 11)
        u = pol.mean_steps(traj.states[:-1])
        xi = noise_draw(env, 1, 11)[0]
        girsanov = np.sum((0.5 * u ** 2 + u * xi) * env.dt / env.nu)
        assert traj.log_ratio == pytest.approx(girsanov, rel=1e-10)

    @pytest.mark.parametrize("name", ["lq_viapoints", "pendulum", "acrobot"])
    def test_is_first_rollout_of_a_batch(self, name):
        env = make_env(name,
                       {} if name == "lq_viapoints" else {"horizon": 0.5})
        zero = ZeroPolicy(env.noise_var)
        single = rollout(env, zero, (3, 1))
        small = sample_batch(env, zero, 2, (3, 1), gamma=1.0)
        large = sample_batch(env, zero, 5, (3, 1), gamma=1.0)
        for seq in ROLLOUT_AXES:
            np.testing.assert_array_equal(getattr(single, seq),
                                          rollouts(small, seq, 0))
            # The first rollouts of a larger batch are the smaller batch,
            # which gives an n-axis sweep its common random numbers.
            np.testing.assert_array_equal(getattr(small, seq),
                                          rollouts(large, seq, [0, 1]))
        # A matmul over a different row count may take another BLAS kernel,
        # so with a network mean the rollouts agree to rounding only.
        mlp = MlpPolicy([env.state_dim, 8, 1], env.noise_var,
                        rng=np.random.default_rng(0))
        single = rollout(env, mlp, 4)
        batch = sample_batch(env, mlp, 5, 4, gamma=1.0)
        for seq in ROLLOUT_AXES:
            np.testing.assert_allclose(getattr(single, seq),
                                       rollouts(batch, seq, 0),
                                       rtol=1e-12, atol=1e-12)

    def test_noise_variance_scaling(self):
        env = Pendulum()
        # Under the zero policy an action is its noise.
        draws = np.concatenate([rollout(env, ZeroPolicy(env.noise_var),
                                        seed).actions
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

    @pytest.mark.parametrize("seed", [5, (2, 0, 7)])
    def test_noise_is_one_generator_per_batch(self, seed):
        env = LqViapoints()
        batch = sample_batch(env, ZeroPolicy(env.noise_var), 6, seed,
                             gamma=1.0)
        # Under the zero policy an action is its noise; rollout i is row i.
        np.testing.assert_array_equal(batch.actions,
                                      noise_draw(env, 6, seed).T)

    @pytest.mark.parametrize("scale", [0.0, 1.0, 2.5])
    def test_noise_is_the_draw_times_the_scale(self, scale):
        env = LqViapoints()
        batch = sample_batch(env, ZeroPolicy(env.noise_var), 4, 9, gamma=1.0,
                             noise_scale=scale)
        np.testing.assert_array_equal(batch.actions,
                                      noise_draw(env, 4, 9, scale).T)

    @pytest.mark.parametrize("name, feature_fn, k", [
        ("lq_viapoints", lq_features, 2),
        ("pendulum", pendulum_features, 4),
        ("acrobot", acrobot_features, 9)])
    def test_batch_features_are_the_policy_features(self, name, feature_fn,
                                                    k):
        # N = 7 rollouts of T = 5 or 50 steps: a (N, T, K) matrix cannot
        # pass for the step-major (T, N, K) one.
        env = make_env(name, {"horizon": 0.5, "viapoints": ((0.2, 1.0),)}
                       if name == "lq_viapoints" else {"horizon": 0.5})
        pol = TimeVaryingLinearPolicy(feature_fn, k, env.num_steps,
                                      env.noise_var)
        pol = pol.with_params(np.random.default_rng(0).normal(
            scale=0.3, size=pol.params.size))
        batch = sample_batch(env, pol, 7, 3, gamma=1.0)
        assert env.num_steps != 7
        assert not batch.features.flags.writeable
        np.testing.assert_array_equal(batch.features, pol.features(batch.xs))
        # Read from the batch or evaluated from its states, the same floats.
        y = np.random.default_rng(1).normal(size=pol.params.size)
        np.testing.assert_array_equal(pol.mean_steps(batch),
                                      pol.mean_steps(batch.xs))
        # The batch's mean is kept, so no caller may write to it.
        assert pol.mean_steps(batch) is pol.mean_steps(batch)
        assert not pol.mean_steps(batch).flags.writeable
        np.testing.assert_array_equal(pol.jac_y_steps(batch, y),
                                      pol.jac_y_steps(batch.xs, y))
        mlp = MlpPolicy([env.state_dim, 4, 1], env.noise_var,
                        rng=np.random.default_rng(2))
        assert sample_batch(env, mlp, 3, 3, gamma=1.0).features is None

    @pytest.mark.parametrize("steps", [3, 5])
    def test_linear_policy_of_another_step_count_rejected(self, steps):
        # Unchecked, a shorter policy failed on an out-of-range block and a
        # longer one sampled, to fail later in the gradient.  The check
        # comes before the first step: no feature is evaluated.
        env = make_env("pendulum", {"horizon": 0.04})
        calls = []

        def features(x, out):
            calls.append(x)
            return pendulum_features(x, out)

        pol = TimeVaryingLinearPolicy(features, 4, steps, env.noise_var)
        with pytest.raises(ValueError, match=f"^the policy has num_steps "
                           f"{steps}, the task 4"):
            sample_batch(env, pol, 3, 0, gamma=1.0)
        assert calls == []
        matching = TimeVaryingLinearPolicy(features, 4, 4, env.noise_var)
        assert sample_batch(env, matching, 3, 0, gamma=1.0).n == 3

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 1e12])
    @pytest.mark.parametrize("step, row", [(0, 3), (6, 1), (42, 4)])
    def test_blowup_names_the_step_and_rollout_of_a_per_step_check(
            self, bad, step, row):
        # Row ``row`` blows up at ``step``; row 0 follows two steps later,
        # so the first bad step, not the first bad row overall, is named.
        env = LqViapoints()
        pol = InjectingPolicy(env.noise_var, {(step, row): bad,
                                              (step + 2, 0): bad})
        with pytest.raises(RolloutBlowupError) as info:
            sample_batch(env, pol, 5, 0, gamma=1.0, noise_scale=0.0)
        assert (info.value.step, info.value.index) == (step, row)
        assert reference_blowup(env, pol, 5) == (step, row)

    def test_coarse_acrobot_blowup_site(self):
        env = Acrobot(dt=0.5, horizon=100.0)
        policy = TimeVaryingLinearPolicy(acrobot_features, 9, env.num_steps,
                                         env.noise_var)
        # The first batch of seed 0, as the runner draws it.
        with pytest.raises(RolloutBlowupError) as info:
            sample_batch(env, policy, 4, (0, 0, 0), gamma=1.0)
        assert (info.value.step, info.value.index) == (7, 3)

    def test_blowup_carries_rollout_index(self):
        env = Acrobot(dt=0.5, horizon=500.0)  # coarse enough to diverge
        with pytest.raises(RolloutBlowupError) as info:
            sample_batch(env, ZeroPolicy(env.noise_var), 4, 0, gamma=1.0,
                         noise_scale=100.0)
        assert 0 <= info.value.index < 4
        assert 0 <= info.value.step < env.num_steps


class TestShapeContract:
    """Actions are scalars: every per-step array of a batch and every
    stacked policy output is (T, N), every per-rollout array (N,), and a
    trailing action axis is refused."""

    @staticmethod
    def policy(family, env, feature_fn, k):
        """A policy of ``family`` with N(0, 0.3^2) parameters, and the
        generator that drew them."""
        if family == "linear":
            pol = TimeVaryingLinearPolicy(feature_fn, k, env.num_steps,
                                          env.noise_var)
        else:
            pol = MlpPolicy([env.state_dim, 8, 1], env.noise_var,
                            rng=np.random.default_rng(0))
        rng = np.random.default_rng(1)
        return pol.with_params(rng.normal(scale=0.3,
                                          size=pol.params.size)), rng

    @pytest.mark.parametrize("family", ["linear", "mlp"])
    @pytest.mark.parametrize("name, feature_fn, k", [
        ("lq_viapoints", lq_features, 2),
        ("pendulum", pendulum_features, 4),
        ("acrobot", acrobot_features, 9)])
    def test_per_step_arrays_are_t_by_n(self, name, feature_fn, k, family):
        env = make_env(name, {"horizon": 0.5, "viapoints": ((0.2, 1.0),)}
                       if name == "lq_viapoints" else {"horizon": 0.5})
        pol, rng = self.policy(family, env, feature_fn, k)
        n, t = 3, env.num_steps
        batch = sample_batch(env, pol, n, 5, gamma=1.0)
        assert batch.states.shape == (t + 1, n, env.state_dim)
        assert batch.actions.shape == (t, n)
        for seq in ("state_cost", "log_ratio", "stochastic_costs"):
            assert getattr(batch, seq).shape == (n,), seq
        traj = rollout(env, pol, 5)
        assert traj.actions.shape == (t,)
        assert traj.state_cost.shape == traj.log_ratio.shape == ()
        assert pol.mean(batch.xs[0], 0).shape == (n,)
        y = rng.normal(size=pol.params.size)
        v = rng.normal(size=(t, n))
        for xs in (batch, batch.xs):
            assert pol.mean_steps(xs).shape == (t, n)
            assert pol.log_prob_steps(xs, batch.actions).shape == (t, n)
            jy = pol.jac_y_steps(xs, y)
            assert jy.shape == (t, n)
            jtv = pol.jac_t_v_steps(xs, v)
            assert jtv.shape == pol.params.shape
            assert float(np.sum(jy * v)) == pytest.approx(float(y @ jtv),
                                                          rel=1e-10)
        with pytest.raises(ValueError, match="actions"):
            dataclasses.replace(batch, actions=batch.actions[..., None])
        with pytest.raises(ValueError, match="actions"):
            dataclasses.replace(traj, actions=traj.actions[..., None])

    @pytest.mark.parametrize("family", ["linear", "mlp"])
    @pytest.mark.parametrize("on_batch", [True, False],
                             ids=["batch", "array"])
    def test_misshaped_inputs_are_refused(self, family, on_batch):
        """A ``v`` or ``actions`` off the means' (T, N), or a ``y`` off the
        parameter count, is a ValueError naming it.  N = T = 4, so a
        (T, N, 1) array would broadcast against (T, N)."""
        env = make_env("pendulum", {"horizon": 0.04})
        pol, rng = self.policy(family, env, pendulum_features, 4)
        batch = sample_batch(env, pol, 4, 5, gamma=1.0)
        xs = batch if on_batch else batch.xs
        y = rng.normal(size=pol.params.size)
        for name, call in [
                ("v", lambda: pol.jac_t_v_steps(xs, np.ones((4, 4, 1)))),
                ("actions", lambda: pol.log_prob_steps(
                    xs, batch.actions[..., None])),
                ("y", lambda: pol.jac_y_steps(xs, np.append(y, [0.0, 0.0]))),
                ("y", lambda: pol.jac_y_steps(xs, y[:-1]))]:
            with pytest.raises(ValueError, match=f"^{name} has shape"):
                call()


class TestEnergyDrift:
    def test_undamped_pendulum_drift_linear_in_dt(self):
        drifts = {}
        for dt in (1e-2, 1e-3):
            env = Pendulum(dt=dt, c_omega0=0.0)
            x = np.array([2.5, 0.0])  # released from a large angle
            e0 = float(env.energy(x))
            for t in range(env.num_steps):
                x = env.step(x, 0.0, t)
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
        ({"nu": float("nan")}, "nu must be a finite number"),
        ({"horizon": 1e-12}, "whole number of steps"),
    ])
    def test_out_of_range_parameters_rejected(self, name, overrides, message):
        with pytest.raises(ValueError, match=message):
            make_env(name, overrides)

    @pytest.mark.parametrize("name, key", [
        (name, key) for name, keys in sorted(OVERRIDE_KEYS.items())
        for key in sorted(keys - {"viapoints"})])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                       -float("inf"), "0.5", True])
    def test_scalar_parameter_must_be_a_finite_number(self, name, key,
                                                      value):
        with pytest.raises(ValueError,
                           match=f"^{key} must be a finite number"):
            make_env(name, {key: value})

    @pytest.mark.parametrize("at", [0, 1])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                       -float("inf"), "0.5", True])
    def test_lq_viapoint_must_be_finite_numbers(self, at, value):
        point = [0.5, 1.0]
        point[at] = value
        with pytest.raises(ValueError,
                           match=f"viapoints {('time', 'target')[at]}"):
            make_env("lq_viapoints", {"horizon": 1.0,
                                      "viapoints": (tuple(point),)})

    @pytest.mark.parametrize("viapoints", [
        5, [5], [[1.0]], [[1.0, 2.0, 3.0]], "ab", {1.0: 2.0}])
    def test_lq_viapoints_must_be_pairs(self, viapoints):
        with pytest.raises(ValueError, match="viapoints"):
            make_env("lq_viapoints", {"viapoints": viapoints})

    def test_lq_zero_sigma_rejected(self):
        with pytest.raises(ValueError, match="sigma"):
            make_env("lq_viapoints", {"sigma": 0.0})
        assert make_env("lq_viapoints", {"sigma": -0.1}).sigma == -0.1

    @pytest.mark.parametrize("overrides, index", [
        ({"horizon": 1.0}, 20),  # the default viapoints run to t = 9
        ({"viapoints": ((0.0, 5.0), (0.04, 1.0), (1.0, 2.0))}, 0),
        ({"viapoints": ((10.06, 1.0),)}, 101),
    ])
    def test_lq_viapoint_outside_the_grid_rejected(self, overrides, index):
        with pytest.raises(ValueError,
                           match=f"viapoints.*grid index {index}, outside"):
            make_env("lq_viapoints", overrides)

    def test_lq_viapoints_on_one_index_rejected(self):
        with pytest.raises(ValueError, match="viapoints.*already taken"):
            make_env("lq_viapoints", {"viapoints": ((0.96, 1.0), (1.04, 2.0))})

    def test_lq_viapoints_at_the_grid_ends_kept(self):
        env = make_env("lq_viapoints",
                       {"viapoints": ((0.1, 1.0), (10.04, 2.0))})
        assert env.event_indices == (1, 100)
        assert make_env("lq_viapoints", {"viapoints": ()}).event_indices == ()


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

    @pytest.mark.parametrize("name", [["pendulum"], None])
    def test_name_that_is_not_a_string_rejected(self, name):
        with pytest.raises(ValueError, match="unknown environment"):
            make_env(name)

    @pytest.mark.parametrize("name, k", [
        (name, {"lq_viapoints": 2, "pendulum": 4, "acrobot": 9}[name])
        for name in sorted(environments._ENVS)])
    def test_linear_basis_maps_a_state_to_its_features(self, name, k):
        # The map fills the caller's (..., K) buffer and returns it.
        env = make_env(name)
        feature_fn, num_features = env.linear_basis
        assert num_features == k
        for lead in [(), (3,), (2, 3)]:
            out = np.full(lead + (k,), np.nan)
            x = np.random.default_rng(7).normal(size=lead + (env.state_dim,))
            assert feature_fn(x, out) is out
            assert np.isfinite(out).all()

    def test_parameters_checked_without_postponed_annotations(self):
        # A task declared without ``from __future__ import annotations``
        # types its fields float, not the string "float".
        heavy = dataclasses.make_dataclass(
            "HeavyPendulum", [("mass", float, dataclasses.field(default=1.0))],
            bases=(Pendulum,), kw_only=True, eq=False)
        assert heavy(mass=2.0).mass == 2.0
        for bad in (np.nan, True, "x"):
            with pytest.raises(ValueError,
                               match="^mass must be a finite number"):
                heavy(mass=bad)

    def test_non_integer_horizon_rejected(self):
        with pytest.raises(ValueError):
            make_env("lq_viapoints", {"horizon": 0.35})


class TestHookContract:
    """Every task in ``make_env``'s registry: its rate writes into the
    caller's buffer and returns it, and its linear-basis map, which fills
    a (..., K) buffer (``TestMakeEnv``), refuses one of another width
    before writing to it."""

    TASKS = sorted(environments._ENVS)

    @pytest.mark.parametrize("name", TASKS)
    @pytest.mark.parametrize("lead", [(), (3,), (2, 3)])
    def test_map_refuses_a_wider_buffer(self, name, lead):
        env = make_env(name)
        feature_fn, k = env.linear_basis
        out = np.full(lead + (k + 1,), np.nan)
        with pytest.raises(ValueError, match=rf"num_features = {k}$"):
            feature_fn(np.zeros(lead + (env.state_dim,)), out)
        assert np.isnan(out).all()

    @pytest.mark.parametrize("name", TASKS)
    def test_rate_fills_its_buffer(self, name):
        env = make_env(name)
        rng = np.random.default_rng(8)
        x = rng.normal(size=(5, env.state_dim))
        a = rng.normal(size=5)
        out = np.full(x.shape, np.nan)
        assert env.xdot(x, a, out) is out
        assert np.isfinite(out).all()
        np.testing.assert_array_equal(env.step(x, a, 0), x + env.dt * out)
