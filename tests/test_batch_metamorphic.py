"""Metamorphic tests of one iteration's numbers under batch rearrangements.

Rollouts are exchangeable: the estimators, the smoothing search and the
trust-region step see a batch only through sums over its rollouts.  So

* permuting the rollouts leaves alpha, the natural direction, the step size
  eta and the achieved KL unchanged;
* a batch concatenated with itself gives the same alpha to the search's
  tolerance, and at a given alpha the same direction and the same update.
  Duplication leaves log N - H(w), the whitened coefficients, the Fisher
  and the sampled KL unchanged and doubles the score sum, which the trust
  region cancels (eta halves).

Sums over a rearranged batch run in another order, so every comparison has
a tolerance and none asks for equal floats: 1e-12 relative for a linear
policy, whose step size is a closed-form root.  For the MLP the gradients
agree to about 1e-15, but truncated CG on its Fisher carries the rounding
of the row order into the direction at about 1e-12 of its size, and the
root search along the steep sampled KL carries that on into the step size
at about 1e-11; its cases allow 1e-9.
"""

import numpy as np
import pytest

from aspic import (MlpPolicy, RolloutBatch, TimeVaryingLinearPolicy,
                   find_alpha, lq_features, make_env, pendulum_features,
                   sample_batch, smoothed_gradient, trust_region_step)
from aspic.smoothing import ALPHA_REL_TOL

from helpers import LQ_SMALL

EPSILON = 0.05
DELTA = 0.5


def take_rollouts(batch, idx):
    """The batch whose rollout i is rollout ``idx[i]`` of ``batch``."""
    return RolloutBatch(
        states=batch.states[:, idx], actions=batch.actions[:, idx],
        state_cost=batch.state_cost[idx], log_ratio=batch.log_ratio[idx],
        gamma=batch.gamma,
        features=None if batch.features is None else batch.features[:, idx])


def case(name):
    """(batch, policy, solver keywords, relative tolerance) of one sampled
    case."""
    if name == "lq_pinv":
        env = make_env("lq_viapoints", LQ_SMALL)
        policy = TimeVaryingLinearPolicy(lq_features, 2, env.num_steps,
                                         env.noise_var)
        solver = dict(kind="per_timestep_pinv")
    elif name == "pendulum_cg":
        env = make_env("pendulum", {"horizon": 0.3})
        policy = TimeVaryingLinearPolicy(pendulum_features, 4,
                                         env.num_steps, env.noise_var)
        solver = dict(kind="cg", iters=5)
    else:
        env = make_env("pendulum", {"horizon": 0.3})
        policy = MlpPolicy([2, 8, 1], env.noise_var,
                           rng=np.random.default_rng(0))
        # Three CG iterations stop short of the residual test, whose exit
        # could fall either side of a rounding; the ridge keeps them well
        # conditioned.
        solver = dict(kind="cg", iters=3, damping=0.3)
    rtol = 1e-9 if name == "mlp_cg" else 1e-12
    rng = np.random.default_rng(1)
    policy = policy.with_params(policy.params + rng.normal(
        scale=0.3, size=policy.params.size))
    return sample_batch(env, policy, 12, 7, gamma=1.0), policy, solver, rtol


def iteration(batch, policy, solver, alpha=None):
    """(alpha, update) of one runner iteration on ``batch``, at the
    searched alpha unless one is given."""
    if alpha is None:
        alpha = find_alpha(batch.stochastic_costs, batch.gamma, DELTA).alpha
    g = smoothed_gradient(batch, policy, alpha)
    return alpha, trust_region_step(batch, policy, g, EPSILON, **solver)


def direction(update, policy):
    step = update.new_params - policy.params
    return step / np.linalg.norm(step)


CASES = ["lq_pinv", "pendulum_cg", "mlp_cg"]


@pytest.mark.parametrize("name", CASES)
def test_permuting_rollouts_changes_nothing(name):
    batch, policy, solver, rtol = case(name)
    alpha, update = iteration(batch, policy, solver)
    perm = np.random.default_rng(2).permutation(batch.n)
    assert not np.array_equal(perm, np.arange(batch.n))
    shuffled = take_rollouts(batch, perm)
    alpha_p, update_p = iteration(shuffled, policy, solver)
    assert alpha_p == pytest.approx(alpha, rel=1e-12)
    _, update_p = iteration(shuffled, policy, solver, alpha)
    assert update_p.eta == pytest.approx(update.eta, rel=rtol)
    assert update_p.achieved_kl == pytest.approx(update.achieved_kl,
                                                 rel=rtol)
    np.testing.assert_allclose((update_p.new_params - policy.params)
                               / update_p.eta,
                               (update.new_params - policy.params)
                               / update.eta, rtol=rtol, atol=0)


@pytest.mark.parametrize("name", CASES)
def test_a_batch_twice_over_gives_the_same_update(name):
    batch, policy, solver, rtol = case(name)
    alpha, update = iteration(batch, policy, solver)
    twice = take_rollouts(batch, np.tile(np.arange(batch.n), 2))
    assert twice.n == 2 * batch.n
    alpha_2, _ = iteration(twice, policy, solver)
    assert alpha_2 == pytest.approx(alpha, rel=ALPHA_REL_TOL)
    _, update_2 = iteration(twice, policy, solver, alpha)
    assert update_2.eta == pytest.approx(update.eta / 2, rel=rtol)
    assert update_2.achieved_kl == pytest.approx(update.achieved_kl,
                                                 rel=rtol)
    np.testing.assert_allclose(direction(update_2, policy),
                               direction(update, policy), rtol=0,
                               atol=rtol)
    np.testing.assert_allclose(update_2.new_params, update.new_params,
                               rtol=rtol, atol=rtol * np.abs(
                                   update.new_params).max())
