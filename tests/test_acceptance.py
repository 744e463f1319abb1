"""End-to-end acceptance gate.

Each test prints a single PASS/FAIL line for its criterion (bypassing
capture) in addition to the usual assertion.  The two LQ experiments share
one 5-cell smoothing-strength sweep, so the file runs in roughly ten minutes.
The three training experiments (criteria 1-3) carry the ``slow`` marker.
"""

from dataclasses import replace

import numpy as np
import pytest

from aspic import (ExperimentConfig, MlpPolicy, RolloutBatch,
                   TimeVaryingLinearPolicy, conjugate_gradient,
                   direct_gradient, fisher_vector_product, kl_estimate,
                   lq_features, make_env, normalized_weights,
                   per_timestep_natural_direction, pice_gradient, run_aspic,
                   sample_batch, smoothed_cost_value, smoothed_gradient,
                   sweep, trust_region_step)


def announce(capsys, number, ok, detail):
    with capsys.disabled():
        print(f"\nCRITERION {number}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, detail


# ---------------------------------------------------------------------------
# Shared long-running experiment fixtures
# ---------------------------------------------------------------------------

THRESHOLD = 2e4
LOG100_FRACS = (0, 0.05, 0.2, 0.5, 0.9)


@pytest.fixture(scope="module")
def lq_sweep():
    """Iterations-to-threshold per smoothing strength, 10 seeds each."""
    config = ExperimentConfig(
        env="lq_viapoints", n_rollouts=100, iterations=2000, epsilon=0.1,
        gamma=1.0, delta={"lognfrac": 0.2},
        solver={"kind": "per_timestep_pinv", "rcond": 1e-4},
        repeats=10, cost_threshold=THRESHOLD)
    values = [0 if f == 0 else {"lognfrac": f} for f in LOG100_FRACS]
    cells = sweep(config, "delta", values)
    out = {}
    for frac, (label, cell) in zip(LOG100_FRACS, cells.items()):
        assert not isinstance(cell, Exception), f"cell {label} failed: {cell}"
        out[frac] = cell.iterations_to_threshold(THRESHOLD)
    return out


def median_hits(hits, cap=10_000):
    return float(np.median([h if h is not None else cap for h in hits]))


@pytest.mark.slow
def test_criterion_1_smoothing_speeds_up_lq(lq_sweep, capsys):
    smoothed = lq_sweep[0.2]
    direct = lq_sweep[0]
    wins = sum(1 for s, d in zip(smoothed, direct)
               if (s or 10**9) < (d or 10**9))
    med_s, med_d = median_hits(smoothed), median_hits(direct)
    ok = med_s < med_d and wins >= 8
    announce(capsys, 1, ok,
             f"median iterations to cost<=2e4: smoothed {med_s:g} vs "
             f"direct {med_d:g}; paired wins {wins}/10")


@pytest.mark.slow
def test_criterion_2_intermediate_smoothing_is_best(lq_sweep, capsys):
    medians = {f: median_hits(lq_sweep[f]) for f in LOG100_FRACS}
    best = min(medians, key=medians.get)
    ok = best not in (LOG100_FRACS[0], LOG100_FRACS[-1])
    announce(capsys, 2, ok,
             "median iterations per smoothing strength "
             + ", ".join(f"{f}: {medians[f]:g}" for f in LOG100_FRACS)
             + f"; minimum at interior value {best}")


@pytest.mark.slow
def test_criterion_3_pendulum_small_batch_budget(capsys):
    config = ExperimentConfig(
        env="pendulum", n_rollouts=50, iterations=500, epsilon=0.1,
        gamma=1.0, delta={"absolute": 0.5},
        solver={"kind": "cg", "iters": 10, "damping": 0.3},
        repeats=10, cost_threshold=-50.0)
    result = run_aspic(config)
    hits = result.iterations_to_threshold(-50.0)
    passing = sum(h is not None for h in hits)
    ok = passing >= 9
    announce(capsys, 3, ok,
             f"{passing}/10 seeds reach mean cost < -50 within the "
             f"25000-rollout budget (crossings: {hits})")


# ---------------------------------------------------------------------------
# Estimator and solver gates (seconds each)
# ---------------------------------------------------------------------------

LQ_SMALL = dict(horizon=0.5, dt=0.1, viapoints=((0.2, 1.0), (0.5, -1.0)),
                sigma=0.5)


def full_rank_fixture(seed=0, num_steps=4, n=16):
    """Synthetic linear-policy batch with random states at every step, so
    every per-timestep curvature block has full rank."""
    rng = np.random.default_rng(seed)
    policy = TimeVaryingLinearPolicy(lq_features, 2, num_steps, 1.0,
                                     params=rng.normal(size=2 * num_steps))
    draws = [(rng.normal(size=(num_steps + 1, 1)),
              rng.normal(size=(num_steps, 1))) for _ in range(n)]
    zeros = np.zeros((n, num_steps))
    batch = RolloutBatch(states=np.stack([s for s, _ in draws]),
                         actions=np.stack([a for _, a in draws]),
                         noises=np.zeros((n, num_steps, 1)), state_costs=zeros,
                         logp_policy=zeros, logp_base=zeros, gamma=1.0)
    return batch, policy


def lq_fixture(seed=3, n=6, gamma=1.0):
    env = make_env("lq_viapoints", LQ_SMALL)
    policy = TimeVaryingLinearPolicy(lq_features, 2, env.num_steps,
                                     env.noise_var)
    rng = np.random.default_rng(seed)
    policy = policy.with_params(rng.normal(scale=0.3,
                                           size=policy.params.size))
    return sample_batch(env, policy, n, seed, gamma), policy


def test_criterion_4_gradient_oracles(capsys):
    batch, policy = lq_fixture()
    alpha = 1.5
    xs, acts = batch.xs, batch.actions
    lp_old = np.sum(policy.log_prob_steps(xs, acts), axis=-1)
    s = batch.stochastic_costs

    def reweighted_value(params):
        pol = policy.with_params(params)
        lp_new = np.sum(pol.log_prob_steps(xs, acts), axis=-1)
        frozen = replace(batch,
                         stochastic_costs=s - alpha * (lp_new - lp_old))
        return smoothed_cost_value(frozen, alpha)

    grad = smoothed_gradient(batch, policy, alpha, whiten=False)
    theta = policy.params
    h = 1e-5
    rng = np.random.default_rng(9)
    worst_fd = 0.0
    for _ in range(5):
        d = rng.normal(size=theta.size)
        d /= np.linalg.norm(d)
        fd = (reweighted_value(theta + h * d)
              - reweighted_value(theta - h * d)) / (2 * h)
        worst_fd = max(worst_fd, abs(-(grad @ d) - fd) / max(abs(fd), 1e-12))

    mlp = MlpPolicy([2, 8, 1], noise_var=2.0, rng=np.random.default_rng(0))
    x = np.array([0.4, -1.1])
    a = np.array([0.7])
    score = mlp.jac_t_v_steps(x, (a - mlp.mean_steps(x)) / mlp.noise_var)
    tm = mlp.params
    worst_mlp = 0.0
    for c in np.random.default_rng(1).choice(tm.size, 20, replace=False):
        tp, tn = tm.copy(), tm.copy()
        tp[c] += 1e-6
        tn[c] -= 1e-6
        fd = (mlp.with_params(tp).log_prob_steps(x, a)
              - mlp.with_params(tn).log_prob_steps(x, a)) / 2e-6
        worst_mlp = max(worst_mlp, abs(score[c] - fd) / max(abs(fd), 1e-9))

    ok = worst_fd < 1e-4 and worst_mlp < 1e-5
    announce(capsys, 4, ok,
             f"smoothed estimator vs finite differences rel err "
             f"{worst_fd:.2e} (< 1e-4); network score rel err "
             f"{worst_mlp:.2e} (< 1e-5)")


def test_criterion_5_limit_cases(capsys):
    batch, policy = lq_fixture(seed=2, n=10)

    g_strong = smoothed_gradient(batch, policy, 1e9)
    g_direct = direct_gradient(batch, policy)
    cos = g_strong @ g_direct / (np.linalg.norm(g_strong)
                                 * np.linalg.norm(g_direct))

    alpha = 1e-8
    g_lim = smoothed_gradient(batch, policy, alpha,
                              whiten=False) / alpha
    g_pice = pice_gradient(batch, policy)
    pice_err = float(np.max(np.abs(g_lim - g_pice)
                            / np.maximum(np.abs(g_pice), 1e-12)))

    mean = float(np.mean(batch.stochastic_costs))
    mean_err = abs(smoothed_cost_value(batch, 1e9) - mean) / abs(mean)

    frozen = replace(batch, gamma=0.0,
                     stochastic_costs=np.array(
                         [0.0, 1.0, 2.0] + [1.0] * (batch.n - 3)))
    risk = smoothed_cost_value(frozen, 1.0)
    expected = -np.log(np.mean(np.exp(-frozen.stochastic_costs)))
    risk_err = abs(risk - expected)

    ok = (cos > 0.999 and pice_err < 1e-4 and mean_err < 1e-6
          and risk_err < 1e-12)
    announce(capsys, 5, ok,
             f"weak-smoothing cosine vs direct {cos:.5f} (> 0.999); "
             f"strong-smoothing limit rel err {pice_err:.2e} (< 1e-4); "
             f"value -> batch mean rel err {mean_err:.2e} (< 1e-6); "
             f"risk-sensitive identity err {risk_err:.2e}")


def test_criterion_6_weight_degeneracy_tracks_kl(capsys):
    # Reweighting N(0,1) samples toward N(0.5,1): analytic KL = 0.125.
    estimates = []
    for seed in range(5):
        x = np.random.default_rng(seed).normal(size=100_000)
        costs = -(0.5 * x - 0.125)
        estimates.append(kl_estimate(normalized_weights(costs, 1.0, 0.0)))
    mean_est = float(np.mean(estimates))
    se = float(np.std(estimates, ddof=1) / np.sqrt(len(estimates)))
    gauss_ok = abs(mean_est - 0.125) <= 3 * se + 1e-4

    rng = np.random.default_rng(7)
    alphas = np.geomspace(1e-3, 1e6, 20)
    mono_ok = True
    for _ in range(100):
        costs = rng.normal(scale=rng.uniform(0.5, 50.0), size=30)
        kls = [kl_estimate(normalized_weights(costs, 1.0, a)) for a in alphas]
        mono_ok &= all(a >= b - 1e-12 for a, b in zip(kls, kls[1:]))

    ok = gauss_ok and mono_ok
    announce(capsys, 6, ok,
             f"two-Gaussian degeneracy estimate {mean_est:.4f} vs analytic "
             f"0.125 (se {se:.1e}); monotone in the smoothing level on "
             f"100 random cost vectors: {mono_ok}")


def test_criterion_7_natural_gradient_suite(capsys):
    rng = np.random.default_rng(11)
    m = rng.normal(size=(8, 8))
    a = m @ m.T + 0.1 * np.eye(8)
    b = rng.normal(size=8)
    x, _ = conjugate_gradient(lambda v: a @ v, b, max_iters=8, tol=1e-12)
    cg_err = float(np.max(np.abs(x - np.linalg.solve(a, b))))

    batch, policy = full_rank_fixture(seed=5, n=16)
    dim = policy.params.size
    sym_ok = psd_ok = True
    for _ in range(20):
        y = rng.normal(size=dim)
        z = rng.normal(size=dim)
        fy = fisher_vector_product(batch, policy, y)
        fz = fisher_vector_product(batch, policy, z)
        sym_ok &= abs(y @ fz - z @ fy) <= 1e-10 * max(1.0, abs(y @ fz))
        psd_ok &= y @ fy >= 0.0

    g = rng.normal(size=dim)
    via_pinv = per_timestep_natural_direction(batch, policy, g, rcond=1e-12)
    f_dense = np.column_stack([fisher_vector_product(batch, policy, e)
                               for e in np.eye(dim)])
    via_cg, _ = conjugate_gradient(lambda v: f_dense @ v, g,
                                   max_iters=dim, tol=1e-14)
    agree = float(np.max(np.abs(via_pinv - via_cg))
                  / np.max(np.abs(via_cg)))

    kl_ok = True
    worst_gap = 0.0
    for eps in (0.02, 0.1, 0.4):
        for solver in ("cg", "per_timestep_pinv"):
            up = trust_region_step(batch, policy, g, epsilon=eps,
                                   solver=solver)
            gap = abs(up.achieved_kl - eps) / eps
            worst_gap = max(worst_gap, gap)
            kl_ok &= gap <= 0.1

    ok = cg_err < 1e-8 and sym_ok and psd_ok and agree < 1e-6 and kl_ok
    announce(capsys, 7, ok,
             f"conjugate gradient vs direct solve err {cg_err:.1e} (< 1e-8); "
             f"curvature operator symmetric {sym_ok}, PSD {psd_ok}; "
             f"per-timestep vs converged CG rel err {agree:.1e} (< 1e-6); "
             f"worst |achieved KL - target|/target {worst_gap:.3f} (<= 0.1)")


def test_criterion_8_dynamics_suite(capsys):
    from aspic import Acrobot, Pendulum

    drifts = {}
    for dt in (1e-2, 1e-3):
        env = Pendulum(dt=dt, c_omega0=0.0)
        x = np.array([2.5, 0.0])
        e0 = float(env.energy(x))
        for t in range(env.num_steps):
            x = env.step(x, np.zeros(1), t)
        drifts[dt] = abs(float(env.energy(x)) - e0)
    ratio = drifts[1e-2] / drifts[1e-3]
    drift_ok = 5.0 < ratio < 20.0

    acro = Acrobot()
    rng = np.random.default_rng(0)
    states = np.column_stack([rng.uniform(-np.pi, np.pi, 10_000),
                              rng.uniform(-np.pi, np.pi, 10_000),
                              rng.uniform(-20, 20, 10_000),
                              rng.uniform(-20, 20, 10_000)])
    d11, d12, d22 = acro.mass_matrix_terms(states)
    det_ok = bool(np.all(d11 * d22 - d12 ** 2 > 0.0))

    pend = Pendulum()
    eq_pend = np.array_equal(pend.step(np.zeros(2), np.zeros(1), 0),
                             np.zeros(2))
    eq_acro = np.allclose(acro.step(acro.x0, np.zeros(1), 0), acro.x0,
                          rtol=0, atol=1e-15)

    ok = drift_ok and det_ok and eq_pend and eq_acro
    announce(capsys, 8, ok,
             f"undamped energy drift ratio across 10x step sizes "
             f"{ratio:.1f} (~10 expected); mass-matrix determinant positive "
             f"on 10^4 states: {det_ok}; equilibria exact: "
             f"{eq_pend and eq_acro}")
