"""Gaussian policies with fixed variance nu/dt.

Both mean families expose the same batched surface: the action mean, its
Jacobian-vector products in the flat parameter vector, and per-step
log-probabilities, which is all the gradient estimators and the Fisher
machinery need.  The variance is static and not part of the parameter
vector, so every formula reduces to operations on the mean:

    log pi(a|x,t) = -|a - u(x,t)|^2 / (2 sigma^2) - (d/2) log(2 pi sigma^2)
    grad log pi   = J_u(x,t)^T (a - u(x,t)) / sigma^2

with sigma^2 = nu/dt and J_u the Jacobian of the mean w.r.t. the parameters;
the estimators form the gradient as ``jac_t_v_steps`` of the scaled residual.

The methods take stacked arrays: ``xs`` of shape (..., T, state_dim) with
matching actions, where T is the number of control steps and the leading
dimensions enumerate rollouts.  The parameter count is fixed when a policy is
built.
"""

from __future__ import annotations

import numpy as np

__all__ = ["GaussianPolicy", "TimeVaryingLinearPolicy", "MlpPolicy",
           "gaussian_log_prob", "lq_features", "pendulum_features",
           "acrobot_features"]


def gaussian_log_prob(resid: np.ndarray, noise_var: float) -> np.ndarray:
    """log N(resid; 0, noise_var I) over the last axis."""
    d = resid.shape[-1]
    return (-np.sum(resid ** 2, axis=-1) / (2.0 * noise_var)
            - 0.5 * d * np.log(2.0 * np.pi * noise_var))


def _positive(noise_var: float) -> float:
    noise_var = float(noise_var)
    if not noise_var > 0:
        raise ValueError(f"noise variance must be positive, got {noise_var}")
    return noise_var


class GaussianPolicy:
    """Shared Gaussian machinery; subclasses implement the mean map.

    Policies are immutable value objects: parameter updates go through
    ``with_params`` and return a new policy.
    """

    noise_var: float  # nu/dt, per action dimension
    action_dim: int
    _params: np.ndarray  # flat, sized when the policy is built

    @property
    def params(self) -> np.ndarray:
        return self._params.copy()

    def with_params(self, params: np.ndarray) -> "GaussianPolicy":
        raise NotImplementedError

    def mean(self, x: np.ndarray, t: int) -> np.ndarray:
        """Action mean u(x, t); x may carry leading batch dimensions."""
        raise NotImplementedError

    def mean_steps(self, xs: np.ndarray) -> np.ndarray:
        """Means along full trajectories: (..., T, state_dim) -> (..., T, adim)."""
        raise NotImplementedError

    def jac_y_steps(self, xs: np.ndarray, y: np.ndarray) -> np.ndarray:
        """J_u(x_t, t) y at every step: returns (..., T, adim)."""
        raise NotImplementedError

    def jac_t_v_steps(self, xs: np.ndarray, v: np.ndarray) -> np.ndarray:
        """sum over all rollouts and steps of J_u^T v; returns a flat vector."""
        raise NotImplementedError

    def log_prob_steps(self, xs: np.ndarray, actions: np.ndarray) -> np.ndarray:
        """Per-step log-probabilities; shape of xs minus the state axis."""
        resid = np.asarray(actions, dtype=float) - self.mean_steps(xs)
        return gaussian_log_prob(resid, self.noise_var)


# ---------------------------------------------------------------------------
# Feature maps for the time-varying linear controllers
# ---------------------------------------------------------------------------

def lq_features(x: np.ndarray) -> np.ndarray:
    """[x, 1] for the one-dimensional Brownian particle."""
    x = np.asarray(x, dtype=float)
    return np.stack([x[..., 0], np.ones_like(x[..., 0])], axis=-1)


def pendulum_features(x: np.ndarray) -> np.ndarray:
    """[cos x, sin x, xdot, 1]."""
    x = np.asarray(x, dtype=float)
    ang, vel = x[..., 0], x[..., 1]
    return np.stack([np.cos(ang), np.sin(ang), vel, np.ones_like(ang)], axis=-1)


def acrobot_features(x: np.ndarray) -> np.ndarray:
    """The 9-term acrobot controller basis.

    Order: [cos x1, sin x2, cos x2, sin x2, sin(x1+x2), cos(x1+x2),
    xdot1, xdot2, 1].  The sin(x2) term appears twice on purpose (the
    published controller lists it twice); the resulting per-block Fisher rank
    deficiency is handled by the pseudo-inverse / damping in the solvers.
    """
    x = np.asarray(x, dtype=float)
    x1, x2, v1, v2 = x[..., 0], x[..., 1], x[..., 2], x[..., 3]
    return np.stack([np.cos(x1), np.sin(x2), np.cos(x2), np.sin(x2),
                     np.sin(x1 + x2), np.cos(x1 + x2), v1, v2,
                     np.ones_like(x1)], axis=-1)


class TimeVaryingLinearPolicy(GaussianPolicy):
    """u(x, t) = theta_t . phi(x), one coefficient block per grid time.

    ``feature_fn`` maps states to ``num_features`` features.  Parameters
    flatten to shape (num_steps * num_features,) and default to zeros; the
    block for time t only influences step t, which makes the Fisher matrix
    exactly block-diagonal across time.  Scalar actions only, matching the
    tasks.
    """

    action_dim = 1

    def __init__(self, feature_fn, num_features: int, num_steps: int,
                 noise_var: float, params: np.ndarray | None = None):
        self.feature_fn = feature_fn
        self.num_features = int(num_features)
        self.num_steps = int(num_steps)
        self.noise_var = _positive(noise_var)
        size = self.num_steps * self.num_features
        self._params = (np.zeros(size) if params is None
                        else np.asarray(params, dtype=float).copy())
        if self._params.size != size:
            raise ValueError(f"expected {size} parameters, "
                             f"got {self._params.size}")

    def features(self, xs: np.ndarray) -> np.ndarray:
        return self.feature_fn(np.asarray(xs, dtype=float))

    def _theta(self) -> np.ndarray:
        return self._params.reshape(self.num_steps, self.num_features)

    def with_params(self, params: np.ndarray) -> "TimeVaryingLinearPolicy":
        return TimeVaryingLinearPolicy(self.feature_fn, self.num_features,
                                       self.num_steps, self.noise_var, params)

    def mean(self, x: np.ndarray, t: int) -> np.ndarray:
        feats = self.features(x)
        return (feats @ self._theta()[t])[..., None]

    def mean_steps(self, xs: np.ndarray) -> np.ndarray:
        feats = self.features(xs)
        return np.einsum("...tk,tk->...t", feats, self._theta())[..., None]

    def jac_y_steps(self, xs: np.ndarray, y: np.ndarray) -> np.ndarray:
        feats = self.features(xs)
        yb = np.asarray(y, dtype=float).reshape(self.num_steps, -1)
        return np.einsum("...tk,tk->...t", feats, yb)[..., None]

    def jac_t_v_steps(self, xs: np.ndarray, v: np.ndarray) -> np.ndarray:
        feats = self.features(xs).reshape(-1, self.num_steps, self.num_features)
        v = np.asarray(v, dtype=float)[..., 0].reshape(-1, self.num_steps)
        return np.einsum("ntk,nt->tk", feats, v).ravel()


# ---------------------------------------------------------------------------
# MLP mean
# ---------------------------------------------------------------------------

class MlpPolicy(GaussianPolicy):
    """Mean given by a small tanh network; identity output layer.

    The network sees the state only (no time input), so the stacked-array
    methods flatten all leading dimensions into one batch axis.  Backprop is
    hand-rolled (the rest of the library is plain numpy) and checked against
    finite differences in the tests.

    A policy keeps the activations of its last forward pass over an ``xs``
    that owns its memory and is read-only (such as ``RolloutBatch.xs``).
    While it is handed that same array object, ``mean_steps``,
    ``jac_y_steps`` and ``jac_t_v_steps`` reuse those activations instead
    of running the network again; since the parameters and the array are
    both immutable, the results are the same floats.  Any other ``xs``, a
    writable array or a view, is evaluated afresh on every call.
    """

    def __init__(self, layer_sizes, noise_var: float,
                 params: np.ndarray | None = None, *, rng=None):
        self.layer_sizes = tuple(int(s) for s in layer_sizes)
        self.noise_var = _positive(noise_var)
        self.action_dim = self.layer_sizes[-1]
        if params is None:
            params = self._glorot_init(rng or np.random.default_rng())
        self._params = np.asarray(params, dtype=float).copy()
        if self._params.size != self.num_params:
            raise ValueError(f"expected {self.num_params} parameters, "
                             f"got {self._params.size}")
        self._cached = (None, None)  # (read-only xs, its activations)

    @property
    def num_params(self) -> int:
        s = self.layer_sizes
        return sum(s[i] * s[i + 1] + s[i + 1] for i in range(len(s) - 1))

    def _glorot_init(self, rng) -> np.ndarray:
        chunks = []
        s = self.layer_sizes
        for i in range(len(s) - 1):
            bound = np.sqrt(6.0 / (s[i] + s[i + 1]))
            chunks.append(rng.uniform(-bound, bound, size=s[i] * s[i + 1]))
            chunks.append(np.zeros(s[i + 1]))
        return np.concatenate(chunks)

    def _layers(self, flat: np.ndarray):
        """Yield (W, b) views into a flat parameter vector."""
        s = self.layer_sizes
        off = 0
        for i in range(len(s) - 1):
            w = flat[off:off + s[i] * s[i + 1]].reshape(s[i], s[i + 1])
            off += s[i] * s[i + 1]
            b = flat[off:off + s[i + 1]]
            off += s[i + 1]
            yield w, b

    def with_params(self, params: np.ndarray) -> "MlpPolicy":
        return MlpPolicy(self.layer_sizes, self.noise_var, params)

    def _activations(self, xs) -> list:
        """[x, h_1, ..., h_{L-1}, u] over the flattened batch of ``xs``."""
        frozen = (isinstance(xs, np.ndarray) and xs.base is None
                  and not xs.flags.writeable)
        if frozen and xs is self._cached[0]:
            return self._cached[1]
        h = np.asarray(xs, dtype=float).reshape(-1, self.layer_sizes[0])
        acts = [h]
        layers = list(self._layers(self._params))
        for i, (w, b) in enumerate(layers):
            h = h @ w
            h += b
            if i < len(layers) - 1:
                np.tanh(h, out=h)
            acts.append(h)
        if frozen:
            for a in acts:
                a.flags.writeable = False
            self._cached = (xs, acts)
        return acts

    def mean(self, x: np.ndarray, t: int) -> np.ndarray:
        return self.mean_steps(x)

    def mean_steps(self, xs: np.ndarray) -> np.ndarray:
        out = self._activations(xs)[-1]
        return out.reshape(np.shape(xs)[:-1] + (self.action_dim,)).copy()

    def jac_t_v_steps(self, xs: np.ndarray, v: np.ndarray) -> np.ndarray:
        acts = self._activations(xs)
        layers = list(self._layers(self._params))
        grads = [None] * len(layers)
        g = np.asarray(v, dtype=float).reshape(-1, self.action_dim)
        for i in range(len(layers) - 1, -1, -1):
            if i < len(layers) - 1:
                g *= _tanh_slope(acts[i + 1])  # our own g @ w.T, not v
            grads[i] = ((acts[i].T @ g).ravel(), g.sum(axis=0))
            if i > 0:
                g = g @ layers[i][0].T
        return np.concatenate([part for pair in grads for part in pair])

    def jac_y_steps(self, xs: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Forward-mode directional derivative of the mean along y."""
        acts = self._activations(xs)
        layers = list(self._layers(self._params))
        dlayers = list(self._layers(np.asarray(y, dtype=float)))
        # One temporary per layer, freed before the next layer allocates.
        dh = np.zeros_like(acts[0])
        for i, ((w, _), (dw, db)) in enumerate(zip(layers, dlayers)):
            dh = dh @ w
            tmp = acts[i] @ dw
            dh += tmp
            dh += db
            if i < len(layers) - 1:
                dh *= _tanh_slope(acts[i + 1], out=tmp)
            del tmp
        return dh.reshape(np.shape(xs)[:-1] + (self.action_dim,))


def _tanh_slope(h: np.ndarray, out=None) -> np.ndarray:
    """1 - h^2, the derivative of tanh at the pre-activation of h = tanh(z)."""
    d = np.square(h, out=out)
    np.subtract(1.0, d, out=d)
    return d
