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
           "lq_features", "pendulum_features", "acrobot_features"]


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
        d = resid.shape[-1]
        return (-np.sum(resid ** 2, axis=-1) / (2.0 * self.noise_var)
                - 0.5 * d * np.log(2.0 * np.pi * self.noise_var))


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

    def _forward(self, x2d: np.ndarray):
        h = x2d
        caches = [h]
        layers = list(self._layers(self._params))
        for i, (w, b) in enumerate(layers):
            z = h @ w + b
            h = np.tanh(z) if i < len(layers) - 1 else z
            caches.append(h)
        return h, caches

    def mean(self, x: np.ndarray, t: int) -> np.ndarray:
        return self.mean_steps(x)

    def mean_steps(self, xs: np.ndarray) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        out, _ = self._forward(xs.reshape(-1, xs.shape[-1]))
        return out.reshape(xs.shape[:-1] + (self.action_dim,))

    def jac_t_v_steps(self, xs: np.ndarray, v: np.ndarray) -> np.ndarray:
        xs = np.asarray(xs, dtype=float).reshape(-1, self.layer_sizes[0])
        cot = np.asarray(v, dtype=float).reshape(-1, self.action_dim)
        _, caches = self._forward(xs)
        layers = list(self._layers(self._params))
        grads = [None] * len(layers)
        g = cot
        for i in range(len(layers) - 1, -1, -1):
            w, _ = layers[i]
            h_in, h_out = caches[i], caches[i + 1]
            if i < len(layers) - 1:
                g = g * (1.0 - h_out ** 2)  # tanh'
            grads[i] = (h_in.T @ g, g.sum(axis=0))
            g = g @ w.T
        flat = []
        for gw, gb in grads:
            flat.append(gw.ravel())
            flat.append(gb)
        return np.concatenate(flat)

    def jac_y_steps(self, xs: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Forward-mode directional derivative of the mean along y."""
        xs = np.asarray(xs, dtype=float)
        h = xs.reshape(-1, xs.shape[-1])
        dh = np.zeros_like(h)
        layers = list(self._layers(self._params))
        dlayers = list(self._layers(np.asarray(y, dtype=float)))
        for i, ((w, b), (dw, db)) in enumerate(zip(layers, dlayers)):
            z = h @ w + b
            dz = dh @ w + h @ dw + db
            if i < len(layers) - 1:
                h = np.tanh(z)
                dh = dz * (1.0 - h ** 2)
            else:
                h, dh = z, dz
        return dh.reshape(xs.shape[:-1] + (self.action_dim,))
