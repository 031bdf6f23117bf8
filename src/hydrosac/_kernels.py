"""Elementwise numeric kernels: the squashed-Gaussian sample and its
gradient, and the soft Bellman target.

Everything is vectorized numpy; matrix products stay on numpy's BLAS. Each
kernel is deterministic, so training is bit-reproducible from its seed.
ReLU and the optimizer updates (RMSprop, Polyak) are not kernels here: the
Mlp applies ReLU in place in its forward pass and masks by the cached
output in its backward passes, and the optimizers run as in-place chains
over each network's flat parameter vector (see neural.py).
"""

import numpy as np

# numpy is the only backend. These two names stay because the benchmark's
# environment record (perfbench/envinfo.py) reads them in every run.
HAS_NUMBA = False


def backend():
    return "numpy"


LOG_2PI = float(np.log(2.0 * np.pi))

# Keeps sigmoid outputs strictly inside (0, 1) in 64-bit arithmetic.
ACTION_MARGIN = 1e-12


def q_target(reward, done, v_next, gamma):
    return reward + gamma * (1.0 - done) * v_next


def _sigmoid(z):
    out = np.empty_like(z)
    pos = z >= 0.0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return np.clip(out, ACTION_MARGIN, 1.0 - ACTION_MARGIN)


def squash_sample(mean, log_std, noise, prob_floor):
    std = np.exp(log_std)
    z = mean + std * noise
    action = _sigmoid(z)
    sig_grad = action * (1.0 - action)
    log_prob = (
        -0.5 * noise * noise
        - log_std
        - 0.5 * LOG_2PI
        - np.log(sig_grad + prob_floor)
    )
    return action, log_prob, z


def squash_backward(g_action, g_log_prob, action, std, noise, prob_floor):
    sig_grad = action * (1.0 - action)
    correction = sig_grad * (1.0 - 2.0 * action) / (sig_grad + prob_floor)
    g_z = g_action * sig_grad - g_log_prob * correction
    g_mean = g_z
    g_log_std = g_z * std * noise - g_log_prob
    return g_mean, g_log_std
