"""Elementwise numeric kernels: the squashed-Gaussian sample and its
gradient, and the soft Bellman target.

The kernels run as vectorized numpy on arrays, one value per row; matrix
products stay on numpy's BLAS. Each kernel is deterministic, so training
is bit-reproducible from its seed.
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
    # 1/(1+exp(-z)) for z >= 0 and exp(z)/(1+exp(z)) below, so exp never
    # overflows; `where` picks the branch per element. The lower branch takes
    # exp of z itself, not of -|z|, so that a NaN keeps its sign bit.
    # np.minimum(np.maximum()) is np.clip without its per-call wrapper cost.
    pos = z >= 0.0
    e = np.exp(np.where(pos, -z, z))
    d = 1.0 + e
    return np.minimum(np.maximum(np.where(pos, 1.0 / d, e / d), ACTION_MARGIN),
                      1.0 - ACTION_MARGIN)


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
    # std too, which the reverse pass reuses instead of taking exp again
    return action, log_prob, z, std


def squash_backward(g_action, g_log_prob, action, std, noise, prob_floor):
    sig_grad = action * (1.0 - action)
    correction = sig_grad * (1.0 - 2.0 * action) / (sig_grad + prob_floor)
    g_z = g_action * sig_grad - g_log_prob * correction
    g_mean = g_z
    g_log_std = g_z * std * noise - g_log_prob
    return g_mean, g_log_std
