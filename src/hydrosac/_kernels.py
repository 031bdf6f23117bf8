"""Elementwise numeric kernels: the squashed-Gaussian sample and its
gradient, and the soft Bellman target.

The kernels take numpy arrays or floats. Arrays run as vectorized numpy,
matrix products stay on numpy's BLAS. Floats, one observation's values,
run as float arithmetic with numpy's exp and log, so a batch-1 call pays
no array overhead and gets the bits of the array call's row. Each kernel is
deterministic, so training is bit-reproducible from its seed.
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
    if isinstance(z, float):
        # A float (np.float64 included) takes the same steps in float
        # arithmetic, which rounds as the array ops do. exp stays numpy's:
        # math.exp gives other bits on some inputs. A NaN fails every
        # comparison, so it passes through unclamped, as in np.maximum.
        if z >= 0.0:
            s = 1.0 / (1.0 + float(np.exp(-z)))
        else:
            e = float(np.exp(z))
            s = e / (1.0 + e)
        if s < ACTION_MARGIN:
            return ACTION_MARGIN
        return 1.0 - ACTION_MARGIN if s > 1.0 - ACTION_MARGIN else s
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
