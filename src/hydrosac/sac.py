"""Soft actor-critic agent: replay memory, twin soft-Q networks, value and
target value networks, and the per-batch update.

The update follows the usual soft actor-critic scheme with a fixed entropy
temperature: both Q networks regress on reward + gamma * (1 - done) *
V_target(next_obs); the value network regresses on min_k Q_k(obs, a~) -
alpha * log pi(a~|obs) with fresh reparameterized actions a~; the policy
ascends min_k Q_k(obs, a~) - alpha * log pi(a~|obs) through a~; the target
value network trails the value network by Polyak averaging. The Bellman
target is computed here; the networks, the squash and its reverse pass,
and the optimizer step are in neural.py.

Acting is not done here: training, evaluation and planning wrap
`policy.sample` or `policy.mean_action` in an `(obs_rows, rngs) -> actions`
callable, which `trainer.play` calls once per week for all its years.
"""

import copy
from dataclasses import astuple, dataclass

import numpy as np

from .env import UsageError, require_finite
from .neural import (
    LINEAR,
    LOG_STD_MAX,
    LOG_STD_MIN,
    RELU,
    SQUASH_PROB_FLOOR,
    PolicyNet,
    RmspropState,
    mlp_init,
    rmsprop_step,
)

OBS_DIM = 5

# The agent's networks under their checkpoint names, in file order.
NETWORKS = ("policy_trunk", "policy_mean_head", "policy_log_std_head",
            "q1", "q2", "value", "value_target")
# One RMSprop state per trained part, in file order: the policy, both Qs, the value net.
OPTIMIZERS = ("policy", *NETWORKS[3:6])


class TrainingAborted(RuntimeError):
    """Raised when an update produces a non-finite loss."""

    def __init__(self, message, report=None, records=None):
        super().__init__(message)
        self.report = report
        self.records = records


class ReplayBuffer:
    """Transition store in five arrays of `capacity` rows, allocated once; nothing is evicted.

    Rows fill in push order. A push past capacity raises IndexError and
    stores nothing.
    """

    def __init__(self, capacity):
        self._size = 0
        self.obs = np.empty((capacity, OBS_DIM))
        self.actions = np.empty(capacity)
        self.rewards = np.empty(capacity)
        self.next_obs = np.empty((capacity, OBS_DIM))
        self.done = np.empty(capacity)

    def __len__(self):
        return self._size

    def push(self, obs, action, reward, next_obs, done):
        i = self._size
        self.obs[i] = obs
        self.actions[i] = action
        self.rewards[i] = reward
        self.next_obs[i] = next_obs
        self.done[i] = 1.0 if done else 0.0
        self._size += 1

    def sample_arrays(self, batch_size, rng):
        """Uniform draws with replacement, as batch arrays for update()."""
        if self._size < batch_size:
            raise ValueError(f"buffer holds {self._size} transitions, need {batch_size}")
        idx = rng.integers(0, self._size, size=batch_size)
        return (
            self.obs[idx],
            self.actions[idx],
            self.rewards[idx],
            self.next_obs[idx],
            self.done[idx],
        )

    def export_arrays(self):
        n = self._size
        return {
            "obs": self.obs[:n].copy(),
            "actions": self.actions[:n].copy(),
            "rewards": self.rewards[:n].copy(),
            "next_obs": self.next_obs[:n].copy(),
            "done": self.done[:n].copy(),
        }


@dataclass
class SacConfig:
    hidden_width: int = 100
    init_bound: float = 3e-3
    gamma: float = 0.99
    tau: float = 0.0006
    alpha: float = 0.2
    lr_value: float = 5e-4
    lr_q: float = 5e-4
    lr_policy: float = 1e-4
    rmsprop_rho: float = 0.99
    rmsprop_eps: float = 1e-8
    log_std_min: float = LOG_STD_MIN
    log_std_max: float = LOG_STD_MAX
    squash_prob_floor: float = SQUASH_PROB_FLOOR

    def validate(self):
        require_finite(self)
        if self.alpha < 0:
            raise UsageError("alpha must be >= 0")
        if not 0.0 <= self.gamma <= 1.0:
            raise UsageError("gamma must be in [0, 1]")
        if not 0.0 < self.tau <= 1.0:
            raise UsageError("tau must be in (0, 1]")
        if self.hidden_width < 1:
            raise UsageError("hidden_width must be >= 1")
        for name in ("lr_value", "lr_q", "lr_policy"):  # < 0 would be gradient ascent
            if getattr(self, name) < 0:
                raise UsageError(f"{name} must be >= 0")
        if not 0.0 <= self.rmsprop_rho < 1.0:
            raise UsageError("rmsprop_rho must be in [0, 1)")
        if self.log_std_min > self.log_std_max:
            raise UsageError("log_std_min must be <= log_std_max")


@dataclass
class LossReport:
    q1_loss: float
    q2_loss: float
    value_loss: float
    policy_loss: float
    mean_log_prob: float

    def finite(self):
        return all(np.isfinite(v) for v in astuple(self))


class AgentBundle:
    """Policy, twin Q networks, value pair, optimizers, and hyperparameters."""

    def __init__(self, cfg, policy, q1, q2, value, value_target):
        self.cfg = cfg
        self.policy = policy
        self.q1 = q1
        self.q2 = q2
        self.value = value
        self.value_target = value_target
        self.opt_policy = RmspropState(policy.parameters(), cfg.rmsprop_rho, cfg.rmsprop_eps)
        self.opt_q1 = RmspropState(q1.parameters(), cfg.rmsprop_rho, cfg.rmsprop_eps)
        self.opt_q2 = RmspropState(q2.parameters(), cfg.rmsprop_rho, cfg.rmsprop_eps)
        self.opt_value = RmspropState(value.parameters(), cfg.rmsprop_rho, cfg.rmsprop_eps)

    @classmethod
    def init(cls, cfg, rng):
        """Fresh networks; the target value net starts as a copy of the value net.

        With rng None every weight is 0 and nothing is drawn (see mlp_init).
        """
        cfg.validate()
        w = cfg.hidden_width
        policy = PolicyNet.init(
            OBS_DIM, w, rng, head_bound=cfg.init_bound,
            log_std_min=cfg.log_std_min, log_std_max=cfg.log_std_max,
            prob_floor=cfg.squash_prob_floor,
        )
        hidden3 = [RELU, RELU, RELU, LINEAR]
        q1 = mlp_init([OBS_DIM + 1, w, w, w, 1], hidden3, rng, cfg.init_bound)
        q2 = mlp_init([OBS_DIM + 1, w, w, w, 1], hidden3, rng, cfg.init_bound)
        value = mlp_init([OBS_DIM, w, w, w, 1], hidden3, rng, cfg.init_bound)
        value_target = copy.deepcopy(value)
        return cls(cfg, policy, q1, q2, value, value_target)

    def networks(self):
        """Name -> Mlp of every network, in NETWORKS order."""
        p = self.policy
        return dict(zip(NETWORKS, (p.trunk, p.mean_head, p.log_std_head,
                                   self.q1, self.q2, self.value, self.value_target)))

    def optimizers(self):
        """Name -> RmspropState of every optimizer, in OPTIMIZERS order."""
        return dict(zip(OPTIMIZERS, (self.opt_policy, self.opt_q1, self.opt_q2, self.opt_value)))


def polyak_update(target, main, tau):
    """target <- (1 - tau) * target + tau * main over the flat parameter vectors.

    tau * main goes into the target's gradient vector: a target network is
    never trained, so that vector is free scratch.
    """
    if target.widths != main.widths:
        raise ValueError("target and main network shapes differ")
    params = target.params
    params *= 1.0 - tau
    params += np.multiply(main.params, tau, out=target.grads)


def compute_q_targets(batch, value_target, gamma):
    """Soft Bellman targets: reward + gamma * (1 - done) * V_target(next_obs)."""
    _, _, rewards, next_obs, done = batch
    v_next = value_target.forward(next_obs)[:, 0]
    return rewards + gamma * (1.0 - done) * v_next


def update(agent, batch, rng):
    """One gradient step on every network from one replay batch.

    In order: sample fresh actions from the current policy; step both Q
    networks on the Bellman targets; step the value network toward
    min-Q minus the entropy term; step the policy through the fresh
    actions; Polyak-average the target value network. Raises
    TrainingAborted if any loss turns non-finite.
    """
    cfg = agent.cfg
    obs, actions, rewards, next_obs, done = batch
    n = len(rewards)

    # Fresh reparameterized actions from the current policy.
    a_new, log_pi, _ = agent.policy.sample(obs, rng)

    # Twin Q regression on the soft Bellman target.
    q_tgt = compute_q_targets(batch, agent.value_target, cfg.gamma)
    qa = np.concatenate([obs, actions[:, None]], axis=1)
    q_losses = []
    for qnet, opt in ((agent.q1, agent.opt_q1), (agent.q2, agent.opt_q2)):
        diff = qnet.forward(qa)[:, 0] - q_tgt
        q_losses.append(float(np.mean(diff * diff)))
        qnet.backward((2.0 / n) * diff[:, None])
        rmsprop_step(qnet.params, qnet.grads, opt, cfg.lr_q)

    # Value regression toward min-Q of the fresh actions minus entropy.
    # The Q passes double as the cached forwards for the policy step below.
    qa_new = np.concatenate([obs, a_new[:, None]], axis=1)
    q1_new = agent.q1.forward(qa_new)[:, 0]
    q2_new = agent.q2.forward(qa_new)[:, 0]
    min_q = np.minimum(q1_new, q2_new)
    v_tgt = min_q - cfg.alpha * log_pi
    v_diff = agent.value.forward(obs)[:, 0] - v_tgt
    value_loss = float(np.mean(v_diff * v_diff))
    agent.value.backward((2.0 / n) * v_diff[:, None])
    rmsprop_step(agent.value.params, agent.value.grads, agent.opt_value, cfg.lr_value)

    # Policy step: gradients reach the policy only through the fresh
    # actions and their log probabilities; the Q nets give input gradients only.
    policy_loss = float(np.mean(cfg.alpha * log_pi - min_q))
    pick_q1 = q1_new <= q2_new
    g1 = np.where(pick_q1, -1.0 / n, 0.0)[:, None]
    g2 = np.where(pick_q1, 0.0, -1.0 / n)[:, None]
    din1 = agent.q1.input_grad(g1)
    din2 = agent.q2.input_grad(g2)
    g_action = din1[:, OBS_DIM] + din2[:, OBS_DIM]
    g_log_pi = np.full(n, cfg.alpha / n)
    agent.policy.backward_sample(g_action, g_log_pi)
    rmsprop_step(agent.policy.params, agent.policy.grads, agent.opt_policy, cfg.lr_policy)

    polyak_update(agent.value_target, agent.value, cfg.tau)

    report = LossReport(
        q1_loss=q_losses[0],
        q2_loss=q_losses[1],
        value_loss=value_loss,
        policy_loss=policy_loss,
        mean_log_prob=float(np.mean(log_pi)),
    )
    if not report.finite():
        raise TrainingAborted("non-finite loss during update", report=report)
    return report
