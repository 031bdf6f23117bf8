"""Training orchestration, evaluation rollouts, and checkpoint persistence.

Every simulated year, in training and in evaluation, is stepped by one
generator, `play`, and every action comes from a callable
`action_fn(obs, rng) -> action in [0, 1]`: uniform draws and then policy
samples in training, the policy's mean or a sample in evaluation, or any
baseline. Training is one serialized loop driven by a single seeded
generator; evaluation derives an independent generator per episode from
(seed, episode index). Checkpoints are JSON documents whose floating point
numbers are written as full-precision decimal strings, so a save/load round
trip reproduces every 64-bit value exactly.
"""

import dataclasses
import json
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .env import EnvConfig, observe, reset, step
from .neural import Mlp, PolicyNet, layer_from_weight
from .sac import OBS_DIM, AgentBundle, ReplayBuffer, SacConfig, TrainingAborted, update
from .scenario import WEEKS, _write_atomic, sample_scenario

CHECKPOINT_VERSION = 1

TRAIN_LOG_HEADER = "episode,total_reward,terminal_bonus,end_storage,total_spill,mean_action,seconds"
EVAL_HEADER = "episode,week,price,inflow,action,storage,reward,accumulated_reward"


class CheckpointError(ValueError):
    """Raised for unreadable, corrupt, or incompatible checkpoint files."""


@dataclass
class TrainConfig:
    total_weeks: int = 300_000
    exploration_weeks: int = 10_000
    batch_size: int = 100
    seed: int = 0
    checkpoint_every_episodes: int = 0  # 0 disables periodic checkpoints
    include_replay_in_checkpoint: bool = False
    pools_path: str = ""
    env: EnvConfig = field(default_factory=EnvConfig)
    agent: SacConfig = field(default_factory=SacConfig)

    def validate(self):
        if self.total_weeks < 0 or self.exploration_weeks < 0:
            raise ValueError("week counts must be >= 0")
        if self.exploration_weeks > self.total_weeks:
            raise ValueError("exploration_weeks must be <= total_weeks")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        self.env.validate()
        self.agent.validate()


@dataclass
class EpisodeRecord:
    episode: int
    total_reward: float
    terminal_bonus: float
    end_storage: float
    total_spill: float
    mean_action: float
    seconds: float


@dataclass
class EvalEpisode:
    index: int
    total_reward: float
    # (52, 8) columns: week, price, inflow, action, storage, reward,
    # accumulated reward, spill
    trace: np.ndarray


@dataclass
class EvalReport:
    episodes: list

    def total_rewards(self):
        return np.array([e.total_reward for e in self.episodes])


def config_from_dict(cls, doc, where):
    """Build the config dataclass `cls` from a decoded JSON object, recursing into
    nested configs. Raises ValueError for a non-object, an unknown key, or a value
    whose JSON type does not fit the field's annotation. An int fits a float field
    and stays an int, so a config echo reads back exactly as it was written.
    """
    if not isinstance(doc, dict):
        raise ValueError(f"{where} config must be a JSON object, not {type(doc).__name__}")
    fields = {f.name: f.type for f in dataclasses.fields(cls)}
    unknown = sorted(set(doc) - set(fields))
    if unknown:
        raise ValueError(f"unknown keys {unknown} in {where} config")
    values = {}
    for name, value in doc.items():
        kind = fields[name]
        if dataclasses.is_dataclass(kind):
            value = config_from_dict(kind, value, name)
        elif not _fits(value, kind):
            raise ValueError(f"{where} config: {name} must be {kind.__name__}, got {value!r}")
        values[name] = value
    return cls(**values)


def _fits(value, kind):
    # bool is a subclass of int, but true and false fit only a bool field
    allowed = (int, float) if kind is float else kind
    return isinstance(value, allowed) and isinstance(value, bool) == (kind is bool)


@dataclass
class Checkpoint:
    version: int
    config: TrainConfig
    networks: dict  # name -> [(weight, bias, activation), ...]
    optimizer_states: dict  # name -> [accumulator arrays]
    rng_state: dict
    episode: int
    replay_size: int
    replay: Optional[dict] = None

    @classmethod
    def from_agent(cls, cfg, agent, rng, episode, buffer=None):
        networks = {
            "policy_trunk": agent.policy.trunk.export_params(),
            "policy_mean_head": agent.policy.mean_head.export_params(),
            "policy_log_std_head": agent.policy.log_std_head.export_params(),
            "q1": agent.q1.export_params(),
            "q2": agent.q2.export_params(),
            "value": agent.value.export_params(),
            "value_target": agent.value_target.export_params(),
        }
        optimizer_states = {
            "policy": agent.opt_policy.export(),
            "q1": agent.opt_q1.export(),
            "q2": agent.opt_q2.export(),
            "value": agent.opt_value.export(),
        }
        replay = None
        if buffer is not None and cfg.include_replay_in_checkpoint:
            replay = buffer.export_arrays()
        return cls(
            version=CHECKPOINT_VERSION,
            config=cfg,
            networks=networks,
            optimizer_states=optimizer_states,
            rng_state=rng.bit_generator.state,
            episode=episode,
            replay_size=0 if buffer is None else len(buffer),
            replay=replay,
        )

    def restore_agent(self):
        """Rebuild a live AgentBundle from the stored parameters."""
        cfg = self.config.agent
        try:
            policy = PolicyNet(
                _mlp_from_params(self.networks["policy_trunk"]),
                _mlp_from_params(self.networks["policy_mean_head"]),
                _mlp_from_params(self.networks["policy_log_std_head"]),
                log_std_min=cfg.log_std_min,
                log_std_max=cfg.log_std_max,
                prob_floor=cfg.squash_prob_floor,
            )
            agent = AgentBundle(
                cfg,
                policy,
                _mlp_from_params(self.networks["q1"]),
                _mlp_from_params(self.networks["q2"]),
                _mlp_from_params(self.networks["value"]),
                _mlp_from_params(self.networks["value_target"]),
            )
            _check_widths(agent)
            agent.opt_policy.load(self.optimizer_states["policy"])
            agent.opt_q1.load(self.optimizer_states["q1"])
            agent.opt_q2.load(self.optimizer_states["q2"])
            agent.opt_value.load(self.optimizer_states["value"])
            _check_finite(agent)
        except (KeyError, ValueError) as e:
            raise CheckpointError(f"checkpoint does not describe a valid agent: {e}") from None
        return agent


def _mlp_from_params(params):
    return Mlp([layer_from_weight(w, b, act) for w, b, act in params])


def _check_widths(agent):
    """Raise ValueError unless the networks chain from the observation to one output."""
    policy = agent.policy
    if policy.trunk.widths[0] != OBS_DIM:
        raise ValueError(f"network policy_trunk has widths {policy.trunk.widths}; "
                         f"expected {OBS_DIM} inputs")
    hidden = policy.trunk.widths[-1]
    nets = {
        "policy_mean_head": (policy.mean_head, hidden),
        "policy_log_std_head": (policy.log_std_head, hidden),
        "q1": (agent.q1, OBS_DIM + 1),
        "q2": (agent.q2, OBS_DIM + 1),
        "value": (agent.value, OBS_DIM),
        "value_target": (agent.value_target, OBS_DIM),
    }
    for name, (net, n_in) in nets.items():
        if net.widths[0] != n_in or net.widths[-1] != 1:
            raise ValueError(f"network {name} has widths {net.widths}; "
                             f"expected {n_in} inputs and 1 output")
    if agent.value.widths != agent.value_target.widths:
        raise ValueError("networks value and value_target differ in widths")


def _check_finite(agent):
    """Raise ValueError if a network parameter or an optimizer accumulator is NaN or infinite."""
    nets = ("policy", "q1", "q2", "value", "value_target")
    vectors = {f"network {n}": getattr(agent, n).params for n in nets}
    vectors.update({f"optimizer {n}": getattr(agent, f"opt_{n}").acc for n in nets[:4]})
    for name, vector in vectors.items():
        if not np.all(np.isfinite(vector)):
            raise ValueError(f"{name} holds a non-finite value")


def play(action_fn, scenario, env_cfg, rng):
    """Step one 52-week year; yield (state, obs, action, outcome, next_obs) per week.

    The year starts from reset(env_cfg, scenario, rng). Each week's action
    is float(action_fn(obs, rng)), drawn only when the caller asks for the
    week, so whatever the caller's loop body does with `rng` between two
    weeks comes before the next action's draws. next_obs is the observation
    of outcome.next_state, or zeros after the last week.
    """
    state = reset(env_cfg, scenario, rng)
    obs = observe(state)
    for _ in range(WEEKS):
        action = float(action_fn(obs, rng))
        outcome = step(state, action, scenario, env_cfg)
        next_obs = np.zeros(OBS_DIM) if outcome.done else observe(outcome.next_state)
        yield state, obs, action, outcome, next_obs
        state, obs = outcome.next_state, next_obs


def train(cfg, pools, checkpoint_path=None):
    """Run the training loop; returns (final Checkpoint, per-episode records).

    Episodes are whole years of 52 weeks; training stops at the first
    episode boundary at or past cfg.total_weeks environment steps. Actions
    are uniform random for the first exploration_weeks steps and sampled
    from the policy afterwards; one gradient update runs per
    post-exploration step once the buffer holds a full batch. On a
    non-finite loss the partial records are attached to the raised
    TrainingAborted.
    """
    cfg.validate()
    pools.validate()
    rng = np.random.default_rng(cfg.seed)
    agent = AgentBundle.init(cfg.agent, rng)
    # every transition of the run: whole years up to total_weeks
    buffer = ReplayBuffer(WEEKS * -(-cfg.total_weeks // WEEKS))
    records = []
    steps_done = 0
    episode = 0

    def act(obs, rng):
        if steps_done < cfg.exploration_weeks:
            return rng.random()
        return agent.policy.sample(obs, rng)[0]

    while steps_done < cfg.total_weeks:
        t0 = time.perf_counter()
        scenario = sample_scenario(pools, rng)
        ep_reward = 0.0
        ep_spill = 0.0
        ep_action_sum = 0.0
        for _, obs, action, outcome, next_obs in play(act, scenario, cfg.env, rng):
            buffer.push(obs, action, outcome.reward, next_obs, outcome.done)
            steps_done += 1
            if steps_done > cfg.exploration_weeks and len(buffer) >= cfg.batch_size:
                try:
                    update(agent, buffer.sample_arrays(cfg.batch_size, rng), rng)
                except TrainingAborted as e:
                    e.records = records
                    raise
            ep_reward += outcome.reward
            ep_spill += outcome.spill
            ep_action_sum += outcome.effective_action
        records.append(
            EpisodeRecord(
                episode=episode,
                total_reward=ep_reward,
                terminal_bonus=outcome.terminal_bonus,
                end_storage=outcome.end_storage,
                total_spill=ep_spill,
                mean_action=ep_action_sum / WEEKS,
                seconds=time.perf_counter() - t0,
            )
        )
        episode += 1
        if (
            checkpoint_path
            and cfg.checkpoint_every_episodes > 0
            and episode % cfg.checkpoint_every_episodes == 0
        ):
            save_checkpoint(Checkpoint.from_agent(cfg, agent, rng, episode, buffer), checkpoint_path)

    ckpt = Checkpoint.from_agent(cfg, agent, rng, episode, buffer)
    if checkpoint_path:
        save_checkpoint(ckpt, checkpoint_path)
    return ckpt, records


def rollout(action_fn, scenario, env_cfg, rng):
    """Play one year with action_fn(obs, rng) -> action in [0, 1].

    Returns (total_reward, trace) where trace rows are (week, price, inflow,
    effective action, end-of-week storage, reward, accumulated reward,
    spill).
    """
    trace = np.empty((WEEKS, 8))
    total = 0.0
    for w, (state, _, _, outcome, _) in enumerate(play(action_fn, scenario, env_cfg, rng)):
        total += outcome.reward
        trace[w] = (state.week, state.price, state.inflow, outcome.effective_action,
                    outcome.end_storage, outcome.reward, total, outcome.spill)
    return total, trace


def evaluate_policy_fn(action_fn, pools, env_cfg, n_episodes, seed):
    """Shared evaluation harness; episode i uses a generator derived from (seed, i)."""
    episodes = []
    for i, seq in enumerate(np.random.SeedSequence(seed).spawn(n_episodes)):
        rng = np.random.default_rng(seq)
        scenario = sample_scenario(pools, rng)
        total, trace = rollout(action_fn, scenario, env_cfg, rng)
        episodes.append(EvalEpisode(index=i, total_reward=total, trace=trace))
    return EvalReport(episodes=episodes)


def evaluate(ckpt, pools, n_episodes, deterministic, seed):
    """Evaluate a checkpointed agent; no learning, no buffer writes.

    The environment configuration echoed in the checkpoint is used. With
    deterministic=True the policy's mean action is applied; otherwise
    actions are sampled with the per-episode generator.
    """
    if n_episodes < 1:
        raise ValueError("n_episodes must be >= 1")
    agent = ckpt.restore_agent()
    if deterministic:
        action_fn = lambda obs, rng: agent.policy.mean_action(obs)
    else:
        action_fn = lambda obs, rng: agent.policy.sample(obs, rng)[0]
    return evaluate_policy_fn(action_fn, pools, ckpt.config.env, n_episodes, seed)


def random_policy(obs, rng):
    return rng.random()


def constant_policy(level):
    return lambda obs, rng: level


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

def _encode_floats(a):
    return [repr(float(x)) for x in np.asarray(a, dtype=float).ravel(order="C")]


def _encode_layer(weight, bias, activation):
    rows, cols = weight.shape
    return {
        "rows": rows,
        "cols": cols,
        "weights": _encode_floats(weight),
        "bias": _encode_floats(bias),
        "activation": activation,
    }


def _decode_floats(values, shape):
    a = np.array([float(v) for v in values], dtype=float)
    return a.reshape(shape)


def _decode_layer(doc):
    rows = int(doc["rows"])
    cols = int(doc["cols"])
    if len(doc["weights"]) != rows * cols or len(doc["bias"]) != rows:
        raise CheckpointError("layer size fields disagree with array lengths")
    weight = _decode_floats(doc["weights"], (rows, cols))
    bias = _decode_floats(doc["bias"], (rows,))
    return weight, bias, str(doc["activation"])


def _encode_array(a):
    a = np.asarray(a, dtype=float)
    return {"shape": list(a.shape), "values": _encode_floats(a)}


def _decode_array(doc):
    return _decode_floats(doc["values"], tuple(doc["shape"]))


def save_checkpoint(ckpt, path):
    doc = {
        "version": ckpt.version,
        "config": dataclasses.asdict(ckpt.config),
        "networks": {
            name: [_encode_layer(w, b, act) for w, b, act in layers]
            for name, layers in ckpt.networks.items()
        },
        "optimizer_states": {
            name: [_encode_array(a) for a in accs]
            for name, accs in ckpt.optimizer_states.items()
        },
        "rng_state": ckpt.rng_state,
        "episode": ckpt.episode,
        "replay_size": ckpt.replay_size,
        "replay": None
        if ckpt.replay is None
        else {k: _encode_array(v) for k, v in ckpt.replay.items()},
    }
    _write_atomic(path, lambda fh: json.dump(doc, fh))


def load_checkpoint(path):
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as e:
            raise CheckpointError(f"{path}: not valid JSON ({e})") from None
    try:
        version = int(doc["version"])
        if version != CHECKPOINT_VERSION:
            raise CheckpointError(
                f"{path}: checkpoint version {version} not supported "
                f"(expected {CHECKPOINT_VERSION})"
            )
        config = config_from_dict(TrainConfig, doc["config"], "checkpoint")
        config.validate()
        networks = {
            name: [_decode_layer(layer) for layer in layers]
            for name, layers in doc["networks"].items()
        }
        optimizer_states = {
            name: [_decode_array(a) for a in accs]
            for name, accs in doc["optimizer_states"].items()
        }
        ckpt = Checkpoint(
            version=version,
            config=config,
            networks=networks,
            optimizer_states=optimizer_states,
            rng_state=doc["rng_state"],
            episode=int(doc["episode"]),
            replay_size=int(doc["replay_size"]),
            replay=None
            if doc.get("replay") is None
            else {k: _decode_array(v) for k, v in doc["replay"].items()},
        )
    except CheckpointError:
        raise
    except (KeyError, TypeError, ValueError) as e:
        raise CheckpointError(f"{path}: malformed checkpoint ({e})") from None
    # Fail fast on inconsistent shapes.
    ckpt.restore_agent()
    return ckpt


def write_train_log(records, path):
    lines = [TRAIN_LOG_HEADER]
    for r in records:
        vals = ",".join(
            repr(float(v))
            for v in (
                r.total_reward,
                r.terminal_bonus,
                r.end_storage,
                r.total_spill,
                r.mean_action,
                r.seconds,
            )
        )
        lines.append(f"{r.episode},{vals}")
    _write_atomic(path, lambda fh: fh.write("\n".join(lines) + "\n"))


def write_eval_csv(report, path):
    lines = [EVAL_HEADER]
    for ep in report.episodes:
        for row in ep.trace:
            week = int(row[0])
            vals = ",".join(repr(float(v)) for v in row[1:7])
            lines.append(f"{ep.index},{week},{vals}")
    _write_atomic(path, lambda fh: fh.write("\n".join(lines) + "\n"))
