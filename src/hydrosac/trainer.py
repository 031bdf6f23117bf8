"""Training orchestration, evaluation rollouts, and checkpoint persistence.

`train` steps one year at a time, on Python floats, in one serialized
loop driven by a single seeded generator: each year draws its scenario
(`sample_scenario`) and then its start storage, uniform in the init
window, and each week draws its action, a uniform draw during exploration
and a one-row policy sample afterwards, then steps, pushes and updates
(`env.step`, `push`, `update`); `train` builds each observation with
`env.observe` and ends the year after week 52 itself. Evaluation and
planning step all their years in lock-step with `rollout`, on (years,)
arrays through `env.observe_years` and `env.step_years`, which take the
arguments of `env.observe` and `env.step` and give each year their bits.
Their actions come from a callable `action_fn(obs_rows, rngs) -> actions`,
called once a week with obs_rows the (years, 5) array whose row i is the
observation of year i and rngs[i] its generator, and returning one action
in [0, 1] per year: the policy's mean or a sample, or any baseline. The
policy acts on the rows as a (years, 1, 5) stack, one matrix-vector
product per row, so each year gets the bits it would get alone; a (years,
5) batch would run one matrix product, with other bits.
Evaluation derives an independent generator per episode from (seed,
episode index) and returns one (episodes, 52, 8) array of weekly traces,
whose last accumulated reward, traces[:, -1, 6], is each episode's total.
A Checkpoint holds the live agent it describes: saving reads the agent's
arrays in place, and loading builds the agent its config echo describes,
once, and writes the stored arrays into it. On disk it is a JSON document
whose floating point numbers are written as full-precision decimal
strings, so a save/load round trip reproduces every 64-bit value exactly.
"""

import dataclasses
import json
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .env import OBS_DIM, EnvConfig, UsageError, observe, observe_years, step, step_years
from .sac import NETWORKS, OPTIMIZERS, AgentBundle, ReplayBuffer, SacConfig, TrainingAborted, update
from .scenario import WEEKS, DataError, _write_atomic, read_json, sample_scenario, write_csv

CHECKPOINT_VERSION = 1

TRAIN_LOG_HEADER = "episode,total_reward,terminal_bonus,end_storage,total_spill,mean_action,seconds"
EVAL_HEADER = "episode,week,price,inflow,action,storage,reward,accumulated_reward"


class CheckpointError(DataError):
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
            raise UsageError("week counts must be >= 0")
        if self.exploration_weeks > self.total_weeks:
            raise UsageError("exploration_weeks must be <= total_weeks")
        if self.batch_size < 1:
            raise UsageError("batch_size must be >= 1")
        if self.seed < 0:
            raise UsageError("seed must be >= 0")
        if self.checkpoint_every_episodes < 0:
            raise UsageError("checkpoint_every_episodes must be >= 0 (0 disables it)")
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
    """A trained agent with its config echo, generator state, episode count and
    replay; `train` may return one that shares the agent it trained."""
    config: TrainConfig
    agent: AgentBundle
    rng_state: dict
    episode: int
    replay_size: int
    replay: Optional[dict] = None

    @classmethod
    def from_agent(cls, cfg, agent, rng, episode, buffer):
        replay = buffer.export_arrays() if cfg.include_replay_in_checkpoint else None
        return cls(cfg, agent, rng.bit_generator.state, episode, len(buffer), replay)

    @property
    def networks(self):
        """Name -> [(weight (out, in), bias, activation), ...], as views into the agent:
        the layers save_checkpoint writes."""
        return {name: [(l.weight, l.bias, l.activation) for l in net.layers]
                for name, net in self.agent.networks().items()}

    @property
    def optimizer_states(self):
        """Name -> accumulator arrays, one per parameter array, as views into the agent:
        the optimizer states save_checkpoint writes."""
        return {name: opt.arrays for name, opt in self.agent.optimizers().items()}

    def restore_agent(self):
        """The checkpoint's agent itself, not a copy; kept for perfbench's checkpoint
        round-trip check, as the program reads `agent`."""
        return self.agent


def train(cfg, pools, checkpoint_path=None):
    """Run the training loop; returns (final Checkpoint, per-episode records).

    Episodes are whole years of 52 weeks; training stops at the first
    episode boundary at or past cfg.total_weeks environment steps. Each
    year draws its scenario, then its start storage; each week then draws
    its action, steps, pushes the transition and updates. Actions are
    uniform random for the first exploration_weeks steps and a one-row
    policy sample afterwards; one gradient update runs per
    post-exploration step once the buffer holds a full batch. A non-finite
    loss, or a NaN policy sample after a step that left non-finite weights,
    raises TrainingAborted with the partial records attached; the sample's
    abort carries the last update's LossReport.
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
    env_cfg, exploration_weeks, batch_size = cfg.env, cfg.exploration_weeks, cfg.batch_size
    init_low, init_high = env_cfg.init_low, env_cfg.init_high
    policy = agent.policy
    report = None  # the last update's LossReport

    while steps_done < cfg.total_weeks:
        t0 = time.perf_counter()
        scenario = sample_scenario(pools, rng)
        prices, inflows = scenario.prices.tolist(), scenario.inflows.tolist()
        storage = float(rng.uniform(init_low, init_high))
        obs = observe(1, storage, prices[0], inflows[0], env_cfg)
        ep_reward = 0.0
        ep_spill = 0.0
        ep_action_sum = 0.0
        for w in range(WEEKS):
            if steps_done < exploration_weeks:
                action = rng.random()
            else:  # the acting stack: one (1, 1, 5) row with its own generator
                action = float(policy.sample(obs[None, None], [rng])[0][0])
                if action != action:  # NaN: the last policy step left non-finite weights
                    raise TrainingAborted("non-finite action from the policy", report, records)
            r, a_eff, spill, storage, bonus = step(w + 1, storage, prices[w], inflows[w],
                                                   action, env_cfg)
            done = w == WEEKS - 1
            next_obs = (np.zeros(OBS_DIM) if done else
                        observe(w + 2, storage, prices[w + 1], inflows[w + 1], env_cfg))
            buffer.push(obs, action, r, next_obs, done)
            steps_done += 1
            if steps_done > exploration_weeks and len(buffer) >= batch_size:
                try:
                    report = update(agent, buffer.sample_arrays(batch_size, rng), rng)
                except TrainingAborted as e:
                    e.records = records
                    raise
            ep_reward += r
            ep_spill += spill
            ep_action_sum += a_eff
            obs = next_obs
        records.append(
            EpisodeRecord(
                episode=episode,
                total_reward=ep_reward,
                terminal_bonus=bonus,
                end_storage=storage,
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
            and steps_done < cfg.total_weeks  # the last episode's checkpoint is the final one
        ):
            save_checkpoint(Checkpoint.from_agent(cfg, agent, rng, episode, buffer), checkpoint_path)

    ckpt = Checkpoint.from_agent(cfg, agent, rng, episode, buffer)
    if checkpoint_path:
        save_checkpoint(ckpt, checkpoint_path)
    return ckpt, records


def rollout(action_fn, scenarios, env_cfg, rngs):
    """Play the years `scenarios` in lock-step with action_fn(obs_rows, rngs) -> actions.

    Year i starts from storage rngs[i].uniform(init_low, init_high), as
    `train` draws it. Each week builds the (years, 5) observation array with
    observe_years, calls action_fn once, and steps every year with
    step_years. Returns the (years, 52, 8) float64 array of traces, whose
    rows are (week, price, inflow, effective action, end-of-week storage,
    reward, accumulated reward, spill); traces[:, -1, 6] is each year's
    total reward.
    """
    years = len(scenarios)
    prices = np.array([s.prices for s in scenarios])
    inflows = np.array([s.inflows for s in scenarios])
    storage = np.array([rng.uniform(env_cfg.init_low, env_cfg.init_high) for rng in rngs])
    traces = np.empty((years, WEEKS, 8))
    traces[:, :, 0] = np.arange(1, WEEKS + 1)
    traces[:, :, 1] = prices
    traces[:, :, 2] = inflows
    total = np.zeros(years)  # a sum from 0.0 turns a first reward of -0.0 into +0.0
    for w in range(WEEKS):
        obs = observe_years(w + 1, storage, prices[:, w], inflows[:, w], env_cfg)
        actions = np.asarray(action_fn(obs, rngs), dtype=float).reshape(years)
        reward, a_eff, spill, storage, _ = step_years(w + 1, storage, prices[:, w],
                                                      inflows[:, w], actions, env_cfg)
        total += reward
        week = traces[:, w]
        week[:, 3] = a_eff
        week[:, 4] = storage
        week[:, 5] = reward
        week[:, 6] = total
        week[:, 7] = spill
    return traces


def evaluate_policy_fn(action_fn, pools, env_cfg, n_episodes, seed):
    """Shared evaluation harness; returns rollout's (n_episodes, 52, 8) traces.

    Episode i uses a generator derived from (seed, i), which draws its
    scenario, then its start storage and its actions; all episodes play
    together in rollout, one action_fn call a week.
    """
    if n_episodes < 1:
        raise UsageError("n_episodes must be >= 1")
    rngs = [np.random.default_rng(seq) for seq in np.random.SeedSequence(seed).spawn(n_episodes)]
    return rollout(action_fn, [sample_scenario(pools, rng) for rng in rngs], env_cfg, rngs)


def evaluate(ckpt, pools, n_episodes, deterministic, seed):
    """Evaluate a checkpointed agent into (n_episodes, 52, 8) traces; no learning.

    The environment configuration echoed in the checkpoint is used. With
    deterministic=True the policy's mean action is applied; otherwise
    actions are sampled with the per-episode generators.
    """
    return evaluate_policy_fn(policy_action_fn(ckpt.agent.policy, deterministic), pools,
                              ckpt.config.env, n_episodes, seed)


def policy_action_fn(policy, deterministic):
    """The action_fn of `policy`: its mean action, or a sample, on the (years, 1, 5) stack."""
    if deterministic:
        return lambda obs, rngs: policy.mean_action(np.array(obs)[:, None])
    return lambda obs, rngs: policy.sample(np.array(obs)[:, None], rngs)[0]


def random_policy(obs, rngs):
    return [rng.random() for rng in rngs]


def constant_policy(level):
    return lambda obs, rngs: [level] * len(rngs)


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

def _float_list_json(a):
    """The JSON list of repr(float(x)) strings of `a`'s elements in C order.

    Each distinct 64-bit pattern is formatted once, so -0.0 stays apart
    from 0.0. A float's repr needs no JSON escaping, so the strings are
    joined directly, into the text json.dumps would give.
    """
    bits = np.ascontiguousarray(a, dtype=float).ravel().view(np.int64)
    distinct, inverse = np.unique(bits, return_inverse=True)
    texts = np.array(list(map(repr, distinct.view(float).tolist())), dtype=object)
    return '["' + '", "'.join(texts[inverse].tolist()) + '"]' if bits.size else "[]"


def _write_json(obj, fh):
    """Write `obj` as json.dump(obj, fh) would if every numpy array in it were
    the list of its elements as repr(float(x)) strings; one array at a time."""
    if isinstance(obj, np.ndarray):
        fh.write(_float_list_json(obj))
    elif isinstance(obj, dict):
        fh.write("{")
        for i, (key, value) in enumerate(obj.items()):
            fh.write(f"{', ' if i else ''}{json.dumps(key)}: ")
            _write_json(value, fh)
        fh.write("}")
    elif isinstance(obj, list):
        fh.write("[")
        for i, value in enumerate(obj):
            fh.write(", " if i else "")
            _write_json(value, fh)
        fh.write("]")
    else:
        fh.write(json.dumps(obj))


def _decode_floats(values, shape):
    if isinstance(values, list):  # left by the hook: decodes, or raises float()'s error
        values = np.fromiter(map(float, values), dtype=float, count=len(values))
    elif not isinstance(values, np.ndarray):
        raise ValueError(f"array values must be a JSON list, not {type(values).__name__}")
    return values.reshape(shape)


# the objects save_checkpoint writes -> their keys that hold lists of decimal strings
_FLOAT_LISTS = {frozenset({"shape", "values"}): ("values",),
                frozenset({"rows", "cols", "weights", "bias", "activation"}): ("weights", "bias")}


def _decode_while_parsing(pairs):
    """json object_pairs_hook: decode the float lists of each object the writer emits as
    soon as the parser closes it, so the whole document never holds them as strings.
    A list that will not decode stays as it is, for _decode_floats to reject later."""
    obj = dict(pairs)
    for key in _FLOAT_LISTS.get(frozenset(obj), ()):
        if isinstance(obj[key], list):
            try:
                obj[key] = _decode_floats(obj[key], -1)
            except (OverflowError, TypeError, ValueError):
                pass
    return obj


def _decode_array(doc):
    return _decode_floats(doc["values"], tuple(doc["shape"]))


def save_checkpoint(ckpt, path):
    def array(a):
        a = np.asarray(a, dtype=float)
        return {"shape": list(a.shape), "values": a}

    doc = {
        "version": CHECKPOINT_VERSION,
        "config": dataclasses.asdict(ckpt.config),
        "networks": {
            name: [{"rows": weight.shape[0], "cols": weight.shape[1], "weights": weight,
                    "bias": bias, "activation": activation}
                   for weight, bias, activation in layers]
            for name, layers in ckpt.networks.items()
        },
        "optimizer_states": {name: list(map(array, arrays))
                             for name, arrays in ckpt.optimizer_states.items()},
        "rng_state": ckpt.rng_state,
        "episode": ckpt.episode,
        "replay_size": ckpt.replay_size,
        "replay": None if ckpt.replay is None else {k: array(v) for k, v in ckpt.replay.items()},
    }
    _write_atomic(path, lambda fh: _write_json(doc, fh))


def _load_network(net, name, layers):
    """Write the stored `layers` of network `name` into `net`'s arrays, in place,
    once their shapes and activations are checked against `net`'s."""
    rows = [doc["rows"] for doc in layers]
    cols = [doc["cols"] for doc in layers]
    widths = cols[:1] + rows
    if cols != widths[:-1]:  # each layer takes in what the one before gives
        raise ValueError(f"network {name} has layer rows {rows} and cols {cols}, that do not chain")
    activations = [doc["activation"] for doc in layers]
    expected = [layer.activation for layer in net.layers]
    if widths != net.widths or activations != expected:
        raise ValueError(f"network {name} has widths {widths} and activations {activations}; "
                         f"expected {net.widths} and {expected}")
    for layer, doc in zip(net.layers, layers):
        layer.wt[...] = _decode_floats(doc["weights"], layer.weight.shape).T
        layer.bias[...] = _decode_floats(doc["bias"], layer.bias.shape)


def load_checkpoint(path):
    """Decode the checkpoint at `path` into the agent its config echo describes.

    The agent is built once, by AgentBundle.init; the stored layers and
    accumulators are checked against its shapes and written into its arrays.
    """
    doc = read_json(path, CheckpointError, _decode_while_parsing)
    try:
        version = doc["version"]
        if type(version) is not int or version != CHECKPOINT_VERSION:  # not 1.0, "1" or true
            raise CheckpointError(
                f"{path}: checkpoint version {version!r} not supported "
                f"(expected {CHECKPOINT_VERSION})"
            )
        config = config_from_dict(TrainConfig, doc["config"], "checkpoint")
        config.validate()
        rng_state = doc["rng_state"]
        np.random.PCG64().state = rng_state  # raises unless it is a PCG64 state
        episode, n = int(doc["episode"]), int(doc["replay_size"])  # first: inf keeps int()'s error
        if type(doc["episode"]) is not int or type(doc["replay_size"]) is not int:
            raise ValueError(f"episode {doc['episode']!r} and replay_size "
                             f"{doc['replay_size']!r} must be JSON integers")
        if episode < 0 or n < 0:
            raise ValueError(f"episode {episode} and replay_size {n} must be >= 0")
        for key, names in (("networks", NETWORKS), ("optimizer_states", OPTIMIZERS)):
            if set(doc[key]) - set(names):
                raise ValueError(f"{key} has {sorted(doc[key])}; the agent has {list(names)}")
        w = config.agent.hidden_width  # init allocates w x w layers: bound w by the file's size
        stored = sum(len(layer["weights"]) + len(layer["bias"])
                     for layers in doc["networks"].values() for layer in layers)
        if w * w > stored:
            raise ValueError(f"hidden_width {w} needs {w * w} or more network values, not {stored}")
        agent = AgentBundle.init(config.agent, None)  # allocated only: the file fills it
        for name, net in agent.networks().items():
            _load_network(net, name, doc["networks"][name])
        for name, opt in agent.optimizers().items():
            opt.load([_decode_array(a) for a in doc["optimizer_states"][name]])
        # each optimizer is named after the network it trains; the value target has none
        vectors = {f"network {k}": getattr(agent, k).params for k in (*OPTIMIZERS, NETWORKS[-1])}
        vectors.update({f"optimizer {k}": opt.acc for k, opt in agent.optimizers().items()})
        for name, vector in vectors.items():
            if not np.all(np.isfinite(vector)):
                raise ValueError(f"{name} holds a non-finite value")
        replay = doc.get("replay")
        if replay is not None:
            shapes = {name: (n, *row) for name, row in ReplayBuffer.ROWS.items()}
            if set(replay) - set(shapes):  # a missing array fails below, by its name
                raise ValueError(f"replay has {sorted(replay)}; a buffer has {list(shapes)}")
            replay = {k: _decode_array(v) for k, v in replay.items()}
            for name, shape in shapes.items():
                if replay[name].shape != shape:
                    raise ValueError(f"replay {name} has shape {replay[name].shape}, "
                                     f"expected {shape}")
    except CheckpointError:
        raise
    # e.g. a section not an object, or an rng_state numpy cannot set
    except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as e:
        raise CheckpointError(f"{path}: malformed checkpoint ({e})") from None
    return Checkpoint(config, agent, rng_state, episode, n, replay)


def write_train_log(records, path):
    write_csv(path, TRAIN_LOG_HEADER, (
        (r.episode, *map(float, (r.total_reward, r.terminal_bonus, r.end_storage,
                                 r.total_spill, r.mean_action, r.seconds)))
        for r in records))


def write_eval_csv(traces, path):
    """Write rollout's traces as CSV rows; episodes are numbered by position."""
    write_csv(path, EVAL_HEADER, ((i, int(row[0]), *row[1:7])
                                  for i, trace in enumerate(traces.tolist()) for row in trace))
