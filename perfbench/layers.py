"""Per-layer metrics of a traced run, derived from the folded spans.

The layers are the program's modules: sac, neural, _kernels, scenario, env,
trainer and cli, plus bench for the benchmark's own code (operation
wrappers and output checks). Metric names start with the layer, except
that _kernels appears as "kernels" because a metric name must start with a
letter. Times per call are means of inclusive span durations; "self" times
exclude the time of nested spans; "calls_per_update" counts the calls made
inside sac.update spans, divided by the number of updates.
"""

import weakref

from hydrosac import _kernels, cli, env, neural, sac, scenario, trainer

import hydrosac
from spans import Tracer, percentile

MODULES = (_kernels, neural, sac, env, scenario, trainer, cli)
LAYERS = ("sac", "neural", "_kernels", "scenario", "env", "trainer", "cli", "bench")
NETS = ("q1", "q2", "value", "value_target",
        "policy_trunk", "policy_mean_head", "policy_log_std_head")
POLICY_NETS = NETS[4:]
OPTIMIZERS = ("policy", "q1", "q2", "value")
KERNELS = ("relu", "relu_backward", "rmsprop1d", "rmsprop2d", "polyak1d", "polyak2d",
           "squash_sample", "squash_backward", "q_target")
TRAIN_BATCH = 100
UPDATE = "sac.update"


def _spec():
    """(name, unit, better) of every per-layer metric, in report order."""
    m = [
        ("sac.update.calls", "count", "higher"),
        ("sac.update.ms_p50", "ms", "lower"),
        ("sac.update.ms_p90", "ms", "lower"),
        ("sac.update.self_ms", "ms", "lower"),
        ("sac.update.train_share_pct", "%", "lower"),
        ("sac.compute_q_targets.us", "us", "lower"),
        ("sac.polyak_update.us", "us", "lower"),
        ("sac.select_action.us", "us", "lower"),
        ("sac.ReplayBuffer.push.us", "us", "lower"),
        ("sac.ReplayBuffer.sample_arrays.us", "us", "lower"),
        ("sac.replay.capacity_mb", "MB", "lower"),
    ]
    for net in NETS:
        if net in POLICY_NETS:
            m.append((f"neural.{net}.forward.b1.us", "us", "lower"))
        m += [
            (f"neural.{net}.forward.b{TRAIN_BATCH}.us", "us", "lower"),
            (f"neural.{net}.backward.b{TRAIN_BATCH}.us", "us", "lower"),
            (f"neural.{net}.forward.calls_per_update", "count", "lower"),
            (f"neural.{net}.backward.calls_per_update", "count", "lower"),
        ]
    m += [
        ("neural.PolicyNet.sample.b1.us", "us", "lower"),
        (f"neural.PolicyNet.sample.b{TRAIN_BATCH}.us", "us", "lower"),
        (f"neural.PolicyNet.backward_sample.b{TRAIN_BATCH}.us", "us", "lower"),
        ("neural.PolicyNet.mean_action.b1.us", "us", "lower"),
    ]
    m += [(f"neural.rmsprop_step.{opt}.us", "us", "lower") for opt in OPTIMIZERS]
    m += [
        ("neural.rmsprop_step.calls_per_update", "count", "lower"),
        ("neural.gemm_mflop_per_update_computed", "Mflop", "lower"),
    ]
    for k in KERNELS:
        m += [(f"kernels.{k}.calls_per_update", "count", "lower"),
              (f"kernels.{k}.us", "us", "lower")]
    m += [
        ("scenario.sample_scenario.us", "us", "lower"),
        ("scenario.load_pools.ms", "ms", "lower"),
        ("env.reset.us", "us", "lower"),
        ("env.step.us", "us", "lower"),
        ("env.observe.us", "us", "lower"),
        ("trainer.train.self_s", "s", "lower"),
        ("trainer.rollout.ms", "ms", "lower"),
        ("trainer.save_checkpoint.s", "s", "lower"),
        ("trainer.load_checkpoint.s", "s", "lower"),
        ("trainer.Checkpoint.restore_agent.ms", "ms", "lower"),
        ("trainer.write_eval_csv.ms", "ms", "lower"),
        ("trainer.persist_rollout_share_pct", "%", "lower"),
        ("cli.main.self_ms", "ms", "lower"),
    ]
    m += [(f"layer.{layer.lstrip('_')}.self_pct", "%", "lower") for layer in LAYERS]
    m += [
        ("trace.overhead_pct", "%", "lower"),
        ("trace.unaccounted_pct", "%", "lower"),
    ]
    return m


PER_LAYER = _spec()
UNITS = {name: unit for name, unit, _ in PER_LAYER}


def _rows(x):
    shape = getattr(x, "shape", ())
    return shape[0] if len(shape) == 2 else 1


class Probe:
    """Names live networks and optimizers, and sees replay buffers.

    The tracer calls `agent_created` after every AgentBundle.__init__ and
    `buffer_created` after every ReplayBuffer.__init__. Networks are keyed
    weakly so that tracing keeps no agent alive; a buffer is held only until
    the operation that made it ends, when its allocated size is read.
    """

    def __init__(self):
        self.net_names = weakref.WeakKeyDictionary()
        self.opt_names = weakref.WeakKeyDictionary()
        self.widths = {}
        self.buffers = []
        self.replay_bytes = 0

    def agent_created(self, agent):
        nets = {"q1": agent.q1, "q2": agent.q2, "value": agent.value,
                "value_target": agent.value_target, "policy_trunk": agent.policy.trunk,
                "policy_mean_head": agent.policy.mean_head,
                "policy_log_std_head": agent.policy.log_std_head}
        for name, mlp in nets.items():
            self.net_names[mlp] = name
            self.widths[name] = mlp.widths
        for name in OPTIMIZERS:
            self.opt_names[getattr(agent, f"opt_{name}")] = name

    def buffer_created(self, buf):
        self.buffers.append(buf)

    def after_op(self):
        for buf in self.buffers:
            size = sum(a.nbytes for a in (buf.obs, buf.actions, buf.rewards,
                                          buf.next_obs, buf.done))
            self.replay_bytes = max(self.replay_bytes, size)
        self.buffers.clear()

    def tags(self):
        net = lambda a: (self.net_names.get(a[0], "other"), _rows(a[1]))
        return {
            "neural.Mlp.forward": net,
            "neural.Mlp.backward": net,
            "neural.PolicyNet.sample": lambda a: _rows(a[1]),
            "neural.PolicyNet.mean_action": lambda a: _rows(a[1]),
            "neural.PolicyNet.backward_sample": lambda a: len(a[1]),
            "neural.rmsprop_step": lambda a: self.opt_names.get(a[2], "other"),
        }


def make_tracer(probe):
    """A tracer with the probe's tags; `install` puts it into the program."""
    return Tracer(tags=probe.tags(), context=(UPDATE,), keep=(UPDATE,))


def install(tracer, probe):
    """Wrap the program's modules and hook the probe in; undo with tracer.uninstall()."""
    tracer.install(MODULES, aliases=(hydrosac,))
    tracer.hook_init(sac.AgentBundle, probe.agent_created)
    tracer.hook_init(sac.ReplayBuffer, probe.buffer_created)


def per_layer(table, probe, wall_s, overhead_pct):
    """Every metric of PER_LAYER from a tracer's folded table."""

    def agg(name, tag=None):
        return table.get((name, tag))

    def mean(name, tag=None, scale=1e6):
        a = agg(name, tag)
        return a.total / a.calls * scale if a and a.calls else 0.0

    def total(name):
        return sum(a.total for (n, _), a in table.items() if n == name)

    def self_per_call(prefix, per, scale):
        calls = agg(per).calls if agg(per) else 0
        s = sum(a.self_s for (n, _), a in table.items()
                if n == per or (prefix and n.startswith(prefix)))
        return s / calls * scale if calls else 0.0

    update = agg(UPDATE)
    updates = update.calls if update else 0

    def per_update(name, match=lambda tag: True):
        n = sum(a.calls_in for (nm, tag), a in table.items() if nm == name and match(tag))
        return n / updates if updates else 0.0

    v = {
        "sac.update.calls": updates,
        "sac.update.ms_p50": percentile(update.durations, 50) * 1e3 if updates else 0.0,
        "sac.update.ms_p90": percentile(update.durations, 90) * 1e3 if updates else 0.0,
        "sac.update.self_ms": self_per_call(None, UPDATE, 1e3),
        "sac.update.train_share_pct": (
            100 * total(UPDATE) / total("trainer.train") if total("trainer.train") else 0.0),
        "sac.compute_q_targets.us": mean("sac.compute_q_targets"),
        "sac.polyak_update.us": mean("sac.polyak_update"),
        "sac.select_action.us": mean("sac.select_action"),
        "sac.ReplayBuffer.push.us": mean("sac.ReplayBuffer.push"),
        "sac.ReplayBuffer.sample_arrays.us": mean("sac.ReplayBuffer.sample_arrays"),
        "sac.replay.capacity_mb": probe.replay_bytes / 1e6,
    }
    flops = 0.0
    for net in NETS:
        for direction in ("forward", "backward"):
            name = f"neural.Mlp.{direction}"
            v[f"neural.{net}.{direction}.b{TRAIN_BATCH}.us"] = mean(name, (net, TRAIN_BATCH))
            v[f"neural.{net}.{direction}.calls_per_update"] = per_update(
                name, lambda tag: tag[0] == net)
            # gemm flops: 2*B*in*out per layer forward; backward adds the
            # weight gradient and the input gradient, 4*B*in*out.
            macs = sum(i * o for i, o in zip(probe.widths.get(net, ()),
                                             probe.widths.get(net, ())[1:]))
            per_row = (2 if direction == "forward" else 4) * macs
            flops += sum(a.calls_in * batch * per_row
                         for (nm, (nt, batch)), a in _tagged(table, name) if nt == net)
        if net in POLICY_NETS:
            v[f"neural.{net}.forward.b1.us"] = mean("neural.Mlp.forward", (net, 1))
    v["neural.PolicyNet.sample.b1.us"] = mean("neural.PolicyNet.sample", 1)
    v[f"neural.PolicyNet.sample.b{TRAIN_BATCH}.us"] = mean("neural.PolicyNet.sample", TRAIN_BATCH)
    v[f"neural.PolicyNet.backward_sample.b{TRAIN_BATCH}.us"] = mean(
        "neural.PolicyNet.backward_sample", TRAIN_BATCH)
    v["neural.PolicyNet.mean_action.b1.us"] = mean("neural.PolicyNet.mean_action", 1)
    for opt in OPTIMIZERS:
        v[f"neural.rmsprop_step.{opt}.us"] = mean("neural.rmsprop_step", opt)
    v["neural.rmsprop_step.calls_per_update"] = per_update("neural.rmsprop_step")
    v["neural.gemm_mflop_per_update_computed"] = flops / updates / 1e6 if updates else 0.0
    for k in KERNELS:
        v[f"kernels.{k}.calls_per_update"] = per_update(f"_kernels.{k}")
        v[f"kernels.{k}.us"] = mean(f"_kernels.{k}")
    v.update({
        "scenario.sample_scenario.us": mean("scenario.sample_scenario"),
        "scenario.load_pools.ms": mean("scenario.load_pools", scale=1e3),
        "env.reset.us": mean("env.reset"),
        "env.step.us": mean("env.step"),
        "env.observe.us": mean("env.observe"),
        "trainer.train.self_s": self_per_call(None, "trainer.train", 1.0),
        "trainer.rollout.ms": mean("trainer.rollout", scale=1e3),
        "trainer.save_checkpoint.s": mean("trainer.save_checkpoint", scale=1.0),
        "trainer.load_checkpoint.s": mean("trainer.load_checkpoint", scale=1.0),
        "trainer.Checkpoint.restore_agent.ms": mean("trainer.Checkpoint.restore_agent", scale=1e3),
        "trainer.write_eval_csv.ms": mean("trainer.write_eval_csv", scale=1e3),
        "trainer.persist_rollout_share_pct": 100 * sum(
            total(n) for n in ("trainer.save_checkpoint", "trainer.load_checkpoint",
                               "trainer.rollout")) / wall_s,
        "cli.main.self_ms": self_per_call("cli.", "cli.main", 1e3),
    })
    layer_self = layer_self_times(table)
    for layer in LAYERS:
        v[f"layer.{layer.lstrip('_')}.self_pct"] = 100 * layer_self.get(layer, 0.0) / wall_s
    v["trace.overhead_pct"] = overhead_pct
    v["trace.unaccounted_pct"] = 100 * abs(wall_s - sum(layer_self.values())) / wall_s
    return {name: v[name] for name, _, _ in PER_LAYER}


def _tagged(table, name):
    return [(key, a) for key, a in table.items() if key[0] == name and key[1] is not None]


def layer_self_times(table):
    """Self seconds per layer: the first dotted component of the span name."""
    out = {}
    for (name, _), a in table.items():
        layer = name.split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + a.self_s
    return out


def table_rows(table):
    """The folded table as JSON-ready rows, largest self time first."""
    return [
        {"name": name, "tag": repr(tag), "calls": a.calls, "total_s": a.total,
         "self_s": a.self_s, "calls_in_update": a.calls_in}
        for (name, tag), a in sorted(table.items(), key=lambda kv: -kv[1].self_s)
    ]
