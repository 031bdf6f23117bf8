"""Command-line front end.

Subcommands: gen-scenarios, train, evaluate, plan, inspect. Each settings
flag sets one config field; values merge with precedence CLI flag >
--config file > built-in default and are type-checked against the config
dataclasses (an int is fine for a float field). The environment variable
HYDROSAC_SEED supplies the seed when nothing else does. evaluate and plan
play the checkpoint's environment, and warn of each env flag or --config
env key that differs from it. Exit codes: 0 success, 2 a bad setting, a
file that cannot be read or written, an output that is an input or the
other output, or a size too large to allocate (any UsageError, OSError or
MemoryError), 3 training aborted on a non-finite loss, 4 an input file
that does not decode or validate (any DataError; a CheckpointError is
one). Only main turns an exception into an exit code; _read_input alone
names a missing input file.
"""

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from . import scenario as sc
from . import trainer as tr
from .env import LAST_WEEK_PRICE, MAX_PRICE, UsageError
from .sac import TrainingAborted
from .scenario import ArtificialConfig, DataError
from .trainer import TrainConfig

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_TRAINING_ABORT = 3
EXIT_CORRUPT = 4

PLAN_HEADER = "week,price,inflow,action,release_volume_Mm3,storage,spill,reward"


def _read_input(kind, read, *args):
    """Return read(*args); a missing file is a UsageError naming `kind` and the file."""
    try:
        return read(*args)
    except FileNotFoundError as e:
        raise UsageError(f"{kind} not found: {e.filename}")


def _load_config_file(path):
    doc = _read_input("config file", sc.read_json, path)
    if not isinstance(doc, dict):
        raise DataError(f"config file {path} must hold a JSON object")
    unknown = sorted(set(doc) - {"train", "env", "artificial"})
    if unknown:
        raise UsageError(f"unknown sections {unknown} in config file {path}")
    return doc


def _section(doc, name, path):
    section = doc.get(name, {})
    if not isinstance(section, dict):
        raise UsageError(f"bad config file {path}: section '{name}' must be a JSON object")
    return dict(section)


def _settings(args):
    """Overlay the settings flags given on the --config file and decode them.

    Returns (TrainConfig, ArtificialConfig, given), where given maps each
    section (train, agent, env, artificial) to the keys that the file or a
    flag set; the defaults that depend on the pools' mode consult it.
    """
    path = args.config
    doc = _load_config_file(path) if path else {}
    train = _section(doc, "train", path)
    if "env" in train:
        raise UsageError("put the environment section at the top level ('env'), not inside 'train'")
    sections = {
        "train": train,
        "agent": _section(train, "agent", path),
        "env": _section(doc, "env", path),
        "artificial": _section(doc, "artificial", path),
    }
    if "r_max" in sections["env"]:  # the reservoir's r_max also sizes the pools generated inline
        sections["artificial"].setdefault("r_max", sections["env"]["r_max"])
    flags = {key: value for key, value in vars(args).items() if "." in key}
    if "env.r_max" in flags:  # and so does --r-max, over both sections of the file
        flags["artificial.r_max"] = flags["env.r_max"]
    for key, value in flags.items():
        section, name = key.split(".")
        sections[section][name] = value
    try:
        cfg = tr.config_from_dict(
            TrainConfig, {**train, "agent": sections["agent"], "env": sections["env"]}, "train"
        )
        artificial = tr.config_from_dict(ArtificialConfig, sections["artificial"], "artificial")
    except ValueError as e:  # flags are typed by argparse, so the file is at fault
        raise UsageError(f"bad config file {path}: {e}")
    return cfg, artificial, {name: set(section) for name, section in sections.items()}


def _seed(value):
    """`value` if given, else HYDROSAC_SEED, else 0."""
    if value is None:
        env = os.environ.get("HYDROSAC_SEED", "0")
        try:
            value = int(env)
        except ValueError:
            raise UsageError(f"HYDROSAC_SEED must be an integer, got {env!r}")
    if value < 0:
        raise UsageError(f"seed must be >= 0, got {value}")
    return value


# The flags that name a file a command reads; --prices and --inflows take several.
INPUT_FLAGS = ("config", "pools", "checkpoint", "scenario", "prices", "inflows")


def _check_outputs(args):
    """Raise UsageError for an output of the command (--out, then --log) that is empty,
    whose directory does not exist, that is itself a directory, or whose real path is
    that of an input or of the other output, so that it is found before any work, not
    at the write."""
    taken = {}  # real path -> the flag that names it
    for name in INPUT_FLAGS:
        value = getattr(args, name, None)
        for path in value if isinstance(value, list) else [value]:
            if path:
                taken.setdefault(os.path.realpath(path), f"--{name}")
    for flag in ("--out", "--log"):
        if not hasattr(args, flag[2:]):
            continue
        path = getattr(args, flag[2:])
        if not path:
            raise UsageError(f"{flag} must name a file, not an empty path")
        if os.path.isdir(path):
            raise UsageError(f"{flag} {path} is a directory")
        if not os.path.isdir(os.path.dirname(path) or "."):
            raise UsageError(f"{flag} {path}: directory {os.path.dirname(path)} does not exist")
        real = os.path.realpath(path)
        if real in taken:
            raise UsageError(f"{flag} {path} is also {taken[real]}")
        taken[real] = flag


def _get_pools(args, artificial_cfg, seed):
    """Load pools from --pools, or generate artificial pools inline."""
    if getattr(args, "pools", None):
        return _read_input("pools file", sc.load_pools, args.pools)
    return sc.generate_artificial_pools(artificial_cfg, seed)


def _setting(p, flag, dest, **kwargs):
    """Add a flag for config field dest ("section.field"); args holds it only when given."""
    if "choices" not in kwargs and kwargs.get("action") != "store_true":
        kwargs["metavar"] = flag[2:].replace("-", "_").upper()
    p.add_argument(flag, dest=dest, default=argparse.SUPPRESS, **kwargs)


def _add_artificial_flags(p):
    _setting(p, "--samples-per-week", "artificial.samples_per_week", type=int)
    _setting(p, "--price-low", "artificial.price_low", type=float)
    _setting(p, "--price-noise", "artificial.price_noise", type=float)
    _setting(p, "--inflow-noise", "artificial.inflow_noise", type=float)
    _setting(p, "--annual-inflow", "artificial.annual_inflow", type=float)


def _add_env_flags(p):
    _setting(p, "--f-max", "env.f_max", type=float)
    _setting(p, "--r-max", "env.r_max", type=float)
    _setting(p, "--k-price", "env.k_price", type=float)
    _setting(p, "--q-price", "env.q_price", type=float)
    _setting(p, "--init-low", "env.init_low", type=float)
    _setting(p, "--init-high", "env.init_high", type=float)
    _setting(p, "--terminal-low", "env.terminal_low", type=float)
    _setting(p, "--terminal-high", "env.terminal_high", type=float)
    _setting(p, "--terminal-rule", "env.terminal_price_rule", choices=[LAST_WEEK_PRICE, MAX_PRICE])


def build_parser():
    parser = argparse.ArgumentParser(
        prog="hydrosac",
        description="Train and apply a soft actor-critic reservoir scheduling agent.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-scenarios", help="build a pools file")
    p.add_argument("--mode", choices=[sc.ARTIFICIAL, sc.HISTORIC], required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--config")
    p.add_argument("--prices", nargs="+", metavar="FILE")
    p.add_argument("--inflows", nargs="+", metavar="FILE")
    _setting(p, "--r-max", "artificial.r_max", type=float)
    p.add_argument(
        "--synthetic-historic",
        action="store_true",
        help="historic mode without data files: artificial profiles with wide noise",
    )
    _add_artificial_flags(p)

    p = sub.add_parser("train", help="train an agent")
    p.add_argument("--pools")
    p.add_argument("--config")
    p.add_argument("--out", default="checkpoint.json")
    p.add_argument("--log", default="train_log.csv")
    _setting(p, "--seed", "train.seed", type=int)
    _setting(p, "--total-weeks", "train.total_weeks", type=int)
    _setting(p, "--exploration-weeks", "train.exploration_weeks", type=int)
    _setting(p, "--batch-size", "train.batch_size", type=int)
    _setting(p, "--checkpoint-every", "train.checkpoint_every_episodes", type=int)
    _setting(p, "--include-replay", "train.include_replay_in_checkpoint", action="store_true")
    _add_env_flags(p)
    _add_artificial_flags(p)
    _setting(p, "--alpha", "agent.alpha", type=float)
    _setting(p, "--gamma", "agent.gamma", type=float)
    _setting(p, "--tau", "agent.tau", type=float)
    _setting(p, "--lr-value", "agent.lr_value", type=float)
    _setting(p, "--lr-q", "agent.lr_q", type=float)
    _setting(p, "--lr-policy", "agent.lr_policy", type=float)
    _setting(p, "--hidden-width", "agent.hidden_width", type=int)

    p = sub.add_parser("evaluate", help="evaluate a checkpoint over sampled scenarios")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--pools")
    p.add_argument("--config")
    p.add_argument("--episodes", type=int, default=5)
    p.add_argument("--deterministic", action="store_true")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", default="eval.csv")
    _add_env_flags(p)
    _add_artificial_flags(p)

    p = sub.add_parser("plan", help="produce a 52-week plan for one scenario")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--scenario", help="CSV week,price,inflow with 52 rows")
    p.add_argument("--pools")
    p.add_argument("--config")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", default="plan.csv")
    _add_artificial_flags(p)

    p = sub.add_parser("inspect", help="summarize a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--json", action="store_true", dest="as_json")

    return parser


def cmd_gen_scenarios(args):
    _, artificial, _ = _settings(args)
    artificial.validate()  # so that each mode rejects a bad setting with exit 2
    seed = _seed(args.seed)
    _check_outputs(args)
    if args.mode == sc.ARTIFICIAL:
        pools = sc.generate_artificial_pools(artificial, seed)
    elif args.synthetic_historic:
        wide = dataclasses.replace(
            artificial,
            price_noise=max(artificial.price_noise, 0.5),
            inflow_noise=max(artificial.inflow_noise, 0.8),
        )
        pools = sc.generate_artificial_pools(wide, seed, mode=sc.HISTORIC)
    else:
        if not args.prices or not args.inflows:
            raise UsageError(
                "historic mode needs --prices and --inflows (or --synthetic-historic)"
            )
        pools = _read_input("input file", sc.build_pools, args.prices, args.inflows,
                            artificial.r_max)
    sc.save_pools(pools, args.out)
    for w in range(sc.WEEKS):
        print(
            f"week {w + 1:02d}: price={len(pools.price_pool[w])} "
            f"inflow={len(pools.inflow_pool[w])}"
        )
    print(f"wrote {args.out} ({pools.mode}, price_max={pools.price_max:g})")
    return EXIT_OK


def cmd_train(args):
    cfg, artificial, given = _settings(args)
    cfg.seed = _seed(cfg.seed if "seed" in given["train"] else None)
    _check_outputs(args)
    pools = _get_pools(args, artificial, cfg.seed)
    cfg.pools_path = args.pools or ""
    # Historic pools explore longer and value the end storage at the
    # maximum price, unless the file or a flag says otherwise.
    if pools.mode == sc.HISTORIC:
        if "exploration_weeks" not in given["train"]:
            cfg.exploration_weeks = 50_000
        if "terminal_price_rule" not in given["env"]:
            cfg.env.terminal_price_rule = MAX_PRICE
    cfg.exploration_weeks = min(cfg.exploration_weeks, cfg.total_weeks)
    try:
        ckpt, records = tr.train(cfg, pools, checkpoint_path=args.out)
    except TrainingAborted as e:
        if e.records is not None:
            tr.write_train_log(e.records, args.log)
        print(f"training aborted: {e} (report: {e.report})", file=sys.stderr)
        return EXIT_TRAINING_ABORT
    tr.write_train_log(records, args.log)
    print(f"episodes: {len(records)}")
    if records:
        rewards = np.array([r.total_reward for r in records])
        tail = rewards[-max(1, len(rewards) // 10):]
        print(f"mean total reward, last 10% of episodes: {tail.mean():.3f}")
    print(f"wrote {args.out} and {args.log}")
    return EXIT_OK


def _warn_env_mismatch(args, ckpt, env, given):
    """The checkpoint's environment echo wins over the env settings given: warn of each
    one in `env` that differs, named by its flag, or else by its key in the --config file
    (`given` holds the env keys that a flag or the file set)."""
    echo = dataclasses.asdict(ckpt.config.env)
    flags = [key.partition(".")[2] for key in vars(args) if key.startswith("env.")]
    for attr in flags + [attr for attr in echo if attr in given and attr not in flags]:
        value = getattr(env, attr)
        if echo[attr] == value:
            continue
        if attr in flags:
            flag = "terminal-rule" if attr == "terminal_price_rule" else attr.replace("_", "-")
            setting = f"--{flag}={value}"
        else:
            setting = f"env.{attr}={value} in {args.config}"
        print(
            f"warning: {setting} differs from the "
            f"checkpoint's {attr}={echo[attr]}; using the checkpoint value",
            file=sys.stderr,
        )


def cmd_evaluate(args):
    ckpt = _read_input("checkpoint", tr.load_checkpoint, args.checkpoint)
    _check_outputs(args)
    cfg, artificial, given = _settings(args)
    _warn_env_mismatch(args, ckpt, cfg.env, given["env"])
    seed = _seed(args.seed)
    pools = _get_pools(args, artificial, seed)
    traces = tr.evaluate(ckpt, pools, args.episodes, args.deterministic, seed)
    tr.write_eval_csv(traces, args.out)
    totals = traces[:, -1, 6]  # accumulated reward in week 52
    print(f"episodes: {len(traces)}")
    print(
        f"mean total reward: {totals.mean():.3f} "
        f"(min {totals.min():.3f}, max {totals.max():.3f})"
    )
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_plan(args):
    ckpt = _read_input("checkpoint", tr.load_checkpoint, args.checkpoint)
    _check_outputs(args)
    seed = _seed(args.seed)
    cfg, artificial, given = _settings(args)
    _warn_env_mismatch(args, ckpt, cfg.env, given["env"])
    if args.scenario:
        scn = _read_input("scenario file", sc.load_scenario_csv, args.scenario)
    else:
        pools = _get_pools(args, artificial, seed)
        scn = sc.sample_scenario(pools, np.random.default_rng(seed))
    env_cfg = ckpt.config.env
    (trace,) = tr.rollout(tr.policy_action_fn(ckpt.agent.policy, True), [scn], env_cfg,
                          [np.random.default_rng(seed)])
    sc.write_csv(args.out, PLAN_HEADER, (
        (int(week), price, inflow, action, action * env_cfg.f_max * env_cfg.r_max, storage,
         spill, reward)
        for week, price, inflow, action, storage, reward, _, spill in trace.tolist()))
    print(f"total reward: {trace[-1, 6]:.3f}")
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_inspect(args):
    ckpt = _read_input("checkpoint", tr.load_checkpoint, args.checkpoint)
    shapes = {name: net.widths for name, net in ckpt.agent.networks().items()}
    if args.as_json:
        doc = {
            "version": tr.CHECKPOINT_VERSION,
            "episode": ckpt.episode,
            "replay_size": ckpt.replay_size,
            "network_shapes": shapes,
            "config": dataclasses.asdict(ckpt.config),
        }
        print(json.dumps(doc, indent=2))
    else:
        print(f"version: {tr.CHECKPOINT_VERSION}")
        print(f"episodes trained: {ckpt.episode}")
        print(f"replay size: {ckpt.replay_size}")
        for name in sorted(shapes):
            print(f"network {name}: {shapes[name]}")
        cfg = ckpt.config
        print(
            f"seed: {cfg.seed}  total_weeks: {cfg.total_weeks}  "
            f"exploration_weeks: {cfg.exploration_weeks}  batch_size: {cfg.batch_size}"
        )
        print(
            f"env: f_max={cfg.env.f_max} r_max={cfg.env.r_max} "
            f"terminal_rule={cfg.env.terminal_price_rule}"
        )
        print(f"agent: alpha={cfg.agent.alpha} gamma={cfg.agent.gamma} tau={cfg.agent.tau}")
    return EXIT_OK


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "gen-scenarios": cmd_gen_scenarios,
        "train": cmd_train,
        "evaluate": cmd_evaluate,
        "plan": cmd_plan,
        "inspect": cmd_inspect,
    }
    try:
        return handlers[args.command](args)
    except DataError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CORRUPT
    except (UsageError, OSError, MemoryError) as e:  # MemoryError: a size numpy cannot allocate
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
