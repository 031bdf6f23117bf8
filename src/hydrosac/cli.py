"""Command-line front end.

Subcommands: gen-scenarios, train, evaluate, plan, inspect. Each settings
flag sets one config field; values merge with precedence CLI flag >
--config file > built-in default and are type-checked against the config
dataclasses (an int is fine for a float field). The environment variable
HYDROSAC_SEED supplies the seed when nothing else does. Exit codes: 0
success, 2 usage or input error (bad settings included), 3 training aborted
on a non-finite loss, 4 corrupt artifact (a checkpoint whose config echo
does not decode or validate included).
"""

import argparse
import csv
import dataclasses
import json
import os
import sys

import numpy as np

from . import scenario as sc
from . import trainer as tr
from .env import LAST_WEEK_PRICE, MAX_PRICE
from .sac import TrainingAborted
from .scenario import ArtificialConfig, DataError
from .trainer import CheckpointError, TrainConfig

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_TRAINING_ABORT = 3
EXIT_CORRUPT = 4

PLAN_HEADER = "week,price,inflow,action,release_volume_Mm3,storage,spill,reward"


class CliError(Exception):
    def __init__(self, message, code=EXIT_USAGE):
        super().__init__(message)
        self.code = code


def _load_config_file(path):
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise CliError(f"config file not found: {path}")
    except json.JSONDecodeError as e:
        raise CliError(f"config file {path} is not valid JSON ({e})", code=EXIT_CORRUPT)
    if not isinstance(doc, dict):
        raise CliError(f"config file {path} must hold a JSON object", code=EXIT_CORRUPT)
    unknown = sorted(set(doc) - {"train", "env", "artificial"})
    if unknown:
        raise CliError(f"unknown sections {unknown} in config file {path}")
    return doc


def _section(doc, name, path):
    section = doc.get(name, {})
    if not isinstance(section, dict):
        raise CliError(f"bad config file {path}: section '{name}' must be a JSON object")
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
        raise CliError("put the environment section at the top level ('env'), not inside 'train'")
    sections = {
        "train": train,
        "agent": _section(train, "agent", path),
        "env": _section(doc, "env", path),
        "artificial": _section(doc, "artificial", path),
    }
    flags = {key: value for key, value in vars(args).items() if "." in key}
    if "env.r_max" in flags:  # --r-max also sizes the pools generated inline
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
        raise CliError(f"bad config file {path}: {e}")
    return cfg, artificial, {name: set(section) for name, section in sections.items()}


def _seed(value):
    """`value` if given, else HYDROSAC_SEED, else 0."""
    if value is None:
        env = os.environ.get("HYDROSAC_SEED", "0")
        try:
            value = int(env)
        except ValueError:
            raise CliError(f"HYDROSAC_SEED must be an integer, got {env!r}")
    if value < 0:
        raise CliError(f"seed must be >= 0, got {value}")
    return value


def _artificial_pools(artificial, seed, mode=sc.ARTIFICIAL):
    try:
        return sc.generate_artificial_pools(artificial, seed, mode=mode)
    except DataError as e:  # pools built here can only be bad through their settings
        raise CliError(f"bad artificial settings: {e}")


def _get_pools(args, artificial_cfg, seed):
    """Load pools from --pools, or generate artificial pools inline."""
    if getattr(args, "pools", None):
        try:
            return sc.load_pools(args.pools)
        except FileNotFoundError:
            raise CliError(f"pools file not found: {args.pools}")
        except DataError as e:
            raise CliError(str(e), code=EXIT_CORRUPT)
    return _artificial_pools(artificial_cfg, seed)


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
    seed = _seed(args.seed)
    if args.mode == sc.ARTIFICIAL:
        pools = _artificial_pools(artificial, seed)
    elif args.synthetic_historic:
        wide = dataclasses.replace(
            artificial,
            price_noise=max(artificial.price_noise, 0.5),
            inflow_noise=max(artificial.inflow_noise, 0.8),
        )
        pools = _artificial_pools(wide, seed, mode=sc.HISTORIC)
    else:
        if not args.prices or not args.inflows:
            raise CliError(
                "historic mode needs --prices and --inflows (or --synthetic-historic)"
            )
        try:
            price_series = [sc.load_csv_series(f, sc.PRICE) for f in args.prices]
            inflow_series = [sc.load_csv_series(f, sc.INFLOW) for f in args.inflows]
        except FileNotFoundError as e:
            raise CliError(f"input file not found: {e.filename}")
        pools = sc.build_pools(price_series, inflow_series, artificial.r_max)
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
        cfg.validate()
    except ValueError as e:
        raise CliError(str(e))
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


def _load_checkpoint_or_die(path):
    try:
        return tr.load_checkpoint(path)
    except FileNotFoundError:
        raise CliError(f"checkpoint not found: {path}")
    except CheckpointError as e:
        raise CliError(str(e), code=EXIT_CORRUPT)


def _warn_env_mismatch(args, ckpt):
    """The checkpoint's environment echo wins over the env flags given."""
    echo = dataclasses.asdict(ckpt.config.env)
    for key, value in vars(args).items():
        section, _, attr = key.partition(".")
        if section == "env" and echo[attr] != value:
            flag = "terminal-rule" if attr == "terminal_price_rule" else attr.replace("_", "-")
            print(
                f"warning: --{flag}={value} differs from the "
                f"checkpoint's {attr}={echo[attr]}; using the checkpoint value",
                file=sys.stderr,
            )


def cmd_evaluate(args):
    ckpt = _load_checkpoint_or_die(args.checkpoint)
    _warn_env_mismatch(args, ckpt)
    _, artificial, _ = _settings(args)
    seed = _seed(args.seed)
    pools = _get_pools(args, artificial, seed)
    if args.episodes < 1:
        raise CliError("--episodes must be >= 1")
    report = tr.evaluate(ckpt, pools, args.episodes, args.deterministic, seed)
    tr.write_eval_csv(report, args.out)
    totals = report.total_rewards()
    print(f"episodes: {len(report.episodes)}")
    print(
        f"mean total reward: {totals.mean():.3f} "
        f"(min {totals.min():.3f}, max {totals.max():.3f})"
    )
    print(f"wrote {args.out}")
    return EXIT_OK


def _load_scenario_csv(path):
    rows = []
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or [c.strip().lower() for c in header] != [
                "week",
                "price",
                "inflow",
            ]:
                raise CliError(
                    f"{path}: expected header 'week,price,inflow'", code=EXIT_CORRUPT
                )
            for lineno, row in enumerate(reader, start=2):
                if not row:
                    continue
                try:
                    rows.append((int(row[0]), float(row[1]), float(row[2])))
                except (ValueError, IndexError):
                    raise CliError(
                        f"{path}: malformed row at line {lineno}", code=EXIT_CORRUPT
                    )
    except FileNotFoundError:
        raise CliError(f"scenario file not found: {path}")
    rows.sort()
    if [r[0] for r in rows] != list(range(1, sc.WEEKS + 1)):
        raise CliError(
            f"{path}: scenario must contain weeks 1..{sc.WEEKS} exactly once each",
            code=EXIT_CORRUPT,
        )
    prices = np.array([r[1] for r in rows])
    inflows = np.array([r[2] for r in rows])
    # written so that NaN, which fails every comparison, is out of range too
    if not (np.all((prices >= 0) & (prices <= 1)) and np.all((inflows >= 0) & (inflows <= 1))):
        raise CliError(f"{path}: values must lie in [0, 1]", code=EXIT_CORRUPT)
    return sc.Scenario(prices=prices, inflows=inflows)


def cmd_plan(args):
    ckpt = _load_checkpoint_or_die(args.checkpoint)
    seed = _seed(args.seed)
    _, artificial, _ = _settings(args)
    if args.scenario:
        scn = _load_scenario_csv(args.scenario)
    else:
        pools = _get_pools(args, artificial, seed)
        scn = sc.sample_scenario(pools, np.random.default_rng(seed))
    agent = ckpt.restore_agent()
    env_cfg = ckpt.config.env
    total, trace = tr.rollout(
        lambda obs, rng: agent.policy.mean_action(obs),
        scn,
        env_cfg,
        np.random.default_rng(seed),
    )
    lines = [PLAN_HEADER]
    for row in trace:
        week, price, inflow, action, storage, reward, _, spill = row
        release = action * env_cfg.f_max * env_cfg.r_max
        lines.append(
            f"{int(week)},{float(price)!r},{float(inflow)!r},{float(action)!r},"
            f"{float(release)!r},{float(storage)!r},{float(spill)!r},{float(reward)!r}"
        )
    sc._write_atomic(args.out, lambda fh: fh.write("\n".join(lines) + "\n"))
    print(f"total reward: {total:.3f}")
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_inspect(args):
    ckpt = _load_checkpoint_or_die(args.checkpoint)
    shapes = {}
    for name, layers in ckpt.networks.items():
        widths = [layers[0][0].shape[1]] + [w.shape[0] for w, _, _ in layers]
        shapes[name] = widths
    if args.as_json:
        doc = {
            "version": ckpt.version,
            "episode": ckpt.episode,
            "replay_size": ckpt.replay_size,
            "network_shapes": shapes,
            "config": dataclasses.asdict(ckpt.config),
        }
        print(json.dumps(doc, indent=2))
    else:
        print(f"version: {ckpt.version}")
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
    except CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.code
    except DataError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CORRUPT
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
