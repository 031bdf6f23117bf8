"""The benchmark's workloads: learn, explore and serve.

Each workload is single-process and closed-loop: a call starts when the
previous one returns. Set-up builds the inputs from the workload seed and
does the work a user pays once (training the checkpoint that serve uses,
warming up the train loop); `cycle` runs one round of timed operations.

An operation is one timed call into the program: train, save, load, plan
or evaluate. It fails if it raises, if the CLI exits non-zero, or if its
output fails a check; failed operations add no timing samples.
"""

import contextlib
import dataclasses
import hashlib
import io
import math
import os
import traceback
from collections import defaultdict
from time import perf_counter

import numpy as np

from hydrosac import cli, scenario, trainer
from hydrosac.trainer import TrainConfig

WEEKS = scenario.WEEKS
BATCH = 100
EXPLORE_PREFIX_EPISODES = 2  # learn: 104 random weeks, enough for batch 100
SERVE_REPLAY_WEEKS = 52_000  # ROADMAP baseline: a 52k-transition replay
EVAL_EPISODES = 100
PLANS_PER_CYCLE = 34  # three cycles give the 100 plan samples

# Fixed observations on which a saved and a loaded policy must agree.
PROBE_OBS = np.random.default_rng(0).random((32, 5))


class Run:
    """Operations attempted and failed, problems, and timing samples.

    A sample is (value, reference task, start, end) of the call it came
    from; with a HostSpeed, `values` scales times by that task's speed
    around the call.
    """

    def __init__(self, speed=None, tracer=None, after_op=None):
        self.speed = speed
        self.tracer = tracer
        self.after_op = after_op
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.samples = defaultdict(list)
        self.interval = (0.0, 0.0)  # of the last timed call

    def span(self, name):
        return self.tracer.span(name) if self.tracer else contextlib.nullcontext()

    def timed(self, fn):
        """fn() with its start and end kept in `interval`; returns (value, seconds).

        Reference-task time spent inside fn is not counted.
        """
        speed = self.speed
        if speed:
            speed.tick()
            self.first_mark, self.spent_before = len(speed.marks), speed.spent
        t0 = perf_counter()
        value = fn()
        t1 = perf_counter()
        self.interval = (t0, t1)
        seconds = t1 - t0
        if speed:
            seconds -= speed.spent - self.spent_before
            speed.tick()
        return value, seconds

    def op(self, name, fn, verify=None):
        """Time fn() as one operation; returns (value, seconds), seconds None on failure."""
        self.attempted += 1
        value, seconds, problems = None, None, []
        with self.span(f"bench.{name}"):
            try:
                value, seconds = self.timed(fn)
            except Exception as e:  # a raising call is a failed operation
                problems = [f"{name} raised {type(e).__name__}: {e}",
                            traceback.format_exc(limit=-3)]
        if seconds is not None and verify is not None:
            with self.span("bench.check"):
                problems = verify(value)
        if self.after_op:
            self.after_op()
        if problems:
            self.failed += 1
            self.problems.extend(problems[:5])
            return value, None
        return value, seconds

    def sample(self, key, value, task="python", interval=None):
        """Record a value of the last timed call, or of a part of it."""
        self.samples[key].append((value, task, *(interval or self.interval)))

    def sample_episodes(self, key, seconds, task):
        """Per-episode times of the last timed call, one per episode it ran."""
        if not self.speed:
            for s in seconds:
                self.sample(key, s, task)
            return
        parts = self.speed.episodes(self.first_mark, self.spent_before, self.interval[1])
        for s, (start, end, spent) in zip(seconds[-len(parts):], parts[-len(seconds):]):
            self.sample(key, s - spent, task, (start, end))

    def values(self, key, scaled=True):
        if not (scaled and self.speed):
            return [v for v, _, _, _ in self.samples[key]]
        return [v * self.speed.factor(task, a, b) for v, task, a, b in self.samples[key]]


# ---------------------------------------------------------------------------
# output checks; each returns a list of problems, empty when the output holds
# ---------------------------------------------------------------------------

def record_rows(records):
    """Training records without the wall-clock `seconds` column."""
    return [(r.episode, r.total_reward, r.terminal_bonus, r.end_storage,
             r.total_spill, r.mean_action) for r in records]


def digest(rows):
    return hashlib.sha256(repr(rows).encode()).hexdigest()[:16]


def records_problems(records, reference, expected_episodes):
    rows = record_rows(records)
    problems = []
    if len(rows) != expected_episodes:
        problems.append(f"train returned {len(rows)} episodes, expected {expected_episodes}")
    n = min(len(rows), len(reference))
    if rows[:n] != reference[:n]:
        problems.append("training records differ from an earlier run with the same seed")
    if not all(math.isfinite(v) for row in rows for v in row[1:]):
        problems.append("non-finite value in training records")
    return problems


def round_trip_problems(saved, loaded):
    """A load must reproduce the saved checkpoint bit for bit."""
    problems = []
    for name, layers in saved.networks.items():
        other = loaded.networks.get(name, [])
        if len(other) != len(layers) or not all(
            np.array_equal(w, w2) and np.array_equal(b, b2) and a == a2
            for (w, b, a), (w2, b2, a2) in zip(layers, other)
        ):
            problems.append(f"network {name} changed in a save/load round trip")
    for name, accs in saved.optimizer_states.items():
        other = loaded.optimizer_states.get(name, [])
        if len(other) != len(accs) or not all(map(np.array_equal, accs, other)):
            problems.append(f"optimizer state {name} changed in a save/load round trip")
    if (saved.replay is None) != (loaded.replay is None) or (
        saved.replay is not None
        and (saved.replay.keys() != loaded.replay.keys()
             or not all(np.array_equal(v, loaded.replay[k]) for k, v in saved.replay.items()))
    ):
        problems.append("replay arrays changed in a save/load round trip")
    before = saved.restore_agent().policy.mean_action(PROBE_OBS)
    after = loaded.restore_agent().policy.mean_action(PROBE_OBS)
    if not np.array_equal(before, after):
        problems.append("mean_action differs after a save/load round trip")
    return problems


def _read_csv(path, header):
    with open(path, encoding="utf-8") as fh:
        first = fh.readline().rstrip("\n")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    if first != header:
        return None, [f"{path}: header {first!r}, expected {header!r}"]
    return data, []


def _weeks_ok(weeks):
    return np.array_equal(weeks, np.arange(1, WEEKS + 1))


def eval_csv_problems(code, path, episodes):
    if code != 0:
        return [f"evaluate exited {code}"]
    data, problems = _read_csv(path, trainer.EVAL_HEADER)
    if problems:
        return problems
    if data.shape != (WEEKS * episodes, 8):
        return [f"evaluate wrote {data.shape} values, expected {(WEEKS * episodes, 8)}"]
    if not np.all(np.isfinite(data)):
        problems.append("evaluate wrote a non-finite value")
    for i, ep in enumerate(np.split(data, episodes)):
        if not (np.all(ep[:, 0] == i) and _weeks_ok(ep[:, 1])):
            problems.append(f"evaluate episode {i} does not hold weeks 1..52")
        elif not np.array_equal(np.cumsum(ep[:, 6]), ep[:, 7]):
            problems.append(f"evaluate episode {i}: accumulated reward is not the prefix sum")
    return problems


def plan_csv_problems(code, out, path):
    if code != 0:
        return [f"plan exited {code}"]
    data, problems = _read_csv(path, cli.PLAN_HEADER)
    if problems:
        return problems
    if data.shape != (WEEKS, 8) or not _weeks_ok(data[:, 0]):
        return [f"plan wrote {data.shape} values, expected weeks 1..52"]
    if not np.all(np.isfinite(data)):
        problems.append("plan wrote a non-finite value")
    total = 0.0
    for r in data[:, 7]:  # the rollout's own summation order
        total += r
    if f"total reward: {total:.3f}" not in out:
        problems.append("plan's printed total is not the sum of its weekly rewards")
    return problems


def call_cli(argv):
    """cli.main in-process; returns (exit code, captured stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class _Workload:
    speed_task = "python"  # host-speed task for train calls and set-up

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir
        self.reference = None  # training records of the first set-up
        self.digests = []
        self.seeds = np.random.default_rng([seed, 1])  # for plan and evaluate

    def path(self, name):
        return os.path.join(self.workdir, name)

    def _train_reference(self, cfg, pools):
        """Train during set-up; repeats of it must give identical records."""
        ckpt, records = trainer.train(cfg, pools)
        rows = record_rows(records)
        if self.reference is None:
            self.reference = rows
        elif rows != self.reference:
            raise RuntimeError("set-up training is not reproducible for one seed")
        return ckpt

    def persist(self, run, ckpt, path, prefix=""):
        """Save and load ckpt; sample the times and the file size."""
        _, save_s = run.op("save", lambda: trainer.save_checkpoint(ckpt, path))
        if save_s is None:
            return
        run.sample(prefix + "ckpt_save_s", save_s, "json")
        run.sample(prefix + "ckpt_mb", os.path.getsize(path) / 1e6)
        _, load_s = run.op("load", lambda: trainer.load_checkpoint(path),
                           verify=lambda loaded: round_trip_problems(ckpt, loaded))
        if load_s is not None:
            run.sample(prefix + "ckpt_load_s", load_s, "json")


class _TrainWorkload(_Workload):
    """trainer.train from the public API, then persisting its checkpoint."""

    episodes = 0  # per train call
    exploration_episodes = 0
    warmup_episodes = 0  # set-up's train call: a prefix of the timed one
    latency_from = 0  # first episode whose time is a latency sample
    # Saves and loads before and after each train call. The host's speed
    # drifts over seconds, so samples spread in time average better.
    persist_before = 0
    persist_after = 1

    def setup(self):
        self.pools = scenario.generate_artificial_pools(scenario.ArtificialConfig(), self.seed)
        self.cfg = TrainConfig(
            total_weeks=WEEKS * self.episodes,
            exploration_weeks=WEEKS * self.exploration_episodes,
            batch_size=BATCH,
            seed=self.seed,
        )
        warm = dataclasses.replace(self.cfg, total_weeks=WEEKS * self.warmup_episodes,
                                   exploration_weeks=min(self.cfg.exploration_weeks,
                                                         WEEKS * self.warmup_episodes))
        self.ckpt = self._train_reference(warm, self.pools)

    def cycle(self, run):
        for _ in range(self.persist_before):
            self.persist(run, self.ckpt, self.path("checkpoint.json"))
        result, seconds = run.op(
            "train",
            lambda: trainer.train(self.cfg, self.pools),
            verify=lambda r: records_problems(r[1], self.reference, self.episodes),
        )
        if result is None:
            return
        self.ckpt, records = result
        if seconds is not None:
            self.digests.append(digest(record_rows(records)))
            run.sample("work_weeks", WEEKS * len(records))
            run.sample("work_s", seconds, self.speed_task)
            run.sample_episodes("episode_s", [r.seconds for r in records[self.latency_from:]],
                                self.speed_task)
        for _ in range(self.persist_after):
            self.persist(run, self.ckpt, self.path("checkpoint.json"))

    def details(self, run):
        return {"records_digest": sorted(set(self.digests))}


class Learn(_TrainWorkload):
    """Learning phase: one sac.update per week at batch 100."""

    name = "learn"
    speed_task = "blas"
    exploration_episodes = EXPLORE_PREFIX_EPISODES
    episodes = EXPLORE_PREFIX_EPISODES + 8
    warmup_episodes = EXPLORE_PREFIX_EPISODES + 1
    latency_from = EXPLORE_PREFIX_EPISODES  # episodes with an update every week


class Explore(_TrainWorkload):
    """Exploration phase only: random actions, replay grows past the LLC."""

    name = "explore"
    # 21,000 episodes = 1,092,000 transitions of 104 bytes: 114 MB of replay,
    # held in a buffer that has doubled to 2**21 rows (218 MB).
    episodes = 21_000
    exploration_episodes = episodes
    warmup_episodes = 200
    persist_before = 4
    persist_after = 4


class Serve(_Workload):
    """From a trained checkpoint to a decision: persistence, plan, evaluate."""

    name = "serve"

    def setup(self):
        self.pools = scenario.generate_artificial_pools(scenario.ArtificialConfig(), self.seed)
        self.pools_path = self.path("pools.json")
        scenario.save_pools(self.pools, self.pools_path)
        cfg = TrainConfig(
            total_weeks=SERVE_REPLAY_WEEKS,
            exploration_weeks=SERVE_REPLAY_WEEKS - WEEKS,  # one learning episode
            batch_size=BATCH,
            seed=self.seed,
            include_replay_in_checkpoint=True,
        )
        self.ckpt = self._train_reference(cfg, self.pools)
        self.digests = [digest(self.reference)]
        self.plain = dataclasses.replace(self.ckpt, replay=None)

    def _next_seed(self):
        return str(int(self.seeds.integers(0, 2**31 - 1)))

    def cycle(self, run):
        for _ in range(2):
            self.persist(run, self.ckpt, self.path("with_replay.json"))
        plain = self.path("plain.json")
        self.persist(run, self.plain, plain, prefix="plain_")
        if not os.path.exists(plain):
            return
        common = ["--checkpoint", plain, "--pools", self.pools_path]
        for deterministic in (True, False, True, False):
            out = self.path("eval.csv")
            argv = ["evaluate", *common, "--episodes", str(EVAL_EPISODES),
                    "--seed", self._next_seed(), "--out", out]
            if deterministic:
                argv.append("--deterministic")
            _, seconds = run.op("evaluate", lambda: call_cli(argv),
                                verify=lambda r: eval_csv_problems(r[0], out, EVAL_EPISODES))
            if seconds is not None:
                run.sample("work_weeks", WEEKS * EVAL_EPISODES)
                run.sample("work_s", seconds)
        for _ in range(PLANS_PER_CYCLE):
            out = self.path("plan.csv")
            argv = ["plan", *common, "--seed", self._next_seed(), "--out", out]
            _, seconds = run.op("plan", lambda: call_cli(argv),
                                verify=lambda r: plan_csv_problems(r[0], r[1], out))
            if seconds is not None:
                run.sample("episode_s", seconds)

    def details(self, run):
        out = {"records_digest": sorted(set(self.digests)),
               "replay_transitions": self.ckpt.replay_size}
        for key in ("plain_ckpt_save_s", "plain_ckpt_load_s", "plain_ckpt_mb"):
            if run.samples[key]:
                out[key] = float(np.median(run.values(key, scaled=key != "plain_ckpt_mb")))
        return out


WORKLOADS = {w.name: w for w in (Learn, Explore, Serve)}
