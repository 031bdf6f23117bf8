"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete. The learning-progress fixture trains a full agent
(100k weeks), so this module takes several minutes end to end.
"""

import time

import numpy as np
import pytest
from scipy.integrate import quad

from hydrosac import neural
from hydrosac.env import EnvConfig, reward, step
from hydrosac.neural import LINEAR, RELU, PolicyNet, mlp_init
from hydrosac.sac import SacConfig
from hydrosac.scenario import ArtificialConfig, generate_artificial_pools
from hydrosac.trainer import (
    TrainConfig,
    evaluate,
    evaluate_policy_fn,
    load_checkpoint,
    save_checkpoint,
    train,
    write_train_log,
)
from oracles import (assert_replayed, assert_within_bounds, constant_policy,
                     perfect_foresight_bounds, random_policy, sdp_policy, sdp_solve,
                     squashed_log_prob)

POOLS_SEED = 11
EVAL_SEED = 999
TRAIN_SEEDS = (2, 3, 1)
N_EVAL_EPISODES = 50


def report(criterion, passed, detail):
    print(f"criterion {criterion}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def artificial_pools():
    return generate_artificial_pools(ArtificialConfig(), POOLS_SEED)


@pytest.fixture(scope="module")
def baselines(artificial_pools):
    env_cfg = EnvConfig()
    rand = evaluate_policy_fn(
        random_policy, artificial_pools, env_cfg, N_EVAL_EPISODES, EVAL_SEED
    )
    const_traces = {
        level: evaluate_policy_fn(
            constant_policy(level), artificial_pools, env_cfg, N_EVAL_EPISODES, EVAL_SEED
        )
        for level in [round(0.1 * k, 1) for k in range(1, 11)]
    }
    const_means = {level: float(t[:, -1, 6].mean()) for level, t in const_traces.items()}
    best_level = max(const_means, key=const_means.get)
    return {
        "random_traces": rand,
        "random_mean": float(rand[:, -1, 6].mean()),
        "const_traces": const_traces,
        "const_means": const_means,
        "best_const_level": best_level,
        "best_const_mean": const_means[best_level],
    }


@pytest.fixture(scope="module")
def trained_run(artificial_pools, baselines):
    """Train on the artificial use case, retrying over the allowed seeds."""
    attempts = []
    for seed in TRAIN_SEEDS:
        cfg = TrainConfig(
            total_weeks=100_000,
            exploration_weeks=10_000,
            batch_size=100,
            seed=seed,
        )
        t0 = time.perf_counter()
        ckpt, records = train(cfg, artificial_pools)
        train_seconds = time.perf_counter() - t0
        traces = evaluate(ckpt, artificial_pools, N_EVAL_EPISODES, True, EVAL_SEED)
        agent_mean = float(traces[:, -1, 6].mean())
        passed = (
            agent_mean >= 1.3 * baselines["random_mean"]
            and agent_mean >= 1.05 * baselines["best_const_mean"]
        )
        attempts.append(
            {
                "seed": seed,
                "ckpt": ckpt,
                "records": records,
                "traces": traces,
                "agent_mean": agent_mean,
                "train_seconds": train_seconds,
                "passed": passed,
            }
        )
        if passed:
            break
    best = max(attempts, key=lambda a: a["agent_mean"])
    best["attempt_count"] = len(attempts)
    return best


class TestCriterion1RewardOracle:
    def test_reward_matches_independent_oracle(self):
        oracle = lambda a, fm, rm, y, k, q: a * fm * rm * (y * k) ** q
        rng = np.random.default_rng(2024)
        cpu0, wall0 = time.process_time(), time.perf_counter()
        worst = 0.0
        for _ in range(10_000):
            a = float(rng.uniform(0, 1))
            fm = float(rng.uniform(0.001, 1))
            rm = float(rng.uniform(1, 5000))
            y = float(rng.uniform(0, 1))
            k = float(rng.uniform(0.1, 3))
            q = float(rng.uniform(0.1, 3))
            cfg = EnvConfig(f_max=fm, r_max=rm, k_price=k, q_price=q)
            got = reward(a, y, cfg)
            want = oracle(a, fm, rm, y, k, q)
            if want != 0.0:
                worst = max(worst, abs(got - want) / abs(want))
            else:
                worst = max(worst, abs(got - want))
        cpu, wall = time.process_time() - cpu0, time.perf_counter() - wall0
        report(
            1,
            worst <= 1e-12 and cpu < 1.0,
            f"max rel err {worst:.2e} over 10^4 tuples in {cpu:.2f}s CPU ({wall:.2f}s wall)",
        )


class TestCriterion2MassBalance:
    def test_fuzzed_steps_conserve_water(self):
        rng = np.random.default_rng(77)
        cpu0, wall0 = time.process_time(), time.perf_counter()
        worst = 0.0
        spill_violations = 0
        for _ in range(100_000):
            f_max = float(rng.uniform(0.001, 1.0))
            storage = float(rng.uniform(0.0, 1.0))
            inflow = float(rng.uniform(0.0, 1.0))
            price = float(rng.uniform(0.0, 1.0))
            action = float(rng.uniform(0.0, 1.0))
            week = int(rng.integers(1, 53))
            cfg = EnvConfig(f_max=f_max)
            _, a_eff, spill, end, _ = step(week, storage, price, inflow, action, cfg)
            released = a_eff * f_max
            worst = max(worst, abs(end + spill + released - (storage + inflow)))
            if spill > 0.0 and end != 1.0:
                spill_violations += 1
        cpu, wall = time.process_time() - cpu0, time.perf_counter() - wall0
        report(
            2,
            worst < 1e-12 and spill_violations == 0 and cpu < 5.0,
            f"max imbalance {worst:.2e}, {spill_violations} spill violations, "
            f"10^5 steps in {cpu:.2f}s CPU ({wall:.2f}s wall)",
        )


class TestCriterion3Gradients:
    H = 1e-6
    RTOL = 1e-4

    @classmethod
    def _compare(cls, analytic, numeric, loss_scale):
        """Worst relative error over measurable entries, plus skip fraction.

        Central differences at step h carry round-off noise of roughly
        |loss| * eps / h, so a gradient smaller than noise / RTOL cannot be
        validated at RTOL by any implementation. Entries where analytic and
        numeric agree exactly (dead relu paths give exact zeros on both
        sides) count as matches; the remaining sub-resolution entries are
        skipped and reported.
        """
        noise = 10.0 * max(1.0, abs(loss_scale)) * np.finfo(float).eps / cls.H
        floor = noise / cls.RTOL
        exact = analytic == numeric
        denom = np.maximum(np.abs(analytic), np.abs(numeric))
        measurable = ~exact & (denom > floor)
        skipped = float((~exact & ~measurable).mean())
        if not measurable.any():
            return 0.0, skipped
        worst = float(
            np.max(np.abs(analytic - numeric)[measurable] / denom[measurable])
        )
        return worst, skipped

    @classmethod
    def _check_mlp(cls, widths, seed):
        # a healthy output scale keeps finite differences above round-off
        rng = np.random.default_rng(seed)
        net = mlp_init(widths, [RELU] * (len(widths) - 2) + [LINEAR], rng,
                       final_layer_bound=0.5)
        x = rng.random((1, widths[0]))
        loss_scale = float(net.forward(x)[0, 0])
        net.forward(x)
        net.backward(np.array([[1.0]]))
        analytic = net.grads.copy()
        h = cls.H
        fd = np.empty_like(analytic)
        i = 0
        for arr in net.parameters():
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = arr[idx]
                arr[idx] = orig + h
                fp = net.forward(x)[0, 0]
                arr[idx] = orig - h
                fm = net.forward(x)[0, 0]
                arr[idx] = orig
                fd[i] = (fp - fm) / (2 * h)
                i += 1
        return cls._compare(analytic, fd, loss_scale)

    @classmethod
    def _check_policy(cls, seed):
        # moderate head scale keeps the sampled pre-squash value in the
        # sigmoid's active region, where gradients stay measurable
        rng = np.random.default_rng(seed)
        pol = PolicyNet.init(5, 100, rng, head_bound=0.05)
        obs = rng.random((1, 5))
        noise = rng.standard_normal(1)
        c_action, c_log_prob = 0.8, -0.4

        class Fixed:
            def standard_normal(self, size):
                return noise.copy()

        def loss():
            a, lp, _ = pol.sample(obs, Fixed())
            return c_action * a[0] + c_log_prob * lp[0]

        pol.sample(obs, Fixed())
        pol.backward_sample(np.array([c_action]), np.array([c_log_prob]))
        analytic = pol.grads.copy()
        h = cls.H
        fd = np.empty_like(analytic)
        i = 0
        for arr in pol.parameters():
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = arr[idx]
                arr[idx] = orig + h
                fp = loss()
                arr[idx] = orig - h
                fm = loss()
                arr[idx] = orig
                fd[i] = (fp - fm) / (2 * h)
                i += 1
        return cls._compare(analytic, fd, loss())

    def test_all_network_families(self):
        t0 = time.perf_counter()
        worst = 0.0
        max_skipped = 0.0
        checks = (
            [([5, 100, 100, 100, 1], s) for s in (101, 102, 103)]  # value family
            + [([6, 100, 100, 100, 1], s) for s in (201, 202, 203)]  # soft Q family
        )
        for widths, seed in checks:
            err, skipped = self._check_mlp(widths, seed)
            worst = max(worst, err)
            max_skipped = max(max_skipped, skipped)
        for seed in (301, 302, 303):
            err, skipped = self._check_policy(seed)
            worst = max(worst, err)
            max_skipped = max(max_skipped, skipped)
        elapsed = time.perf_counter() - t0
        report(
            3,
            worst < self.RTOL and max_skipped < 0.05 and elapsed < 30.0,
            f"max rel err {worst:.2e} across 9 initializations in {elapsed:.1f}s "
            f"(at most {max_skipped:.2%} of parameters below finite-difference "
            f"resolution)",
        )


class TestCriterion4DensityNormalization:
    def test_squashed_density_integrates_to_one(self):
        worst = 0.0
        for mean, log_std in [(0.0, 0.0), (1.0, -1.0), (-2.0, 0.5)]:
            total, _ = quad(
                lambda a: float(np.exp(squashed_log_prob(mean, log_std, a))),
                0.0,
                1.0,
                limit=200,
            )
            worst = max(worst, abs(total - 1.0))
        report(4, worst <= 1e-3, f"max |integral - 1| = {worst:.2e}")


class TestCriterion5LearningProgress:
    def test_beats_random_and_constant_baselines(self, trained_run, baselines):
        agent_mean = trained_run["agent_mean"]
        rand = baselines["random_mean"]
        const = baselines["best_const_mean"]
        detail = (
            f"seed {trained_run['seed']} ({trained_run['attempt_count']} attempt(s), "
            f"{trained_run['train_seconds']:.0f}s train): agent {agent_mean:.0f} "
            f"vs random {rand:.0f} (x{agent_mean / rand:.2f}, need 1.30) "
            f"vs best const a={baselines['best_const_level']} {const:.0f} "
            f"(x{agent_mean / const:.2f}, need 1.05)"
        )
        report(5, trained_run["passed"], detail)

    def test_episode_rewards_rise_after_exploration(self, trained_run):
        # the training log itself must show the transition from random
        # exploration to policy-driven actions
        rewards = np.array([r.total_reward for r in trained_run["records"]])
        exploration_episodes = 10_000 // 52
        explore_mean = rewards[:exploration_episodes].mean()
        tail_mean = rewards[-max(1, len(rewards) // 10):].mean()
        assert tail_mean >= explore_mean, (
            f"last-10% mean {tail_mean:.0f} below exploration mean {explore_mean:.0f}"
        )


class TestPerfectForesightBound:
    def test_no_policy_beats_perfect_foresight(self, trained_run, baselines, artificial_pools):
        # pathwise: each evaluation episode scores at most its year's
        # perfect-foresight value (tests/oracles.py); ratios of means are
        # printed, not gated, as they move with the evaluation set
        env_cfg = trained_run["ckpt"].config.env
        bounds = perfect_foresight_bounds(artificial_pools, env_cfg, N_EVAL_EPISODES, EVAL_SEED)
        sdp = sdp_solve(artificial_pools.price_pool, artificial_pools.inflow_pool, env_cfg, 201)
        sdp_traces = evaluate_policy_fn(sdp_policy(sdp), artificial_pools, env_cfg,
                                        N_EVAL_EPISODES, EVAL_SEED)
        policies = {"SAC": trained_run["traces"], "random": baselines["random_traces"],
                    **{f"constant {a}": t for a, t in baselines["const_traces"].items()},
                    "SDP": sdp_traces}
        for label, traces in policies.items():
            assert_replayed(traces, artificial_pools, env_cfg, EVAL_SEED)
            assert_within_bounds(traces, bounds, label)
        sdp_mean = float(sdp_traces[:, -1, 6].mean())
        print(f"perfect-foresight bound: mean {bounds.mean():.1f} over {len(bounds)} episodes; "
              f"SAC scores {trained_run['agent_mean'] / bounds.mean():.3f} of it; "
              f"SDP (201 storages) scores {sdp_mean:.1f}, SAC/SDP "
              f"{trained_run['agent_mean'] / sdp_mean:.3f}")


class TestCriterion6PriceFollowing:
    def test_action_price_correlation(self, trained_run):
        traces = trained_run["traces"]
        prices = traces[:, :, 1].ravel()
        actions = traces[:, :, 3].ravel()
        corr = float(np.corrcoef(prices, actions)[0, 1])
        report(
            6,
            corr > 0.2,
            f"Pearson(action, price) = {corr:.3f} over {len(traces)} scenarios (need > 0.2)",
        )


class TestCriterion7TerminalWindow:
    def test_agent_ends_in_window_more_than_random(self, trained_run, baselines):
        def window_fraction(traces):
            ends = traces[:, -1, 4]
            return float(((ends >= 0.4) & (ends <= 0.6)).mean())

        agent_frac = window_fraction(trained_run["traces"])
        random_frac = window_fraction(baselines["random_traces"])
        report(
            7,
            agent_frac > random_frac,
            f"end-storage in [0.4, 0.6]: agent {agent_frac:.2f} vs random {random_frac:.2f}",
        )


class TestCriterion8Reproducibility:
    def test_identical_seeds_identical_logs_and_checkpoint_round_trip(
        self, artificial_pools, tmp_path
    ):
        cfg = TrainConfig(
            total_weeks=2080, exploration_weeks=520, batch_size=100, seed=31
        )
        logs = []
        ckpts = []
        for k in (0, 1):
            ckpt, records = train(cfg, artificial_pools)
            path = tmp_path / f"log{k}.csv"
            write_train_log(records, path)
            # every column except the wall-clock seconds must be byte-identical
            logs.append(
                "\n".join(
                    ",".join(line.split(",")[:-1])
                    for line in path.read_text().splitlines()
                )
            )
            ckpts.append(ckpt)
        logs_identical = logs[0] == logs[1]

        path = tmp_path / "ckpt.json"
        save_checkpoint(ckpts[0], path)
        loaded = load_checkpoint(path)
        a1 = ckpts[0].agent
        a2 = loaded.agent
        rng = np.random.default_rng(17)
        outputs_identical = all(
            a1.policy.mean_action(obs) == a2.policy.mean_action(obs)
            for obs in rng.random((100, 5))
        )
        report(
            8,
            logs_identical and outputs_identical,
            f"logs identical (timing column excluded): {logs_identical}; "
            f"round-trip policy outputs bit-identical on 100 obs: {outputs_identical}",
        )


class TestCriterion9Throughput:
    def test_desk_scale_training_speed(self, artificial_pools):
        cfg = TrainConfig(
            total_weeks=20_000, exploration_weeks=10_000, batch_size=100, seed=13
        )
        t0 = time.perf_counter()
        train(cfg, artificial_pools)
        elapsed = time.perf_counter() - t0
        projected_hours = elapsed / 20_000 * 300_000 / 3600
        report(
            9,
            elapsed < 300.0,
            f"20000 weeks in {elapsed:.0f}s (< 300s); full 300000-week default "
            f"projects to ~{projected_hours:.1f}h",
        )
