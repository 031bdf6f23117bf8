import copy

import numpy as np
import pytest

from hydrosac import sac as sac_mod
from hydrosac.neural import LINEAR, RELU, mlp_init
from hydrosac.sac import (
    AgentBundle,
    LossReport,
    ReplayBuffer,
    SacConfig,
    TrainingAborted,
    compute_q_targets,
    polyak_update,
    update,
)
from test_neural import fd_gradients

OBS = np.linspace(0.1, 0.9, 5)
NEXT_OBS = np.linspace(0.2, 1.0, 5)


def transition(reward=1.0, done=False, action=0.5):
    """(obs, action, reward, next_obs, done), the arguments of ReplayBuffer.push."""
    return OBS.copy(), action, reward, NEXT_OBS.copy(), done


def small_agent(seed=0, **cfg_kwargs):
    cfg = SacConfig(hidden_width=16, **cfg_kwargs)
    return AgentBundle.init(cfg, np.random.default_rng(seed))


def batch_of(transitions):
    obs, actions, rewards, next_obs, done = zip(*transitions)
    return (
        np.array(obs),
        np.array(actions),
        np.array(rewards),
        np.array(next_obs),
        np.array([1.0 if d else 0.0 for d in done]),
    )


def snapshot(agent):
    return [p.copy() for p in (
        agent.policy.parameters()
        + agent.q1.parameters()
        + agent.q2.parameters()
        + agent.value.parameters()
        + agent.value_target.parameters()
    )]


@pytest.mark.parametrize("fields", [
    {"lr_value": 0.0, "lr_q": 0.0, "lr_policy": 0.0},
    {"rmsprop_rho": 0.0},
    {"log_std_min": 0.5, "log_std_max": 0.5},
], ids=["zero_rates", "rho_zero", "log_std_fixed"])
def test_config_edges_are_valid(fields):
    """The closed ends of validate's ranges; test_cli.py's exit-2 table has the rejections."""
    SacConfig(**fields).validate()


class TestReplayBuffer:
    def test_push_counts(self):
        buf = ReplayBuffer(3)
        for _ in range(3):
            buf.push(*transition())
        assert len(buf) == 3

    def test_million_pushes_all_retrievable(self):
        buf = ReplayBuffer(1_000_000)
        t = transition()
        for _ in range(1_000_000):
            buf.push(*t)
        assert len(buf) == 1_000_000
        assert buf.rewards[0] == 1.0
        assert buf.rewards[999_999] == 1.0

    def test_round_trip_bitwise(self):
        buf = ReplayBuffer(1)
        obs = np.array([0.1, 0.2, 0.3, 0.4, 0.5])
        next_obs = np.array([0.9, 0.8, 0.7, 0.6, 0.5])
        buf.push(obs, 0.123456789012345678, -7.25, next_obs, True)
        back = buf.export_arrays()
        assert np.array_equal(back["obs"], [obs])
        assert back["actions"][0] == 0.123456789012345678
        assert back["rewards"][0] == -7.25
        assert np.array_equal(back["next_obs"], [next_obs])
        assert back["done"][0] == 1.0

    def test_underfull_sampling_rejected(self):
        buf = ReplayBuffer(100)
        buf.push(*transition())
        with pytest.raises(ValueError, match="holds 1 transitions, need 100"):
            buf.sample_arrays(100, np.random.default_rng(0))

    def test_sampling_uniform(self):
        buf = ReplayBuffer(2)
        buf.push(*transition(reward=0.0))
        buf.push(*transition(reward=1.0))
        rng = np.random.default_rng(3)
        picks = [buf.sample_arrays(1, rng)[2][0] for _ in range(100_000)]
        assert abs(np.mean(picks) - 0.5) < 0.01

    def test_sampling_deterministic(self):
        buf = ReplayBuffer(50)
        for k in range(50):
            buf.push(*transition(reward=float(k)))
        b1 = buf.sample_arrays(10, np.random.default_rng(5))
        b2 = buf.sample_arrays(10, np.random.default_rng(5))
        for a, b in zip(b1, b2):
            assert np.array_equal(a, b)

    def test_push_past_capacity_raises_and_stores_nothing(self):
        buf = ReplayBuffer(2)
        buf.push(*transition(reward=1.0))
        buf.push(*transition(reward=2.0, done=True))
        before = buf.export_arrays()
        with pytest.raises(IndexError):
            buf.push(*transition(reward=3.0))
        assert len(buf) == 2
        after = buf.export_arrays()
        for name, rows in before.items():
            assert np.array_equal(after[name], rows), name

    def test_sampling_reads_only_pushed_rows(self):
        # rows past len(buf) are uninitialised; a draw must never reach them
        buf = ReplayBuffer(1000)
        buf.rewards[:] = np.nan
        for _ in range(5):
            buf.push(*transition(reward=4.0))
        rng = np.random.default_rng(1)
        rewards = np.concatenate([buf.sample_arrays(5, rng)[2] for _ in range(200)])
        assert np.all(rewards == 4.0)


class TestComputeQTargets:
    def test_done_masks_next_value(self):
        agent = small_agent()
        batch = batch_of([transition(reward=5.0, done=True)])
        targets = compute_q_targets(batch, agent.value_target, gamma=0.99)
        assert targets[0] == 5.0

    def test_hand_case(self):
        agent = small_agent()
        # force V_target(next) = 10 exactly
        for layer in agent.value_target.layers:
            layer.wt[...] = 0.0
            layer.bias[...] = 0.0
        agent.value_target.layers[-1].bias[...] = 10.0
        batch = batch_of([transition(reward=0.0, done=False)])
        targets = compute_q_targets(batch, agent.value_target, gamma=0.99)
        assert targets[0] == pytest.approx(9.9, rel=1e-12)

    def test_gamma_zero_is_myopic(self):
        agent = small_agent()
        batch = batch_of([transition(reward=3.5, done=False)])
        targets = compute_q_targets(batch, agent.value_target, gamma=0.0)
        assert targets[0] == 3.5


class TestPolyak:
    def test_tau_zero_identity(self):
        agent = small_agent()
        before = [p.copy() for p in agent.value_target.parameters()]
        polyak_update(agent.value_target, agent.value, tau=0.0)
        for a, b in zip(agent.value_target.parameters(), before):
            assert np.array_equal(a, b)

    def test_hand_value(self):
        rng = np.random.default_rng(0)
        target = mlp_init([2, 2], [LINEAR], rng)
        main = mlp_init([2, 2], [LINEAR], rng)
        target.layers[0].wt[...] = 1.0
        main.layers[0].wt[...] = 0.0
        polyak_update(target, main, tau=0.0006)
        assert np.all(target.layers[0].wt == pytest.approx(0.9994, rel=1e-12))

    def test_geometric_convergence(self):
        rng = np.random.default_rng(1)
        target = mlp_init([3, 2], [LINEAR], rng)
        main = mlp_init([3, 2], [LINEAR], rng)
        tau = 0.25
        gaps = []
        for _ in range(6):
            gaps.append(np.max(np.abs(target.layers[0].wt - main.layers[0].wt)))
            polyak_update(target, main, tau)
        for g0, g1 in zip(gaps, gaps[1:]):
            assert g1 == pytest.approx((1 - tau) * g0, rel=1e-9)

    def test_shape_mismatch_rejected(self):
        rng = np.random.default_rng(2)
        with pytest.raises(ValueError):
            polyak_update(
                mlp_init([3, 2], [LINEAR], rng), mlp_init([3, 3], [LINEAR], rng), 0.5
            )

    def test_matches_per_array_formula_bit_for_bit(self):
        rng = np.random.default_rng(3)
        widths, acts = [5, 9, 9, 1], [RELU, RELU, LINEAR]
        target = mlp_init(widths, acts, rng, final_layer_bound=0.5)
        main = mlp_init(widths, acts, rng, final_layer_bound=0.5)
        ref = [p.copy() for p in target.parameters()]
        for tau in (0.0006, 0.3, 0.0006, 1e-9):
            main.params += rng.standard_normal(main.params.size)
            polyak_update(target, main, tau)
            for t, m in zip(ref, main.parameters()):
                t *= 1.0 - tau
                t += tau * m
            for mine, theirs in zip(target.parameters(), ref):
                assert np.array_equal(mine, theirs)


class TestPolicyActions:
    def test_mean_action_of_zero_heads(self):
        agent = small_agent()
        for net in (agent.policy.mean_head, agent.policy.log_std_head):
            net.layers[0].wt[...] = 0.0
            net.layers[0].bias[...] = 0.0
        assert agent.policy.mean_action(OBS) == 0.5

    def test_sample_matches_mean_action_at_min_std(self):
        agent = small_agent(seed=5)
        agent.policy.log_std_head.layers[0].wt[...] = 0.0
        agent.policy.log_std_head.layers[0].bias[...] = -30.0  # clamp to -20
        rng = np.random.default_rng(6)
        det = agent.policy.mean_action(OBS)
        for _ in range(10):
            sto = agent.policy.sample(OBS, rng)[0]
            assert sto == pytest.approx(det, abs=1e-4)


class TestUpdate:
    def test_zero_lr_keeps_parameters(self):
        agent = small_agent(lr_value=0.0, lr_q=0.0, lr_policy=0.0)
        trainable = (
            agent.policy.parameters()
            + agent.q1.parameters()
            + agent.q2.parameters()
            + agent.value.parameters()
        )
        before = [p.copy() for p in trainable]
        target_before = [p.copy() for p in agent.value_target.parameters()]
        batch = batch_of([transition() for _ in range(8)])
        report = update(agent, batch, np.random.default_rng(0))
        assert report.finite()
        for a, b in zip(before, trainable):
            assert np.array_equal(a, b)
        # the Polyak step always rewrites the target as (1-tau)t + tau*m,
        # which costs at most an ulp when t == m
        for a, b in zip(target_before, agent.value_target.parameters()):
            assert np.allclose(a, b, rtol=1e-15, atol=0.0)

    def test_single_transition_contraction(self):
        # with alpha=0, gamma=0 the Q target is the fixed reward
        agent = small_agent(seed=7, alpha=0.0, gamma=0.0, lr_q=0.02)
        t = transition(reward=5.0, done=True)
        batch = batch_of([t] * 4)
        rng = np.random.default_rng(1)
        qa = np.concatenate([OBS, [t[1]]])  # t[1] is the action
        errors = []
        for _ in range(1000):
            update(agent, batch, rng)
            errors.append(abs(float(agent.q1.forward(qa)[0]) - 5.0))
        assert errors[-1] < 1e-2
        assert errors[-1] < errors[0]

    def test_tau_one_copies_value_into_target(self):
        agent = small_agent(seed=8, tau=1.0)
        batch = batch_of([transition() for _ in range(4)])
        update(agent, batch, np.random.default_rng(2))
        for t, m in zip(agent.value_target.parameters(), agent.value.parameters()):
            assert np.array_equal(t, m)

    def test_target_between_old_target_and_value(self):
        agent = small_agent(seed=9)
        batch = batch_of([transition(reward=3.0) for _ in range(4)])
        before_target = [p.copy() for p in agent.value_target.parameters()]
        update(agent, batch, np.random.default_rng(3))
        for old_t, new_t, v in zip(
            before_target,
            agent.value_target.parameters(),
            agent.value.parameters(),
        ):
            lo = np.minimum(old_t, v) - 1e-15
            hi = np.maximum(old_t, v) + 1e-15
            assert np.all(new_t >= lo) and np.all(new_t <= hi)

    def test_policy_step_isolated_from_q_optimizer(self):
        agent = small_agent(seed=10, lr_q=0.0, lr_value=0.0)
        batch = batch_of([transition() for _ in range(4)])
        policy_before = [p.copy() for p in agent.policy.parameters()]
        update(agent, batch, np.random.default_rng(4))
        # policy moved
        assert any(
            not np.array_equal(a, b)
            for a, b in zip(policy_before, agent.policy.parameters())
        )
        # q and value optimizer accumulators evolved independently of the
        # policy step: rerunning with a frozen policy leaves them identical
        agent2 = small_agent(seed=10, lr_q=0.0, lr_value=0.0, lr_policy=0.0)
        update(agent2, batch, np.random.default_rng(4))
        for name in ("opt_q1", "opt_q2", "opt_value"):
            assert np.array_equal(getattr(agent, name).acc, getattr(agent2, name).acc)

    def test_identical_q_networks_make_min_either(self):
        agent = small_agent(seed=11)
        agent.q2.params[...] = agent.q1.params
        batch = batch_of([transition() for _ in range(4)])
        qa = np.concatenate([batch[0], batch[1][:, None]], axis=1)
        q1_out = agent.q1.forward(qa)[:, 0]
        q2_out = agent.q2.forward(qa)[:, 0]
        assert np.array_equal(np.minimum(q1_out, q2_out), q1_out)
        report = update(agent, batch, np.random.default_rng(5))
        assert report.finite()

    def test_losses_finite_over_fuzzed_updates(self):
        agent = small_agent(seed=12)
        rng = np.random.default_rng(6)
        for _ in range(300):
            n = int(rng.integers(1, 32))
            batch = (
                rng.random((n, 5)),
                rng.uniform(0.01, 0.99, n),
                rng.uniform(-50, 600, n),
                rng.random((n, 5)),
                (rng.random(n) < 0.05).astype(float),
            )
            report = update(agent, batch, rng)
            assert report.finite()

    def test_nonfinite_loss_aborts(self):
        agent = small_agent(seed=13)
        batch = batch_of([transition(reward=float("nan"))])
        with pytest.raises(TrainingAborted):
            update(agent, batch, np.random.default_rng(7))

    def test_deep_copy_trains_like_the_original(self):
        """A deep copy binds its layer and accumulator views into vectors of its own,
        so an update steps the weights its forward reads, as on the original."""
        agent = small_agent(seed=15)
        update(agent, batch_of([transition() for _ in range(4)]), np.random.default_rng(9))
        clone = copy.deepcopy(agent)
        for net in clone.networks().values():
            for layer in net.layers:
                assert np.shares_memory(layer.wt, net.params)
                assert np.shares_memory(layer.bias, net.params)
        for head in (clone.policy.trunk, clone.policy.mean_head, clone.policy.log_std_head):
            assert np.shares_memory(head.params, clone.policy.params)
        for opt in clone.optimizers().values():
            for acc in opt.arrays:
                assert np.shares_memory(acc, opt.acc)
        assert not np.shares_memory(clone.q1.params, agent.q1.params)
        rng = np.random.default_rng(10)
        batch = (rng.random((16, 5)), rng.uniform(0.01, 0.99, 16), rng.uniform(-50, 600, 16),
                 rng.random((16, 5)), np.zeros(16))
        rng_agent, rng_clone = np.random.default_rng(11), np.random.default_rng(11)
        for _ in range(3):
            assert update(agent, batch, rng_agent) == update(clone, batch, rng_clone)
        bits = lambda a: a.view(np.int64)
        for name, net in agent.networks().items():
            assert np.array_equal(bits(net.params), bits(clone.networks()[name].params)), name
        for name, opt in agent.optimizers().items():
            assert np.array_equal(bits(opt.acc), bits(clone.optimizers()[name].acc)), name
        assert agent.policy.mean_action(OBS) == clone.policy.mean_action(OBS)

    def test_report_fields(self):
        agent = small_agent(seed=14)
        report = update(
            agent, batch_of([transition() for _ in range(4)]), np.random.default_rng(8)
        )
        assert isinstance(report, LossReport)
        for v in (report.q1_loss, report.q2_loss, report.value_loss):
            assert v >= 0.0
        assert np.isfinite(report.policy_loss)
        assert np.isfinite(report.mean_log_prob)


class TestLossGradients:
    """The gradient each of update()'s four RMSprop steps receives equals central
    finite differences of that step's documented loss, at the parameters it sees.

    The losses are written out here from the soft actor-critic definitions,
    with their own squash and clamp, using only the networks' forward passes:
    - Q_k: mean (Q_k(obs, a) - y)^2 with y = r + gamma (1 - done) V_target(next_obs) fixed;
    - V: mean (V(obs) - t)^2 with t = min(Q1, Q2)(obs, a~) - alpha log pi(a~) fixed, where
      a~ is the fresh sample and the Qs are the stepped ones;
    - policy: mean (alpha log pi(a~) - min(Q1, Q2)(obs, a~)) with the noise fixed.
    The batch sends some rows to each Q and a wide head scale with a narrow
    log-std range clamps some rows' log-std, so the min routing, the clamp
    mask and g_log_pi = alpha / n are all on the path; the test asserts both.
    """

    N = 10

    def run_update(self, monkeypatch, seed):
        cfg = SacConfig(hidden_width=6, init_bound=1.0, gamma=0.9, alpha=0.3,
                        log_std_min=-0.4, log_std_max=0.4)
        agent = AgentBundle.init(cfg, np.random.default_rng(seed))
        # observations far outside [0, 1] and equal output biases make the
        # two Qs cross between rows
        agent.q2.layers[-1].bias[...] = agent.q1.layers[-1].bias
        rng = np.random.default_rng(seed + 1)
        batch = (rng.normal(0.0, 5.0, (self.N, 5)), rng.uniform(0.05, 0.95, self.N),
                 rng.uniform(-1.0, 2.0, self.N), rng.random((self.N, 5)),
                 (rng.random(self.N) < 0.3).astype(float))
        steps = []
        step = sac_mod.rmsprop_step

        def recording(params, grads, state, lr):
            steps.append((state, grads.copy(), copy.deepcopy(agent)))
            step(params, grads, state, lr)

        monkeypatch.setattr(sac_mod, "rmsprop_step", recording)
        update(agent, batch, np.random.default_rng(seed + 2))
        noise = np.random.default_rng(seed + 2).standard_normal(self.N)  # sample()'s draw
        assert [s for s, _, _ in steps] == [agent.opt_q1, agent.opt_q2, agent.opt_value,
                                            agent.opt_policy]
        return cfg, batch, noise, [(g, snap) for _, g, snap in steps]

    @staticmethod
    def squash(policy, obs, noise, cfg):
        h = policy.trunk.forward(obs)
        mean = policy.mean_head.forward(h)[:, 0]
        raw = policy.log_std_head.forward(h)[:, 0]
        log_std = np.clip(raw, cfg.log_std_min, cfg.log_std_max)
        action = 1.0 / (1.0 + np.exp(-(mean + np.exp(log_std) * noise)))
        log_pi = (-0.5 * noise ** 2 - log_std - 0.5 * np.log(2.0 * np.pi)
                  - np.log(action * (1.0 - action) + cfg.squash_prob_floor))
        return action, log_pi, raw

    @staticmethod
    def min_q(agent, obs, action):
        qa = np.concatenate([obs, action[:, None]], axis=1)
        return np.minimum(agent.q1.forward(qa)[:, 0], agent.q2.forward(qa)[:, 0])

    @staticmethod
    def assert_close(analytic, params, loss):
        numeric = fd_gradients([params], loss)[0]
        assert np.abs(numeric).max() > 1e-3  # the loss depends on these parameters
        error = np.abs(analytic - numeric).max()
        assert np.allclose(analytic, numeric, rtol=1e-5, atol=1e-8), error

    @pytest.mark.parametrize("seed", [0, 2, 3])
    def test_each_step_gets_the_gradient_of_its_loss(self, monkeypatch, seed):
        cfg, (obs, actions, rewards, next_obs, done), noise, steps = \
            self.run_update(monkeypatch, seed)
        (g_q1, at_q1), (g_q2, at_q2), (g_v, at_v), (g_pi, at_pi) = steps

        y = rewards + cfg.gamma * (1.0 - done) * at_q1.value_target.forward(next_obs)[:, 0]
        qa = np.concatenate([obs, actions[:, None]], axis=1)
        for grads, snap, name in ((g_q1, at_q1, "q1"), (g_q2, at_q2, "q2")):
            net = getattr(snap, name)
            self.assert_close(grads, net.params,
                              lambda: np.mean((net.forward(qa)[:, 0] - y) ** 2))

        action, log_pi, raw = self.squash(at_v.policy, obs, noise, cfg)
        t = self.min_q(at_v, obs, action) - cfg.alpha * log_pi
        self.assert_close(g_v, at_v.value.params,
                          lambda: np.mean((at_v.value.forward(obs)[:, 0] - t) ** 2))

        def policy_loss():
            a, lp, _ = self.squash(at_pi.policy, obs, noise, cfg)
            return np.mean(cfg.alpha * lp - self.min_q(at_pi, obs, a))

        self.assert_close(g_pi, at_pi.policy.params, policy_loss)
        # the cases this test exists for are all present
        clamped = (raw < cfg.log_std_min) | (raw > cfg.log_std_max)
        assert clamped.any() and not clamped.all()
        qa_new = np.concatenate([obs, action[:, None]], axis=1)
        pick_q1 = at_pi.q1.forward(qa_new)[:, 0] <= at_pi.q2.forward(qa_new)[:, 0]
        assert pick_q1.any() and not pick_q1.all()


def bandit_soft_value(mean, log_std, c, alpha, prob_floor):
    """E[c * a - alpha * log pi(a)] for a = sigmoid(mean + exp(log_std) * eps), eps ~ N(0, 1),
    with log pi the squashed-Gaussian log density the policy uses (floor included)."""
    from scipy import integrate

    from hydrosac.neural import LOG_2PI

    std = np.exp(log_std)

    def integrand(eps):
        a = 1.0 / (1.0 + np.exp(-(mean + std * eps)))
        log_pi = -0.5 * eps * eps - log_std - 0.5 * LOG_2PI - np.log(a * (1.0 - a) + prob_floor)
        return (c * a - alpha * log_pi) * np.exp(-0.5 * eps * eps - 0.5 * LOG_2PI)

    return integrate.quad(integrand, -12.0, 12.0, epsabs=1e-11, epsrel=1e-11, limit=200)[0]


def bandit_optimum(c, alpha, prob_floor):
    """(mean*, log_std*, V*) of the squashed-Gaussian family on the one-state bandit."""
    from scipy import optimize

    res = optimize.minimize(lambda x: -bandit_soft_value(x[0], x[1], c, alpha, prob_floor),
                            [0.0, 0.0], method="Nelder-Mead",
                            options={"xatol": 1e-7, "fatol": 1e-10, "maxiter": 4000})
    assert res.success, res.message
    return res.x[0], res.x[1], -res.fun


class TestSoftOptimalBandit:
    """sac.update on a one-state bandit converges to SAC's known fixed point.

    With gamma = 0, one constant observation, uniform actions a and reward
    c * a, Q converges to c * a, and the policy maximises c * E[a] +
    alpha * H(pi) over the squashed Gaussians: a function of (mean, log_std)
    alone, so quad over the noise and Nelder-Mead give mean*, log_std* and
    the soft value V*, apart from any network. No environment and no replay
    buffer: each update gets a fresh batch.

    Tolerance rule, for each of mean, log_std and V: the mean over the last
    WINDOW updates (read every READ_EVERY) must lie within 3 standard
    deviations of those reads plus 1% of (1 + |oracle value|) of the
    oracle. The sd covers the updates' own noise; the floor covers the
    bias that a width-8 network and a finite run leave. At seeds 0, 1 and
    2 the largest miss was 0.058 on mean (c = 2.0, bound 0.156), and
    V stayed within 0.023 of V*.
    """

    UPDATES = 6000
    WINDOW = 2000
    READ_EVERY = 20
    BATCH = 100

    @pytest.mark.parametrize("c, alpha", [(-0.5, 0.5), (2.0, 0.1)])
    def test_learned_policy_and_value_match_the_oracle(self, c, alpha):
        lr = 1e-3
        cfg = SacConfig(hidden_width=8, gamma=0.0, alpha=alpha, lr_value=lr, lr_q=lr,
                        lr_policy=lr)
        rng = np.random.default_rng(0)
        agent = AgentBundle.init(cfg, rng)
        obs = np.full((self.BATCH, 5), 0.5)
        done = np.zeros(self.BATCH)
        reads = []
        for k in range(1, self.UPDATES + 1):
            actions = rng.random(self.BATCH)
            update(agent, (obs, actions, c * actions, obs, done), rng)
            if k > self.UPDATES - self.WINDOW and k % self.READ_EVERY == 0:
                mean, log_std = agent.policy.forward(obs[:1])
                reads.append((mean[0], log_std[0], agent.value.forward(obs[:1])[0, 0]))
        learned, sd = np.mean(reads, axis=0), np.std(reads, axis=0)
        oracle = np.array(bandit_optimum(c, alpha, cfg.squash_prob_floor))
        tolerance = 3.0 * sd + 0.01 * (1.0 + np.abs(oracle))
        for name, got, want, tol in zip(("mean", "log_std", "V"), learned, oracle, tolerance):
            assert abs(got - want) <= tol, (
                f"{name}: learned {got:.4f}, oracle {want:.4f} (tol {tol:.4f})")

    def test_oracle_matches_the_closed_form_without_a_policy_choice(self):
        # alpha = 0 and c = 0 leave nothing to choose: V = 0 whatever the policy
        assert bandit_soft_value(0.3, -0.2, 0.0, 0.0, 3e-6) == 0.0
        # with c only, V is c * E[a], and E[sigmoid(eps)] = 1/2 by symmetry
        assert bandit_soft_value(0.0, 0.0, 2.0, 0.0, 3e-6) == pytest.approx(1.0, abs=1e-10)
