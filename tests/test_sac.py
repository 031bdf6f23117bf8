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
