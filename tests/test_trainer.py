import hashlib
import json

import numpy as np
import pytest

from hydrosac import trainer as tr
from hydrosac.env import EnvConfig
from hydrosac.sac import SacConfig, TrainingAborted
from hydrosac.scenario import ArtificialConfig, Scenario, generate_artificial_pools
from hydrosac.trainer import (
    Checkpoint,
    CheckpointError,
    TrainConfig,
    constant_policy,
    evaluate,
    evaluate_policy_fn,
    load_checkpoint,
    random_policy,
    rollout,
    save_checkpoint,
    train,
    train_config_from_dict,
    write_eval_csv,
    write_train_log,
)


def small_cfg(**kwargs):
    defaults = dict(
        total_weeks=208,
        exploration_weeks=52,
        batch_size=20,
        seed=123,
        agent=SacConfig(hidden_width=12),
    )
    defaults.update(kwargs)
    return TrainConfig(**defaults)


@pytest.fixture(scope="module")
def pools():
    return generate_artificial_pools(ArtificialConfig(samples_per_week=10), seed=17)


@pytest.fixture(scope="module")
def trained(pools):
    cfg = small_cfg()
    ckpt, records = train(cfg, pools)
    return cfg, ckpt, records


def params_digest(ckpt):
    h = hashlib.sha256()
    for name in sorted(ckpt.networks):
        for w, b, act in ckpt.networks[name]:
            h.update(w.tobytes())
            h.update(b.tobytes())
            h.update(act.encode())
    return h.hexdigest()


class TestTrain:
    def test_episode_count(self, pools):
        cfg = small_cfg(total_weeks=104, exploration_weeks=104)
        _, records = train(cfg, pools)
        assert len(records) == 2
        assert [r.episode for r in records] == [0, 1]

    def test_pure_exploration_leaves_parameters_initial(self, pools):
        cfg = small_cfg(total_weeks=104, exploration_weeks=104, seed=9)
        ckpt, _ = train(cfg, pools)
        from hydrosac.sac import AgentBundle

        fresh = AgentBundle.init(cfg.agent, np.random.default_rng(cfg.seed))
        trained_agent = ckpt.restore_agent()
        for a, b in zip(fresh.policy.parameters(), trained_agent.policy.parameters()):
            assert np.array_equal(a, b)
        for a, b in zip(fresh.q1.parameters(), trained_agent.q1.parameters()):
            assert np.array_equal(a, b)

    def test_same_seed_identical_records(self, pools):
        cfg = small_cfg()
        _, r1 = train(cfg, pools)
        _, r2 = train(cfg, pools)
        assert len(r1) == len(r2)
        for a, b in zip(r1, r2):
            assert a.episode == b.episode
            assert a.total_reward == b.total_reward
            assert a.terminal_bonus == b.terminal_bonus
            assert a.end_storage == b.end_storage
            assert a.total_spill == b.total_spill
            assert a.mean_action == b.mean_action

    def test_records_are_consistent(self, trained):
        _, _, records = trained
        for r in records:
            assert r.total_spill >= 0.0
            assert 0.0 <= r.end_storage <= 1.0
            assert 0.0 <= r.mean_action <= 1.0
            assert r.seconds > 0.0

    def test_periodic_checkpointing(self, pools, tmp_path):
        path = tmp_path / "ck.json"
        cfg = small_cfg(total_weeks=156, exploration_weeks=156, checkpoint_every_episodes=2)
        train(cfg, pools, checkpoint_path=path)
        assert path.exists()
        assert load_checkpoint(path).episode == 3

    def test_failed_periodic_save_keeps_previous_checkpoint(self, pools, tmp_path, monkeypatch):
        path = tmp_path / "ck.json"
        cfg = small_cfg(total_weeks=156, exploration_weeks=156, checkpoint_every_episodes=1)
        real_dump = json.dump
        on_disk = []  # the checkpoint file's bytes as each save starts

        def dump_then_fail_on_second_save(doc, fh):
            on_disk.append(path.read_bytes() if path.exists() else None)
            if len(on_disk) == 1:
                return real_dump(doc, fh)
            fh.write(json.dumps(doc)[:1000])  # a partial document, then the failure
            raise OSError("disk full")

        monkeypatch.setattr(json, "dump", dump_then_fail_on_second_save)
        with pytest.raises(OSError, match="disk full"):
            train(cfg, pools, checkpoint_path=path)
        monkeypatch.undo()
        first = on_disk[1]
        assert first is not None and path.read_bytes() == first
        assert [p.name for p in tmp_path.iterdir()] == ["ck.json"]
        loaded = load_checkpoint(path)
        assert loaded.episode == 1
        again = tmp_path / "again.json"
        save_checkpoint(loaded, again)
        assert again.read_bytes() == first

    def test_nonfinite_abort_keeps_partial_records(self, pools):
        cfg = small_cfg(total_weeks=208, exploration_weeks=0, seed=5)
        cfg.agent.lr_q = float("inf")  # drives the next q loss non-finite
        with np.errstate(invalid="ignore"):
            with pytest.raises(TrainingAborted) as exc_info:
                train(cfg, pools)
        assert exc_info.value.records is not None

    def test_rejects_bad_config(self, pools):
        with pytest.raises(ValueError):
            train(small_cfg(exploration_weeks=500, total_weeks=104), pools)


class TestCheckpointRoundTrip:
    def test_policy_outputs_bit_identical(self, trained, tmp_path):
        _, ckpt, _ = trained
        path = tmp_path / "ck.json"
        save_checkpoint(ckpt, path)
        loaded = load_checkpoint(path)
        a1 = ckpt.restore_agent()
        a2 = loaded.restore_agent()
        rng = np.random.default_rng(0)
        for _ in range(100):
            obs = rng.random(5)
            assert a1.policy.mean_action(obs) == a2.policy.mean_action(obs)

    def test_all_values_lossless(self, trained, tmp_path):
        _, ckpt, _ = trained
        path = tmp_path / "ck.json"
        save_checkpoint(ckpt, path)
        loaded = load_checkpoint(path)
        for name in ckpt.networks:
            for (w1, b1, act1), (w2, b2, act2) in zip(ckpt.networks[name], loaded.networks[name]):
                assert np.array_equal(w1, w2)
                assert np.array_equal(b1, b2)
                assert act1 == act2
        for name in ckpt.optimizer_states:
            for a1, a2 in zip(ckpt.optimizer_states[name], loaded.optimizer_states[name]):
                assert np.array_equal(a1, a2)
        assert loaded.rng_state == ckpt.rng_state
        assert loaded.episode == ckpt.episode
        assert loaded.replay_size == ckpt.replay_size

    def test_config_echo_round_trips(self, trained, tmp_path):
        cfg, ckpt, _ = trained
        path = tmp_path / "ck.json"
        save_checkpoint(ckpt, path)
        loaded = load_checkpoint(path)
        assert loaded.config == cfg

    def test_numbers_serialized_as_strings(self, trained, tmp_path):
        _, ckpt, _ = trained
        path = tmp_path / "ck.json"
        save_checkpoint(ckpt, path)
        doc = json.loads(path.read_text())
        layer = doc["networks"]["value"][0]
        assert isinstance(layer["weights"][0], str)
        assert isinstance(layer["bias"][0], str)
        assert set(layer) == {"rows", "cols", "weights", "bias", "activation"}

    def test_truncated_file_rejected(self, trained, tmp_path):
        _, ckpt, _ = trained
        path = tmp_path / "ck.json"
        save_checkpoint(ckpt, path)
        text = path.read_text()
        path.write_text(text[: len(text) // 2])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_version_mismatch_rejected(self, trained, tmp_path):
        _, ckpt, _ = trained
        path = tmp_path / "ck.json"
        save_checkpoint(ckpt, path)
        doc = json.loads(path.read_text())
        doc["version"] = 99
        path.write_text(json.dumps(doc))
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(path)

    def test_shape_tampering_rejected(self, trained, tmp_path):
        _, ckpt, _ = trained
        path = tmp_path / "ck.json"
        save_checkpoint(ckpt, path)
        doc = json.loads(path.read_text())
        doc["networks"]["value"][0]["rows"] = 3
        path.write_text(json.dumps(doc))
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_replay_included_when_enabled(self, pools, tmp_path):
        cfg = small_cfg(total_weeks=104, exploration_weeks=104, include_replay_in_checkpoint=True)
        ckpt, _ = train(cfg, pools)
        assert ckpt.replay is not None
        assert ckpt.replay_size == 104
        path = tmp_path / "ck.json"
        save_checkpoint(ckpt, path)
        loaded = load_checkpoint(path)
        assert np.array_equal(loaded.replay["obs"], ckpt.replay["obs"])

    def test_replay_excluded_by_default(self, trained):
        _, ckpt, _ = trained
        assert ckpt.replay is None
        assert ckpt.replay_size == 208


class TestEvaluate:
    def test_deterministic_repeatable(self, trained, pools):
        _, ckpt, _ = trained
        r1 = evaluate(ckpt, pools, 3, True, seed=4)
        r2 = evaluate(ckpt, pools, 3, True, seed=4)
        for e1, e2 in zip(r1.episodes, r2.episodes):
            assert e1.total_reward == e2.total_reward
            assert np.array_equal(e1.trace, e2.trace)

    def test_trace_shape_and_count(self, trained, pools):
        _, ckpt, _ = trained
        report = evaluate(ckpt, pools, 5, True, seed=1)
        assert len(report.episodes) == 5
        for ep in report.episodes:
            assert ep.trace.shape == (52, 8)
            assert np.array_equal(ep.trace[:, 0], np.arange(1, 53))

    def test_accumulated_reward_is_prefix_sum(self, trained, pools):
        _, ckpt, _ = trained
        report = evaluate(ckpt, pools, 3, True, seed=2)
        for ep in report.episodes:
            assert np.array_equal(ep.trace[:, 6], np.cumsum(ep.trace[:, 5]))

    def test_stochastic_differs_across_seeds(self, trained, pools):
        _, ckpt, _ = trained
        r1 = evaluate(ckpt, pools, 2, False, seed=1)
        r2 = evaluate(ckpt, pools, 2, False, seed=99)
        assert not np.array_equal(r1.episodes[0].trace, r2.episodes[0].trace)

    def test_does_not_mutate_checkpoint(self, trained, pools):
        _, ckpt, _ = trained
        before = params_digest(ckpt)
        evaluate(ckpt, pools, 3, False, seed=3)
        assert params_digest(ckpt) == before

    def test_zero_policy_constant_price_oracle(self):
        # hand oracle: zeroed policy emits 0.5; with constant price y, no
        # inflow, and a fixed 0.5 start the whole 0.5*r_max of water sells
        # at y, so the total is 0.5 * r_max * y = 400
        env_cfg = EnvConfig(
            init_low=0.5, init_high=0.5,
            terminal_low=0.0, terminal_high=0.0,  # window never pays
        )
        scn = Scenario(prices=np.full(52, 0.8), inflows=np.zeros(52))
        total, trace = rollout(
            constant_policy(0.5), scn, env_cfg, np.random.default_rng(0)
        )
        assert total == pytest.approx(0.5 * 1000.0 * 0.8, rel=1e-9)
        # weeks with ample storage earn exactly 0.5 * f_max * r_max * y
        assert trace[0, 5] == pytest.approx(0.5 * 0.03 * 1000.0 * 0.8, rel=1e-12)

    def test_policy_fn_harness_uses_same_scenarios(self, pools):
        env_cfg = EnvConfig()
        r1 = evaluate_policy_fn(constant_policy(0.3), pools, env_cfg, 4, seed=11)
        r2 = evaluate_policy_fn(random_policy, pools, env_cfg, 4, seed=11)
        for e1, e2 in zip(r1.episodes, r2.episodes):
            assert np.array_equal(e1.trace[:, 1], e2.trace[:, 1])  # prices
            assert np.array_equal(e1.trace[:, 2], e2.trace[:, 2])  # inflows


class TestCsvWriters:
    def test_train_log_format(self, trained, tmp_path):
        _, _, records = trained
        path = tmp_path / "log.csv"
        write_train_log(records, path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == tr.TRAIN_LOG_HEADER
        assert len(lines) == len(records) + 1
        first = lines[1].split(",")
        assert int(first[0]) == 0
        assert float(first[1]) == records[0].total_reward

    def test_eval_csv_format(self, trained, pools, tmp_path):
        _, ckpt, _ = trained
        report = evaluate(ckpt, pools, 2, True, seed=5)
        path = tmp_path / "eval.csv"
        write_eval_csv(report, path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == tr.EVAL_HEADER
        assert len(lines) == 2 * 52 + 1
        row = lines[1].split(",")
        assert row[:2] == ["0", "1"]
        assert len(row) == 8


class TestConfigDict:
    def test_round_trip(self):
        import dataclasses

        cfg = small_cfg(env=EnvConfig(f_max=0.1))
        back = train_config_from_dict(dataclasses.asdict(cfg))
        assert back == cfg

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown keys"):
            train_config_from_dict({"bogus": 1})
        with pytest.raises(ValueError, match="unknown keys"):
            train_config_from_dict({"env": {"bogus": 1}})
        with pytest.raises(ValueError, match="unknown keys"):
            train_config_from_dict({"agent": {"bogus": 1}})
