import hashlib
import json

import numpy as np
import pytest

from hydrosac import cli
from hydrosac import trainer as tr
from hydrosac.env import EnvConfig
from hydrosac.sac import SacConfig, TrainingAborted
from hydrosac.scenario import ArtificialConfig, Scenario, generate_artificial_pools, save_pools
from hydrosac.trainer import (
    Checkpoint,
    CheckpointError,
    TrainConfig,
    config_from_dict,
    constant_policy,
    evaluate,
    evaluate_policy_fn,
    load_checkpoint,
    play,
    random_policy,
    rollout,
    save_checkpoint,
    train,
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


VERSIONS = f"digests taken with numpy 2.4.6 and OpenBLAS 0.3.31; this is numpy {np.__version__}"


@pytest.fixture(scope="module")
def reference_run(tmp_path_factory):
    """Directory holding the fixed-seed reference run: ck.json, log.csv, pools.json."""
    path = tmp_path_factory.mktemp("reference")
    cfg = TrainConfig(total_weeks=2080, exploration_weeks=520, batch_size=100, seed=5,
                      include_replay_in_checkpoint=True)
    pools = generate_artificial_pools(ArtificialConfig(), seed=11)
    _, records = train(cfg, pools, checkpoint_path=path / "ck.json")
    write_train_log(records, path / "log.csv")
    save_pools(pools, path / "pools.json")
    return path


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
        cfg.agent.lr_q = 1e300  # drives the q losses non-finite within a few updates
        with np.errstate(invalid="ignore", over="ignore"):
            with pytest.raises(TrainingAborted) as exc_info:
                train(cfg, pools)
        assert exc_info.value.records is not None

    @pytest.mark.parametrize("total_weeks, rows", [(0, 0), (52, 52), (53, 104), (100, 104)])
    def test_replay_allocated_once_and_filled(self, total_weeks, rows, pools, monkeypatch):
        buffers = []

        class Recorded(tr.ReplayBuffer):
            def __init__(self, capacity):
                super().__init__(capacity)
                buffers.append(self)

        monkeypatch.setattr(tr, "ReplayBuffer", Recorded)
        cfg = small_cfg(total_weeks=total_weeks, exploration_weeks=min(52, total_weeks))
        ckpt, records = train(cfg, pools)
        [buf] = buffers
        assert ckpt.replay_size == len(buf) == rows == 52 * len(records)
        for name in ("obs", "actions", "rewards", "next_obs", "done"):
            assert len(getattr(buf, name)) == rows, name

    def test_rejects_bad_config(self, pools):
        with pytest.raises(ValueError):
            train(small_cfg(exploration_weeks=500, total_weeks=104), pools)

    def test_reference_run_byte_identical(self, reference_run):
        # A fixed-seed run whose training log (minus the wall-clock column)
        # and checkpoint must not change under a refactor.
        lines = (reference_run / "log.csv").read_text().splitlines()
        log_digest = hashlib.sha256(
            "\n".join(line.rsplit(",", 1)[0] for line in lines).encode()).hexdigest()
        ckpt_digest = hashlib.sha256((reference_run / "ck.json").read_bytes()).hexdigest()
        assert log_digest[:16] == "d0cb3dc5414d9587", f"training log changed ({VERSIONS})"
        assert ckpt_digest[:16] == "d082782616b397df", f"checkpoint changed ({VERSIONS})"

    def test_reference_checkpoint_serves_byte_identical(self, reference_run, tmp_path):
        # Training never takes the policy's mean action, so the digests above
        # cannot see the evaluation and planning path; these pin it.
        ck, pl = str(reference_run / "ck.json"), str(reference_run / "pools.json")
        runs = {
            "evaluate --deterministic": (
                ["evaluate", "--episodes", "20", "--deterministic", "--seed", "7"],
                "5bedcbd021516095"),
            "evaluate": (["evaluate", "--episodes", "20", "--seed", "7"], "d1d617d2a263a5bc"),
            "plan": (["plan", "--seed", "3"], "ad152137ceff7196"),
        }
        for i, (name, (argv, expected)) in enumerate(runs.items()):
            out = tmp_path / f"{i}.csv"
            assert cli.main(argv + ["--checkpoint", ck, "--pools", pl, "--out", str(out)]) == 0
            digest = hashlib.sha256(out.read_bytes()).hexdigest()
            assert digest[:16] == expected, f"{name} output changed ({VERSIONS})"

    def test_rejects_nonfinite_settings(self, pools):
        for cfg in (small_cfg(env=EnvConfig(k_price=float("nan"))),
                    small_cfg(env=EnvConfig(q_price=float("inf"))),
                    small_cfg(agent=SacConfig(hidden_width=12, lr_policy=float("nan")))):
            with pytest.raises(ValueError, match="must be finite"):
                train(cfg, pools)


class TestPlay:
    def test_weeks_chain(self, pools):
        rng = np.random.default_rng(0)
        scenario = tr.sample_scenario(pools, rng)
        weeks = list(play(random_policy, scenario, EnvConfig(), rng))
        assert [state.week for state, *_ in weeks] == list(range(1, 53))
        for (_, _, _, outcome, next_obs), (_, obs, *_) in zip(weeks, weeks[1:]):
            assert not outcome.done and next_obs is obs
        _, _, _, last, next_obs = weeks[-1]
        assert last.done and last.next_state is None
        assert np.array_equal(next_obs, np.zeros(5))

    def test_action_drawn_after_the_loop_body(self, pools):
        # the caller's use of rng for week w comes before week w+1's action draw
        bodies_done = []

        def action_fn(obs, rng):
            bodies_done.append(len(seen))
            return 0.5

        seen = []
        rng = np.random.default_rng(1)
        for _, _, action, _, _ in play(action_fn, tr.sample_scenario(pools, rng), EnvConfig(), rng):
            seen.append(action)
        assert bodies_done == list(range(52))
        assert seen == [0.5] * 52


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
        back = config_from_dict(TrainConfig, dataclasses.asdict(cfg), "train")
        assert back == cfg

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown keys"):
            config_from_dict(TrainConfig, {"bogus": 1}, "train")
        with pytest.raises(ValueError, match="unknown keys"):
            config_from_dict(TrainConfig, {"env": {"bogus": 1}}, "train")
        with pytest.raises(ValueError, match="unknown keys"):
            config_from_dict(TrainConfig, {"agent": {"bogus": 1}}, "train")

    @pytest.mark.parametrize("doc", [
        {"total_weeks": 104.0},
        {"total_weeks": "104"},
        {"seed": True},
        {"include_replay_in_checkpoint": 1},
        {"pools_path": 3},
        {"env": {"f_max": "abc"}},
        {"env": {"f_max": None}},
        {"env": {"terminal_price_rule": 1}},
        {"agent": {"alpha": False}},
        {"agent": []},
        {"env": "x"},
    ])
    def test_wrong_json_types_rejected(self, doc):
        with pytest.raises(ValueError, match="config"):
            config_from_dict(TrainConfig, doc, "train")

    def test_int_fits_float_field_and_stays_int(self):
        cfg = config_from_dict(TrainConfig, {"agent": {"alpha": 0}}, "train")
        assert cfg.agent.alpha == 0 and type(cfg.agent.alpha) is int
        assert config_from_dict(ArtificialConfig, {"r_max": 500}, "artificial").r_max == 500
