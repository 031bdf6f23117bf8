import copy
import dataclasses
import hashlib
import io
import json
import os
import stat
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hydrosac
from hydrosac import cli
from hydrosac import env
from hydrosac import scenario as sc
from hydrosac import trainer as tr
from hydrosac.env import EnvConfig, UsageError
from hydrosac.sac import SacConfig, TrainingAborted, update
from hydrosac.scenario import ArtificialConfig, Scenario, generate_artificial_pools
from hydrosac.trainer import (
    Checkpoint,
    CheckpointError,
    TrainConfig,
    config_from_dict,
    evaluate,
    evaluate_policy_fn,
    load_checkpoint,
    rollout,
    save_checkpoint,
    train,
    write_eval_csv,
    write_train_log,
)
from oracles import constant_policy, random_policy, scalar_year
import reference


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


def kernel_set():
    """Failure note of a digest test: the digests hold for one kernel set, not one version."""
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"].get("version")
    return ("digests taken with numpy 2.4.6 (exp X86_V4, log X86_V4, power X86_V4) and "
            "OpenBLAS 0.3.31 (core SkylakeX); this is numpy "
            f"{np.__version__} ({reference.numpy_dispatch()}) and OpenBLAS {blas} "
            f"(core {reference.blas_core()})")


@pytest.fixture(scope="module")
def reference_run(tmp_path_factory):
    """Directory holding the fixed-seed reference run: ck.json, log.csv, pools.json."""
    path = tmp_path_factory.mktemp("reference")
    reference.train_reference(path)
    return path


def params_digest(ckpt):
    h = hashlib.sha256()
    networks = ckpt.agent.networks()
    for name in sorted(networks):
        for layer in networks[name].layers:
            h.update(layer.weight.tobytes())
            h.update(layer.bias.tobytes())
            h.update(layer.activation.encode())
    return h.hexdigest()


def bits(a):
    return np.asarray(a, dtype=float).view(np.uint64)


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
        trained_agent = ckpt.agent
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

    def test_last_checkpoint_saved_once(self, pools, tmp_path, monkeypatch):
        path = tmp_path / "ck.json"
        saved = []  # (episode, file bytes) of each save

        def recorded_save(ckpt, path):
            save_checkpoint(ckpt, path)
            saved.append((ckpt.episode, path.read_bytes()))

        cfg = small_cfg(total_weeks=156, exploration_weeks=100, checkpoint_every_episodes=1)
        monkeypatch.setattr(tr, "save_checkpoint", recorded_save)
        ckpt, _ = train(cfg, pools, checkpoint_path=path)
        assert [episode for episode, _ in saved] == [1, 2, 3]
        # the file holds the returned checkpoint, as the last save wrote it
        save_checkpoint(ckpt, tmp_path / "returned.json")
        assert path.read_bytes() == saved[-1][1] == (tmp_path / "returned.json").read_bytes()

    def test_replay_chains_each_year(self, pools):
        # exploration ends inside the second year and two more years learn
        cfg = small_cfg(total_weeks=208, exploration_weeks=70, include_replay_in_checkpoint=True)
        ckpt, _ = train(cfg, pools)
        replay = {name: a.reshape(4, 52, -1) for name, a in ckpt.replay.items()}
        obs, next_obs, done = replay["obs"], replay["next_obs"], replay["done"]
        assert np.array_equal(bits(next_obs[:, :-1]), bits(obs[:, 1:]))
        assert np.array_equal(done[:, :, 0], np.tile([0.0] * 51 + [1.0], (4, 1)))
        assert np.array_equal(bits(next_obs[:, -1]), bits(np.zeros((4, 5))))
        assert np.array_equal(bits(obs[:, :, 0]), bits(np.tile(np.arange(1, 53) / 52, (4, 1))))

    def test_failed_periodic_save_keeps_previous_checkpoint(self, pools, tmp_path, monkeypatch):
        path = tmp_path / "ck.json"
        cfg = small_cfg(total_weeks=156, exploration_weeks=156, checkpoint_every_episodes=1)
        on_disk = []  # the checkpoint file's bytes as each save opens its temporary file

        def fail_after(write, room):
            """`write` until `room` characters are written, then the rest of the room and a failure."""
            def partial_write(text):
                nonlocal room
                if len(text) > room:
                    write(text[:room])  # a partial document, then the failure
                    raise OSError("disk full")
                room -= len(text)
                return write(text)
            return partial_write

        def open_failing_second_save(file, mode="r", *args, **kwargs):
            fh = open(file, mode, *args, **kwargs)
            if "w" in mode:
                on_disk.append(path.read_bytes() if path.exists() else None)
                if len(on_disk) == 2:
                    fh.write = fail_after(fh.write, 1000)
            return fh

        # every output file is written by the one shared writer in hydrosac.scenario
        monkeypatch.setattr(sc, "open", open_failing_second_save, raising=False)
        with pytest.raises(OSError, match="disk full"):
            train(cfg, pools, checkpoint_path=path)
        monkeypatch.undo()
        assert len(on_disk) == 2
        first = on_disk[1]
        assert first is not None and len(first) > 1000 and path.read_bytes() == first
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

    def test_nan_policy_sample_aborts_with_the_last_report(self, pools, monkeypatch):
        # a policy step with a huge rate leaves non-finite weights behind finite
        # losses; the next week's one-row sample is NaN
        reports = []

        def recorded(*args):
            reports.append(update(*args))
            return reports[-1]

        monkeypatch.setattr(tr, "update", recorded)
        cfg = small_cfg(total_weeks=208, exploration_weeks=52)
        cfg.agent.lr_policy = 1e300
        with np.errstate(invalid="ignore", over="ignore"):
            with pytest.raises(TrainingAborted, match="non-finite action from the policy") as e:
                train(cfg, pools)
        assert [r.episode for r in e.value.records] == [0]  # the exploration year
        assert reports and e.value.report is reports[-1] and e.value.report.finite()

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
        log_digest = reference.log_digest(reference_run)
        ckpt_digest = reference.checkpoint_digest(reference_run)
        assert log_digest == "d0cb3dc5414d9587", f"training log changed: {kernel_set()}"
        assert ckpt_digest == "d082782616b397df", f"checkpoint changed: {kernel_set()}"

    def test_reference_checkpoint_serves_byte_identical(self, reference_run, tmp_path):
        # Training never takes the policy's mean action, so the digests above
        # cannot see the evaluation and planning path; these pin it.
        expected = {"evaluate --deterministic": "5bedcbd021516095",
                    "evaluate": "d1d617d2a263a5bc", "plan": "ad152137ceff7196"}
        digests = reference.serve_digests(reference_run, tmp_path)
        for name, digest in expected.items():
            assert digests[name] == digest, f"{name} output changed: {kernel_set()}"

    def test_reference_run_byte_identical_on_the_avx2_kernel_set(self, tmp_path):
        # The same run and serve commands under a second kernel set: OpenBLAS's
        # Haswell core and numpy's AVX2 (X86_V3) loops. The settings act on a
        # child process only, so this process keeps its own kernel set.
        path = [str(Path(hydrosac.__file__).resolve().parent.parent), os.environ.get("PYTHONPATH")]
        child_env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path)),
                     "OPENBLAS_CORETYPE": "Haswell", "OPENBLAS_NUM_THREADS": "1",
                     "NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"}
        child = subprocess.run([sys.executable, reference.__file__, str(tmp_path)], env=child_env,
                               capture_output=True, text=True, timeout=600)
        assert child.returncode == 0, child.stderr
        record = json.loads(child.stdout.splitlines()[-1])
        assert record["blas_core"] == "Haswell", f"OpenBLAS core setting did not take: {record}"
        assert record["numpy_dispatch"].startswith("exp X86_V3,"), \
            f"numpy dispatch setting did not take: {record}"
        assert record["digests"] == {
            "log": "d49b6fa055c9f3a7", "checkpoint": "31150a8598496b49",
            "evaluate --deterministic": "78441d15f441a02c", "evaluate": "599ab6e227e0e478",
            "plan": "ee0e300e8eeff800",
        }

    def test_reference_checkpoint_prints_the_csv_totals(self, reference_run, tmp_path, capsys):
        # the printed totals come from the traces, the CSV from their rows: both must agree
        out = tmp_path / "out.csv"
        common = ["--checkpoint", str(reference_run / "ck.json"),
                  "--pools", str(reference_run / "pools.json"), "--out", str(out)]

        def rows():
            lines = out.read_text().splitlines()[1:]
            return [[float(x) for x in line.split(",")] for line in lines]

        for mode in (["--deterministic"], []):
            assert cli.main(["evaluate", "--episodes", "20", "--seed", "7", *mode, *common]) == 0
            totals = np.array([row[7] for row in rows() if row[1] == 52])  # accumulated_reward
            assert len(totals) == 20
            assert capsys.readouterr().out.splitlines()[:2] == [
                "episodes: 20",
                f"mean total reward: {totals.mean():.3f} "
                f"(min {totals.min():.3f}, max {totals.max():.3f})",
            ]
        assert cli.main(["plan", "--seed", "3", *common]) == 0
        total = 0.0
        for row in rows():  # the reward column, in week order
            total += row[7]
        assert capsys.readouterr().out.splitlines()[0] == f"total reward: {total:.3f}"

    def test_rejects_nonfinite_settings(self, pools):
        for cfg in (small_cfg(env=EnvConfig(k_price=float("nan"))),
                    small_cfg(env=EnvConfig(q_price=float("inf"))),
                    small_cfg(agent=SacConfig(hidden_width=12, lr_policy=float("nan")))):
            with pytest.raises(ValueError, match="must be finite"):
                train(cfg, pools)


class TestCheckpointRoundTrip:
    def test_policy_outputs_bit_identical(self, trained, tmp_path):
        _, ckpt, _ = trained
        path = tmp_path / "ck.json"
        save_checkpoint(ckpt, path)
        loaded = load_checkpoint(path)
        a1 = ckpt.agent
        a2 = loaded.agent
        rng = np.random.default_rng(0)
        for _ in range(100):
            obs = rng.random(5)
            assert a1.policy.mean_action(obs) == a2.policy.mean_action(obs)

    def test_all_values_lossless(self, trained, tmp_path):
        _, ckpt, _ = trained
        path = tmp_path / "ck.json"
        save_checkpoint(ckpt, path)
        loaded = load_checkpoint(path)
        networks = loaded.agent.networks()
        for name, net in ckpt.agent.networks().items():
            for l1, l2 in zip(net.layers, networks[name].layers):
                assert np.array_equal(l1.weight, l2.weight)
                assert np.array_equal(l1.bias, l2.bias)
                assert l1.activation == l2.activation
        optimizers = loaded.agent.optimizers()
        for name, opt in ckpt.agent.optimizers().items():
            for a1, a2 in zip(opt.arrays, optimizers[name].arrays):
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
        assert loaded.replay_size == ckpt.replay_size
        assert list(loaded.replay) == ["obs", "actions", "rewards", "next_obs", "done"]
        for name, saved in ckpt.replay.items():
            assert loaded.replay[name].shape == saved.shape, name
            assert np.array_equal(loaded.replay[name].view(np.int64), saved.view(np.int64)), name

    def test_replay_excluded_by_default(self, trained):
        _, ckpt, _ = trained
        assert ckpt.replay is None
        assert ckpt.replay_size == 208

    def test_loaded_agent_trains_on_bit_for_bit(self, pools, tmp_path):
        """A loaded agent continues as the saved one would: its layers stay views of the
        vectors that update() steps, and every step gives the saved agent's bits."""
        cfg = small_cfg(include_replay_in_checkpoint=True)
        saved, _ = train(cfg, pools)
        path = tmp_path / "ck.json"
        save_checkpoint(saved, path)
        loaded = load_checkpoint(path)
        idx = np.random.default_rng(7).integers(0, loaded.replay_size, size=cfg.batch_size)
        batch = tuple(loaded.replay[k][idx] for k in ("obs", "actions", "rewards", "next_obs",
                                                      "done"))
        for agent in (saved.agent, loaded.agent):
            for net in agent.networks().values():
                for layer in net.layers:
                    assert np.shares_memory(layer.wt, net.params)
                    assert np.shares_memory(layer.bias, net.params)
        rng_saved, rng_loaded = np.random.default_rng(3), np.random.default_rng(3)
        for _ in range(3):
            assert update(saved.agent, batch, rng_saved) == update(loaded.agent, batch, rng_loaded)
        bits = lambda a: a.view(np.int64)
        for name, net in saved.agent.networks().items():
            assert np.array_equal(bits(net.params), bits(loaded.agent.networks()[name].params)), name
        for name, opt in saved.agent.optimizers().items():
            assert np.array_equal(bits(opt.acc), bits(loaded.agent.optimizers()[name].acc)), name
        for obs in np.random.default_rng(0).random((10, 5)):
            assert saved.agent.policy.mean_action(obs) == loaded.agent.policy.mean_action(obs)

    def test_save_memory_bounded_by_file_size(self, pools, tmp_path):
        """A save formats and writes one array at a time, so it never holds the document's
        floats as strings: that takes about 3.6 times the file's size on this checkpoint,
        one array at a time about 1.7 times (2.9 while json.dumps encoded each list)."""
        cfg = small_cfg(total_weeks=2080, exploration_weeks=2080, include_replay_in_checkpoint=True,
                        agent=SacConfig(hidden_width=8))
        ckpt = train(cfg, pools)[0]
        path = tmp_path / "ck.json"
        tracemalloc.start()
        try:
            save_checkpoint(ckpt, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * path.stat().st_size

    def test_load_memory_bounded_by_file_size(self, pools, tmp_path):
        """A load decodes each array as it is parsed, so the document never holds all
        its floats as strings: the peak is about the file text and one array's strings."""
        cfg = small_cfg(total_weeks=2080, exploration_weeks=2080, include_replay_in_checkpoint=True,
                        agent=SacConfig(hidden_width=8))
        path = tmp_path / "ck.json"
        save_checkpoint(train(cfg, pools)[0], path)
        tracemalloc.start()
        try:
            load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3.5 * path.stat().st_size


def reference_checkpoint_text(ckpt):
    """The checkpoint as the one-shot encoder wrote it: the whole document, with
    every float as the string repr(float(x)), through one json.dump. It reads
    the agent's transposed weights and flat accumulators itself, not the
    layers' weight and accumulator views, which save_checkpoint reads."""
    def floats(a):
        return [repr(float(x)) for x in np.asarray(a, dtype=float).ravel(order="C")]

    def array(a):
        a = np.asarray(a, dtype=float)
        return {"shape": list(a.shape), "values": floats(a)}

    def accumulators(opt, params):
        ends = np.cumsum([p.size for p in params])
        return [opt.acc[end - p.size:end].reshape(p.shape) for p, end in zip(params, ends)]

    agent = ckpt.agent
    doc = {
        "version": tr.CHECKPOINT_VERSION,
        "config": dataclasses.asdict(ckpt.config),
        "networks": {
            name: [{"rows": layer.wt.shape[1], "cols": layer.wt.shape[0],
                    "weights": floats(np.ascontiguousarray(layer.wt.T)),
                    "bias": floats(layer.bias), "activation": layer.activation}
                   for layer in net.layers]
            for name, net in agent.networks().items()
        },
        "optimizer_states": {
            # each optimizer trains the network of its name
            name: [array(a) for a in accumulators(opt, getattr(agent, name).parameters())]
            for name, opt in agent.optimizers().items()
        },
        "rng_state": ckpt.rng_state,
        "episode": ckpt.episode,
        "replay_size": ckpt.replay_size,
        "replay": None if ckpt.replay is None else {k: array(v) for k, v in ckpt.replay.items()},
    }
    fh = io.StringIO()
    json.dump(doc, fh)
    return fh.getvalue()


EDGE_FLOATS = [-0.0, 0.0, 5e-324, 2.2250738585072014e-308, 1e16, 9999999999999998.0, 1e-05, 0.0001]
NAN_BITS = [0x7FF8000000000000, -0x0008000000000000, 0x7FF0000000000001]  # +nan, -nan, a payload
NONFINITE = [float("inf"), float("-inf")] + list(np.array(NAN_BITS, dtype=np.int64).view(float))


def with_replay(ckpt, **arrays):
    """ckpt with a replay of 8 transitions, every array zero but the ones given, and
    a copy of its agent, so that a caller may write into it and leave ckpt as it was."""
    replay = {"obs": np.zeros((8, 5)), "actions": np.zeros(8), "rewards": np.zeros(8),
              "next_obs": np.zeros((8, 5)), "done": np.zeros(8)}
    replay.update({name: np.asarray(a, dtype=float) for name, a in arrays.items()})
    return dataclasses.replace(ckpt, agent=copy.deepcopy(ckpt.agent), replay=replay,
                               replay_size=8)


def edge_floats_everywhere(ckpt):
    ckpt = with_replay(ckpt, obs=np.resize(EDGE_FLOATS, (8, 5)), actions=EDGE_FLOATS,
                       next_obs=-np.resize(EDGE_FLOATS, (8, 5))[::-1])
    ckpt.agent.q1.layers[0].weight.flat[:8] = EDGE_FLOATS  # -0.0 and 0.0 in one array
    return ckpt


def nonfinite_replay(ckpt):
    return with_replay(ckpt, obs=np.resize(NONFINITE, (8, 5)), rewards=np.resize(NONFINITE, 8),
                       done=[np.nan] * 8)


def all_equal_replay(ckpt):
    return with_replay(ckpt, obs=np.full((8, 5), 0.1), next_obs=np.full((8, 5), -0.0),
                       done=np.ones(8))


class TestCheckpointBytes:
    """save_checkpoint writes the bytes of the one-shot encoder, reference_checkpoint_text."""

    @pytest.mark.parametrize("variant", [
        lambda ckpt: ckpt, edge_floats_everywhere, nonfinite_replay, all_equal_replay,
    ], ids=["no_replay", "edge_floats", "nonfinite", "all_equal"])
    def test_same_bytes_as_one_shot_encoder(self, variant, trained, tmp_path):
        _, ckpt, _ = trained
        ckpt = variant(ckpt)
        path = tmp_path / "ck.json"
        save_checkpoint(ckpt, path)
        assert path.read_text(encoding="utf-8") == reference_checkpoint_text(ckpt)

    def test_empty_replay_same_bytes(self, pools, tmp_path):
        ckpt, _ = train(small_cfg(total_weeks=0, exploration_weeks=0,
                                  include_replay_in_checkpoint=True), pools)
        assert ckpt.replay["obs"].shape == (0, 5) and ckpt.replay["done"].shape == (0,)
        path = tmp_path / "ck.json"
        save_checkpoint(ckpt, path)
        text = path.read_text(encoding="utf-8")
        assert text == reference_checkpoint_text(ckpt)
        assert '"obs": {"shape": [0, 5], "values": []}' in text

    def test_edge_floats_round_trip_bit_for_bit(self, trained, tmp_path):
        _, trained_ckpt, _ = trained
        ckpt = edge_floats_everywhere(trained_ckpt)
        # the tamper wrote into a copy of the agent, not into the shared fixture's
        assert not np.array_equal(trained_ckpt.agent.q1.layers[0].weight.flat[:8], EDGE_FLOATS)
        path = tmp_path / "ck.json"
        save_checkpoint(ckpt, path)
        loaded = load_checkpoint(path)
        for name, saved in ckpt.replay.items():
            assert np.array_equal(loaded.replay[name].view(np.int64), saved.view(np.int64)), name
        assert np.array_equal(loaded.agent.q1.layers[0].weight.view(np.int64),
                              ckpt.agent.q1.layers[0].weight.view(np.int64))

    @given(st.lists(st.one_of(st.integers(-2**63, 2**63 - 1),
                              st.sampled_from(list(np.array(EDGE_FLOATS).view(np.int64)) + NAN_BITS)),
                    max_size=40),
           st.sampled_from([1, 2]))
    @settings(max_examples=300, deadline=None)
    def test_array_encoder_on_any_bit_patterns(self, bits, rows):
        a = np.array(bits * rows, dtype=np.int64).view(float).reshape(rows, -1)
        expected = json.dumps([repr(float(x)) for x in a.ravel(order="C")])
        assert tr._float_list_json(a) == expected


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestTwoProcessSave:
    """A forked child formats the later arrays; the bytes are the serial writer's."""

    def test_every_split_gives_the_one_shot_bytes(self, trained, tmp_path, monkeypatch):
        ckpt = edge_floats_everywhere(trained[1])
        expected = reference_checkpoint_text(ckpt)
        arrays = []
        monkeypatch.setattr(tr, "_half_split", lambda sizes: arrays.append(len(sizes)) or 0)
        save_checkpoint(ckpt, tmp_path / "probe.json")
        forks = []
        real_fork = os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or real_fork())
        for split in range(arrays[0] + 1):  # 0: the child formats all; the count: none
            monkeypatch.setattr(tr, "_half_split", lambda sizes: split)
            path = tmp_path / f"ck{split}.json"
            save_checkpoint(ckpt, path)
            assert path.read_text(encoding="utf-8") == expected, split
            assert len(forks) == min(split + 1, arrays[0]), split
        assert_no_child_left()

    def test_half_split_takes_the_array_that_reaches_half(self):
        assert tr._half_split([]) == 0
        assert tr._half_split([10]) == 1
        assert tr._half_split([3, 3, 3, 3]) == 2
        assert tr._half_split([1, 5, 1, 1]) == 2
        assert tr._half_split([0, 0]) == 1

    def test_a_child_that_dies_leaves_the_previous_file(self, trained, tmp_path, monkeypatch):
        _, ckpt, _ = trained
        path = tmp_path / "ck.json"
        save_checkpoint(ckpt, path)
        assert_no_child_left()
        before = path.read_bytes()
        parent, real = os.getpid(), tr._float_list_json

        def fails_in_the_child(a):
            if os.getpid() != parent:
                raise MemoryError("formatting failed in the child")
            return real(a)

        monkeypatch.setattr(tr, "_float_list_json", fails_in_the_child)
        with pytest.raises(OSError, match="formatting child failed"):
            save_checkpoint(with_replay(ckpt), path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["ck.json"]
        assert_no_child_left()

    def test_a_failed_write_kills_and_reaps_the_child(self, trained, tmp_path):
        _, ckpt, _ = trained
        with pytest.raises(OSError):
            save_checkpoint(with_replay(ckpt), tmp_path / "missing" / "ck.json")
        assert_no_child_left()

    @pytest.mark.parametrize("broken", ["no_fork", "fork_fails", "pipe_fails"])
    def test_without_a_child_the_same_bytes(self, broken, trained, tmp_path, monkeypatch):
        ckpt = nonfinite_replay(trained[1])

        def raises():
            raise OSError("no more processes")

        if broken == "no_fork":
            monkeypatch.delattr(os, "fork")
        else:
            monkeypatch.setattr(os, "fork" if broken == "fork_fails" else "pipe", raises)
        fds = len(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None
        path = tmp_path / "ck.json"
        save_checkpoint(ckpt, path)
        assert path.read_text(encoding="utf-8") == reference_checkpoint_text(ckpt)
        if fds is not None:  # the pipe of a failed fork is closed
            assert len(os.listdir("/proc/self/fd")) == fds
        assert_no_child_left()

    def test_save_with_blas_threads_running(self, trained, tmp_path):
        """The child calls no BLAS, so a fork while OpenBLAS's worker threads are live
        cannot deadlock on their locks: the save ends, with the in-process bytes."""
        ckpt = with_replay(trained[1], rewards=np.linspace(-1.0, 1.0, 8))
        path, copy_path = tmp_path / "ck.json", tmp_path / "copy.json"
        save_checkpoint(ckpt, path)
        script = (
            "import sys; import numpy as np; from hydrosac import trainer as tr\n"
            "a = np.random.default_rng(0).random((200, 200)); a @ a\n"
            "tr.save_checkpoint(tr.load_checkpoint(sys.argv[1]), sys.argv[2])\n"
        )
        src = str(Path(hydrosac.__file__).parent.parent)
        child_env = {**os.environ, "OPENBLAS_NUM_THREADS": "2", "PYTHONPATH": src}
        subprocess.run([sys.executable, "-c", script, str(path), str(copy_path)], env=child_env,
                       check=True, timeout=60)
        assert copy_path.read_bytes() == path.read_bytes()


class TestEvaluate:
    def test_deterministic_repeatable(self, trained, pools):
        _, ckpt, _ = trained
        r1 = evaluate(ckpt, pools, 3, True, seed=4)
        r2 = evaluate(ckpt, pools, 3, True, seed=4)
        for e1, e2 in zip(r1, r2):
            assert e1[-1, 6] == e2[-1, 6]
            assert np.array_equal(e1, e2)

    def test_trace_shape_and_count(self, trained, pools):
        _, ckpt, _ = trained
        traces = evaluate(ckpt, pools, 5, True, seed=1)
        assert traces.shape == (5, 52, 8) and traces.dtype == np.float64
        for trace in traces:
            assert np.array_equal(trace[:, 0], np.arange(1, 53))

    def test_accumulated_reward_is_prefix_sum(self, trained, pools):
        _, ckpt, _ = trained
        for trace in evaluate(ckpt, pools, 3, True, seed=2):
            assert np.array_equal(trace[:, 6], np.cumsum(trace[:, 5]))

    def test_stochastic_differs_across_seeds(self, trained, pools):
        _, ckpt, _ = trained
        r1 = evaluate(ckpt, pools, 2, False, seed=1)
        r2 = evaluate(ckpt, pools, 2, False, seed=99)
        assert not np.array_equal(r1[0], r2[0])

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
        (trace,) = rollout(constant_policy(0.5), [scn], env_cfg, [np.random.default_rng(0)])
        assert trace[-1, 6] == pytest.approx(0.5 * 1000.0 * 0.8, rel=1e-9)
        # weeks with ample storage earn exactly 0.5 * f_max * r_max * y
        assert trace[0, 5] == pytest.approx(0.5 * 0.03 * 1000.0 * 0.8, rel=1e-12)

    def test_policy_fn_harness_uses_same_scenarios(self, pools):
        env_cfg = EnvConfig()
        r1 = evaluate_policy_fn(constant_policy(0.3), pools, env_cfg, 4, seed=11)
        r2 = evaluate_policy_fn(random_policy, pools, env_cfg, 4, seed=11)
        for e1, e2 in zip(r1, r2):
            assert np.array_equal(e1[:, 1], e2[:, 1])  # prices
            assert np.array_equal(e1[:, 2], e2[:, 2])  # inflows


    @pytest.mark.parametrize("n", [1, 7, 37])
    @pytest.mark.parametrize("deterministic", [True, False])
    def test_matches_a_plain_per_episode_loop(self, reference_run, n, deterministic):
        # an oracle apart from rollout: one episode after another,
        # each stepped by hand, the policy acting on a (1, 5) batch
        ckpt = load_checkpoint(reference_run / "ck.json")
        pools = sc.load_pools(reference_run / "pools.json")
        traces = evaluate(ckpt, pools, n, deterministic, seed=41)
        policy, env_cfg = ckpt.agent.policy, ckpt.config.env

        def act(obs, rng):
            obs = obs[None]
            action = policy.mean_action(obs) if deterministic else policy.sample(obs, rng)[0]
            return float(action[0])

        assert traces.shape == (n, 52, 8)
        for trace, seq in zip(traces, np.random.SeedSequence(41).spawn(n)):
            want = scalar_year(pools, env_cfg, np.random.default_rng(seq), act)
            assert np.array_equal(bits(trace), bits(want))
            assert bits(trace[-1, 6]) == bits(want[-1, 6])

    def test_episodes_do_not_depend_on_how_many_play(self, trained, pools):
        _, ckpt, _ = trained
        env_cfg = ckpt.config.env
        for action_fn in (tr.policy_action_fn(ckpt.agent.policy, True),
                          tr.policy_action_fn(ckpt.agent.policy, False), random_policy):
            seven = evaluate_policy_fn(action_fn, pools, env_cfg, 7, seed=43)
            three = evaluate_policy_fn(action_fn, pools, env_cfg, 3, seed=43)
            for a, b in zip(seven[:3], three, strict=True):
                assert bits(a[-1, 6]) == bits(b[-1, 6])
                assert np.array_equal(bits(a), bits(b))

    def test_years_step_in_lock_step(self, pools):
        # one action_fn call a week for all years, row i of its (years, 5)
        # array the observation of year i, as a scalar loop over that year sees it
        seeds = (2, 3, 4)
        rngs = [np.random.default_rng(seed) for seed in seeds]
        scenarios = [tr.sample_scenario(pools, rng) for rng in rngs]
        calls = []

        def action_fn(obs, rngs):
            calls.append(obs.copy())
            return [0.25, 0.5, 0.75]

        traces = rollout(action_fn, scenarios, EnvConfig(), rngs)
        assert len(calls) == 52 and all(obs.shape == (3, 5) for obs in calls)
        for i, seed in enumerate(seeds):
            rng = np.random.default_rng(seed)
            scn = tr.sample_scenario(pools, rng)
            storage = float(rng.uniform(0.4, 0.6))  # EnvConfig's init window
            for w, (price, inflow) in enumerate(zip(scn.prices.tolist(), scn.inflows.tolist())):
                obs = env.observe(w + 1, storage, price, inflow, EnvConfig())
                assert np.array_equal(bits(calls[w][i]), bits(obs))
                _, a_eff, _, storage, _ = env.step(w + 1, storage, price, inflow, (i + 1) / 4,
                                                   EnvConfig())
                assert bits(traces[i, w, 3]) == bits(a_eff)

    @pytest.mark.parametrize("env_cfg", [
        EnvConfig(), EnvConfig(q_price=1.7),
        EnvConfig(k_price=0.8, terminal_price_rule=env.MAX_PRICE, f_max=0.1),
    ], ids=["default", "q_price_1.7", "k_price_0.8_max_price_f_max_0.1"])
    @pytest.mark.parametrize("policy", ["random", 0, 1, -0.0], ids=["random", "0", "1", "-0.0"])
    def test_baselines_match_a_plain_per_episode_loop(self, pools, env_cfg, policy):
        # the scalar step, one episode after another, is the oracle for the lock-step rollout
        action_fn = random_policy if policy == "random" else constant_policy(policy)
        traces = evaluate_policy_fn(action_fn, pools, env_cfg, 7, seed=5)
        for trace, seq in zip(traces, np.random.SeedSequence(5).spawn(7), strict=True):
            want = scalar_year(pools, env_cfg, np.random.default_rng(seq),
                               lambda obs, rng: float(action_fn(None, [rng])[0]))
            assert np.array_equal(bits(trace), bits(want))

    def test_rejects_a_wrong_number_of_actions(self, pools):
        rngs = [np.random.default_rng(seed) for seed in (1, 2)]
        scenarios = [tr.sample_scenario(pools, rng) for rng in rngs]
        with pytest.raises(ValueError):
            rollout(lambda obs, rngs: [0.5], scenarios, EnvConfig(), rngs)

    def test_policy_fn_harness_rejects_no_episodes(self, pools):
        with pytest.raises(UsageError, match="n_episodes must be >= 1"):
            evaluate_policy_fn(random_policy, pools, EnvConfig(), 0, seed=1)


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

    def test_fifo_output_written_in_place(self, trained, tmp_path):
        _, _, records = trained
        write_train_log(records, tmp_path / "log.csv")
        fifo = tmp_path / "log.fifo"
        os.mkfifo(fifo)
        # a reader that never blocks lets the writer open the FIFO
        fd = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        try:
            write_train_log(records, fifo)
            data = os.read(fd, 1 << 20)
        finally:
            os.close(fd)
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)
        assert data == (tmp_path / "log.csv").read_bytes()
        assert not list(tmp_path.glob("*.tmp"))

    def test_eval_csv_format(self, trained, pools, tmp_path):
        _, ckpt, _ = trained
        traces = evaluate(ckpt, pools, 2, True, seed=5)
        path = tmp_path / "eval.csv"
        write_eval_csv(traces, path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == tr.EVAL_HEADER
        assert len(lines) == 2 * 52 + 1
        row = lines[1].split(",")
        assert row[:2] == ["0", "1"]
        assert len(row) == 8
        # episodes are numbered by their position in the traces
        assert [line.split(",")[0] for line in lines[1:]] == ["0"] * 52 + ["1"] * 52


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
