import argparse
import contextlib
import copy
import dataclasses
import hashlib
import io
import json
import shutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hydrosac import cli
from hydrosac import scenario as sc
from hydrosac import trainer as tr
from hydrosac.cli import main
from hydrosac.env import EnvConfig
from hydrosac.sac import AgentBundle, SacConfig
from hydrosac.scenario import ArtificialConfig


def run(argv):
    return main(argv)


@pytest.fixture(scope="module")
def pools_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("pools") / "pools.json"
    assert run([
        "gen-scenarios", "--mode", "artificial", "--seed", "7",
        "--samples-per-week", "10", "--out", str(path),
    ]) == 0
    return path


@pytest.fixture(scope="module")
def trained_files(tmp_path_factory, pools_file):
    d = tmp_path_factory.mktemp("train")
    ckpt = d / "ckpt.json"
    log = d / "log.csv"
    code = run([
        "train", "--pools", str(pools_file), "--total-weeks", "208",
        "--exploration-weeks", "52", "--batch-size", "20",
        "--hidden-width", "12", "--seed", "1",
        "--out", str(ckpt), "--log", str(log),
    ])
    assert code == 0
    return ckpt, log


@pytest.fixture(scope="module")
def scenario_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("scenario") / "scn.csv"
    rows = ["week,price,inflow"] + [f"{w},0.5,0.01" for w in range(1, 53)]
    path.write_text("\n".join(rows) + "\n")
    return path


def historic_csvs(tmp_path, n_inflows=4):
    rng = np.random.default_rng(0)
    prices = tmp_path / "prices.csv"
    rows = ["year,week,value"]
    for year in (2010, 2011):
        for w in range(1, 53):
            rows.append(f"{year},{w},{rng.uniform(10, 60):.3f}")
    prices.write_text("\n".join(rows) + "\n")
    inflow_files = []
    for k in range(n_inflows):
        f = tmp_path / f"inflow{k}.csv"
        rows = ["year,week,value"]
        for w in range(1, 53):
            rows.append(f"1999,{w},{rng.uniform(0, 80):.3f}")
        f.write_text("\n".join(rows) + "\n")
        inflow_files.append(f)
    return prices, inflow_files


class TestGenScenarios:
    def test_artificial_deterministic(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        for out in (a, b):
            assert run([
                "gen-scenarios", "--mode", "artificial", "--seed", "7", "--out", str(out)
            ]) == 0
        assert a.read_bytes() == b.read_bytes()
        printed = capsys.readouterr().out
        assert "week 01:" in printed and "week 52:" in printed

    def test_historic_merges_all_inflow_series(self, tmp_path):
        prices, inflows = historic_csvs(tmp_path, n_inflows=4)
        out = tmp_path / "hist.json"
        assert run([
            "gen-scenarios", "--mode", "historic", "--prices", str(prices),
            "--inflows", *[str(f) for f in inflows], "--out", str(out),
        ]) == 0
        doc = json.loads(out.read_text())
        assert doc["mode"] == "historic"
        assert all(len(p) == 4 for p in doc["inflow_pool"])
        assert all(len(p) == 2 for p in doc["price_pool"])

    def test_historic_pools_bytes(self, tmp_path, monkeypatch, capsys):
        """Pinned bytes of a historic pools file and of the command's stdout.

        The series files have their weeks out of order and a blank row;
        one price file is given twice, one file serves as both a price and
        an inflow series, and one inflow file exceeds r_max, so the merge
        order, the normalization and the clamp count are all pinned.
        """
        rng = np.random.default_rng(23)

        def series(name, years, scale):
            rows = [f"{year},{week},{rng.uniform(0.0, scale)!r}"
                    for year in years for week in range(1, 53)]
            rows = [rows[i] for i in rng.permutation(len(rows))]
            rows.insert(len(rows) // 2, "")
            (tmp_path / name).write_text("\n".join(["year,week,value", *rows]) + "\n")
            return name

        monkeypatch.chdir(tmp_path)  # relative names, so stdout holds no temporary path
        prices = [series("p1.csv", (2010, 2011), 80.0), series("p2.csv", (2012,), 60.0)]
        inflows = [series("i1.csv", (1999,), 1500.0), series("i2.csv", (2000, 2001), 90.0)]
        assert run(["gen-scenarios", "--mode", "historic", "--prices", *prices, prices[0],
                    "--inflows", *inflows, prices[1], "--out", "hist.json"]) == 0
        pools = hashlib.sha256((tmp_path / "hist.json").read_bytes()).hexdigest()
        stdout = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        # 5 prices and 4 inflows a week, from 4 distinct files; 21 inflows clamped
        assert (pools[:16], stdout[:16]) == ("e6457d1f4a92d5d9", "5603c81f61bbdeb8")

    @pytest.mark.parametrize("r_max, message", [
        ("0", "annual_inflow must be >= 0 and r_max > 0"),
        ("nan", "r_max must be finite, got nan"),
    ], ids=["zero", "nan"])
    def test_historic_bad_r_max_exit_2(self, r_max, message, tmp_path, capsys):
        prices, inflows = historic_csvs(tmp_path, n_inflows=1)
        out = tmp_path / "hist.json"
        assert run([
            "gen-scenarios", "--mode", "historic", "--prices", str(prices),
            "--inflows", *[str(f) for f in inflows], "--r-max", r_max, "--out", str(out),
        ]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_historic_requires_inputs(self, tmp_path):
        code = run([
            "gen-scenarios", "--mode", "historic", "--out", str(tmp_path / "x.json")
        ])
        assert code == 2

    def test_synthetic_historic(self, tmp_path):
        out = tmp_path / "synth.json"
        assert run([
            "gen-scenarios", "--mode", "historic", "--synthetic-historic",
            "--seed", "3", "--out", str(out),
        ]) == 0
        assert json.loads(out.read_text())["mode"] == "historic"

    def test_usage_error_without_mode(self):
        with pytest.raises(SystemExit) as e:
            run(["gen-scenarios", "--out", "x.json"])
        assert e.value.code == 2

    def test_malformed_input_csv(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("year,week,value\n2010,99,5\n")
        code = run([
            "gen-scenarios", "--mode", "historic", "--prices", str(bad),
            "--inflows", str(bad), "--out", str(tmp_path / "x.json"),
        ])
        assert code == 4


class TestTrain:
    def test_episode_count_in_log(self, trained_files):
        _, log = trained_files
        lines = log.read_text().strip().split("\n")
        assert len(lines) == 4 + 1  # 208 weeks -> 4 episodes + header

    def test_rerun_identical_log_except_timing(self, tmp_path, pools_file):
        logs = []
        for name in ("l1.csv", "l2.csv"):
            log = tmp_path / name
            assert run([
                "train", "--pools", str(pools_file), "--total-weeks", "156",
                "--exploration-weeks", "52", "--batch-size", "10",
                "--hidden-width", "8", "--seed", "3",
                "--out", str(tmp_path / "ck.json"), "--log", str(log),
            ]) == 0
            # the wall-clock column is the only permitted difference
            logs.append(
                "\n".join(",".join(l.split(",")[:-1]) for l in log.read_text().split("\n"))
            )
        assert logs[0] == logs[1]

    def test_use_case_two_flags(self, tmp_path):
        # second configuration: f_max 100/1000 and yearly inflow 4000
        ckpt = tmp_path / "ck.json"
        assert run([
            "train", "--f-max", "0.10", "--annual-inflow", "4000",
            "--total-weeks", "104", "--exploration-weeks", "104",
            "--hidden-width", "8", "--seed", "2",
            "--out", str(ckpt), "--log", str(tmp_path / "log.csv"),
        ]) == 0
        doc = json.loads(ckpt.read_text())
        assert doc["config"]["env"]["f_max"] == 0.10

    def test_nonfinite_abort_exit_code(self, tmp_path, pools_file):
        log = tmp_path / "log.csv"
        with np.errstate(invalid="ignore", over="ignore"):
            code = run([
                "train", "--pools", str(pools_file), "--total-weeks", "104",
                "--exploration-weeks", "0", "--batch-size", "10",
                "--hidden-width", "8", "--seed", "1", "--lr-q", "1e300",
                "--out", str(tmp_path / "ck.json"), "--log", str(log),
            ])
        assert code == 3
        assert log.exists()  # partial log retained

    def test_policy_divergence_exit_code(self, tmp_path, pools_file, capsys):
        # the policy step leaves non-finite weights; the next one-row sample is NaN
        log = tmp_path / "log.csv"
        with np.errstate(invalid="ignore", over="ignore"):
            code = run([
                "train", "--pools", str(pools_file), "--total-weeks", "208",
                "--exploration-weeks", "52", "--batch-size", "20",
                "--hidden-width", "12", "--seed", "1", "--lr-policy", "1e300",
                "--out", str(tmp_path / "ck.json"), "--log", str(log),
            ])
        assert code == 3
        assert len(log.read_text().splitlines()) == 2  # header and the exploration year
        err = capsys.readouterr().err
        assert "training aborted: non-finite action from the policy (report: LossReport(" in err
        assert not (tmp_path / "ck.json").exists()

    @pytest.mark.filterwarnings("error")  # numpy warnings would reach stderr outside pytest
    def test_zero_weeks_runs_no_episode(self, tmp_path, pools_file, capsys):
        ckpt = tmp_path / "ck.json"
        assert run([
            "train", "--pools", str(pools_file), "--total-weeks", "0", "--hidden-width", "8",
            "--out", str(ckpt), "--log", str(tmp_path / "log.csv"),
        ]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert "episodes: 0\n" in captured.out
        assert "nan" not in captured.out
        assert (tmp_path / "log.csv").read_text().strip() == tr.TRAIN_LOG_HEADER
        assert run(["inspect", "--checkpoint", str(ckpt)]) == 0
        assert "replay size: 0\n" in capsys.readouterr().out

    def test_config_file_merging(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "train": {"total_weeks": 104, "exploration_weeks": 104, "seed": 5,
                      "agent": {"hidden_width": 8}},
            "env": {"f_max": 0.05},
        }))
        ckpt = tmp_path / "ck.json"
        assert run([
            "train", "--config", str(cfg), "--f-max", "0.07",
            "--out", str(ckpt), "--log", str(tmp_path / "log.csv"),
        ]) == 0
        doc = json.loads(ckpt.read_text())
        assert doc["config"]["env"]["f_max"] == 0.07  # flag beats config file
        assert doc["config"]["total_weeks"] == 104

    def test_config_file_unknown_key(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"train": {"bogus": 1}}))
        assert run([
            "train", "--config", str(cfg), "--out", str(tmp_path / "ck.json"),
            "--log", str(tmp_path / "log.csv"),
        ]) == 2

    def test_seed_env_fallback(self, tmp_path, pools_file, monkeypatch):
        monkeypatch.setenv("HYDROSAC_SEED", "11")
        ckpt = tmp_path / "ck.json"
        assert run([
            "train", "--pools", str(pools_file), "--total-weeks", "104",
            "--exploration-weeks", "104", "--hidden-width", "8",
            "--out", str(ckpt), "--log", str(tmp_path / "log.csv"),
        ]) == 0
        assert json.loads(ckpt.read_text())["config"]["seed"] == 11


class TestEvaluate:
    def test_row_counts_and_prefix_sum(self, tmp_path, trained_files, pools_file):
        ckpt, _ = trained_files
        out = tmp_path / "eval.csv"
        assert run([
            "evaluate", "--checkpoint", str(ckpt), "--pools", str(pools_file),
            "--episodes", "5", "--deterministic", "--seed", "4", "--out", str(out),
        ]) == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 5 * 52 + 1
        # accumulated_reward is the exact running prefix sum per episode
        rows = [l.split(",") for l in lines[1:]]
        for ep in range(5):
            ep_rows = [r for r in rows if r[0] == str(ep)]
            acc = 0.0
            for r in ep_rows:
                acc += float(r[6])
                assert float(r[7]) == acc

    def test_no_episodes_exit_2(self, tmp_path, trained_files, pools_file, capsys):
        ckpt, _ = trained_files
        out = tmp_path / "eval.csv"
        assert run(["evaluate", "--checkpoint", str(ckpt), "--pools", str(pools_file),
                    "--episodes", "0", "--out", str(out)]) == 2
        assert "error: n_episodes must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    def test_deterministic_idempotent(self, tmp_path, trained_files, pools_file):
        ckpt, _ = trained_files
        outs = []
        for name in ("e1.csv", "e2.csv"):
            out = tmp_path / name
            assert run([
                "evaluate", "--checkpoint", str(ckpt), "--pools", str(pools_file),
                "--episodes", "3", "--deterministic", "--seed", "9", "--out", str(out),
            ]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_stochastic_seeds_differ(self, tmp_path, trained_files, pools_file):
        ckpt, _ = trained_files
        outs = []
        for seed in ("1", "2"):
            out = tmp_path / f"e{seed}.csv"
            assert run([
                "evaluate", "--checkpoint", str(ckpt), "--pools", str(pools_file),
                "--episodes", "2", "--seed", seed, "--out", str(out),
            ]) == 0
            outs.append(out.read_bytes())
        assert outs[0] != outs[1]

    def test_env_override_warns_and_echo_wins(self, tmp_path, trained_files, pools_file, capsys):
        ckpt, _ = trained_files
        plain = tmp_path / "plain.csv"
        overridden = tmp_path / "overridden.csv"
        assert run([
            "evaluate", "--checkpoint", str(ckpt), "--pools", str(pools_file),
            "--episodes", "1", "--deterministic", "--seed", "1", "--out", str(plain),
        ]) == 0
        assert run([
            "evaluate", "--checkpoint", str(ckpt), "--pools", str(pools_file),
            "--episodes", "1", "--deterministic", "--f-max", "0.10",
            "--terminal-rule", "max_price", "--seed", "1", "--out", str(overridden),
        ]) == 0
        err = capsys.readouterr().err
        assert "warning" in err and "f-max" in err
        assert "--terminal-rule=max_price differs" in err  # the flag as spelled on the command line
        # the checkpoint's environment echo wins: the override changed nothing
        assert plain.read_bytes() == overridden.read_bytes()

    def test_corrupt_checkpoint(self, tmp_path, pools_file):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        assert run([
            "evaluate", "--checkpoint", str(bad), "--pools", str(pools_file),
            "--episodes", "1", "--out", str(tmp_path / "e.csv"),
        ]) == 4


@pytest.mark.parametrize("command", ["evaluate", "plan"])
def test_config_env_warns_and_echo_wins(command, tmp_path, trained_files, pools_file, capsys):
    ckpt, _ = trained_files
    echo = tr.load_checkpoint(ckpt).config.env
    assert echo.f_max != 0.1
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"env": {"f_max": 0.1, "k_price": echo.k_price}}))
    argv = [command, "--checkpoint", str(ckpt), "--pools", str(pools_file), "--seed", "3",
            *(["--episodes", "2"] if command == "evaluate" else [])]
    assert run([*argv, "--out", str(tmp_path / "plain.csv")]) == 0
    plain = capsys.readouterr()
    assert plain.err == ""
    assert run([*argv, "--config", str(config), "--out", str(tmp_path / "configured.csv")]) == 0
    configured = capsys.readouterr()
    # one warning, for the key that differs; the equal k_price gives none
    assert configured.err == (f"warning: env.f_max=0.1 in {config} differs from the checkpoint's "
                              f"f_max={echo.f_max}; using the checkpoint value\n")
    # the checkpoint's environment echo wins: the file changed nothing else
    assert configured.out.replace("configured.csv", "plain.csv") == plain.out
    assert (tmp_path / "configured.csv").read_bytes() == (tmp_path / "plain.csv").read_bytes()


def test_env_flag_warns_in_place_of_the_config_file(tmp_path, trained_files, pools_file, capsys):
    ckpt, _ = trained_files
    echo = tr.load_checkpoint(ckpt).config.env
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"env": {"f_max": 0.1}}))
    assert run(["evaluate", "--checkpoint", str(ckpt), "--pools", str(pools_file),
                "--episodes", "1", "--config", str(config), "--f-max", "0.2",
                "--out", str(tmp_path / "e.csv")]) == 0
    assert capsys.readouterr().err == (f"warning: --f-max=0.2 differs from the checkpoint's "
                                       f"f_max={echo.f_max}; using the checkpoint value\n")


class TestPlan:
    def test_plan_columns_and_release_volume(self, tmp_path, trained_files, pools_file):
        import time

        ckpt, _ = trained_files
        out = tmp_path / "plan.csv"
        t0 = time.perf_counter()
        assert run([
            "plan", "--checkpoint", str(ckpt), "--pools", str(pools_file),
            "--seed", "6", "--out", str(out),
        ]) == 0
        assert time.perf_counter() - t0 < 1.0  # a 52-week plan is near-instant
        lines = out.read_text().strip().split("\n")
        assert lines[0] == cli.PLAN_HEADER
        assert len(lines) == 53
        f_max, r_max = 0.03, 1000.0
        for line in lines[1:]:
            parts = line.split(",")
            action, release = float(parts[3]), float(parts[4])
            assert release == pytest.approx(action * f_max * r_max, rel=1e-12)

    def test_plan_from_scenario_file(self, tmp_path, trained_files):
        ckpt, _ = trained_files
        scn = tmp_path / "scn.csv"
        rows = ["week,price,inflow"] + [f"{w},0.5,0.01" for w in range(1, 53)]
        scn.write_text("\n".join(rows) + "\n")
        out = tmp_path / "plan.csv"
        assert run([
            "plan", "--checkpoint", str(ckpt), "--scenario", str(scn), "--out", str(out)
        ]) == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 53
        assert all(l.split(",")[1] == "0.5" for l in lines[1:])

    @pytest.mark.parametrize("rows", [
        [f"{w},0.5,0.01" for w in range(1, 52)],
        [f"{w},{'nan' if w == 30 else 0.5},0.01" for w in range(1, 53)],
        [f"{w},0.5,0.01,9" for w in range(1, 53)],
    ], ids=["51_weeks", "nan_price", "extra_field"])
    def test_short_scenario_rejected(self, rows, tmp_path, trained_files):
        ckpt, _ = trained_files
        scn = tmp_path / "scn.csv"
        scn.write_text("\n".join(["week,price,inflow"] + rows) + "\n")
        code = run([
            "plan", "--checkpoint", str(ckpt), "--scenario", str(scn),
            "--out", str(tmp_path / "plan.csv"),
        ])
        assert code == 4


class TestInspect:
    def test_value_net_shape(self, tmp_path, pools_file, capsys):
        # default hidden width: value nets are [5, 100, 100, 100, 1]
        ckpt = tmp_path / "ck.json"
        assert run([
            "train", "--pools", str(pools_file), "--total-weeks", "52",
            "--exploration-weeks", "52", "--seed", "1",
            "--out", str(ckpt), "--log", str(tmp_path / "log.csv"),
        ]) == 0
        capsys.readouterr()
        assert run(["inspect", "--checkpoint", str(ckpt)]) == 0
        out = capsys.readouterr().out
        assert "network value: [5, 100, 100, 100, 1]" in out
        assert "network q1: [6, 100, 100, 100, 1]" in out

    def test_json_output(self, trained_files, capsys):
        ckpt, _ = trained_files
        assert run(["inspect", "--checkpoint", str(ckpt), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["network_shapes"]["value"] == [5, 12, 12, 12, 1]
        assert doc["episode"] == 4

    def test_corrupt_checkpoint_exit_4(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("not json at all")
        assert run(["inspect", "--checkpoint", str(bad)]) == 4
        assert "error" in capsys.readouterr().err


def unknown_trunk_activation(doc):
    doc["networks"]["policy_trunk"][0]["activation"] = "tanh"


def narrow_trunk_input(doc):
    # drop the last observation column from the first trunk layer and from
    # its accumulator, so that every stored shape still agrees
    layer = doc["networks"]["policy_trunk"][0]
    rows, cols = layer["rows"], layer["cols"]
    layer["weights"] = [w for i, w in enumerate(layer["weights"]) if i % cols != cols - 1]
    layer["cols"] = cols - 1
    acc = doc["optimizer_states"]["policy"][0]
    assert acc["shape"] == [cols, rows]
    acc["values"] = acc["values"][: (cols - 1) * rows]
    acc["shape"] = [cols - 1, rows]


def no_q1_layers(doc):
    doc["networks"]["q1"] = []


def echo_f_max_zero(doc):
    doc["config"]["env"]["f_max"] = 0


def echo_f_max_text(doc):
    doc["config"]["env"]["f_max"] = "abc"


def echo_alpha_nan(doc):
    doc["config"]["agent"]["alpha"] = float("nan")  # json writes NaN, which json reads back


def echo_k_price_huge_int(doc):
    doc["config"]["env"]["k_price"] = 10**400


def echo_lr_q_negative(doc):
    doc["config"]["agent"]["lr_q"] = -0.5


def echo_rmsprop_rho_one(doc):
    doc["config"]["agent"]["rmsprop_rho"] = 1.0


def echo_init_bound_negative(doc):
    doc["config"]["agent"]["init_bound"] = -1


def echo_rmsprop_eps_zero(doc):
    doc["config"]["agent"]["rmsprop_eps"] = 0


def echo_squash_prob_floor_negative(doc):
    doc["config"]["agent"]["squash_prob_floor"] = -1e-3


def nan_policy_weight(doc):
    doc["networks"]["policy_mean_head"][0]["weights"][3] = "nan"


def minus_inf_accumulator(doc):
    doc["optimizer_states"]["q1"][2]["values"][0] = "-inf"


def no_value_target_network(doc):
    del doc["networks"]["value_target"]


def no_value_optimizer(doc):
    del doc["optimizer_states"]["value"]


def networks_list(doc):
    doc["networks"] = list(doc["networks"].values())


def optimizer_states_list(doc):
    doc["optimizer_states"] = list(doc["optimizer_states"].values())


def replay_list(doc):
    doc["replay"] = []


def rng_state_list(doc):
    doc["rng_state"] = []


def rng_state_empty(doc):
    doc["rng_state"] = {}


def rng_state_mt19937(doc):
    state = np.random.MT19937(0).state
    state["state"]["key"] = state["state"]["key"].tolist()
    doc["rng_state"] = state


def rng_state_negative(doc):
    doc["rng_state"]["state"]["state"] = -1


def negative_episode(doc):
    doc["episode"] = -3


def infinite_episode(doc):
    doc["episode"] = float("inf")  # json writes Infinity, which json reads back


def negative_replay_size(doc):
    doc["replay_size"] = -1


def zero_replay(doc, n=3):
    """Give doc a replay of n all-zero transitions, laid out as the writer lays it out."""
    doc["replay_size"] = n
    doc["replay"] = {name: {"shape": shape, "values": ["0.0"] * int(np.prod(shape))}
                     for name, shape in (("obs", [n, 5]), ("actions", [n]), ("rewards", [n]),
                                         ("next_obs", [n, 5]), ("done", [n]))}
    return doc["replay"]


def replay_without_done(doc):
    del zero_replay(doc)["done"]


def replay_extra_array(doc):
    zero_replay(doc)["extra"] = {"shape": [3], "values": ["0.0"] * 3}


def replay_obs_flat(doc):
    zero_replay(doc)["obs"]["shape"] = [-1]


def replay_actions_column(doc):
    zero_replay(doc)["actions"]["shape"] = [3, 1]


def replay_longer_than_replay_size(doc):
    zero_replay(doc)
    doc["replay_size"] = 2


def episode_text(doc):
    doc["episode"] = "12"


def episode_true(doc):
    doc["episode"] = True


def replay_size_fraction(doc):
    doc["replay_size"] = 3.7


def echo_hidden_width(doc):
    doc["config"]["agent"]["hidden_width"] = 8  # the networks are 12 wide


def linear_q1_layer(doc):
    doc["networks"]["q1"][0]["activation"] = "linear"


def unchained_q1_layer(doc):
    doc["networks"]["q1"][1]["cols"] = 24


def echo_hidden_width_huge(doc):
    doc["config"]["agent"]["hidden_width"] = 10**7  # init would ask for terabytes


def version_fraction(doc):
    doc["version"] = 1.9


def version_text(doc):
    doc["version"] = "1"


def version_true(doc):
    doc["version"] = True


def unknown_network(doc):
    doc["networks"]["q3"] = "not a network"


def unknown_optimizer(doc):
    doc["optimizer_states"]["q3"] = []


@pytest.mark.parametrize("tamper, message", [
    (unknown_trunk_activation, "network policy_trunk has widths [5, 12, 12] and activations "
                               "['tanh', 'relu']; expected [5, 12, 12] and ['relu', 'relu']"),
    (narrow_trunk_input, "network policy_trunk has widths [4, 12, 12]"),
    (no_q1_layers, "network q1 has widths [] and activations []; "
                   "expected [6, 12, 12, 12, 1] and ['relu', 'relu', 'relu', 'linear']"),
    (echo_f_max_zero, "f_max must be in (0, 1]"),
    (echo_f_max_text, "f_max must be float, got 'abc'"),
    (echo_alpha_nan, "alpha must be finite, got nan"),
    (echo_k_price_huge_int, "k_price must be finite, got 1000"),
    (echo_lr_q_negative, "lr_q must be >= 0"),
    (echo_rmsprop_rho_one, "rmsprop_rho must be in [0, 1)"),
    (echo_init_bound_negative, "malformed checkpoint (init_bound must be >= 0)"),
    (echo_rmsprop_eps_zero, "malformed checkpoint (rmsprop_eps must be > 0)"),
    (echo_squash_prob_floor_negative, "malformed checkpoint (squash_prob_floor must be >= 0)"),
    (nan_policy_weight, "network policy holds a non-finite value"),
    (minus_inf_accumulator, "optimizer q1 holds a non-finite value"),
    (no_value_target_network, "'value_target'"),
    (no_value_optimizer, "'value'"),
    (networks_list, "malformed checkpoint"),
    (optimizer_states_list, "malformed checkpoint"),
    (replay_list, "malformed checkpoint"),
    (rng_state_list, "malformed checkpoint (state must be a dict)"),
    (rng_state_empty, "malformed checkpoint (state must be for a PCG64 RNG)"),
    (rng_state_mt19937, "malformed checkpoint (state must be for a PCG64 RNG)"),
    (rng_state_negative, "malformed checkpoint (Python integer -1 out of bounds for uint64)"),
    (negative_episode, "malformed checkpoint (episode -3 and replay_size 208 must be >= 0)"),
    (infinite_episode, "malformed checkpoint (cannot convert float infinity to integer)"),
    (negative_replay_size, "malformed checkpoint (episode 4 and replay_size -1 must be >= 0)"),
    (replay_without_done, "malformed checkpoint ('done')"),
    (replay_extra_array, "malformed checkpoint (replay has ['actions', 'done', 'extra', "
                         "'next_obs', 'obs', 'rewards']; a buffer has ['obs', 'actions', "
                         "'rewards', 'next_obs', 'done'])"),
    (replay_obs_flat, "malformed checkpoint (replay obs has shape (15,), expected (3, 5))"),
    (replay_actions_column,
     "malformed checkpoint (replay actions has shape (3, 1), expected (3,))"),
    (replay_longer_than_replay_size,
     "malformed checkpoint (replay obs has shape (3, 5), expected (2, 5))"),
    (episode_text, "malformed checkpoint (episode '12' and replay_size 208 must be JSON integers)"),
    (episode_true, "malformed checkpoint (episode True and replay_size 208 must be JSON integers)"),
    (replay_size_fraction,
     "malformed checkpoint (episode 4 and replay_size 3.7 must be JSON integers)"),
    (echo_hidden_width, "network policy_trunk has widths [5, 12, 12] and activations "
                        "['relu', 'relu']; expected [5, 8, 8] and ['relu', 'relu']"),
    (linear_q1_layer, "network q1 has widths [6, 12, 12, 12, 1] and activations "
                      "['linear', 'relu', 'relu', 'linear']; "
                      "expected [6, 12, 12, 12, 1] and ['relu', 'relu', 'relu', 'linear']"),
    (unchained_q1_layer,
     "network q1 has layer rows [12, 12, 12, 1] and cols [6, 24, 12, 12], that do not chain"),
    (echo_hidden_width_huge, "malformed checkpoint (hidden_width 10000000 needs "
                             "100000000000000 or more network values, not "),
    (version_fraction, "checkpoint version 1.9 not supported (expected 1)"),
    (version_text, "checkpoint version '1' not supported (expected 1)"),
    (version_true, "checkpoint version True not supported (expected 1)"),
    (unknown_network, "malformed checkpoint (networks has ['policy_log_std_head', "
                      "'policy_mean_head', 'policy_trunk', 'q1', 'q2', 'q3', 'value', "
                      "'value_target']; the agent has ['policy_trunk', 'policy_mean_head', "
                      "'policy_log_std_head', 'q1', 'q2', 'value', 'value_target'])"),
    (unknown_optimizer, "malformed checkpoint (optimizer_states has ['policy', 'q1', 'q2', "
                        "'q3', 'value']; the agent has ['policy', 'q1', 'q2', 'value'])"),
])
def test_checkpoint_networks_must_fit_exit_4(
    tamper, message, tmp_path, trained_files, pools_file, capsys
):
    ckpt, _ = trained_files
    doc = json.loads(ckpt.read_text())
    tamper(doc)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert run(["inspect", "--checkpoint", str(bad)]) == 4
    assert run([
        "plan", "--checkpoint", str(bad), "--pools", str(pools_file),
        "--seed", "6", "--out", str(tmp_path / "plan.csv"),
    ]) == 4
    assert run([
        "evaluate", "--checkpoint", str(bad), "--pools", str(pools_file),
        "--episodes", "1", "--out", str(tmp_path / "e.csv"),
    ]) == 4
    err = capsys.readouterr().err
    assert message in err
    kind = message if message.startswith("checkpoint version") else "malformed checkpoint ("
    assert err.count(f"error: {bad}: {kind}") == 3
    if message.startswith("malformed checkpoint"):
        assert err.count(f"error: {bad}: {message}") == 3


def test_a_load_builds_one_agent(tmp_path, trained_files, pools_file, monkeypatch):
    """load_checkpoint builds the checkpoint's agent once; plan and evaluate use that one."""
    built = []
    init = AgentBundle.__init__

    def counting_init(self, *args):
        built.append(self)
        init(self, *args)

    monkeypatch.setattr(AgentBundle, "__init__", counting_init)
    ckpt, _ = trained_files
    assert tr.load_checkpoint(ckpt).agent is built[0] and len(built) == 1
    for argv in (
        ["plan", "--checkpoint", str(ckpt), "--pools", str(pools_file), "--seed", "6",
         "--out", str(tmp_path / "plan.csv")],
        ["evaluate", "--checkpoint", str(ckpt), "--pools", str(pools_file), "--episodes", "2",
         "--out", str(tmp_path / "e.csv")],
    ):
        built.clear()
        assert run(argv) == 0
        assert len(built) == 1, argv[0]


# Each command that reads an input file, with the format of the file named {bad}:
# JSON, or the header line of a CSV input.
INPUT_ARGVS = {
    "inspect-checkpoint": ("json", ["inspect", "--checkpoint", "{bad}"]),
    "plan-checkpoint": ("json", ["plan", "--checkpoint", "{bad}", "--out", "{out}"]),
    "evaluate-pools": ("json", ["evaluate", "--checkpoint", "{ckpt}", "--pools", "{bad}",
                                "--episodes", "1", "--out", "{out}"]),
    "plan-scenario": ("week,price,inflow",
                      ["plan", "--checkpoint", "{ckpt}", "--scenario", "{bad}", "--out", "{out}"]),
    "train-config": ("json", ["train", "--config", "{bad}", "--total-weeks", "0",
                              "--out", "{out}", "--log", "{out}"]),
    "gen-scenarios-prices": ("year,week,value",
                             ["gen-scenarios", "--mode", "historic", "--prices", "{bad}",
                              "--inflows", "{inflows}", "--out", "{out}"]),
}

# Bad file content by name, made from the input's format; the non-UTF-8 case
# is named by the command alone.
BAD_CONTENTS = {
    "": lambda fmt: "week,caf\xe9\n".encode("latin-1"),
    "too-deep": lambda fmt: b"[" * 100_000,  # past the recursion limit
    "long-int": lambda fmt: b"1" * 5_000,  # past the 4300-digit int conversion limit
    "long-field": lambda fmt: f"{fmt}\n1,1,{'5' * 200_000}\n".encode(),  # csv's 131,072 limit
}


@pytest.mark.parametrize("command, content", [
    pytest.param(command, content, id=f"{command}-{content}" if content else command)
    for command, (fmt, _) in INPUT_ARGVS.items()
    for content in BAD_CONTENTS
    # all inputs take the non-UTF-8 bytes, JSON ones the JSON cases, CSV ones the long field
    if content == "" or (content == "long-field") == (fmt != "json")
])
def test_non_utf8_input_exit_4(command, content, tmp_path, trained_files, capsys):
    fmt, argv = INPUT_ARGVS[command]
    bad = tmp_path / "bad_input"
    bad.write_bytes(BAD_CONTENTS[content](fmt))
    out = tmp_path / "out"
    _, inflows = historic_csvs(tmp_path, n_inflows=1)
    names = {"bad": bad, "out": out, "ckpt": trained_files[0], "inflows": inflows[0]}
    assert run([a.format(**names) for a in argv]) == 4
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(bad) in err


@pytest.mark.parametrize("command", ["plan-scenario", "gen-scenarios-prices"])
def test_whitespace_only_line_skipped_by_every_csv_reader(command, tmp_path, trained_files,
                                                          scenario_file):
    _, argv = INPUT_ARGVS[command]
    prices, inflows = historic_csvs(tmp_path, n_inflows=1)
    good = scenario_file if command == "plan-scenario" else prices
    bad = tmp_path / "trailing_blank.csv"
    bad.write_text(good.read_text() + "   \n")
    out = tmp_path / "out"
    names = {"bad": bad, "out": out, "ckpt": trained_files[0], "inflows": inflows[0]}
    assert run([a.format(**names) for a in argv]) == 0
    assert out.exists()


@pytest.fixture(scope="module")
def replay_ckpt_file(tmp_path_factory, pools_file):
    d = tmp_path_factory.mktemp("replay")
    ckpt = d / "ckpt.json"
    assert run([
        "train", "--pools", str(pools_file), "--total-weeks", "104",
        "--exploration-weeks", "104", "--hidden-width", "8", "--seed", "1", "--include-replay",
        "--out", str(ckpt), "--log", str(d / "log.csv"),
    ]) == 0
    return ckpt


def null_layer_weight(doc):
    doc["networks"]["policy_trunk"][0]["weights"][2] = None


def nested_layer_weight(doc):
    weights = doc["networks"]["value"][1]["weights"]
    weights[0] = [weights[0]]


def null_replay_value(doc):
    doc["replay"]["rewards"]["values"][5] = None


def nested_replay_value(doc):
    values = doc["replay"]["obs"]["values"]
    values[7] = [values[7]]


def huge_int_layer_weight(doc):
    doc["networks"]["q2"][0]["weights"][4] = 10 ** 400


def huge_int_replay_value(doc):
    doc["replay"]["next_obs"]["values"][9] = 10 ** 400


def digit_string_layer_bias(doc):
    doc["networks"]["q1"][0]["bias"] = "77777777"  # as many digits as the layer has rows


def digit_string_replay_done(doc):
    doc["replay"]["done"]["values"] = "1" * 104  # as many digits as the replay has rows


NOT_A_NUMBER = "float() argument must be a string or a real number"
TOO_LARGE = "malformed checkpoint (int too large to convert to float)"
NOT_A_LIST = "malformed checkpoint (array values must be a JSON list, not str)"


@pytest.mark.parametrize("tamper, message", [
    pytest.param(tamper, message, id=tamper.__name__) for tamper, message in [
        (null_layer_weight, NOT_A_NUMBER), (nested_layer_weight, NOT_A_NUMBER),
        (null_replay_value, NOT_A_NUMBER), (nested_replay_value, NOT_A_NUMBER),
        (huge_int_layer_weight, TOO_LARGE), (huge_int_replay_value, TOO_LARGE),
        (digit_string_layer_bias, NOT_A_LIST), (digit_string_replay_done, NOT_A_LIST),
    ]
])
def test_checkpoint_values_must_be_decimal_strings_exit_4(
    tamper, message, tmp_path, replay_ckpt_file, pools_file, capsys
):
    doc = json.loads(replay_ckpt_file.read_text())
    tamper(doc)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert run(["inspect", "--checkpoint", str(bad)]) == 4
    assert run([
        "plan", "--checkpoint", str(bad), "--pools", str(pools_file),
        "--seed", "6", "--out", str(tmp_path / "plan.csv"),
    ]) == 4
    assert run([
        "evaluate", "--checkpoint", str(bad), "--pools", str(pools_file),
        "--episodes", "1", "--out", str(tmp_path / "e.csv"),
    ]) == 4
    assert capsys.readouterr().err.count(message) == 3
    assert not (tmp_path / "plan.csv").exists() and not (tmp_path / "e.csv").exists()


def test_checkpoint_values_are_what_float_reads(tmp_path, replay_ckpt_file):
    """float() decides what a checkpoint entry may be, not the writer's decimal strings."""
    doc = json.loads(replay_ckpt_file.read_text())
    doc["networks"]["policy_trunk"][0]["weights"][2] = True
    doc["replay"]["rewards"]["values"][5] = 7
    doc["replay"]["actions"]["values"][3] = " 0.5 "
    path = tmp_path / "ckpt.json"
    path.write_text(json.dumps(doc))
    ckpt = tr.load_checkpoint(path)
    assert ckpt.agent.policy.trunk.layers[0].weight.flat[2] == 1.0
    assert ckpt.replay["rewards"][5] == 7.0 and ckpt.replay["actions"][3] == 0.5
    assert run(["inspect", "--checkpoint", str(path)]) == 0


def week_pool(pool, week, replace):
    """A tamper that replaces one week pool of a decoded pools file with replace(old)."""
    def tamper(doc):
        doc[pool][week] = replace(doc[pool][week])
    return tamper


def set_price_max(value):
    return lambda doc: doc.update(price_max=value)


@pytest.mark.parametrize("tamper, message", [
    # json writes NaN, which json reads back
    (week_pool("price_pool", 20, lambda old: [float("nan")] + old[1:]),
     "price pool for week 21 has values outside [0, 1] or NaN"),
    (week_pool("inflow_pool", 20, lambda old: [float("nan")] + old[1:]),
     "inflow pool for week 21 has values outside [0, 1] or NaN"),
    (week_pool("price_pool", 0, lambda old: [old]),
     "price pool for week 1 must be a flat list of numbers"),
    (week_pool("price_pool", 0, lambda old: old[0]),
     "price pool for week 1 must be a flat list of numbers"),
    # float() and numpy would read these as 0.5, 0.5 and 1.0
    (week_pool("price_pool", 3, lambda old: ["0.5"] + old[1:]),
     "price pool for week 4 must be a flat list of numbers"),
    (week_pool("inflow_pool", 3, lambda old: old[:-1] + [" 0.5 "]),
     "inflow pool for week 4 must be a flat list of numbers"),
    (week_pool("inflow_pool", 51, lambda old: [True] + old[1:]),
     "inflow pool for week 52 must be a flat list of numbers"),
    (week_pool("price_pool", 7, lambda old: [10**400] + old[1:]),
     "pools.json: malformed pools file (int too large to convert to float)"),
    (set_price_max(10**400),
     "pools.json: malformed pools file (int too large to convert to float)"),
    (set_price_max("1.0"), "pools.json: malformed pools file (price_max must be a number)"),
    (set_price_max(-5), "price_max must be finite and > 0, got -5.0"),
    (set_price_max(0), "price_max must be finite and > 0, got 0.0"),
    (set_price_max(float("nan")), "price_max must be finite and > 0, got nan"),
    (set_price_max(float("inf")), "price_max must be finite and > 0, got inf"),
], ids=["price_pool", "inflow_pool", "nested_week_pool", "scalar_week_pool",
        "string_in_week_pool", "padded_string_in_week_pool", "bool_in_week_pool",
        "huge_int_in_week_pool", "huge_int_price_max", "string_price_max",
        "negative_price_max", "zero_price_max", "nan_price_max", "inf_price_max"])
def test_nan_in_pools_file_exit_4(tamper, message, tmp_path, trained_files, pools_file, capsys):
    ckpt, _ = trained_files
    doc = json.loads(pools_file.read_text())
    tamper(doc)
    bad = tmp_path / "pools.json"
    bad.write_text(json.dumps(doc))
    common = ["--pools", str(bad), "--seed", "1"]
    assert run([
        "train", *common, "--total-weeks", "52", "--hidden-width", "8",
        "--out", str(tmp_path / "ck.json"), "--log", str(tmp_path / "log.csv"),
    ]) == 4
    assert run(["evaluate", "--checkpoint", str(ckpt), *common, "--out", str(tmp_path / "e.csv")]) == 4
    assert run(["plan", "--checkpoint", str(ckpt), *common, "--out", str(tmp_path / "p.csv")]) == 4
    assert capsys.readouterr().err.count(message) == 3
    assert not (tmp_path / "log.csv").exists()


# What a single mutation may put in place of any value of a checkpoint or pools file.
DELETE = "<delete>"
MUTANTS = [DELETE, None, True, 0.0, -0.0, 2**70, 1e308, "nan", "1e400", [], {}]


def value_paths(doc, path=()):
    """Yield the path to each value inside the decoded JSON `doc`. Of a list of scalars
    only the first and last items are taken, so that long arrays do not crowd out the rest."""
    if isinstance(doc, dict):
        items = list(doc.items())
    elif isinstance(doc, list):
        items = list(enumerate(doc))
        if not any(isinstance(value, (dict, list)) for value in doc):
            items = items[:1] + items[1:][-1:]
    else:
        return
    for key, value in items:
        yield (*path, key)
        yield from value_paths(value, (*path, key))


def mutated(doc, path, mutant):
    """A copy of `doc` whose value at `path` is deleted or replaced by `mutant`."""
    doc = copy.deepcopy(doc)
    *parents, key = path
    node = doc
    for k in parents:
        node = node[k]
    if mutant == DELETE:
        del node[key]
    else:
        node[key] = copy.deepcopy(mutant)
    return doc


@pytest.fixture(scope="module")
def mutation_inputs(tmp_path_factory):
    """A small checkpoint with its replay and a small pools file, decoded, and the
    directory to write their mutants to; both serve `inspect` and `plan` as they are."""
    d = tmp_path_factory.mktemp("mutations")
    pools, ckpt = d / "pools.json", d / "ckpt.json"
    assert run(["gen-scenarios", "--mode", "artificial", "--seed", "2",
                "--samples-per-week", "2", "--out", str(pools)]) == 0
    assert run(["train", "--pools", str(pools), "--total-weeks", "104",
                "--exploration-weeks", "52", "--batch-size", "10", "--hidden-width", "3",
                "--include-replay", "--seed", "2", "--out", str(ckpt),
                "--log", str(d / "log.csv")]) == 0
    docs = {"ckpt": json.loads(ckpt.read_text()), "pools": json.loads(pools.read_text())}
    return docs, {name: list(value_paths(doc)) for name, doc in docs.items()}, d


def inspect_and_plan(d, docs):
    """Write `docs` to `d`; return the exit codes of `inspect` and `plan` on them."""
    for name, doc in docs.items():
        (d / f"{name}.json").write_text(json.dumps(doc))
    ckpt, pools = str(d / "ckpt.json"), str(d / "pools.json")
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return (run(["inspect", "--checkpoint", ckpt]),
                run(["plan", "--checkpoint", ckpt, "--pools", pools, "--seed", "1",
                     "--out", str(d / "plan.csv")]))


def test_unmutated_inputs_serve(mutation_inputs):
    docs, _, d = mutation_inputs
    assert inspect_and_plan(d, docs) == (0, 0)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data())
def test_mutated_inputs_exit_0_or_4(mutation_inputs, data):
    # a loader either takes a single-value mutation or rejects it as a corrupt file
    docs, paths, d = mutation_inputs
    name = data.draw(st.sampled_from(sorted(docs)), label="file")
    path = data.draw(st.sampled_from(paths[name]), label="path")
    mutant = data.draw(st.sampled_from(MUTANTS), label="mutant")
    codes = inspect_and_plan(d, {**docs, name: mutated(docs[name], path, mutant)})
    assert set(codes) <= {0, 4}, codes


def open_failing_writes(real_open=open):
    """An `open` whose files opened for writing take half of the first write, then fail."""

    def fake_open(path, mode="r", *args, **kwargs):
        fh = real_open(path, mode, *args, **kwargs)
        if "w" in mode:
            real_write = fh.write

            def write(text):
                real_write(text[: len(text) // 2])
                raise OSError("disk full")

            fh.write = write
        return fh

    return fake_open


@pytest.mark.parametrize("command", ["gen-scenarios", "evaluate", "plan"])
def test_failed_write_keeps_previous_output(command, tmp_path, trained_files, pools_file,
                                            monkeypatch, capsys):
    ckpt, _ = trained_files
    out = tmp_path / "out"
    argv = {
        "gen-scenarios": ["gen-scenarios", "--mode", "artificial", "--samples-per-week", "10"],
        "evaluate": ["evaluate", "--checkpoint", str(ckpt), "--pools", str(pools_file),
                     "--episodes", "2"],
        "plan": ["plan", "--checkpoint", str(ckpt), "--pools", str(pools_file)],
    }[command] + ["--out", str(out)]
    assert run(argv + ["--seed", "1"]) == 0
    previous = out.read_bytes()
    # every output file is written by the one shared writer in hydrosac.scenario
    monkeypatch.setattr(sc, "open", open_failing_writes(), raising=False)
    assert run(argv + ["--seed", "2"]) == cli.EXIT_USAGE
    assert "disk full" in capsys.readouterr().err
    assert out.read_bytes() == previous
    assert [p.name for p in tmp_path.iterdir()] == ["out"]
    monkeypatch.undo()
    assert run(argv + ["--seed", "2"]) == 0
    assert out.read_bytes() != previous


# ---------------------------------------------------------------------------
# settings: flags over the config file over the defaults
# ---------------------------------------------------------------------------

def train_settings(monkeypatch, tmp_path, argv, config=None):
    """The TrainConfig and pools that `train argv` hands to the trainer, without training."""
    seen = {}

    def fake_train(cfg, pools, checkpoint_path=None):
        seen["cfg"], seen["pools"] = cfg, pools
        return None, [tr.EpisodeRecord(0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)]

    monkeypatch.setattr(tr, "train", fake_train)
    if config is not None:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        argv = [*argv, "--config", str(path)]
    assert run([
        "train", *argv, "--out", str(tmp_path / "ck.json"), "--log", str(tmp_path / "log.csv"),
    ]) == 0
    return seen["cfg"], seen["pools"]


@pytest.fixture(scope="module")
def historic_pools_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("historic") / "pools.json"
    assert run([
        "gen-scenarios", "--mode", "historic", "--synthetic-historic", "--seed", "3",
        "--samples-per-week", "5", "--out", str(path),
    ]) == 0
    return path


@pytest.mark.parametrize("historic, argv, config, exploration, rule", [
    (True, [], None, 50_000, "max_price"),
    (False, [], None, 10_000, "last_week_price"),
    (True, ["--exploration-weeks", "7"], None, 7, "max_price"),
    (True, ["--terminal-rule", "last_week_price"], None, 50_000, "last_week_price"),
    (True, [], {"train": {"exploration_weeks": 9}, "env": {"terminal_price_rule": "last_week_price"}},
     9, "last_week_price"),
    (False, ["--exploration-weeks", "8"], {"train": {"exploration_weeks": 9}}, 8, "last_week_price"),
    (True, ["--terminal-rule", "max_price"], {"env": {"terminal_price_rule": "last_week_price"}},
     50_000, "max_price"),
], ids=["historic", "artificial", "historic_flag", "historic_rule_flag", "historic_file",
        "flag_over_file", "rule_flag_over_file"])
def test_pools_mode_defaults(historic, argv, config, exploration, rule, monkeypatch, tmp_path,
                             pools_file, historic_pools_file):
    pools = historic_pools_file if historic else pools_file
    cfg, _ = train_settings(monkeypatch, tmp_path, ["--pools", str(pools), *argv], config)
    assert (cfg.exploration_weeks, cfg.env.terminal_price_rule) == (exploration, rule)


def test_exploration_clamped_to_total_weeks(monkeypatch, tmp_path, historic_pools_file):
    cfg, _ = train_settings(monkeypatch, tmp_path, ["--pools", str(historic_pools_file),
                                                    "--total-weeks", "104"])
    assert (cfg.total_weeks, cfg.exploration_weeks) == (104, 104)


def test_r_max_flag_sizes_reservoir_and_inline_pools(monkeypatch, tmp_path):
    cfg, pools = train_settings(monkeypatch, tmp_path, ["--r-max", "2000"],
                                {"artificial": {"r_max": 500}, "env": {"r_max": 500}})
    assert cfg.env.r_max == 2000.0
    assert "of r_max 2000" in pools.provenance
    # without the flag the file's artificial section sizes the pools
    cfg, pools = train_settings(monkeypatch, tmp_path, [],
                                {"env": {"r_max": 700}, "artificial": {"r_max": 500}})
    assert cfg.env.r_max == 700 and "of r_max 500" in pools.provenance


def test_config_file_r_max_sizes_reservoir_and_inline_pools(monkeypatch, tmp_path):
    # a file's env.r_max sizes the pools too, when its artificial section gives no r_max
    cfg, pools = train_settings(monkeypatch, tmp_path, [],
                                {"env": {"r_max": 2000}, "artificial": {"samples_per_week": 4}})
    assert cfg.env.r_max == 2000 and "of r_max 2000" in pools.provenance
    assert all(len(pool) == 4 for pool in pools.price_pool)


def test_r_max_flag_on_gen_scenarios_and_evaluate(tmp_path, trained_files, monkeypatch):
    out = tmp_path / "pools.json"
    assert run(["gen-scenarios", "--mode", "artificial", "--r-max", "2000", "--out", str(out)]) == 0
    assert "of r_max 2000" in json.loads(out.read_text())["provenance"]
    seen = {}
    real_evaluate = tr.evaluate

    def spy(ckpt, pools, *rest):
        seen["pools"] = pools
        return real_evaluate(ckpt, pools, *rest)

    monkeypatch.setattr(tr, "evaluate", spy)
    ckpt, _ = trained_files
    assert run([
        "evaluate", "--checkpoint", str(ckpt), "--r-max", "2000", "--episodes", "1",
        "--out", str(tmp_path / "e.csv"),
    ]) == 0
    assert "of r_max 2000" in seen["pools"].provenance


@pytest.mark.parametrize("flag, file_seed, env_seed, expected", [
    ("3", 5, "7", 3),
    (None, 5, "7", 5),
    (None, None, "7", 7),
    (None, None, None, 0),
    ("0", 5, None, 0),
])
def test_train_seed_order(flag, file_seed, env_seed, expected, monkeypatch, tmp_path, pools_file):
    monkeypatch.delenv("HYDROSAC_SEED", raising=False)
    if env_seed is not None:
        monkeypatch.setenv("HYDROSAC_SEED", env_seed)
    argv = ["--pools", str(pools_file)] + ([] if flag is None else ["--seed", flag])
    config = {"train": {} if file_seed is None else {"seed": file_seed}}
    cfg, _ = train_settings(monkeypatch, tmp_path, argv, config)
    assert cfg.seed == expected


@pytest.mark.parametrize("command, argv, config, env, code, message", [
    ("train", [], {"env": {"f_max": "abc"}}, None, 2, "f_max must be float"),
    ("train", [], {"train": {"batch_size": 10.5}}, None, 2, "batch_size must be int"),
    ("train", [], {"train": {"include_replay_in_checkpoint": 1}}, None, 2, "must be bool"),
    ("train", [], {"train": {"agent": []}}, None, 2, "section 'agent' must be a JSON object"),
    ("train", [], {"env": 3}, None, 2, "section 'env' must be a JSON object"),
    ("gen-scenarios", [], {"artificial": {"samples_per_week": "10"}}, None, 2, "must be int"),
    ("train", ["--samples-per-week", "0"], None, None, 2, "samples_per_week must be >= 1"),
    ("gen-scenarios", ["--samples-per-week", "0"], None, None, 2, "samples_per_week must be >= 1"),
    ("train", ["--seed", "-1"], None, None, 2, "seed must be >= 0"),
    ("train", [], {"train": {"seed": -2}}, None, 2, "seed must be >= 0"),
    ("train", [], None, "-3", 2, "seed must be >= 0"),
    ("gen-scenarios", ["--seed", "-1"], None, None, 2, "seed must be >= 0"),
    ("gen-scenarios", [], None, "-3", 2, "seed must be >= 0"),
    ("evaluate", ["--seed", "-1"], None, None, 2, "seed must be >= 0"),
    ("evaluate", [], None, "-3", 2, "seed must be >= 0"),
    ("plan", ["--seed", "-1"], None, None, 2, "seed must be >= 0"),
    ("plan", [], None, "-3", 2, "seed must be >= 0"),
    ("train", ["--k-price", "nan"], None, None, 2, "k_price must be finite, got nan"),
    ("train", ["--q-price", "inf"], None, None, 2, "q_price must be finite, got inf"),
    # (price * k) ** q would be complex
    ("train", ["--k-price", "-1", "--q-price", "1.5"], None, None, 2,
     "k_price and q_price must be > 0"),
    ("train", ["--checkpoint-every", "-3"], None, None, 2,
     "checkpoint_every_episodes must be >= 0 (0 disables it)"),
    ("train", ["--alpha", "nan"], None, None, 2, "alpha must be finite, got nan"),
    ("train", ["--lr-policy", "nan"], None, None, 2, "lr_policy must be finite, got nan"),
    ("train", [], {"train": {"agent": {"lr_q": float("inf")}}}, None, 2,
     "lr_q must be finite, got inf"),
    # a negative learning rate trains by gradient ascent
    ("train", ["--lr-q", "-0.5"], None, None, 2, "lr_q must be >= 0"),
    ("train", ["--lr-policy", "-1"], None, None, 2, "lr_policy must be >= 0"),
    ("train", ["--lr-value", "-0.001"], None, None, 2, "lr_value must be >= 0"),
    ("train", [], {"train": {"agent": {"rmsprop_rho": 1.5}}}, None, 2,
     "rmsprop_rho must be in [0, 1)"),
    ("train", [], {"train": {"agent": {"rmsprop_rho": 1}}}, None, 2,
     "rmsprop_rho must be in [0, 1)"),
    ("train", [], {"train": {"agent": {"rmsprop_rho": -0.5}}}, None, 2,
     "rmsprop_rho must be in [0, 1)"),
    ("train", [], {"train": {"agent": {"log_std_min": 3, "log_std_max": -3}}}, None, 2,
     "log_std_min must be <= log_std_max"),
    # a negative bound is a uniform draw of negative width
    ("train", [], {"train": {"agent": {"init_bound": -1}}}, None, 2, "init_bound must be >= 0"),
    # a negative eps trains to exit 0, and 0 divides 0 by 0 on an untouched accumulator
    ("train", [], {"train": {"agent": {"rmsprop_eps": -1}}}, None, 2, "rmsprop_eps must be > 0"),
    ("train", [], {"train": {"agent": {"rmsprop_eps": 0}}}, None, 2, "rmsprop_eps must be > 0"),
    # the update would take the log of a negative density
    ("train", [], {"train": {"agent": {"squash_prob_floor": -0.5}}}, None, 2,
     "squash_prob_floor must be >= 0"),
    ("train", ["--pools", "{pools}", "--r-max", "nan"], None, None, 2,
     "r_max must be finite, got nan"),
    ("train", ["--pools", "{pools}", "--r-max", "inf"], None, None, 2,
     "r_max must be finite, got inf"),
    ("train", ["--annual-inflow", "inf"], None, None, 2, "annual_inflow must be finite, got inf"),
    # too large for a float, so not finite either
    ("train", [], {"env": {"k_price": 10**400}}, None, 2, "k_price must be finite, got 1000"),
    ("train", [], {"train": {"agent": {"alpha": -10**400}}}, None, 2,
     "alpha must be finite, got -1000"),
    ("gen-scenarios", [], {"artificial": {"price_low": 10**400}}, None, 2,
     "price_low must be finite, got 1000"),
    ("plan", ["--config", "{missing}"], None, None, 2, "config file not found"),
    ("plan", ["--scenario", "{scenario}", "--config", "{missing}"], None, None, 2,
     "config file not found"),
    ("train", ["--out", "{nodir}/ck.json"], None, None, 2, "none/ck.json: directory "),
    ("train", ["--log", "{nodir}/log.csv"], None, None, 2, "none/log.csv: directory "),
    ("plan", [], "{not json", None, 4, "is not valid JSON"),
    ("plan", ["--scenario", "{scenario}"], "{not json", None, 4, "is not valid JSON"),
    ("evaluate", ["--out", "{nodir}/e.csv"], None, None, 2, "none/e.csv: directory "),
    ("plan", ["--out", "{nodir}/p.csv"], None, None, 2, "none/p.csv: directory "),
    ("train", ["--out", "{here}"], None, None, 2, " is a directory"),
    ("train", ["--log", "{here}"], None, None, 2, " is a directory"),
    ("evaluate", ["--out", "{here}"], None, None, 2, " is a directory"),
    ("plan", ["--out", "{here}"], None, None, 2, " is a directory"),
    ("gen-scenarios", ["--out", "{nodir}/pools.json"], None, None, 2, "none/pools.json: directory "),
    ("gen-scenarios", ["--out", "{here}"], None, None, 2, " is a directory"),
    # an empty path names no file, so no output could be written to it
    ("train", ["--out", ""], None, None, 2, "--out must name a file, not an empty path"),
    ("train", ["--log", ""], None, None, 2, "--log must name a file, not an empty path"),
    ("evaluate", ["--out", ""], None, None, 2, "--out must name a file, not an empty path"),
    ("plan", ["--out", ""], None, None, 2, "--out must name a file, not an empty path"),
    ("gen-scenarios", ["--out", ""], None, None, 2, "--out must name a file, not an empty path"),
    # a missing input exits 2 and is named, by kind and path, on one line
    ("inspect", ["--checkpoint", "{missing}"], None, None, 2,
     "error: checkpoint not found: {missing}\n"),
    ("evaluate", ["--checkpoint", "{missing}"], None, None, 2,
     "error: checkpoint not found: {missing}\n"),
    ("plan", ["--checkpoint", "{missing}"], None, None, 2,
     "error: checkpoint not found: {missing}\n"),
    ("train", ["--pools", "{missing}"], None, None, 2, "error: pools file not found: {missing}\n"),
    ("evaluate", ["--pools", "{missing}"], None, None, 2,
     "error: pools file not found: {missing}\n"),
    ("plan", ["--pools", "{missing}"], None, None, 2, "error: pools file not found: {missing}\n"),
    ("plan", ["--scenario", "{missing}"], None, None, 2,
     "error: scenario file not found: {missing}\n"),
    ("gen-scenarios", ["--mode", "historic", "--prices", "{missing}", "--inflows", "{inflows}"],
     None, None, 2, "error: input file not found: {missing}\n"),
    ("gen-scenarios", ["--mode", "historic", "--prices", "{prices}", "--inflows", "{inflows}",
                       "{missing}"], None, None, 2, "error: input file not found: {missing}\n"),
    # an output may not overwrite an input or the other output: the same real path,
    # however it is spelled, is refused before any work
    ("train", ["--out", "{here}/same.csv", "--log", "{here}/same.csv"], None, None, 2,
     "error: --log {here}/same.csv is also --out\n"),
    ("train", ["--pools", "{pools}", "--out", "{pools}"], None, None, 2,
     "error: --out {pools} is also --pools\n"),
    ("train", ["--pools", "{pools}", "--log", "./pools.json"], None, None, 2,
     "error: --log ./pools.json is also --pools\n"),
    ("train", ["--pools", "{pools}", "--out", "{link}"], None, None, 2,
     "error: --out {link} is also --pools\n"),
    ("train", ["--out", "{config}"], {"train": {"seed": 1}}, None, 2,
     "error: --out {config} is also --config\n"),
    ("evaluate", ["--out", "{ckpt}"], None, None, 2, "error: --out {ckpt} is also --checkpoint\n"),
    ("evaluate", ["--pools", "{pools}", "--out", "./pools.json"], None, None, 2,
     "error: --out ./pools.json is also --pools\n"),
    ("plan", ["--out", "./ckpt.json"], None, None, 2,
     "error: --out ./ckpt.json is also --checkpoint\n"),
    ("plan", ["--scenario", "{scenario}", "--out", "{scenario}"], None, None, 2,
     "error: --out {scenario} is also --scenario\n"),
    ("plan", ["--pools", "{pools}", "--out", "{link}"], None, None, 2,
     "error: --out {link} is also --pools\n"),
    ("gen-scenarios", ["--mode", "historic", "--prices", "{prices}", "--inflows", "{inflows}",
                       "--out", "{prices}"], None, None, 2, "error: --out {prices} is also --prices\n"),
    ("gen-scenarios", ["--mode", "historic", "--prices", "{prices}", "--inflows", "{inflows}",
                       "--out", "./inflow0.csv"], None, None, 2,
     "error: --out ./inflow0.csv is also --inflows\n"),
    ("gen-scenarios", ["--out", "{config}"], {"artificial": {"samples_per_week": 3}}, None, 2,
     "error: --out {config} is also --config\n"),
], ids=[
    "file_f_max_text", "file_batch_size_float", "file_include_replay_int", "file_agent_list",
    "file_env_number", "file_samples_text", "train_samples_zero", "gen_samples_zero",
    "train_seed_flag", "train_seed_file", "train_seed_env", "gen_seed_flag", "gen_seed_env",
    "evaluate_seed_flag", "evaluate_seed_env", "plan_seed_flag", "plan_seed_env",
    "train_k_price_nan", "train_q_price_inf", "train_k_price_negative",
    "train_checkpoint_every_negative", "train_alpha_nan", "train_lr_policy_nan",
    "file_lr_q_inf", "train_lr_q_negative", "train_lr_policy_negative",
    "train_lr_value_negative", "file_rmsprop_rho_above_one", "file_rmsprop_rho_one",
    "file_rmsprop_rho_negative", "file_log_std_bounds_crossed", "file_init_bound_negative",
    "file_rmsprop_eps_negative", "file_rmsprop_eps_zero", "file_squash_prob_floor_negative",
    "train_pools_r_max_nan", "train_pools_r_max_inf", "train_annual_inflow_inf",
    "file_k_price_huge_int", "file_alpha_huge_int", "gen_price_low_huge_int",
    "plan_config_missing", "plan_scenario_config_missing", "train_out_dir_missing",
    "train_log_dir_missing", "plan_config_corrupt",
    "plan_scenario_config_corrupt", "evaluate_out_dir_missing", "plan_out_dir_missing",
    "train_out_is_dir", "train_log_is_dir", "evaluate_out_is_dir", "plan_out_is_dir",
    "gen_out_dir_missing", "gen_out_is_dir", "train_out_empty", "train_log_empty",
    "evaluate_out_empty", "plan_out_empty", "gen_out_empty",
    "inspect_checkpoint_missing", "evaluate_checkpoint_missing", "plan_checkpoint_missing",
    "train_pools_missing", "evaluate_pools_missing", "plan_pools_missing",
    "plan_scenario_missing", "gen_prices_missing", "gen_inflows_missing",
    "train_log_is_out", "train_out_is_pools", "train_log_is_pools_relative",
    "train_out_links_to_pools", "train_out_is_config", "evaluate_out_is_checkpoint",
    "evaluate_out_is_pools_relative", "plan_out_is_checkpoint_relative", "plan_out_is_scenario",
    "plan_out_links_to_pools", "gen_out_is_prices", "gen_out_is_inflows_relative",
    "gen_out_is_config",
])
def test_bad_settings_exit_code(command, argv, config, env, code, message, tmp_path,
                                tmp_path_factory, monkeypatch, trained_files, pools_file,
                                scenario_file, capsys):
    monkeypatch.delenv("HYDROSAC_SEED", raising=False)
    if env is not None:
        monkeypatch.setenv("HYDROSAC_SEED", env)
    # The inputs are copies, since a row may name one as an output, in a directory of their
    # own, which is also the working directory that a relative path starts from.
    inputs = tmp_path_factory.mktemp("inputs")
    monkeypatch.chdir(inputs)
    for source in (trained_files[0], pools_file, scenario_file):
        shutil.copy(source, inputs)
    prices, (inflows,) = historic_csvs(inputs, n_inflows=1)
    (inputs / "link.json").symlink_to(inputs / "pools.json")
    names = {"ckpt": inputs / "ckpt.json", "pools": inputs / "pools.json",
             "scenario": inputs / "scn.csv", "prices": prices, "inflows": inflows,
             "link": inputs / "link.json", "config": tmp_path / "cfg.json",
             "missing": tmp_path / "none.json", "nodir": tmp_path / "none", "here": tmp_path}
    argv = [arg.format(**names) for arg in argv]
    outputs = {
        "train": ["--total-weeks", "52", "--hidden-width", "8", "--out", str(tmp_path / "ck.json"),
                  "--log", str(tmp_path / "log.csv")],
        "gen-scenarios": ["--mode", "artificial", "--out", str(tmp_path / "pools.json")],
        "evaluate": ["--checkpoint", str(names["ckpt"]), "--episodes", "1",
                     "--out", str(tmp_path / "e.csv")],
        "plan": ["--checkpoint", str(names["ckpt"]), "--out", str(tmp_path / "p.csv")],
        "inspect": [],
    }
    if config is not None:
        names["config"].write_text(config if isinstance(config, str) else json.dumps(config))
        argv = [*argv, "--config", str(names["config"])]
    before = {p: p.read_bytes() for d in (inputs, tmp_path) for p in d.iterdir()}
    # argv comes last, so that its --out or --log replaces the default output
    assert run([command, *outputs[command], *argv]) == code
    assert message.format(**names) in capsys.readouterr().err
    # nothing is written: neither output, nor a missing --out or --log directory
    assert sorted(p.name for p in tmp_path.iterdir()) == (["cfg.json"] if config else [])
    # and every input is as it was
    assert {p: p.read_bytes() for p in before} == before


@pytest.mark.parametrize("command", ["train", "evaluate", "plan", "gen-scenarios"])
@pytest.mark.parametrize("bad", ["missing_dir", "is_dir", "empty"])
def test_bad_output_path_exits_before_any_episode(command, bad, tmp_path, monkeypatch,
                                                  trained_files, pools_file, capsys):
    def no_episode(*args, **kwargs):
        raise AssertionError("an episode was played or pools were built")

    monkeypatch.setattr(tr, "rollout", no_episode)
    monkeypatch.setattr(tr, "train", no_episode)
    monkeypatch.setattr(sc, "generate_artificial_pools", no_episode)
    monkeypatch.setattr(sc, "build_pools", no_episode)
    out = {"missing_dir": str(tmp_path / "none" / "out"), "is_dir": str(tmp_path), "empty": ""}[bad]
    ckpt, _ = trained_files
    argv = {"train": ["--pools", str(pools_file), "--total-weeks", "52", "--out", out],
            "evaluate": ["--checkpoint", str(ckpt), "--pools", str(pools_file), "--out", out],
            "plan": ["--checkpoint", str(ckpt), "--pools", str(pools_file), "--out", out],
            "gen-scenarios": ["--mode", "artificial", "--out", out]}
    assert run([command, *argv[command]]) == 2
    assert f"--out {out}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["evaluate", "plan"])
def test_corrupt_checkpoint_exits_4_before_the_output_check(command, tmp_path, capsys):
    ckpt = tmp_path / "ckpt.json"
    ckpt.write_text("{not json")
    assert run([command, "--checkpoint", str(ckpt), "--out", str(tmp_path / "none" / "o.csv")]) == 4
    assert "is not valid JSON" in capsys.readouterr().err


# each config section, by the name of its flags' prefix and of its config file key
CONFIG_SECTIONS = {"train": tr.TrainConfig, "agent": SacConfig, "env": EnvConfig,
                   "artificial": ArtificialConfig}


def test_every_settings_flag_names_a_config_field():
    subparsers = next(a for a in cli.build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    counts = {}
    for command, parser in subparsers.choices.items():
        counts[command] = 0
        for action in parser._actions:
            if "." in action.dest:
                section, field = action.dest.split(".")
                names = {f.name for f in dataclasses.fields(CONFIG_SECTIONS[section])}
                assert field in names, f"{command} {action.option_strings}: no field {action.dest}"
                assert action.default is argparse.SUPPRESS
                counts[command] += 1
    assert counts == {"gen-scenarios": 6, "train": 27, "evaluate": 14, "plan": 5, "inspect": 0}


def edge_settings():
    """(section, field, value) of every numeric config field at each edge value."""
    for section, cls in CONFIG_SECTIONS.items():
        for f in dataclasses.fields(cls):
            if f.type is int:
                values = (-1, 0, 1, 3)
            elif f.type is float:
                values = (-1.0, 0.0, 1e-300, 2.0, 1e300, -1e300)
            else:
                continue
            for value in values:
                yield section, f.name, value


def test_every_numeric_setting_exits_0_2_or_3(tmp_path, monkeypatch, capsys):
    # a new config field is swept without an edit; no value may crash train
    monkeypatch.delenv("HYDROSAC_SEED", raising=False)
    path = tmp_path / "cfg.json"
    outputs = ["--out", str(tmp_path / "ck.json"), "--log", str(tmp_path / "log.csv")]
    failures = []
    for section, name, value in edge_settings():
        doc = {"train": {"total_weeks": 104, "exploration_weeks": 52, "batch_size": 10,
                         "agent": {"hidden_width": 4}},
               "artificial": {"samples_per_week": 3}}
        (doc["train"]["agent"] if section == "agent" else doc.setdefault(section, {}))[name] = value
        path.write_text(json.dumps(doc))
        try:
            with np.errstate(all="ignore"):
                code = run(["train", "--config", str(path), *outputs])
        except Exception as e:  # an escape is a failure, reported with the rest
            code = f"{type(e).__name__}: {e}"
        capsys.readouterr()
        if code not in (0, 2, 3):
            failures.append((section, name, value, code))
    assert failures == []


# Each size is PiB, past any address space, so numpy refuses it before
# touching memory; a size the kernel might grant would fill it instead.
@pytest.mark.parametrize("command, argv", [
    ("train", ["--total-weeks", "1000000000000000"]),  # the replay: 35.5 PiB
    ("train", ["--hidden-width", "100000000000000"]),  # the policy's first layer: 3.55 PiB
    ("gen-scenarios", ["--mode", "artificial", "--samples-per-week", "1000000000000000"]),
], ids=["train_replay", "train_hidden_width", "gen_samples_per_week"])
def test_size_too_large_to_allocate_exit_2(command, argv, tmp_path, capsys):
    outputs = {"train": ["--out", str(tmp_path / "ck.json"), "--log", str(tmp_path / "log.csv")],
               "gen-scenarios": ["--out", str(tmp_path / "pools.json")]}
    assert run([command, *argv, *outputs[command]]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: Unable to allocate") and "PiB" in err, err
    assert list(tmp_path.iterdir()) == []
