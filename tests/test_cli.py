import json

import numpy as np
import pytest

from hydrosac import cli
from hydrosac.cli import main


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
        with np.errstate(invalid="ignore"):
            code = run([
                "train", "--pools", str(pools_file), "--total-weeks", "104",
                "--exploration-weeks", "0", "--batch-size", "10",
                "--hidden-width", "8", "--seed", "1", "--lr-q", "inf",
                "--out", str(tmp_path / "ck.json"), "--log", str(log),
            ])
        assert code == 3
        assert log.exists()  # partial log retained

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
            "--seed", "1", "--out", str(overridden),
        ]) == 0
        err = capsys.readouterr().err
        assert "warning" in err and "f-max" in err
        # the checkpoint's environment echo wins: the override changed nothing
        assert plain.read_bytes() == overridden.read_bytes()

    def test_corrupt_checkpoint(self, tmp_path, pools_file):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        assert run([
            "evaluate", "--checkpoint", str(bad), "--pools", str(pools_file),
            "--episodes", "1", "--out", str(tmp_path / "e.csv"),
        ]) == 4


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

    def test_short_scenario_rejected(self, tmp_path, trained_files):
        ckpt, _ = trained_files
        scn = tmp_path / "scn.csv"
        rows = ["week,price,inflow"] + [f"{w},0.5,0.01" for w in range(1, 52)]
        scn.write_text("\n".join(rows) + "\n")
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


@pytest.mark.parametrize("tamper, message", [
    (unknown_trunk_activation, "unknown activation 'tanh'"),
    (narrow_trunk_input, "network policy_trunk has widths [4, 12, 12]"),
    (no_q1_layers, "an Mlp needs at least one layer"),
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
    assert message in capsys.readouterr().err
