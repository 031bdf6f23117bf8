"""The benchmark's verify step and environment record read the program by name.

perfbench/workloads.py checks every save/load round trip through
`Checkpoint.networks`, `.optimizer_states`, `.replay` and `.restore_agent()`,
checks every in-process `cli evaluate` and `cli plan` output with
`eval_csv_problems` and `plan_csv_problems`, and perfbench/envinfo.py
records `_kernels.backend()` and `_kernels.HAS_NUMBA` in every run. A
program change that breaks one of them makes each benchmark operation
fail; this runs the benchmark's own code on a tiny agent so that the
suite fails first.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import envinfo  # noqa: E402
import workloads  # noqa: E402

from hydrosac.sac import SacConfig  # noqa: E402
from hydrosac.scenario import ArtificialConfig, generate_artificial_pools, save_pools  # noqa: E402
from hydrosac.trainer import TrainConfig, load_checkpoint, save_checkpoint, train  # noqa: E402


def test_round_trip_check_reads_a_checkpoint(tmp_path):
    cfg = TrainConfig(total_weeks=208, exploration_weeks=104, batch_size=20, seed=3,
                      include_replay_in_checkpoint=True, agent=SacConfig(hidden_width=6))
    saved, _ = train(cfg, generate_artificial_pools(ArtificialConfig(samples_per_week=5), seed=3))
    path = tmp_path / "ckpt.json"
    save_checkpoint(saved, path)
    loaded = load_checkpoint(path)
    assert saved.replay is not None and len(saved.replay["rewards"]) == 208
    assert workloads.round_trip_problems(saved, loaded) == []


def test_serve_output_checks_pass_on_the_cli(tmp_path):
    cfg = TrainConfig(total_weeks=156, exploration_weeks=104, batch_size=20, seed=4,
                      agent=SacConfig(hidden_width=6))
    pools = generate_artificial_pools(ArtificialConfig(samples_per_week=5), seed=4)
    ckpt, pools_path = tmp_path / "ckpt.json", tmp_path / "pools.json"
    save_checkpoint(train(cfg, pools)[0], ckpt)
    save_pools(pools, pools_path)
    common = ["--checkpoint", str(ckpt), "--pools", str(pools_path)]
    out = str(tmp_path / "eval.csv")
    for mode in (["--deterministic"], []):
        code, _ = workloads.call_cli(["evaluate", *common, "--episodes", "3", "--seed", "5",
                                      "--out", out, *mode])
        assert workloads.eval_csv_problems(code, out, 3) == []
    out = str(tmp_path / "plan.csv")
    code, stdout = workloads.call_cli(["plan", *common, "--seed", "6", "--out", out])
    assert workloads.plan_csv_problems(code, stdout, out) == []


def test_environment_record():
    record = envinfo.environment()
    assert {"numpy", "blas_name", "kernels_backend", "numba_imported"} <= set(record)
    assert isinstance(record["kernels_backend"], str)
