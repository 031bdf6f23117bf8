"""The benchmark's verify step and environment record read the program by name.

perfbench/workloads.py checks every save/load round trip through
`Checkpoint.networks`, `.optimizer_states`, `.replay` and `.restore_agent()`,
and perfbench/envinfo.py records `_kernels.backend()` and `_kernels.HAS_NUMBA`
in every run. A program change that drops one of them makes each benchmark
operation fail; this runs the benchmark's own code on a tiny agent so that
the suite fails first.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import envinfo  # noqa: E402
import workloads  # noqa: E402

from hydrosac.sac import SacConfig  # noqa: E402
from hydrosac.scenario import ArtificialConfig, generate_artificial_pools  # noqa: E402
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


def test_environment_record():
    record = envinfo.environment()
    assert {"numpy", "blas_name", "kernels_backend", "numba_imported"} <= set(record)
    assert isinstance(record["kernels_backend"], str)
