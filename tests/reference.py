"""The fixed-seed reference run and the digests that pin its bits.

A refactor must leave the reference run's training log (minus the
wall-clock column), its checkpoint and the CSV of each SERVE command on
that checkpoint byte-identical. The digests hold within a kernel set: the
OpenBLAS core and the targets numpy dispatches float64 exp, log and power
to. Run as a script,

    python tests/reference.py DIR

trains the run into DIR, serves its checkpoint, and prints the kernel set
and the five digests as one JSON object on its last line, so that a test
can take them in a child process under another kernel set.
"""

import ctypes
import glob
import hashlib
import json
import os
import sys
from pathlib import Path

import numpy as np

from hydrosac import cli
from hydrosac.scenario import ArtificialConfig, generate_artificial_pools, save_pools
from hydrosac.trainer import TrainConfig, train, write_train_log

# the serve commands, each given the reference checkpoint, its pools and an --out
SERVE = {
    "evaluate --deterministic": ["evaluate", "--episodes", "20", "--deterministic", "--seed", "7"],
    "evaluate": ["evaluate", "--episodes", "20", "--seed", "7"],
    "plan": ["plan", "--seed", "3"],
}


def blas_core():
    """The core name the OpenBLAS bundled with numpy runs, or "unknown"."""
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)  # already loaded by numpy: same handle
        for name in ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename",
                     "openblas_get_corename64_", "openblas_get_corename"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_char_p
                return fn().decode()
    return "unknown"


def numpy_dispatch():
    """The target numpy dispatches float64 exp, log and power to, as "exp X86_V4, ..."."""
    try:
        from numpy.lib.introspect import opt_func_info
        info = opt_func_info(func_name="^(exp|log|power)$", signature="float64")
        return ", ".join(f"{name} {target['current']}" for name, sigs in info.items()
                         for target in sigs.values())
    except (ImportError, KeyError, TypeError):
        return "unknown"


def train_reference(path):
    """Train the reference run into the directory `path`: ck.json, log.csv and pools.json."""
    cfg = TrainConfig(total_weeks=2080, exploration_weeks=520, batch_size=100, seed=5,
                      include_replay_in_checkpoint=True)
    pools = generate_artificial_pools(ArtificialConfig(), seed=11)
    _, records = train(cfg, pools, checkpoint_path=path / "ck.json")
    write_train_log(records, path / "log.csv")
    save_pools(pools, path / "pools.json")


def digest(data):
    return hashlib.sha256(data).hexdigest()[:16]


def log_digest(path):
    """The digest of the reference run's training log without its seconds column."""
    lines = (path / "log.csv").read_text().splitlines()
    return digest("\n".join(line.rsplit(",", 1)[0] for line in lines).encode())


def checkpoint_digest(path):
    return digest((path / "ck.json").read_bytes())


def serve_digests(path, out_dir):
    """Run each SERVE command on the reference run in `path`, writing into `out_dir`;
    returns command name -> digest of the CSV it wrote."""
    common = ["--checkpoint", str(path / "ck.json"), "--pools", str(path / "pools.json")]
    digests = {}
    for i, (name, argv) in enumerate(SERVE.items()):
        out = out_dir / f"serve{i}.csv"
        assert cli.main([*argv, *common, "--out", str(out)]) == 0, name
        digests[name] = digest(out.read_bytes())
    return digests


if __name__ == "__main__":
    directory = Path(sys.argv[1])
    train_reference(directory)
    print(json.dumps({
        "blas_core": blas_core(),
        "numpy_dispatch": numpy_dispatch(),
        "digests": {"log": log_digest(directory), "checkpoint": checkpoint_digest(directory),
                    **serve_digests(directory, directory)},
    }))
