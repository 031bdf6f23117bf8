"""The benchmark tags its spans with the program's network and optimizer names.

perfbench/layers.py keeps its own copies of those names; a name it lacks tags
a span as "other". This checks that the copies and the program agree.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import layers  # noqa: E402

from hydrosac.sac import NETWORKS, OPTIMIZERS  # noqa: E402


def test_benchmark_names_match_the_agent():
    assert set(layers.NETS) == set(NETWORKS)
    assert set(layers.OPTIMIZERS) == set(OPTIMIZERS)
