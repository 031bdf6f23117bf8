"""Arithmetic of the benchmark: tracer self times, percentiles, host-speed scaling.

Run from the root of a checkout: python3 -m pytest perfbench/tests
"""

import json
import sys
import types
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
sys.path.insert(0, str(HERE.parent.parent / "src"))

from spans import Tracer, inside, percentile, self_times  # noqa: E402


def test_percentile_interpolates_between_ranks():
    xs = [4.0, 1.0, 3.0, 2.0, 5.0]
    assert percentile(xs, 0) == 1.0
    assert percentile(xs, 50) == 3.0
    assert percentile(xs, 100) == 5.0
    assert percentile(xs, 90) == pytest.approx(4.6)
    assert percentile([7.0], 90) == 7.0
    assert percentile(range(1, 101), 90) == pytest.approx(np.percentile(range(1, 101), 90))


def test_percentile_of_nothing_raises():
    with pytest.raises(ValueError):
        percentile([], 50)


def test_self_time_subtracts_direct_children_only():
    # root [0, 10] has children a [1, 4] and b [5, 9]; a has child c [2, 3]
    parents = [-1, 0, 1, 0]
    starts = [0.0, 1.0, 2.0, 5.0]
    ends = [10.0, 4.0, 3.0, 9.0]
    assert self_times(parents, starts, ends).tolist() == [3.0, 2.0, 1.0, 4.0]


def test_self_times_sum_to_root_durations():
    rng = np.random.default_rng(3)
    parents, starts, ends = [], [], []

    def build(parent, lo, hi, depth):
        i = len(parents)
        parents.append(parent)
        starts.append(lo)
        ends.append(hi)
        if depth:
            cuts = np.sort(rng.uniform(lo, hi, 4))
            build(i, cuts[0], cuts[1], depth - 1)
            build(i, cuts[2], cuts[3], depth - 1)

    build(-1, 0.0, 5.0, 4)
    build(-1, 6.0, 8.0, 3)
    assert self_times(parents, starts, ends).sum() == pytest.approx(5.0 + 2.0)
    assert (self_times(parents, starts, ends) >= 0).all()


def test_inside_marks_whole_subtrees():
    #   0        4
    #   +-1      +-5 (marked)
    #     +-2      +-6
    #   +-3 (marked)
    parents = [-1, 0, 1, 0, -1, 4, 5]
    marked = [False, False, False, True, False, True, False]
    assert inside(parents, marked).tolist() == [False, False, False, True, False, True, True]


def test_tracer_folds_nested_calls_and_restores_originals():
    mod = types.ModuleType("pkg.leaf")

    def inner(x):
        return x + 1

    def outer(x):
        return mod.inner(x) * 2

    inner.__module__ = outer.__module__ = mod.__name__
    mod.inner, mod.outer = inner, outer
    tracer = Tracer(context=("leaf.outer",), keep=("leaf.outer",))
    tracer.install([mod])
    assert mod.outer(1) == 4 and mod.inner(0) == 1
    tracer.uninstall()
    assert mod.outer is outer and mod.inner is inner
    tracer.fold()
    out, inn = tracer.table[("leaf.outer", None)], tracer.table[("leaf.inner", None)]
    assert (out.calls, inn.calls, inn.calls_in) == (1, 2, 1)
    assert out.self_s == pytest.approx(out.total - inn.total / 2, abs=1e-4)
    assert len(out.durations) == 1 and out.durations[0] == out.total


def test_fold_refuses_open_spans():
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with tracer.span("bench.x"):
            tracer.fold()


def test_host_speed_scales_by_nearby_reference_samples():
    from hostspeed import NOMINAL_S, WINDOW_S, HostSpeed

    speed = HostSpeed()
    speed.times = [0.0, 10.0, 11.0, 30.0]
    speed.durations = {"python": [1.0, 2.0, 4.0, 8.0], "blas": [1.0, 1.0, 1.0, 1.0]}
    assert speed.factor("python", 10.5, 10.6) == pytest.approx(NOMINAL_S["python"] / 3.0)
    assert speed.factor("python", 30.0 + WINDOW_S, 31.0) == pytest.approx(
        NOMINAL_S["python"] / 8.0)
    # no sample near the call: all samples count
    assert speed.factor("python", 20.0, 20.0) == pytest.approx(NOMINAL_S["python"] / 3.75)


def test_host_speed_splits_reference_time_by_episode():
    from hostspeed import HostSpeed

    speed = HostSpeed()
    speed.marks = [(5.0, 99.0), (1.0, 0.5), (2.0, 0.5), (3.0, 0.7)]
    assert speed.episodes(1, 0.25, 4.5) == [(1.0, 2.0, 0.25), (2.0, 3.0, 0.0),
                                             (3.0, 4.5, pytest.approx(0.2))]


def test_benchmark_json_lists_the_metrics_the_code_reports():
    import layers
    import run

    doc = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == layers.PER_LAYER
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {w["name"] for w in doc["workloads"]} == {"learn", "explore", "serve"}
