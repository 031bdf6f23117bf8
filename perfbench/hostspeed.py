"""Fixed reference tasks that track the host's speed through a run.

On the shared 2-core host this benchmark was tuned on (Intel Xeon VM,
OpenBLAS 0.3.31, one BLAS thread), the speed available to one process
changes by up to 2x for seconds to minutes at a time, whatever the process
does, and whole runs often land at one level. Averaging inside a run
cannot remove that, so the benchmark times reference tasks between its
operations and scales each end-to-end time by the nominal time of a task
over its mean time within WINDOW_S of the timed call.

The slowdown depends on the kind of work: interpreter-bound Python slows
most, small BLAS products least. Hence three tasks. "python" (small
objects, five-element arrays, generator draws) matches exploration and
rollouts; "blas" (100x100 products) matches the learning updates; "json"
(decimal strings through json and float()) matches checkpoint persistence.
In probes of 150-170 s on that host, the 4-second-window variation of an
exploration train call fell from 14.5% to 2.7% when divided by the python
task, that of a learning call from 10.7% to 5.9% when divided by the blas
task, and that of a checkpoint save from 16.7% to 5.2% when divided by the
json task (7.8% by the python task).
The tasks use no hydrosac code, so a change to the program leaves them
unchanged. A reported time reads as on that host when the task takes its
nominal time; the result record keeps the unscaled values.
"""

import bisect
import json
from dataclasses import dataclass
from time import perf_counter

import numpy as np

INTERVAL_S = 0.5  # at most one round of reference samples per interval
WINDOW_S = 2.0  # reference samples this close to a call scale its time

_MATRIX = np.random.default_rng(0).random((100, 100))
_FLOATS = np.random.default_rng(1).random(4000)


@dataclass
class _Row:
    a: float
    b: float
    obs: np.ndarray


def blas_task():
    b = _MATRIX
    for _ in range(150):
        b = _MATRIX @ b
        b *= 0.01
        np.maximum(b, 0.0, out=b)
    return float(b[0, 0])


def python_task():
    rng = np.random.default_rng(0)
    total = 0.0
    for i in range(2500):
        row = _Row(float(rng.random()), i * 0.5,
                   np.array([i / 52, 0.5, 0.25, 0.125, min(i, 52.0) / 52]))
        total += row.a + row.b + float(row.obs[0])
    return total


def json_task():
    doc = json.loads(json.dumps({"values": [repr(float(x)) for x in _FLOATS]}))
    return float(np.array([float(v) for v in doc["values"]]).sum())


TASKS = {"blas": blas_task, "python": python_task, "json": json_task}
# Task times on the host above at its faster level.
NOMINAL_S = {"blas": 0.0095, "python": 0.0095, "json": 0.0095}


class HostSpeed:
    """Reference samples (midpoint time, duration per task) taken in a run.

    Between operations `tick` samples the tasks at most every INTERVAL_S.
    Inside long train and evaluate calls, `install` makes the program's
    per-episode scenario draw tick as well and mark each episode's start;
    `spent` counts the reference time, which callers subtract.
    """

    def __init__(self):
        self.times = []
        self.durations = {name: [] for name in TASKS}
        self.spent = 0.0
        self.marks = []  # (episode start, spent at that moment)
        self._patches = []

    def tick(self):
        """Time every task unless they ran less than INTERVAL_S ago."""
        if self.times and perf_counter() - self.times[-1] < INTERVAL_S:
            return
        start = perf_counter()
        for name, task in TASKS.items():
            t0 = perf_counter()
            task()
            self.durations[name].append(perf_counter() - t0)
        end = perf_counter()
        self.times.append((start + end) / 2)
        self.spent += end - start

    def install(self, module, name, aliases=()):
        """Wrap module.name (called once per episode) to tick and mark."""
        original = getattr(module, name)

        def episode_start(*args, **kwargs):
            self.tick()
            self.marks.append((perf_counter(), self.spent))
            return original(*args, **kwargs)

        for owner in (module, *aliases):
            if getattr(owner, name, None) is original:
                setattr(owner, name, episode_start)
                self._patches.append((owner, name, original))

    def uninstall(self):
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def episodes(self, first, spent_before, end):
        """(start, end, reference seconds inside) of episodes marked from `first`."""
        marks = self.marks[first:]
        out = []
        for k, (start, spent) in enumerate(marks):
            stop = marks[k + 1][0] if k + 1 < len(marks) else end
            prev = marks[k - 1][1] if k else spent_before
            out.append((start, stop, spent - prev))
        return out

    def factor(self, task, start, end):
        """Nominal time of `task` over its mean time near [start, end]."""
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, end + WINDOW_S)
        near = self.durations[task][lo:hi] or self.durations[task]
        return NOMINAL_S[task] * len(near) / sum(near)
