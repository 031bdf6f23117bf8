"""hydrosac benchmark: learn, explore and serve workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload learn --seed 1 --seconds 30 --trace 0

With --trace 0 the run measures the end-to-end metrics untraced. With
--trace 1 it alternates untraced and traced cycles of the workload, and
reports the per-layer metrics of the traced cycles plus the tracing
overhead. The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics; a fuller record,
including the machine and library versions, is written to
perfbench/_out/<workload>-seed<seed>-trace<trace>.json.

BLAS is pinned to one thread: 100x100 products lose on two threads.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

from spans import percentile  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "_out"

SETUP_REPEATS = 3
MIN_LATENCY_SAMPLES = 100  # so that at least 10 lie beyond the p90
MAX_WINDOW_S = 120.0  # a run must end well within 180 s
UNACCOUNTED_TOLERANCE_PCT = 1.0  # traced wall time the layers' self times may miss

END_TO_END = {
    "setup_s": "s",
    "weeks_per_s": "1/s",
    "episode_s_p50": "s",
    "episode_s_p90": "s",
    "ckpt_save_s": "s",
    "ckpt_load_s": "s",
    "ckpt_mb": "MB",
    "peak_rss_mb": "MB",
}


def import_program():
    """Import hydrosac from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import hydrosac
    except ImportError as e:
        sys.exit(f"error: cannot import hydrosac from {src}: {e}")
    if Path(hydrosac.__file__).resolve().parent.parent != src:
        sys.exit(f"error: hydrosac was imported from {hydrosac.__file__}, not {src}")


def measure(workload, run, seconds, min_samples, setups=0):
    """Run cycles until the window is spent; returns the cycles' wall time.

    A cycle is not started when the last one, repeated, would end past
    the window, unless latency samples are still missing. Set-up runs
    `setups` times, spread over the window (the first before any cycle),
    each timed as a setup_s sample; it is not part of the returned time.
    """
    def setup():
        _, seconds = run.timed(workload.setup)
        run.sample("setup_s", seconds, workload.speed_task)

    elapsed = 0.0
    while True:
        done = len(run.samples["setup_s"])
        if done < setups and elapsed >= seconds * done / setups:
            setup()
            continue
        c0 = perf_counter()
        workload.cycle(run)
        last = perf_counter() - c0
        elapsed += last
        enough = len(run.samples["episode_s"]) >= min_samples
        if elapsed >= MAX_WINDOW_S or (enough and elapsed + last > seconds):
            break
    while len(run.samples["setup_s"]) < setups:
        setup()
    return elapsed


def median(xs):
    return float(np.median(xs)) if xs else 0.0


def weeks_per_s(run, scaled=True):
    weeks = sum(run.values("work_weeks", scaled=False))
    seconds = sum(run.values("work_s", scaled))
    return weeks / seconds if seconds else 0.0


def end_to_end(run, scaled=True):
    lat = run.values("episode_s", scaled)
    return {
        "setup_s": median(run.values("setup_s", scaled)),
        "weeks_per_s": weeks_per_s(run, scaled),
        "episode_s_p50": percentile(lat, 50) if lat else 0.0,
        "episode_s_p90": percentile(lat, 90) if lat else 0.0,
        "ckpt_save_s": median(run.values("ckpt_save_s", scaled)),
        "ckpt_load_s": median(run.values("ckpt_load_s", scaled)),
        "ckpt_mb": median(run.values("ckpt_mb", scaled=False)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def run_untraced(workload, seconds):
    """End-to-end metrics, scaled for host speed; returns (metrics, runs, record fields)."""
    from hostspeed import NOMINAL_S, HostSpeed
    from hydrosac import scenario, trainer
    from workloads import Run

    speed = HostSpeed()
    run = Run(speed)
    speed.install(scenario, "sample_scenario", aliases=(trainer,))
    try:
        window = measure(workload, run, seconds, MIN_LATENCY_SAMPLES, setups=SETUP_REPEATS)
    finally:
        speed.uninstall()
    fields = {
        "window_s": window,
        "unscaled_metrics": end_to_end(run, scaled=False),
        "reference_s": {name: {"nominal": NOMINAL_S[name], "samples": len(d), "median": median(d)}
                        for name, d in speed.durations.items()},
    }
    return end_to_end(run), [run], fields


def run_traced(workload, seconds):
    """Per-layer metrics; returns (metrics, runs, record fields).

    Untraced and traced cycles alternate until the window is spent, so
    that the tracing overhead compares the two under the same drift of the
    host's speed. Only the traced cycles feed the per-layer metrics.
    """
    import layers
    from workloads import Run

    workload.setup()
    probe = layers.Probe()
    tracer = layers.make_tracer(probe)
    plain, run = Run(), Run(tracer=tracer, after_op=probe.after_op)
    elapsed = wall = 0.0
    while True:
        t0 = perf_counter()
        workload.cycle(plain)
        t1 = perf_counter()
        layers.install(tracer, probe)
        try:
            t2 = perf_counter()
            workload.cycle(run)
            t3 = perf_counter()
        finally:
            tracer.uninstall()
        wall += t3 - t2
        pair = (t1 - t0) + (t3 - t2)
        elapsed += pair
        if elapsed + pair > seconds or elapsed >= MAX_WINDOW_S:
            break
    spans = tracer.span_count()
    tracer.fold()
    untraced, traced = weeks_per_s(plain), weeks_per_s(run)
    overhead = 100 * (1 - traced / untraced) if untraced else 0.0
    metrics = layers.per_layer(tracer.table, probe, wall, overhead)
    if metrics["trace.unaccounted_pct"] > UNACCOUNTED_TOLERANCE_PCT:
        run.problems.append(
            f"layer self times miss {metrics['trace.unaccounted_pct']:.2f}% "
            f"of the traced wall time (tolerance {UNACCOUNTED_TOLERANCE_PCT}%)")
    fields = {"window_s": wall, "spans": spans, "untraced_weeks_per_s": untraced,
              "traced_weeks_per_s": traced, "table": layers.table_rows(tracer.table)}
    return metrics, [plain, run], fields


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=("learn", "explore", "serve"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    import_program()
    import envinfo
    import layers
    from workloads import WEEKS, WORKLOADS

    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        if args.trace:
            metrics, runs, fields = run_traced(workload, args.seconds)
            units = layers.UNITS
        else:
            metrics, runs, fields = run_untraced(workload, args.seconds)
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    run = runs[-1]
    failed = sum(r.failed for r in runs)
    problems = [p for r in runs for p in r.problems]
    lat = run.values("episode_s")
    p90 = percentile(lat, 90) if lat else 0.0
    details = workload.details(run)
    if args.workload == "serve":
        details["eval_episodes_per_s"] = weeks_per_s(run) / WEEKS
    result = {
        "correct": failed == 0 and not problems,
        "attempted": sum(r.attempted for r in runs),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": envinfo.environment(), **fields,
        "latency_samples": len(lat),
        "latency_beyond_p90": sum(x > p90 for x in lat),
        "samples": {k: len(v) for k, v in run.samples.items()},
        "details": details, "problems": problems, "result": result,
    }
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    for problem in problems:
        print(f"problem: {problem}", file=sys.stderr)
    print(f"record: {path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
