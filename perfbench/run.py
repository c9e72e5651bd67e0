"""Closed-loop benchmark of the strategizer library, one client, one process.

    python3 perfbench/run.py --workload plan --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --runs 10 --seconds 25

A single workload run prints its metrics by name and unit, then as its last
line one JSON object {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are the end-to-end ones of that workload, measured
untraced. With --trace 1 they are the per-layer ones: the traced run wraps
library functions from outside (spans.py) and makes traced and untraced
passes over a fixed task list of every workload, whichever --workload is
named, so that every per-layer metric is measured. A fuller result file with
the environment goes to .bench_out/. The exit code is 1 when any output
check failed and 2 when the library under src/ cannot be imported.

--workload all runs every workload --runs times, each run in its own
process with seeds seed, seed+1, ..., and prints each metric's median and
quartile spread.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:  # before numpy is imported by anything
    os.environ[_var] = "1"

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
NAMES = ("plan", "exploit", "replay", "hamcycle")
SETUP_SAMPLES = 5  # this process plus four probe processes; setup_s is their median
WARMUP_TASK = 10**9  # task index of the untimed warm-up; timed tasks count from 0
TAIL_GRID = (95.0, 90.0, 80.0, 50.0)
TASK_TIMEOUT_S = 150

# Traced functions "module.attribute": (per-layer metrics, count taken from
# the return value).
LAYERS = {
    "games.linprog": (("calls", "self_s", "infeasible"),
                      lambda r: {"infeasible": int(r.status == 2)}),
    "games.game_value": (("calls", "total_s"), None),
    "games.min_br_minmax": (("calls", "total_s"), None),
    "games.check_assumption_no_pure": (("calls", "total_s"), None),
    "planner.frank_wolfe": (("calls", "self_s", "iterations"), lambda r: {"iterations": r[2]}),
    "planner.optimize_continuous": (("total_s",), None),
    "planner.planner_report": (("self_s",), None),
    "planner.reward_cont": (("self_s",), None),
    "planner.reward_bounds": (("total_s",), None),
    "learners.Schedule.from_rounds": (("calls", "self_s"), None),
    "learners.simulate": (("calls", "self_s", "rounds"), lambda r: {"rounds": r.rounds}),
    "ocdp.brute_force_ocdp": (("calls", "self_s", "yes_s", "no_s"), None),
    "ocdp.reduce_hamiltonian": (("self_s",), None),
    "ocdp.play_ocdp": (("calls", "self_s"), None),
    "ocdp.extract_cycle": (("self_s",), None),
    **{f"fileio.{f}": (("calls", "self_s"), None) for f in (
        "read_game", "read_schedule", "canonical_json", "atomic_write",
        "trajectory_csv", "trajectory_json")},
    "cli.main": (("calls", "self_s"), None),
}

# The traced functions each workload calls. Per-layer metrics are named
# "workload.module.attribute.metric", so none reads zero for an idle layer.
TRACED = {
    "plan": ("games.linprog", "games.game_value", "games.min_br_minmax",
             "games.check_assumption_no_pure", "planner.frank_wolfe",
             "planner.optimize_continuous", "planner.planner_report", "planner.reward_cont",
             "planner.reward_bounds", "fileio.read_game", "fileio.canonical_json",
             "fileio.atomic_write", "cli.main"),
    "exploit": ("learners.Schedule.from_rounds", "learners.simulate"),
    "replay": ("games.linprog", "games.game_value", "planner.reward_cont",
               "planner.reward_bounds", "learners.simulate", "fileio.read_game",
               "fileio.read_schedule", "fileio.canonical_json", "fileio.atomic_write",
               "fileio.trajectory_csv", "fileio.trajectory_json", "cli.main"),
    "hamcycle": ("ocdp.brute_force_ocdp", "ocdp.reduce_hamiltonian", "ocdp.play_ocdp",
                 "ocdp.extract_cycle"),
}

# Task times are in "ref" units: a task's wall time divided by the time of
# the workload's reference computation measured beside it (reference.py).
END_TO_END_UNITS = {"task_p50_ref": "ref", "task_tail_ref": "ref", "setup_s": "s",
                    "peak_rss_mb": "MiB"}
REFERENCE_EVERY_S = 0.1


def per_layer_units():
    units = {}
    for workload, layers in TRACED.items():
        for layer in layers:
            for metric in LAYERS[layer][0]:
                units[f"{workload}.{layer}.{metric}"] = "s" if metric.endswith("_s") else "count"
        units[f"{workload}.trace.overhead_frac"] = "fraction"
    return units


def import_library():
    """Import strategizer from src/ and time it; exit 2 when it is not there."""
    sys.path.insert(0, SRC)
    start = time.perf_counter()
    try:
        import strategizer
        import strategizer.cli  # noqa: F401  (the workloads call the CLI)
    except ImportError as exc:
        print(f"cannot import strategizer from {SRC}: {exc}", file=sys.stderr)
        sys.exit(2)
    elapsed = time.perf_counter() - start
    if not os.path.abspath(strategizer.__file__).startswith(SRC + os.sep):
        print(f"strategizer was imported from {strategizer.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)
    return elapsed


def environment(seed):
    import numpy
    import scipy

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "platform": platform.platform(), "seed": seed,
            "threads": {v: os.environ.get(v) for v in THREAD_VARS}}


def make_workdir(tag):
    path = os.path.join(ROOT, ".bench_work", f"{tag}-{os.getpid()}")
    os.makedirs(path, exist_ok=True)
    return path


def attempt(wl, inp):
    """Run one task; returns (seconds, failure messages)."""
    start = time.perf_counter()
    try:
        out = wl.run(inp)
    except Exception:  # a failing task is counted, never fatal
        return time.perf_counter() - start, [traceback.format_exc(limit=3)]
    elapsed = time.perf_counter() - start
    try:
        return elapsed, wl.check(inp, out)
    except Exception:
        return elapsed, ["output check raised: " + traceback.format_exc(limit=3)]


def warm_up(wl, seed, workdir):
    """Time one untimed-phase warm-up task (its input is made outside the timer)."""
    seconds, fails = attempt(wl, wl.make(seed, WARMUP_TASK, workdir))
    if fails:
        sys.exit("warm-up task failed: " + fails[0])
    return seconds


def setup_probe(name, seed):
    """Child-process setup sample: import plus warm-up task, in seconds."""
    import_s = import_library()
    from workloads import WORKLOADS

    workdir = make_workdir("probe")
    try:
        return import_s + warm_up(WORKLOADS[name], seed, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def probe_in_child(name, seed):
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", name, "--seed", str(seed)]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=TASK_TIMEOUT_S)
    if done.returncode != 0:
        sys.exit(f"setup probe failed: {done.stderr.strip()}")
    return float(done.stdout.split()[-1])


def tail(durations, pct):
    """(percentile, value) at the workload's tail percentile, lowered along
    TAIL_GRID while fewer than ten tasks lie beyond it."""
    import numpy as np

    n = len(durations)
    for p in (pct,) + tuple(p for p in TAIL_GRID if p < pct):
        if n * (1.0 - p / 100.0) >= 10 or p == TAIL_GRID[-1]:
            return p, float(np.percentile(durations, p))


def closed_loop(wl, seed, seconds, workdir):
    """Tasks 0, 1, ... one after another until `seconds` have passed.

    Inputs are made and outputs checked outside each task's timer. The
    workload's reference computation runs before the first task, then between
    tasks once REFERENCE_EVERY_S has passed, and once after the last task.
    Returns (task seconds, reference seconds at each task, failures), where a
    task's reference time is the mean of the reference runs just before and
    just after it.
    """
    durations, before, refs, failures = [], [], [], []
    last_ref = -math.inf
    stop = time.perf_counter() + seconds
    while True:
        if time.perf_counter() - last_ref >= REFERENCE_EVERY_S or time.perf_counter() >= stop:
            start = time.perf_counter()
            wl.reference()
            last_ref = time.perf_counter()
            refs.append(last_ref - start)
        if last_ref >= stop:
            break
        i = len(durations)
        elapsed, fails = attempt(wl, wl.make(seed, i, workdir))
        durations.append(elapsed)
        before.append(len(refs) - 1)
        if fails:
            failures.append({"task": i, "failures": fails})
    scales = [0.5 * (refs[k] + refs[k + 1]) for k in before]
    return durations, scales, failures


def timed_run(name, seed, seconds):
    """Untraced closed loop for `seconds`; returns (result, extra record)."""
    setup = [import_library()]
    from workloads import WORKLOADS

    wl = WORKLOADS[name]
    workdir = make_workdir(name)
    try:
        setup[0] += warm_up(wl, seed, workdir)
        setup += [probe_in_child(name, seed) for _ in range(SETUP_SAMPLES - 1)]
        durations, scales, failures = closed_loop(wl, seed, seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    n, failed = len(durations), len(failures)
    relative = [d / s for d, s in zip(durations, scales)]
    pct, tail_rel = tail(relative, wl.tail_pct)
    metrics = {
        "task_p50_ref": statistics.median(relative),
        "task_tail_ref": tail_rel,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    unregistered = {
        "task_mean_ref": (statistics.mean(relative), "ref"),
        "ops_per_s": ((n - failed) / sum(durations), "tasks/s"),
        "task_p50_ms": (1e3 * statistics.median(durations), "ms"),
        "task_tail_ms": (1e3 * tail(durations, pct)[1], "ms"),
        "reference_ms": (1e3 * statistics.median(scales), "ms"),
    }
    extra = {"unregistered": unregistered, "error_rate": failed / n, "tail_percentile": pct,
             "tasks": n, "setup_samples_s": setup, "failures": failures[:20]}
    result = {"correct": failed == 0, "attempted": n, "failed": failed,
              "metrics": {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                          for k, v in metrics.items()}}
    return result, extra


def traced_pass(wl, seed, workdir, tracer):
    """Each task of the fixed trace list run twice, untraced and traced, in
    alternating order so that drifting machine speed cancels.

    Returns ({False: untraced seconds, True: traced seconds},
    {task: known verdict}, failures).
    """
    tracer.spans.clear()
    tracer.counts.clear()
    busy, verdicts, failures = {False: 0.0, True: 0.0}, {}, []
    for i in range(wl.trace_tasks):
        inp = wl.make(seed, i, workdir)
        verdicts[i] = inp.get("verdict")
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            tracer.task = i if traced else None
            try:
                elapsed, fails = attempt(wl, inp)
            finally:
                tracer.task = None
            busy[traced] += elapsed
            if fails:
                failures.append({"task": i, "traced": traced, "failures": fails})
    return busy, verdicts, failures


def traced_run(seed, seconds):
    """Rounds of traced passes over every workload's fixed task list.

    Every traced run covers all four workloads, so it reports every per-layer
    metric. Rounds repeat while another one fits in `seconds`. Counts come
    from the first round and must repeat in every later one; times are
    medians over rounds, in seconds per pass.
    """
    import_library()
    from spans import Tracer
    from workloads import WORKLOADS

    tracer = Tracer()
    tracer.install({layer: count for layer, (_, count) in LAYERS.items()})
    workdir = make_workdir("trace")
    passes = {(name, traced): [] for name in NAMES for traced in (False, True)}
    rows, failures = [], []
    try:
        for name in NAMES:
            warm_up(WORKLOADS[name], seed, workdir)
        start = time.perf_counter()
        while True:
            row = {}
            for name in NAMES:
                busy, verdicts, fails = traced_pass(WORKLOADS[name], seed, workdir, tracer)
                for traced, spent in busy.items():
                    passes[name, traced].append(spent)
                failures += fails
                if not rows:
                    tracer.dump(os.path.join(out_dir(), f"{name}-seed{seed}.spans.jsonl"))
                row.update(layer_metrics(name, tracer, verdicts))
            rows.append(row)
            elapsed = time.perf_counter() - start
            if elapsed * (len(rows) + 1) / len(rows) > seconds:  # no room for another round
                break
    finally:
        tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)
    units = per_layer_units()
    counts = [k for k, unit in units.items() if unit == "count"]
    counts_repeat = all(row[k] == rows[0][k] for row in rows for k in counts)
    metrics = {k: rows[0][k] if k in counts else statistics.median(row[k] for row in rows)
               for k in rows[0]}
    for name in NAMES:
        metrics[f"{name}.trace.overhead_frac"] = 1.0 - (
            statistics.median(passes[name, False]) / statistics.median(passes[name, True]))
    attempted = sum(WORKLOADS[name].trace_tasks for name in NAMES) * 2 * len(rows)
    extra = {"trace_tasks_per_pass": {name: WORKLOADS[name].trace_tasks for name in NAMES},
             "rounds": len(rows), "counts_repeat": counts_repeat, "failures": failures[:20],
             "pass_seconds": {f"{name}.{'traced' if traced else 'untraced'}": v
                              for (name, traced), v in passes.items()}}
    result = {"correct": not failures and counts_repeat, "attempted": attempted,
              "failed": len(failures),
              "metrics": {k: {"value": metrics[k], "unit": unit} for k, unit in units.items()}}
    return result, extra


def layer_metrics(name, tracer, verdicts):
    """Per-layer metrics of workload `name` from one traced pass."""
    summary = tracer.summary()
    out = {}
    for layer in TRACED[name]:
        row = summary.get(layer, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for metric in LAYERS[layer][0]:
            if metric in row:
                value = row[metric]
            elif metric in ("yes_s", "no_s"):
                by_task = tracer.self_time_by_task(layer)
                value = sum(s for t, s in by_task.items() if verdicts[t] == metric[:-2])
            else:
                value = tracer.counts[f"{layer}.{metric}"]
            out[f"{name}.{layer}.{metric}"] = value
    return out


def out_dir():
    path = os.path.join(ROOT, ".bench_out")
    os.makedirs(path, exist_ok=True)
    return path


def run_one(args):
    if args.trace:
        result, extra = traced_run(args.seed, args.seconds)
    else:
        result, extra = timed_run(args.workload, args.seed, args.seconds)
    record = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
              "environment": environment(args.seed), **result, **extra}
    path = os.path.join(out_dir(), f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
    for key, metric in result["metrics"].items():
        print(f"{args.workload} {key} {metric['value']:.6g} {metric['unit']}")
    if not args.trace:
        for key, (value, unit) in extra["unregistered"].items():
            print(f"{args.workload} {key} {value:.6g} {unit} (unregistered)")
        print(f"{args.workload} error_rate {extra['error_rate']:.6g} fraction")
        print(f"{args.workload} task tails are p{extra['tail_percentile']:g} "
              f"of {extra['tasks']} tasks")
    for item in extra["failures"][:3]:
        print(f"FAILED task {item['task']}: {item['failures'][0]}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args):
    """Every workload, --runs times, each run in a fresh process."""
    values = {name: {} for name in NAMES}
    status = 0
    for r in range(args.runs):
        for name in NAMES:
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(args.seed + r), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
            done = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=args.seconds + 4 * TASK_TIMEOUT_S)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                print(f"{name} seed {args.seed + r}: exit {done.returncode}\n{done.stderr}",
                      file=sys.stderr)
                status = 1
            if not lines:
                continue
            result = json.loads(lines[-1])
            result["metrics"]["error_rate"] = {
                "value": result["failed"] / result["attempted"], "unit": "fraction"}
            for key, metric in result["metrics"].items():
                values[name].setdefault(key, (metric["unit"], []))[1].append(metric["value"])
    summary = {"seed": args.seed, "runs": args.runs, "seconds": args.seconds,
               "trace": args.trace, "environment": environment(args.seed), "workloads": {}}
    for name, metrics in values.items():
        summary["workloads"][name] = {}
        for key, (unit, vals) in metrics.items():
            q1, med, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
            spread = (q3 - q1) / med if med else 0.0
            summary["workloads"][name][key] = {"unit": unit, "median": med, "q1": q1, "q3": q3,
                                               "spread": spread, "values": vals}
            print(f"{name:9s} {key:14s} median {med:<10.5g} {unit:8s} quartile spread {spread:6.2%}")
    path = os.path.join(out_dir(), f"summary-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(summary, fh, indent=1)
    print(f"wrote {path}")
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--runs", type=int, default=1, help="runs per workload with --workload all")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        print(setup_probe(args.workload, args.seed))
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
