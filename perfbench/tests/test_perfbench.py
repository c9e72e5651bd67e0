"""Self-tests of the benchmark: seeded inputs, output checks, tracing.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

import run  # noqa: E402

run.import_library()

from spans import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


@pytest.fixture
def workdir(tmp_path):
    return str(tmp_path)


def _inputs(name, seed, workdir, tasks=3):
    """Task inputs with file paths replaced by the files' contents."""
    out = []
    for i in range(tasks):
        inp = WORKLOADS[name].make(seed, i, workdir)
        row = {}
        for key, value in inp.items():
            if key in ("game", "schedule"):
                with open(value) as fh:
                    value = fh.read()
            elif key == "out":
                continue
            row[key] = value.tolist() if isinstance(value, np.ndarray) else value
        out.append(row)
    return out


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_inputs_other_seed_other_inputs(name, workdir):
    first = _inputs(name, 5, workdir)
    assert first == _inputs(name, 5, workdir)
    assert first != _inputs(name, 6, workdir)


def _task(name, workdir, i=0):
    wl = WORKLOADS[name]
    inp = wl.make(3, i, workdir)
    return wl, inp, wl.run(inp)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_unperturbed_outputs_pass(name, workdir):
    wl, inp, out = _task(name, workdir)
    assert wl.check(inp, out) == []


def _rewrite_json(path, edit):
    with open(path) as fh:
        obj = json.load(fh)
    edit(obj)
    with open(path, "w") as fh:
        json.dump(obj, fh)
    return obj


def test_plan_check_rejects_perturbed_r_star(workdir):
    wl, inp, (code, _) = _task("plan", workdir)

    def bump(rep):
        rep["r_star"] += 1e-3
    rep = _rewrite_json(inp["out"], bump)
    with open(inp["out"]) as fh:
        text = fh.read()
    fails = wl.check(inp, (code, text))
    assert any("r_star" in f for f in fails), rep


def test_plan_check_rejects_wrong_value(workdir):
    wl, inp, (code, _) = _task("plan", workdir)
    _rewrite_json(inp["out"], lambda rep: rep.__setitem__("value", rep["value"] + 1e-5))
    with open(inp["out"]) as fh:
        fails = wl.check(inp, (code, fh.read()))
    assert any("value" in f for f in fails)


def test_plan_check_rejects_nonzero_exit(workdir):
    wl, inp, (_, text) = _task("plan", workdir)
    assert wl.check(inp, (2, text)) == ["exit code 2"]


def test_exploit_check_rejects_perturbed_total(workdir):
    wl, inp, out = _task("exploit", workdir)
    out = out.copy()
    out[7, 1, 0] += 1e-6
    assert wl.check(inp, out)


def test_replay_check_rejects_perturbed_totals(workdir):
    wl, inp, out = _task("replay", workdir, i=1)  # general-sum
    path = inp["out"] + ".json"
    with open(path) as fh:
        original = fh.read()
    _rewrite_json(path, lambda t: t["totals"].__setitem__("optimizer", t["totals"]["optimizer"] + 1e-4))
    assert any("optimizer" in f for f in wl.check(inp, out))
    with open(path, "w") as fh:
        fh.write(original)
    _rewrite_json(path, lambda t: t["totals"].__setitem__("learner", t["totals"]["learner"] + 1e-6))
    assert any("learner" in f for f in wl.check(inp, out))


def test_hamcycle_check_rejects_wrong_verdict(workdir):
    wl = WORKLOADS["hamcycle"]
    for i in range(40):
        inp = wl.make(3, i, workdir)
        out = wl.run(inp)
        flipped = dict(out, best=out["best"] - 1 if inp["verdict"] == "yes" else inp["n"] + 1)
        assert any("verdict" in f for f in wl.check(inp, flipped))


def test_hamcycle_check_rejects_bad_cycle(workdir):
    wl = WORKLOADS["hamcycle"]
    inp = next(inp for inp in (wl.make(3, i, workdir) for i in range(40))
               if inp["verdict"] == "yes")
    out = wl.run(inp)
    bad = dict(out, cycle=out["cycle"][::-1])
    assert any("cycle" in f for f in wl.check(inp, bad))


def test_perturbed_output_raises_error_rate(workdir):
    wl = WORKLOADS["hamcycle"]

    def wrong_verdict(inp):
        out = wl.run(inp)
        return dict(out, best=0)
    durations, _, failures = run.closed_loop(wl._replace(run=wrong_verdict), 3, 0.3, workdir)
    assert durations and len(failures) == len(durations)
    durations, scales, failures = run.closed_loop(wl, 3, 0.3, workdir)
    assert durations and failures == [] and len(scales) == len(durations)


def test_trace_sees_calls_between_modules(workdir):
    """planner_report calls game_value four times through names it imported."""
    tracer = Tracer()
    tracer.install({layer: count for layer, (_, count) in run.LAYERS.items()})
    try:
        wl = WORKLOADS["plan"]
        _, verdicts, failures = run.traced_pass(wl._replace(trace_tasks=1), 3, workdir, tracer)
        rows = run.layer_metrics("plan", tracer, verdicts)
    finally:
        tracer.uninstall()
    assert failures == []
    assert rows["plan.games.game_value.calls"] == 4
    assert rows["plan.cli.main.calls"] == 1
    assert rows["plan.planner.frank_wolfe.calls"] == 1
    assert rows["plan.planner.frank_wolfe.iterations"] >= 1
    assert rows["plan.games.linprog.calls"] > 8
    summary = tracer.summary()
    assert summary["cli.main"]["self_s"] < summary["cli.main"]["total_s"]
    import strategizer.games
    import strategizer.planner
    assert strategizer.planner.game_value is strategizer.games.game_value  # uninstalled


def test_trace_counts_repeat_and_split_verdicts(workdir):
    tracer = Tracer()
    tracer.install({layer: count for layer, (_, count) in run.LAYERS.items()})
    wl = WORKLOADS["hamcycle"]._replace(trace_tasks=16)
    try:
        rows = [run.layer_metrics("hamcycle", tracer,
                                  run.traced_pass(wl, 4, workdir, tracer)[1])
                for _ in range(2)]
    finally:
        tracer.uninstall()
    counts = [k for k, u in run.per_layer_units().items()
              if u == "count" and k.startswith("hamcycle.")]
    assert counts and all(rows[0][k] == rows[1][k] for k in counts)
    row = {k.split(".", 2)[2]: v for k, v in rows[0].items()}
    assert row["brute_force_ocdp.calls"] == 16
    assert row["brute_force_ocdp.yes_s"] > 0 and row["brute_force_ocdp.no_s"] > 0
    assert row["brute_force_ocdp.yes_s"] + row["brute_force_ocdp.no_s"] == \
        pytest.approx(row["brute_force_ocdp.self_s"])


def test_benchmark_json_matches_emitted_metrics():
    with open(os.path.join(os.path.dirname(run.SRC), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
