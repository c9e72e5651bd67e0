import json
import math
import os
import signal
import time

import numpy as np
import pytest

from strategizer import (
    MWU, BimatrixGame, DirectedGraph, InputError, Schedule, StrategizerError, check_assumption_no_pure, cli,
    fileio, game_value, planner_report, reduce_hamiltonian, simulate,
)
from strategizer.acceptance import example_graph, run_battery
from strategizer.cli import main

MP_TEXT = "1 -1\n-1 1\n"
GRAPH_TEXT = "5\n1 5\n5 2\n1 2\n2 4\n4 1\n4 3\n3 1\n"
NOISY_WITNESS_GAME = [
    [0.0032168758264398967, -0.780619722543161, 0.8695923544207247, 0.943342340986915],
    [-0.0023061314619399476, 0.25705006045196765, 0.2934397446286463, -0.9983085287741544],
    [0.2550164832852766, 0.644279322734981, 0.2614468717430338, -0.2118614080260437],
    [0.2720779658060777, -0.7359126706483701, -0.8537891307648375, -0.8448254718575827],
    [-0.3903266428515866, 0.6341338613492888, -0.17003873169640316, -0.8826135057350775],
    [1.2478296499280233, 0.3536578666640221, 0.9084878600830025, 0.023753126587631734],
]


@pytest.fixture
def mp_file(tmp_path):
    p = tmp_path / "mp.txt"
    p.write_text(MP_TEXT)
    return str(p)


@pytest.fixture
def graph_file(tmp_path):
    p = tmp_path / "graph.txt"
    p.write_text(GRAPH_TEXT)
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestValue:
    def test_matching_pennies(self, capsys, mp_file):
        code, out, _ = run(capsys, "value", mp_file)
        assert code == 0
        obj = json.loads(out)
        assert abs(obj["value"]) <= 1e-9
        assert obj["certificate_gap"] <= 1e-8

    def test_zeros(self, capsys, tmp_path):
        p = tmp_path / "z.txt"
        p.write_text("0 0\n0 0\n")
        code, out, _ = run(capsys, "value", str(p))
        assert code == 0 and json.loads(out)["value"] == 0.0

    def test_2x2(self, capsys, tmp_path):
        p = tmp_path / "g.txt"
        p.write_text("2 0\n0 1\n")
        code, out, _ = run(capsys, "value", str(p))
        assert code == 0
        assert abs(json.loads(out)["value"] - 2 / 3) <= 1e-8

    def test_parse_error_exit_2(self, capsys, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("1 x\n")
        code, _, err = run(capsys, "value", str(p))
        assert code == 2 and "column 2" in err


class TestPlan:
    def test_report_fields(self, capsys, mp_file):
        code, out, _ = run(capsys, "plan", mp_file, "--eta", "0.5", "--T", "100", "--eps", "1e-6")
        assert code == 0
        obj = json.loads(out)
        assert abs(obj["value"]) <= 1e-9
        assert abs(obj["r_star"]) <= 1e-6
        assert obj["k"] == 2
        assert obj["bounds"][0] <= obj["r_star"] + 1e-6
        assert obj["assumption1"]["holds"] is True

    def test_general_sum_rejected_exit_3(self, capsys, tmp_path):
        p = tmp_path / "gs.json"
        p.write_text(json.dumps({
            "a": {"rows": 1, "cols": 2, "data": [[1.0, 0.0]]},
            "b": {"rows": 1, "cols": 2, "data": [[1.0, 0.0]]},
        }))
        code, _, err = run(capsys, "plan", str(p))
        assert code == 3 and "simulate" in err

    def test_deterministic_output(self, capsys, mp_file, tmp_path):
        out1 = tmp_path / "r1.json"
        out2 = tmp_path / "r2.json"
        run(capsys, "plan", mp_file, "--eta", "0.5", "--T", "50", "--eps", "1e-6", "--out", str(out1))
        run(capsys, "plan", mp_file, "--eta", "0.5", "--T", "50", "--eps", "1e-6", "--out", str(out2))
        assert out1.read_bytes() == out2.read_bytes()

    def test_env_var_fallback(self, capsys, mp_file, monkeypatch):
        monkeypatch.setenv("STRATEGIZER_ETA", "0.5")
        monkeypatch.setenv("STRATEGIZER_T", "100")
        code, out, _ = run(capsys, "plan", mp_file)
        assert code == 0
        obj = json.loads(out)
        assert abs(obj["bounds"][1] - 2 * math.log(2)) <= 1e-9

    def test_flag_beats_env(self, capsys, mp_file, monkeypatch):
        monkeypatch.setenv("STRATEGIZER_ETA", "0.25")
        code, out, _ = run(capsys, "plan", mp_file, "--eta", "0.5", "--T", "100")
        assert code == 0
        assert abs(json.loads(out)["bounds"][1] - 2 * math.log(2)) <= 1e-9

    def test_near_tie_names_the_column_exit_3(self, capsys, tmp_path):
        # column 2 pays 1.49e-8 above the value at the only minmax x: within
        # tol, yet the LP cannot pin it at the value
        p = tmp_path / "tie.txt"
        p.write_text("0.0 1.49e-08\n")
        code, _, err = run(capsys, "plan", str(p), "--eta", "1", "--T", "1")
        assert code == 3 and "column 2 can neither be pinned" in err


class TestSimulate:
    def test_alternating_total(self, capsys, mp_file, tmp_path):
        prefix = str(tmp_path / "traj")
        code, out, _ = run(
            capsys, "simulate", mp_file, "--learner", "mwu",
            "--schedule", "alternating", "--eta", "0.1", "--T", "1000", "--out", prefix,
        )
        assert code == 0
        total = float(out.splitlines()[0].split()[-1])
        assert abs(total - 500 * math.tanh(0.1)) <= 1e-9
        assert os.path.exists(prefix + ".csv") and os.path.exists(prefix + ".json")

    @pytest.mark.parametrize("learner", ["mwu", "replicator"])
    def test_no_negative_zero_rewards(self, learner, capsys, mp_file, tmp_path):
        # uniform play on matching pennies earns exactly 0 each round; the
        # optimizer's reward, the negated learner's, was written as -0
        prefix = str(tmp_path / "traj")
        code, _, _ = run(capsys, "simulate", mp_file, "--learner", learner,
                         "--schedule", "uniform", "--T", "3", "--out", prefix)
        assert code == 0
        rows = open(prefix + ".csv").read().splitlines()[1:]
        assert rows and {field for row in rows for field in row.split(",")[1:4]} == {"0"}
        # numbers read as their text, so -0 stays -0
        obj = json.loads(open(prefix + ".json").read(), parse_int=str, parse_float=str)
        rewards = obj["optimizer_reward"] + obj["learner_reward"] + list(obj["totals"].values())
        assert set(rewards) == {"0"}

    def test_overflowing_strategy_weights(self, capsys, mp_file, tmp_path):
        # the weights sum to inf, so as_simplex scales them before normalising
        sched = tmp_path / "s.json"
        sched.write_text('{"mode": "discrete", "segments": '
                         '[{"count": 3, "strategy": [1e308, 1e308]}]}')
        prefix = str(tmp_path / "traj")
        code, _, err = run(capsys, "simulate", mp_file, "--learner", "mwu",
                           "--schedule", str(sched), "--out", prefix)
        assert code == 0 and err == ""
        with open(prefix + ".json") as f:
            assert json.load(f)["optimizer_strategy"] == [[0.5, 0.5]] * 3

    def test_alternating_witness_from_noisy_lp(self, capsys, tmp_path):
        # the pinned witness LP returns x with weight -1.5e-9 on this valid
        # game; the witness is mapped onto the simplex, not rejected as input
        game = tmp_path / "g.json"
        game.write_text(json.dumps({"rows": 6, "cols": 4, "data": NOISY_WITNESS_GAME}))
        code, _, err = run(
            capsys, "simulate", str(game), "--learner", "mwu", "--schedule", "alternating",
            "--T", "10", "--eta", "0.1", "--out", str(tmp_path / "o"),
        )
        assert code == 0, err
        a = np.array(NOISY_WITNESS_GAME)
        gv = game_value(a)
        w = check_assumption_no_pure(gv)
        pays = w.x @ a - gv.value
        assert pays.min() >= -1e-7 and max(pays[w.i1], pays[w.i2]) <= 1e-7

    def test_zero_rounds_header_only(self, capsys, mp_file, tmp_path):
        prefix = str(tmp_path / "empty")
        code, _, _ = run(
            capsys, "simulate", mp_file, "--learner", "mwu",
            "--schedule", "uniform", "--eta", "0.1", "--T", "0", "--out", prefix,
        )
        assert code == 0
        lines = open(prefix + ".csv").read().strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("t,opt_reward")

    def test_constant_xstar_nonnegative(self, capsys, mp_file, tmp_path):
        prefix = str(tmp_path / "xs")
        code, out, _ = run(
            capsys, "simulate", mp_file, "--learner", "mwu",
            "--schedule", "constant-xstar", "--eta", "0.1", "--T", "100", "--out", prefix,
        )
        assert code == 0
        total = float(out.splitlines()[0].split()[-1])
        assert total >= -1e-9

    def test_schedule_file(self, capsys, mp_file, tmp_path):
        sched = tmp_path / "s.json"
        sched.write_text(json.dumps({
            "mode": "discrete",
            "segments": [{"count": 4, "strategy": [0.5, 0.5]}],
        }))
        prefix = str(tmp_path / "file")
        code, out, _ = run(
            capsys, "simulate", mp_file, "--learner", "mwu",
            "--schedule", str(sched), "--eta", "0.1", "--out", prefix,
        )
        assert code == 0
        assert abs(float(out.splitlines()[0].split()[-1])) <= 1e-12

    def test_replicator_builtin(self, capsys, mp_file, tmp_path):
        prefix = str(tmp_path / "rep")
        code, out, _ = run(
            capsys, "simulate", mp_file, "--learner", "replicator",
            "--schedule", "pure:1", "--eta", "0.2", "--T", "5", "--out", prefix,
        )
        assert code == 0
        total = float(out.splitlines()[0].split()[-1])
        # constant pure play against the replicator: closed form is available
        from strategizer import Schedule, reward_cont, matching_pennies

        want = reward_cont(
            Schedule.constant([1.0, 0.0], 5.0, "continuous"),
            None, matching_pennies(), 0.2,
        )
        assert abs(total - want) <= 1e-9

    def test_h0_dimension_mismatch_exit_2(self, capsys, mp_file, tmp_path):
        h0 = tmp_path / "h0.txt"
        h0.write_text("1 2 3\n")
        code, _, err = run(
            capsys, "simulate", mp_file, "--learner", "mwu", "--schedule", "uniform",
            "--h0", str(h0), "--out", str(tmp_path / "h0"),
        )
        assert code == 2 and "dimension 3" in err and "Traceback" not in err

    def test_schedule_dimension_mismatch_exit_2(self, capsys, mp_file, tmp_path):
        sched = tmp_path / "s3.json"
        sched.write_text(json.dumps({
            "mode": "continuous",
            "segments": [{"duration": 1.0, "strategy": [0.2, 0.3, 0.5]}],
        }))
        code, _, err = run(
            capsys, "simulate", mp_file, "--learner", "replicator",
            "--schedule", str(sched), "--out", str(tmp_path / "s3"),
        )
        assert code == 2 and "dimension 3" in err and "Traceback" not in err

    def test_infinite_duration_exit_2(self, capsys, mp_file, tmp_path):
        sched = tmp_path / "inf.json"
        sched.write_text(
            '{"mode": "continuous", "segments": [{"duration": Infinity, "strategy": [0.5, 0.5]}]}'
        )
        code, _, err = run(
            capsys, "simulate", mp_file, "--learner", "replicator",
            "--schedule", str(sched), "--out", str(tmp_path / "inf"),
        )
        assert code == 2 and "lengths must be finite" in err and "Traceback" not in err


def huge_count_schedule(tmp_path, count="1e20"):
    sched = tmp_path / "huge.json"
    sched.write_text(
        f'{{"mode": "discrete", "segments": [{{"count": {count}, "strategy": [0.5, 0.5]}}]}}'
    )
    return str(sched)


@pytest.mark.parametrize("argv", [
    lambda mp, tmp: ["battery", "--only", "a"],
    lambda mp, tmp: ["simulate", mp, "--learner", "mwu", "--schedule", "pure:x"],
    lambda mp, tmp: ["simulate", mp, "--learner", "mwu", "--schedule", "uniform", "--T", "nan"],
    lambda mp, tmp: ["simulate", mp, "--learner", "br", "--schedule", "uniform", "--T", "2.5"],
    lambda mp, tmp: ["simulate", mp, "--learner", "mwu", "--schedule", huge_count_schedule(tmp)],
], ids=["only-not-int", "pure-not-int", "T-nan", "T-fractional", "count-1e20"])
def test_malformed_input_exit_2(argv, capsys, mp_file, tmp_path):
    args = argv(mp_file, tmp_path)
    if args[0] == "simulate":
        args += ["--out", str(tmp_path / "out")]
    code, _, err = run(capsys, *args)
    assert code == 2 and "input error" in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    lambda mp, tmp: ["--schedule", huge_count_schedule(tmp, "1e15")],
    lambda mp, tmp: ["--schedule", "alternating", "--T", "1e15"],
], ids=["count-1e15", "alternating-1e15"])
def test_too_many_rounds_exit_4(argv, capsys, mp_file, tmp_path):
    code, _, err = run(
        capsys, "simulate", mp_file, "--learner", "mwu", "--out", str(tmp_path / "out"),
        *argv(mp_file, tmp_path),
    )
    assert code == 4 and "resource cap exceeded" in err and "Traceback" not in err


@pytest.mark.parametrize("command, matrix, args, code, message", [
    # eta or T not finite, or eta*T*A overflowing: these ran Frank-Wolfe
    # into its iteration cap (about an hour) or wrote NaN
    ("plan", MP_TEXT, ["--eta", "inf"], 2, "overflow eta"),
    ("plan", MP_TEXT, ["--T", "inf"], 2, "overflow eta"),
    ("plan", MP_TEXT, ["--eta", "1e308", "--T", "1e308"], 2, "overflow eta"),
    ("simulate", MP_TEXT, ["--learner", "mwu", "--schedule", "uniform", "--eta", "inf"],
     2, "eta must be finite"),
    # shrunk examples of tests/test_cli_contract.py
    ("value", '{"rows": 2, "cols": 1, "data": [[0], [0, 0]]}', [], 2, "not a table of numbers"),
    ("plan", "0\n", ["--eta", "3", "--T", "1e308"], 2, "overflow eta"),
    ("plan", "1 -3\n", ["--eta", "1e308", "--T", "0.5"], 2, "overflow eta"),
    ("plan", "0.0 1.49e-08\n", ["--eta", "1", "--T", "1"], 3, "no exact best-response set"),
    ("simulate", "1.0\n", ["--learner", "replicator", "--schedule", "uniform", "--eta", "2",
                           "--T", "1e308"], 2, "history overflows"),
    ("simulate", "0 0 2\n", ["--learner", "mwu", "--schedule", "constant-xstar",
                             "--eta", "0.5", "--T", "1e308"], 2, "overflow eta"),
    ("simulate", "0 0 0\n0 1 0\n0 -1 0\n", ["--learner", "mwu", "--schedule", "alternating",
                                           "--T", "-1"], 2, "cannot run -1 rounds"),
    # payoffs beyond what the solvers can certify or take
    ("plan", "1 -1e6\n-1e6 2\n", ["--eta", "1", "--T", "10"], 4, "Frank-Wolfe stalled"),
    ("plan", "1 -1e16\n-1e16 2\n", ["--eta", "1", "--T", "10"], 2, "minmax LP rejected"),
], ids=["plan-eta-inf", "plan-T-inf", "plan-eta-T-1e308", "simulate-eta-inf", "ragged-json",
        "plan-T-1e308", "plan-eta-1e308", "plan-near-tie", "replicator-T-1e308",
        "constant-xstar-T-1e308", "alternating-T-negative", "plan-payoffs-1e6",
        "plan-payoffs-1e16"])
def test_extreme_numbers_exit_at_once(command, matrix, args, code, message, capsys, tmp_path):
    game = tmp_path / "game.txt"
    game.write_text(matrix)
    argv = [command, str(game), *args]
    if command == "simulate":
        argv += ["--out", str(tmp_path / "out")]
    start = time.perf_counter()
    got, _, err = run(capsys, *argv)
    assert got == code and message in err and "Traceback" not in err
    assert time.perf_counter() - start < 10


def test_huge_finite_eta_t_hits_the_iteration_cap_promptly(capsys, tmp_path):
    # at eta*T = 5e299 each Frank-Wolfe step moves x only in its last bits,
    # so neither the fixed-point nor the non-finite check fires and only the
    # iteration cap, 100*(n + m) = 600 here, ends the solve
    game = tmp_path / "game.txt"
    game.write_text("3.0 -0.09658054786688242 -5.960464477539063e-08\n"
                    "-2.7909818038541353e-45 0.0 1.0\n"
                    "5.065375980918949e-05 0.43063536203088804 -1.0\n")

    def expire(signum, frame):
        raise TimeoutError("plan ran past 5 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, 5.0)
    try:
        code, _, err = run(capsys, "plan", str(game), "--eta", "1e300", "--T", "0.5")
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
    assert code == 4 and "iteration cap 600" in err and "Traceback" not in err


def instance_json(graph=None, **changes):
    """The reduced instance of a graph (default: the example) as JSON with
    fields replaced; a None value drops the field."""
    obj = fileio.instance_to_json(reduce_hamiltonian(graph or example_graph()))
    obj.update(changes)
    return {key: value for key, value in obj.items() if value is not None}


def relabelled(**changes):
    """The example instance's labels with fields replaced."""
    return {**instance_json()["labels"], **changes}


@pytest.mark.parametrize("command, content, message", [
    ("verify", {"sequence": ["x", 1, 2]}, "list of integers"),
    ("verify", {"cycle": [1, "a"]}, "list of integers"),
    ("verify", {"sequence": 5}, "list of integers"),
    ("verify", {"cycle": "12"}, "list of integers"),
    ("verify", {"sequence": [1.5, 2, 4, 6, 7, 1]}, "list of integers"),
    ("verify", {"cycle": None}, "'cycle' or 'sequence'"),
    ("simulate", {"mode": "discrete", "segments": 5}, "segments must be a list"),
    ("simulate", {"mode": "discrete", "segments": [{"count": 1e308, "strategy": [1, 0]}] * 2},
     "must total below 2**63"),
    ("simulate", {"mode": "continuous",
                  "segments": [{"duration": 1e308, "strategy": [1, 0]}] * 2},
     "must total a finite number"),
    ("brute", instance_json(k=None), "needs field 'k'"),
    ("brute", instance_json(T=-2), "must be positive"),
    ("brute", instance_json(a={"rows": 7, "cols": 10, "data": [[0.5] * 10] * 7}),
     "row 1 of A and B does not encode edge (1, 5)"),
    ("brute", instance_json(b={"rows": 7, "cols": 1, "data": [[0.0]] * 7}), "shape"),
    ("brute", instance_json(T=4.7), "'T' must be a whole number"),
    ("brute", instance_json(k="6"), "'k' must be a whole number"),
    ("brute", instance_json(labels=relabelled(n_graph_vertices=5.5)), "'n_graph_vertices'"),
    ("brute", instance_json(labels=relabelled(edges=[[1.5, 5], *example_graph().edges[1:]])),
     "'labels.edges' must be a whole number, got 1.5"),
    ("brute", instance_json(labels=relabelled(edges=example_graph().edges[::-1])),
     "row 1 of A and B does not encode edge (3, 1)"),
    ("brute", instance_json(labels=relabelled(n_graph_vertices=1e16)),
     "which reduce to a (7, 20000000000000000) instance"),
    ("brute", instance_json(labels=relabelled(rows=[None] + [f"e_{i}" for i in range(2, 8)])),
     "labels.rows and labels.cols are not the reduction's"),
    ("brute", instance_json(labels=relabelled(rows=" ".join(f"e_{i}" for i in range(1, 8)))),
     "labels.rows and labels.cols are not the reduction's"),
    ("brute", instance_json(labels=relabelled(cols=list(range(1, 11)))),
     "labels.rows and labels.cols are not the reduction's"),
    ("brute", instance_json(normalized="false"), "'normalized' must be true or false, got 'false'"),
    ("brute", instance_json(normalized=0), "'normalized' must be true or false, got 0"),
    ("brute", {**instance_json(), "normalized": None},
     "'normalized' must be true or false, got None"),
], ids=["sequence-str", "cycle-str", "sequence-int", "cycle-string", "sequence-float",
        "cycle-null", "segments-int", "counts-overflow", "durations-overflow", "instance-no-k",
        "instance-negative-T", "instance-fractional-a", "instance-b-shape", "instance-fractional-T",
        "instance-string-k", "instance-fractional-vertices", "instance-fractional-edge",
        "instance-reversed-edges", "instance-1e16-vertices", "instance-null-row-label",
        "instance-string-row-labels", "instance-int-col-labels", "instance-normalized-string",
        "instance-normalized-zero", "instance-normalized-null"])
def test_malformed_file_exit_2(command, content, message, capsys, graph_file, mp_file, tmp_path):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(content))
    argv = {
        "verify": ["verify", graph_file, str(path)],
        "simulate": ["simulate", mp_file, "--learner", "mwu", "--schedule", str(path),
                     "--out", str(tmp_path / "out")],
        "brute": ["brute", str(path)],
    }[command]
    code, _, err = run(capsys, *argv)
    assert code == 2 and message in err and "Traceback" not in err and "Warning" not in err


@pytest.mark.parametrize("command", ["reduce", "brute", "verify"])
@pytest.mark.parametrize("vertices", [10**15, 10**8], ids=["1e15-vertices", "1e8-vertices"])
def test_huge_graph_exit_4(command, vertices, capsys, tmp_path):
    # one edge on that many vertices: the cap fires before anything is allocated
    graph = tmp_path / "huge.txt"
    graph.write_text(f"{vertices}\n1 2\n")
    witness = tmp_path / "witness.json"
    witness.write_text(json.dumps({"cycle": [1, 2]}))
    argv = {
        "reduce": ["reduce", str(graph), "--out", str(tmp_path / "huge")],
        "brute": ["brute", str(graph)],
        "verify": ["verify", str(graph), str(witness)],
    }[command]
    start = time.perf_counter()
    code, _, err = run(capsys, *argv)
    assert code == 4 and f"{2 * vertices} payoff cells" in err and "Traceback" not in err
    assert time.perf_counter() - start < 10
    assert not list(tmp_path.glob("huge.instance*"))


def test_brute_long_horizon(capsys, tmp_path):
    path = tmp_path / "one-edge.json"
    path.write_text(json.dumps(instance_json(DirectedGraph(2, ((1, 2),)), T=5000)))
    code, out, err = run(capsys, "brute", str(path))
    assert code == 0 and "max reward 1 over 1^5000 sequences" in out and err == ""


@pytest.mark.parametrize("n", [5, 6])
def test_brute_complete_digraph_yes(n, capsys, tmp_path):
    # far more than 10^7 sequences, but the search builds only a few thousand
    # histories before it reaches T
    path = tmp_path / "complete.txt"
    path.write_text(f"{n}\n" + "".join(f"{u} {v}\n" for u in range(1, n + 1)
                                       for v in range(1, n + 1) if u != v))
    code, out, err = run(capsys, "brute", str(path))
    assert code == 0 and f"YES: reward {n + 1} is achievable" in out and err == ""


def test_brute_out_reversed_edges_exit_2(capsys, tmp_path):
    path = tmp_path / "reversed.json"
    edges = [list(e) for e in example_graph().edges[::-1]]
    path.write_text(json.dumps(instance_json(labels=relabelled(edges=edges))))
    code, _, err = run(capsys, "brute", str(path), "--out", str(tmp_path / "w.json"))
    assert code == 2 and "labels.edges do not match" in err and "Traceback" not in err
    assert not (tmp_path / "w.json").exists()


def test_brute_out_small_k_writes_no_cycle(capsys, tmp_path):
    # k = 1 is reached on a graph with no Hamiltonian cycle
    path = tmp_path / "k1.json"
    path.write_text(json.dumps(instance_json(DirectedGraph(3, ((1, 2), (2, 1), (2, 3))), k=1)))
    code, out, err = run(capsys, "brute", str(path), "--out", str(tmp_path / "w.json"))
    assert code == 0 and "YES: reward 1 is achievable" in out and "Traceback" not in err
    assert json.loads((tmp_path / "w.json").read_text())["cycle"] is None


def test_unhandled_library_error_exit_1(capsys, monkeypatch, mp_file):
    class NewError(StrategizerError):
        pass

    def fail(args):
        raise NewError("something new went wrong")

    monkeypatch.setattr(cli, "cmd_value", fail)
    code, _, err = run(capsys, "value", mp_file)
    assert code == 1 and err == "error: something new went wrong\n"


def test_parser_reused_without_carry_over(capsys, monkeypatch, mp_file, tmp_path):
    # one parser serves every call; each call sees only its own flags and
    # environment, and the defaults
    assert cli.build_parser() is cli.build_parser()
    a = np.array([[1.0, -1.0], [-1.0, 1.0]])

    def report(eta, big_t):
        return fileio.canonical_json(planner_report(a, eta, big_t, 1e-6))

    monkeypatch.delenv("STRATEGIZER_ETA", raising=False)
    monkeypatch.delenv("STRATEGIZER_T", raising=False)
    assert run(capsys, "plan", mp_file, "--eta", "0.5", "--T", "40") == (0, report(0.5, 40.0), "")
    monkeypatch.setenv("STRATEGIZER_ETA", "0.25")
    assert run(capsys, "plan", mp_file) == (0, report(0.25, 100.0), "")
    monkeypatch.delenv("STRATEGIZER_ETA")
    prefix = str(tmp_path / "traj")
    code, _, _ = run(capsys, "simulate", mp_file, "--learner", "mwu", "--schedule", "uniform",
                     "--T", "3", "--out", prefix)
    traj = simulate(BimatrixGame.from_zero_sum(a), Schedule.constant([0.5, 0.5], 3), MWU, 0.1)
    assert code == 0 and open(prefix + ".csv").read() == fileio.trajectory_csv(traj)
    with pytest.raises(SystemExit) as exc:
        main(["plan", "--eta", "0.5"])
    assert exc.value.code == 2 and "required" in capsys.readouterr().err
    assert run(capsys, "plan", mp_file) == (0, report(1.0, 100.0), "")


@pytest.mark.parametrize("command", ["value", "plan", "simulate", "reduce", "verify", "brute", "battery"])
def test_help_renders(command, capsys):
    # argparse %-formats a help string only when it prints it
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0 and "usage: strategizer " + command in capsys.readouterr().out


def general_sum_files(tmp_path, a, b, segments):
    game = tmp_path / "gs-game.json"
    game.write_text(json.dumps({"a": fileio.matrix_to_json(a), "b": fileio.matrix_to_json(b)}))
    sched = tmp_path / "gs-schedule.json"
    sched.write_text(json.dumps({"mode": "continuous", "segments": [
        {"duration": dur, "strategy": list(x)} for dur, x in segments]}))
    return str(game), str(sched)


def test_simulate_replicator_general_sum(capsys, tmp_path):
    from scipy.integrate import quad

    a = np.array([[1.0, -0.5, 0.2], [0.0, 0.8, -1.0]])
    b = np.array([[0.3, -1.0, 0.6], [-0.4, 0.9, 0.1]])
    segments = [(1.5, (0.7, 0.3)), (0.75, (0.1, 0.9)), (4.0, (0.5, 0.5))]
    game, sched = general_sum_files(tmp_path, a, b, segments)
    prefix = str(tmp_path / "gs")
    code, out, _ = run(capsys, "simulate", game, "--learner", "replicator",
                       "--schedule", sched, "--eta", "2.0", "--out", prefix)
    assert code == 0
    traj = json.loads(open(prefix + ".json").read())
    h = np.zeros(3)
    for (dur, x), got in zip(segments, traj["optimizer_reward"]):
        c, d = np.array(x) @ a, np.array(x) @ b

        def f(u, h=h):
            z = 2.0 * (h + u * d)
            p = np.exp(z - z.max())
            return float(c @ p / p.sum())
        want = quad(f, 0.0, dur, limit=200)[0]
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))
        h = h + dur * d
    assert float(out.splitlines()[0].split()[-1]) == pytest.approx(
        sum(traj["optimizer_reward"]), rel=1e-15)


def test_simulate_replicator_cap_exit_4(capsys, tmp_path):
    # the integrand 1e6 * tanh(5 * (u - 5)) integrates to 0, and rounding in
    # its 1e6-sized values keeps the error estimate above the absolute tolerance
    game, _ = general_sum_files(tmp_path, [[1e6, -1e6]], [[1.0, 0.0]], [])
    h0 = tmp_path / "h0.txt"
    h0.write_text("-5 0\n")
    code, _, err = run(capsys, "simulate", game, "--learner", "replicator",
                       "--schedule", "pure:1", "--T", "10", "--eta", "10", "--h0", str(h0),
                       "--out", str(tmp_path / "cap"))
    assert code == 4 and "200 bisections" in err and "Traceback" not in err


WRITERS = {
    "value": lambda mp, graph, wit, out: ["value", mp, "--out", out],
    "plan": lambda mp, graph, wit, out: ["plan", mp, "--out", out],
    "simulate": lambda mp, graph, wit, out: [
        "simulate", mp, "--learner", "mwu", "--schedule", "uniform", "--T", "3", "--out", out],
    "reduce": lambda mp, graph, wit, out: ["reduce", graph, "--out", out],
    "verify": lambda mp, graph, wit, out: ["verify", graph, wit, "--out", out],
    "brute": lambda mp, graph, wit, out: ["brute", graph, "--out", out],
}
# what each command appends to --out for the first file it writes
WRITTEN_SUFFIX = {"simulate": ".csv", "reduce": ".instance.json"}


@pytest.mark.parametrize("target", ["missing-dir", "directory"])
@pytest.mark.parametrize("command", list(WRITERS))
def test_unwritable_out_exit_2(command, target, capsys, mp_file, graph_file, tmp_path):
    wit = tmp_path / "w.json"
    wit.write_text(json.dumps({"cycle": [1, 5, 2, 4, 3]}))
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    if target == "directory":
        (out_dir / ("r" + WRITTEN_SUFFIX.get(command, ""))).mkdir()
    before = sorted(out_dir.iterdir())
    out = out_dir / "missing" / "r" if target == "missing-dir" else out_dir / "r"
    code, printed, err = run(capsys, *WRITERS[command](mp_file, graph_file, str(wit), str(out)))
    assert code == 2 and "cannot write" in err and "Traceback" not in err
    assert printed == ""  # the write comes before any result or verdict line
    assert sorted(out_dir.iterdir()) == before  # no .tmp-* file left behind


@pytest.mark.parametrize("command", ["simulate", "reduce"])
def test_failed_second_write_leaves_no_file(command, capsys, mp_file, graph_file, tmp_path):
    # the second file's path is a directory: the first file is not left behind
    out = tmp_path / "out" / "r"
    out.parent.mkdir()
    if command == "simulate":
        argv = WRITERS["simulate"](mp_file, graph_file, None, str(out))
        (out.parent / "r.json").mkdir()
    else:
        argv = ["reduce", graph_file, "--normalize", "--out", str(out)]
        (out.parent / "r.instance.normalized.json").mkdir()
    before = sorted(out.parent.iterdir())
    code, printed, err = run(capsys, *argv)
    assert code == 2 and "cannot write" in err and printed == ""
    assert sorted(out.parent.iterdir()) == before


@pytest.mark.parametrize("argv, fragment", [
    (["plan", "--eta", "1e-320", "--out", "{out}/r.json"],
     "reward bounds overflow floating point at eta = 9.99989e-321, T = 100"),
    (["simulate", "--learner", "mwu", "--schedule", "uniform", "--eta", "1e-320", "--T", "4",
      "--out", "{out}/r"], "reward bounds overflow floating point at eta = 9.99989e-321, T = 4"),
    # best response never reads eta, but the continuous-time lines do
    (["simulate", "--learner", "br", "--schedule", "uniform", "--eta", "0", "--out", "{out}/r"],
     "eta must be positive"),
], ids=["plan-bounds-overflow", "simulate-bounds-overflow", "simulate-br-eta-zero"])
def test_failure_writes_and_prints_nothing(argv, fragment, capsys, mp_file, tmp_path):
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    code, printed, err = run(capsys, argv[0], mp_file, *(a.format(out=out_dir) for a in argv[1:]))
    assert code == 2 and printed == "" and fragment in err and "Traceback" not in err
    assert list(out_dir.iterdir()) == []


def test_two_matrix_zero_sum_file_is_the_matrix_file(capsys, tmp_path):
    # B = -A written out in full is read as the zero-sum game A alone
    one = tmp_path / "one.txt"
    one.write_text(MP_TEXT)
    a = np.array([[1.0, -1.0], [-1.0, 1.0]])
    two = tmp_path / "two.json"
    two.write_text(json.dumps({"a": fileio.matrix_to_json(a), "b": fileio.matrix_to_json(-a)}))
    prefix = str(tmp_path / "traj")
    seen = []
    for game in (one, two):
        plan = run(capsys, "plan", str(game), "--T", "10")
        sim = run(capsys, "simulate", str(game), "--learner", "mwu", "--schedule", "alternating",
                  "--T", "10", "--out", prefix)
        files = [open(prefix + ext, "rb").read() for ext in (".csv", ".json")]
        seen.append((plan, sim, files))
    assert seen[0] == seen[1]
    assert seen[0][0][0] == 0 and len(seen[0][1][1].splitlines()) == 5  # with the bound lines


@pytest.mark.parametrize("general_sum, schedule, value_lps", [
    (False, "alternating", 1), (True, "uniform", 0),
], ids=["zero-sum-alternating", "general-sum"])
def test_simulate_solves_one_value_lp(general_sum, schedule, value_lps, minmax_lp_calls,
                                      capsys, mp_file, tmp_path):
    # the alternating plan and the bound lines share one analysis
    game = mp_file
    if general_sum:
        game, _ = general_sum_files(tmp_path, [[1.0, -1.0], [-1.0, 1.0]], [[0.5, 0.0], [0.0, 2.0]], [])
    code, _, err = run(capsys, "simulate", game, "--learner", "mwu", "--schedule", schedule,
                       "--T", "10", "--out", str(tmp_path / "t"))
    assert code == 0, err
    assert minmax_lp_calls.count(None) == value_lps


class TestReduceVerifyBrute:
    def test_reduce_writes_instance(self, capsys, graph_file, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, out, _ = run(capsys, "reduce", graph_file, "--normalize")
        assert code == 0
        inst = json.loads((tmp_path / "graph.instance.json").read_text())
        assert inst["k"] == 6 and inst["a"]["rows"] == 7
        norm = json.loads((tmp_path / "graph.instance.normalized.json").read_text())
        assert norm["normalized"] is True

    def test_verify_cycle_ok(self, capsys, graph_file, tmp_path):
        w = tmp_path / "w.json"
        w.write_text(json.dumps({"cycle": [1, 5, 2, 4, 3]}))
        code, out, _ = run(capsys, "verify", graph_file, str(w))
        assert code == 0 and "OK" in out and "reward 6" in out

    def test_verify_sequence_extracts_cycle(self, capsys, graph_file, tmp_path):
        w = tmp_path / "w.json"
        w.write_text(json.dumps({"sequence": [1, 2, 4, 6, 7, 1]}))
        code, out, _ = run(capsys, "verify", graph_file, str(w))
        assert code == 0 and "1 -> 5 -> 2 -> 4 -> 3 -> 1" in out

    def test_verify_bad_cycle_exit_1(self, capsys, graph_file, tmp_path):
        w = tmp_path / "w.json"
        w.write_text(json.dumps({"cycle": [1, 2, 4, 3, 5]}))
        code, out, _ = run(capsys, "verify", graph_file, str(w))
        assert code == 1 and "FAIL" in out

    def test_brute_yes(self, capsys, graph_file):
        code, out, _ = run(capsys, "brute", graph_file)
        assert code == 0 and "max reward 6" in out and out.count("YES") == 1

    def test_brute_no_after_deleting_edge(self, capsys, tmp_path):
        p = tmp_path / "g.txt"
        p.write_text("5\n1 5\n1 2\n2 4\n4 1\n4 3\n3 1\n")
        code, out, _ = run(capsys, "brute", str(p))
        assert code == 0 and "NO" in out

    def test_brute_cap_exit_4(self, capsys, graph_file):
        code, _, err = run(capsys, "brute", graph_file, "--cap", "10")
        assert code == 4 and "cap" in err

    @pytest.mark.parametrize("cap", ["0", "-1"])
    def test_brute_cap_below_one_exit_2(self, cap, capsys, graph_file, monkeypatch):
        code, _, err = run(capsys, "brute", graph_file, "--cap", cap)
        assert code == 2 and f"cap must be at least 1, got {cap}" in err
        monkeypatch.setenv("STRATEGIZER_CAP", cap)
        code, _, err = run(capsys, "brute", graph_file)
        assert code == 2 and f"cap must be at least 1, got {cap}" in err

    def test_brute_reads_instance_json(self, capsys, graph_file, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        run(capsys, "reduce", graph_file)
        code, out, _ = run(capsys, "brute", str(tmp_path / "graph.instance.json"))
        assert code == 0 and "max reward 6" in out

    def test_witness_export_round_trip(self, capsys, graph_file, tmp_path):
        wit = tmp_path / "witness.json"
        code, _, _ = run(capsys, "brute", graph_file, "--out", str(wit))
        assert code == 0
        obj = json.loads(wit.read_text())
        assert obj["reward"] == 6
        assert obj["sequence"] == [1, 2, 4, 6, 7, 1]
        assert obj["learner"] == ["v_1", "v_5", "v_2", "v_4", "v_3", "v_1"]
        assert obj["cycle"] == [1, 5, 2, 4, 3]
        # the exported witness verifies cleanly
        code, out, _ = run(capsys, "verify", graph_file, str(wit))
        assert code == 0 and "extracted cycle" in out


class TestBattery:
    def test_subset_passes(self, capsys):
        code, out, _ = run(capsys, "battery", "--only", "1,5,8,11")
        assert code == 0
        assert out.count("PASS") == 4
        assert "4/4 criteria passed" in out

    def test_repeated_criterion_runs_once(self, capsys):
        code, out, _ = run(capsys, "battery", "--only", "5,1,1,5")
        assert code == 0
        assert out.count("PASS") == 2 and "2/2 criteria passed" in out
        assert [r.number for r in run_battery(numbers=[1, 1])] == [1]

    def test_unknown_criterion_exit_2(self, capsys):
        code, _, err = run(capsys, "battery", "--only", "99")
        assert code == 2 and "unknown criteria" in err

    @pytest.mark.parametrize("numbers", [[99], ["1"]], ids=["out-of-range", "string"])
    def test_run_battery_refuses_unknown_numbers(self, numbers):
        with pytest.raises(InputError, match=r"unknown criteria \[.*\]; valid: 1\.\.11"):
            run_battery(numbers=numbers)

    @pytest.mark.parametrize("name, value, message", [
        ("seed", "-1", "seed must be non-negative, got -1"),
        ("count", "0", "count must be at least 1, got 0"),
        ("count", "-3", "count must be at least 1, got -3"),
    ], ids=["seed-negative", "count-zero", "count-negative"])
    def test_unusable_seed_or_count_exit_2(self, name, value, message, capsys, monkeypatch):
        code, out, err = run(capsys, "battery", "--only", "1", f"--{name}", value)
        assert code == 2 and message in err and out == ""
        monkeypatch.setenv("STRATEGIZER_" + name.upper(), value)
        code, out, err = run(capsys, "battery", "--only", "1")
        assert code == 2 and message in err and out == ""
