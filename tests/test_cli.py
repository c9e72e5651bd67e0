import json
import math
import os
import time

import numpy as np
import pytest

from strategizer import (
    DirectedGraph, StrategizerError, check_assumption_no_pure, cli, fileio, game_value,
    reduce_hamiltonian,
)
from strategizer.acceptance import example_graph
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
        w = check_assumption_no_pure(a, gv)
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
            None, 5.0, matching_pennies(), 0.2,
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
    ("brute", instance_json(k=None), "needs field 'k'"),
    ("brute", instance_json(T=-2), "must be positive"),
    ("brute", instance_json(a={"rows": 7, "cols": 10, "data": [[0.5] * 10] * 7}),
     "0 or 1"),
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
], ids=["sequence-str", "cycle-str", "sequence-int", "cycle-string", "sequence-float",
        "cycle-null", "segments-int", "instance-no-k", "instance-negative-T",
        "instance-fractional-a", "instance-b-shape", "instance-fractional-T",
        "instance-string-k", "instance-fractional-vertices", "instance-fractional-edge",
        "instance-reversed-edges", "instance-1e16-vertices"])
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
    assert code == 2 and message in err and "Traceback" not in err


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

    def test_unknown_criterion_exit_2(self, capsys):
        code, _, err = run(capsys, "battery", "--only", "99")
        assert code == 2 and "unknown criteria" in err
