import json
import math
import os

import pytest

from strategizer import DirectedGraph, fileio, reduce_hamiltonian
from strategizer.acceptance import example_graph
from strategizer.cli import main

MP_TEXT = "1 -1\n-1 1\n"
GRAPH_TEXT = "5\n1 5\n5 2\n1 2\n2 4\n4 1\n4 3\n3 1\n"


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
        from strategizer import Schedule, SimplexVector, reward_cont, matching_pennies

        want = reward_cont(
            Schedule.constant(SimplexVector.pure(0, 2), 5.0, "continuous"),
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


def instance_json(graph=None, **changes):
    """The reduced instance of a graph (default: the example) as JSON with
    fields replaced; a None value drops the field."""
    obj = fileio.instance_to_json(reduce_hamiltonian(graph or example_graph()))
    obj.update(changes)
    return {key: value for key, value in obj.items() if value is not None}


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
], ids=["sequence-str", "cycle-str", "sequence-int", "cycle-string", "sequence-float",
        "cycle-null", "segments-int", "instance-no-k", "instance-negative-T",
        "instance-fractional-a", "instance-b-shape"])
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


def test_brute_long_horizon_exit_4(capsys, tmp_path):
    path = tmp_path / "one-edge.json"
    path.write_text(json.dumps(instance_json(DirectedGraph(2, ((1, 2),)), T=5000)))
    code, _, err = run(capsys, "brute", str(path))
    assert code == 4 and "T = 5000" in err and "Traceback" not in err


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
