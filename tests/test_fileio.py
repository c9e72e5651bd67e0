import copy
import dataclasses
import json
import math
import os
import stat

import numpy as np
import pytest

from strategizer import InputError, Schedule, normalize_payoffs, reduce_hamiltonian
from strategizer import fileio

from test_ocdp import every_small_graph


class TestCanonicalJson:
    def test_float_17_digits(self):
        text = fileio.canonical_json({"x": 1.0 / 3.0})
        assert "0.33333333333333331" in text

    def test_round_trips(self):
        obj = {"a": [0.1, 2, True, None], "b": {"c": -1e-30}}
        text = fileio.canonical_json(obj)
        assert json.loads(text) == obj

    def test_byte_identical(self):
        obj = {"v": [np.float64(0.7), np.int64(3)], "m": np.eye(2)}
        assert fileio.canonical_json(obj) == fileio.canonical_json(obj)

    def test_rejects_nan(self):
        with pytest.raises(InputError):
            fileio.canonical_json({"x": float("nan")})


class TestMatrixIo:
    def test_json_round_trip(self, tmp_path, rng):
        m = rng.uniform(-1, 1, size=(3, 4))
        path = tmp_path / "m.json"
        path.write_text(fileio.canonical_json(fileio.matrix_to_json(m)))
        back = fileio.read_matrix(str(path))
        assert np.array_equal(back, m)  # 17 significant digits round-trip doubles

    def test_text_format(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("# matching pennies\n1 -1\n-1 1\n")
        assert np.array_equal(fileio.read_matrix(str(path)), [[1, -1], [-1, 1]])

    def test_text_ragged_rows(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("1 2\n3\n")
        with pytest.raises(InputError, match="line 2"):
            fileio.read_matrix(str(path))

    def test_text_bad_token(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("1 x\n")
        with pytest.raises(InputError, match="column 2"):
            fileio.read_matrix(str(path))

    def test_json_shape_mismatch(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{"rows": 2, "cols": 2, "data": [[1, 2]]}')
        with pytest.raises(InputError, match="declares"):
            fileio.read_matrix(str(path))

    def test_missing_file(self):
        with pytest.raises(InputError, match="cannot read"):
            fileio.read_matrix("/nonexistent/m.json")


class TestGameIo:
    def test_matrix_only_is_zero_sum(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("1 -1\n-1 1\n")
        game = fileio.read_game(str(path))
        assert game.zero_sum and np.array_equal(game.b, -game.a)

    def test_bimatrix_json(self, tmp_path):
        obj = {
            "a": {"rows": 1, "cols": 2, "data": [[1.0, 0.0]]},
            "b": {"rows": 1, "cols": 2, "data": [[0.5, 0.5]]},
        }
        path = tmp_path / "g.json"
        path.write_text(json.dumps(obj))
        game = fileio.read_game(str(path))
        assert not game.zero_sum and game.b[0, 0] == 0.5


class TestScheduleIo:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text(fileio.canonical_json({"mode": "discrete", "segments": [
            {"count": 3, "strategy": [0.5, 0.5]}, {"count": 2, "strategy": [1.0, 0.0]}]}))
        back = fileio.read_schedule(str(path))
        assert back.mode == "discrete" and back.total == 5
        assert np.array_equal(back.strategies[1], [1.0, 0.0])

    def test_continuous_durations(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text('{"mode": "continuous", "segments": [{"duration": 2.5, "strategy": [1, 0]}]}')
        assert fileio.read_schedule(str(path)).total == 2.5

    def test_missing_field(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text('{"mode": "discrete", "segments": [{"strategy": [1, 0]}]}')
        with pytest.raises(InputError, match="count"):
            fileio.read_schedule(str(path))


class TestGraphIo:
    def test_plain_text(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("3\n1 2\n2 3\n3 1\n")
        g = fileio.read_graph(str(path))
        assert g.n_vertices == 3 and g.edges == ((1, 2), (2, 3), (3, 1))

    def test_dot_subset(self, tmp_path):
        path = tmp_path / "g.dot"
        path.write_text("digraph {\n  1 -> 2;\n  2 -> 3 -> 1;\n}\n")
        g = fileio.read_graph(str(path))
        assert g.n_vertices == 3 and g.edges == ((1, 2), (2, 3), (3, 1))

    def test_dot_statements_split_on_semicolons(self, tmp_path):
        instances = []
        for name, text in (("one-line", "digraph {\n 1 -> 2; 2 -> 3\n 3 -> 1\n}"),
                           ("per-line", "digraph {\n 1 -> 2\n 2 -> 3\n 3 -> 1\n}")):
            path = tmp_path / f"{name}.dot"
            path.write_text(text)
            inst = reduce_hamiltonian(fileio.read_graph(str(path)))
            instances.append(fileio.canonical_json(fileio.instance_to_json(inst)))
        assert instances[0] == instances[1]

    def test_bad_pair(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("2\n1 2 3\n")
        with pytest.raises(InputError, match="line 2"):
            fileio.read_graph(str(path))


def single_corruptions(obj):
    """Copies of an instance's JSON, each with one row or column label, one
    A or B entry (off by one ulp or by 1/160), or `normalized` changed."""
    for key in ("rows", "cols"):
        for i, name in enumerate(obj["labels"][key]):
            for other in (name + "x", None, i + 1):
                bad = copy.deepcopy(obj)
                bad["labels"][key][i] = other
                yield bad
    for key in ("a", "b"):
        for i, row in enumerate(obj[key]["data"]):
            for j, value in enumerate(row):
                for other in (math.nextafter(value, math.inf), value + 1 / 160):
                    bad = copy.deepcopy(obj)
                    bad[key]["data"][i][j] = other
                    yield bad
    for other in ("false", "true", 0, 1, 0.0, None, []):
        yield {**obj, "normalized": other}


class TestInstanceIo:
    def test_round_trip(self, tmp_path, example_graph_5):
        inst = reduce_hamiltonian(example_graph_5)
        path = tmp_path / "inst.json"
        path.write_text(fileio.canonical_json(fileio.instance_to_json(inst)))
        back = fileio.read_instance_or_graph(str(path))
        assert np.array_equal(back.a, inst.a)
        assert np.array_equal(back.b, inst.b)
        assert np.array_equal(back.b_int, inst.b_int)
        assert back.k == inst.k and back.col_labels == inst.col_labels

    def test_whole_float_counts_accepted(self, example_graph_5):
        obj = fileio.instance_to_json(reduce_hamiltonian(example_graph_5))
        obj.update(k=6.0, T=6.0)
        back = fileio.instance_from_json(obj)
        assert (back.k, back.T) == (6, 6) and type(back.T) is int

    def test_normalized_instance_matches_its_edges(self, example_graph_5):
        inst = normalize_payoffs(reduce_hamiltonian(example_graph_5))
        obj = json.loads(fileio.canonical_json(fileio.instance_to_json(inst)))
        assert np.array_equal(fileio.instance_from_json(obj).b, inst.b)
        obj["labels"]["edges"][0] = [1, 3]  # same source, other target
        with pytest.raises(InputError, match="row 1 of A and B does not encode edge"):
            fileio.instance_from_json(obj)

    def test_every_small_graph_round_trips_byte_for_byte(self, rng):
        # every labelled digraph on 2, 3 and 4 vertices, raw and normalized,
        # each with its own k and T
        for g in every_small_graph():
            inst = reduce_hamiltonian(g)
            for flagged in (inst, normalize_payoffs(inst)):
                k, T = (int(v) for v in rng.integers(1, 10, 2))
                text = fileio.canonical_json(
                    fileio.instance_to_json(dataclasses.replace(flagged, k=k, T=T)))
                back = fileio.instance_from_json(json.loads(text))
                assert fileio.canonical_json(fileio.instance_to_json(back)) == text

    @pytest.mark.parametrize("normalize", [False, True], ids=["raw", "normalized"])
    def test_any_single_corruption_is_refused(self, example_graph_5, normalize):
        inst = reduce_hamiltonian(example_graph_5)
        obj = json.loads(fileio.canonical_json(
            fileio.instance_to_json(normalize_payoffs(inst) if normalize else inst)))
        fileio.instance_from_json(obj)
        for bad in single_corruptions(obj):
            with pytest.raises(InputError):
                fileio.instance_from_json(bad)

    def test_witness_requires_fields(self, tmp_path):
        path = tmp_path / "w.json"
        path.write_text('{"reward": 6}')
        with pytest.raises(InputError, match="cycle"):
            fileio.read_witness(str(path))


class TestTrajectoryExport:
    def test_csv_header_and_totals(self, mp_game):
        from strategizer import MWU, simulate

        sched = Schedule.from_rounds([[0.0, 1.0], [1.0, 0.0]])
        traj = simulate(mp_game, sched, MWU, eta=0.1)
        text = fileio.trajectory_csv(traj)
        lines = text.strip().splitlines()
        assert lines[0] == "t,opt_reward,learner_reward,opt_total,y_1,y_2"
        assert len(lines) == 3

    def test_empty_trajectory_header_only(self, mp_game):
        from strategizer import MWU, simulate

        traj = simulate(mp_game, Schedule.constant([0.5, 0.5], 0), MWU, eta=0.1)
        text = fileio.trajectory_csv(traj)
        assert text.startswith("t,opt_reward,learner_reward,opt_total")
        assert len(text.strip().splitlines()) == 1

    def test_json_embeds_h_traces(self, mp_game):
        from strategizer import MWU, simulate

        sched = Schedule.constant([1.0, 0.0], 3)
        traj = simulate(mp_game, sched, MWU, eta=0.1)
        obj = fileio.trajectory_json(traj)
        assert obj["h_after"][2] == [-3.0, 3.0]


class TestAtomicWrite:
    def test_writes_and_replaces(self, tmp_path):
        path = tmp_path / "out.json"
        fileio.atomic_write((str(path), "one\n"))
        fileio.atomic_write((str(path), "two\n"))
        assert path.read_text() == "two\n"
        assert list(tmp_path.iterdir()) == [path]

    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
    def test_mode_follows_umask(self, tmp_path, umask, mode):
        # the mode open(path, "w") gives, not mkstemp's 0600
        saved = os.umask(umask)
        try:
            fileio.atomic_write((str(tmp_path / "out.json"), "one\n"))
        finally:
            os.umask(saved)
        assert stat.S_IMODE((tmp_path / "out.json").stat().st_mode) == mode

    def test_failed_rename_removes_earlier_files(self, tmp_path):
        (tmp_path / "r.json").mkdir()
        with pytest.raises(InputError, match="cannot write .*r.json"):
            fileio.atomic_write((str(tmp_path / "r.csv"), "one\n"), (str(tmp_path / "r.json"), "two\n"))
        assert list(tmp_path.iterdir()) == [tmp_path / "r.json"]

    @pytest.mark.parametrize("target", ["missing/out.json", "out.json"], ids=["missing-dir", "directory"])
    def test_unwritable_path_is_input_error(self, tmp_path, target):
        (tmp_path / "out.json").mkdir()
        with pytest.raises(InputError, match="cannot write"):
            fileio.atomic_write((str(tmp_path / target), "one\n"))
        assert list(tmp_path.iterdir()) == [tmp_path / "out.json"]
