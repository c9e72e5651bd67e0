import json

import numpy as np
import pytest

from strategizer import InputError, Schedule, normalize_payoffs, reduce_hamiltonian
from strategizer import fileio


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
        sched = Schedule("discrete", [3, 2], [[0.5, 0.5], [1.0, 0.0]])
        path = tmp_path / "s.json"
        path.write_text(fileio.canonical_json(fileio.schedule_to_json(sched)))
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

    def test_bad_pair(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("2\n1 2 3\n")
        with pytest.raises(InputError, match="line 2"):
            fileio.read_graph(str(path))


class TestInstanceIo:
    def test_round_trip(self, tmp_path, example_graph_5):
        inst = reduce_hamiltonian(example_graph_5)
        path = tmp_path / "inst.json"
        path.write_text(fileio.canonical_json(fileio.instance_to_json(inst)))
        back = fileio.read_instance(str(path))
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
        from strategizer import MWU, SimplexVector, simulate

        traj = simulate(mp_game, Schedule.constant(SimplexVector.uniform(2), 0), MWU, eta=0.1)
        text = fileio.trajectory_csv(traj)
        assert text.startswith("t,opt_reward,learner_reward,opt_total")
        assert len(text.strip().splitlines()) == 1

    def test_json_embeds_h_traces(self, mp_game):
        from strategizer import MWU, SimplexVector, simulate

        sched = Schedule.constant(SimplexVector.pure(0, 2), 3)
        traj = simulate(mp_game, sched, MWU, eta=0.1)
        obj = fileio.trajectory_json(traj)
        assert obj["h_after"][2] == [-3.0, 3.0]


class TestAtomicWrite:
    def test_writes_and_replaces(self, tmp_path):
        path = tmp_path / "out.json"
        fileio.atomic_write(str(path), "one\n")
        fileio.atomic_write(str(path), "two\n")
        assert path.read_text() == "two\n"
        assert list(tmp_path.iterdir()) == [path]
