"""canonical_json and trajectory_csv against a per-value oracle.

The oracle below is the straightforward writer: one recursive call and one
format(x, ".17g") per value, and a CSV built cell by cell with a running
total added round by round. The library formats whole float lists and whole
CSV tables at once; both must produce the same bytes.
"""

import json
import math

import numpy as np
import pytest

from strategizer import (
    BEST_RESPONSE, MWU, REPLICATOR, BimatrixGame, DirectedGraph, InputError, Schedule,
    fileio, matching_pennies, normalize_payoffs, planner_report, reduce_hamiltonian,
    simulate, unique_br_game,
)
from strategizer.learners import Trajectory


def oracle_float(x) -> str:
    if not math.isfinite(x):
        raise InputError("cannot serialize non-finite float")
    return format(float(x), ".17g")


def oracle_json(obj) -> str:
    out = []
    _oracle_emit(obj, out)
    return "".join(out) + "\n"


def _oracle_emit(obj, out):
    if obj is None or obj is True or obj is False:
        out.append(json.dumps(obj))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, (int, np.integer)) and not isinstance(obj, bool):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(oracle_float(float(obj)))
    elif isinstance(obj, np.ndarray):
        _oracle_emit(obj.tolist(), out)
    elif isinstance(obj, dict):
        out.append("{")
        for i, (k, v) in enumerate(obj.items()):
            if i:
                out.append(", ")
            out.append(json.dumps(str(k)))
            out.append(": ")
            _oracle_emit(v, out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, v in enumerate(obj):
            if i:
                out.append(", ")
            _oracle_emit(v, out)
        out.append("]")
    else:
        raise InputError(f"cannot serialize object of type {type(obj).__name__}")


def oracle_csv(traj) -> str:
    m = traj.learner_strategy.shape[1] if traj.rounds else 0
    header = "t,opt_reward,learner_reward,opt_total," + ",".join(
        f"y_{j + 1}" for j in range(m)
    )
    lines = [header.rstrip(",")]
    running = 0.0
    for i in range(traj.rounds):
        running += float(traj.optimizer_reward[i])
        cells = [
            oracle_float(float(traj.t[i])),
            oracle_float(float(traj.optimizer_reward[i])),
            oracle_float(float(traj.learner_reward[i])),
            oracle_float(running),
        ]
        cells.extend(oracle_float(float(v)) for v in traj.learner_strategy[i])
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def assert_same_outputs(traj):
    assert fileio.trajectory_csv(traj) == oracle_csv(traj)
    obj = fileio.trajectory_json(traj)
    assert fileio.canonical_json(obj) == oracle_json(obj)


def random_trajectories(rng, m):
    """MWU and best-response on a discrete schedule, replicator on a
    continuous one, on a zero-sum and a general-sum n x m game."""
    n = int(rng.integers(1, 5))
    a = rng.uniform(-1, 1, size=(n, m))
    b = rng.uniform(-1, 1, size=(n, m))
    segments = int(rng.integers(1, 8))
    strategies = rng.dirichlet(np.ones(n), size=segments)
    counts = rng.integers(1, 5, size=segments)
    durations = rng.uniform(0.1, 3.0, size=segments)
    h0 = rng.uniform(-2, 2, size=m)
    for game in (BimatrixGame.from_zero_sum(a), BimatrixGame(a, b)):
        discrete = Schedule("discrete", counts, strategies)
        yield simulate(game, discrete, MWU, eta=float(rng.uniform(0.05, 2)), h0=h0)
        yield simulate(game, discrete, BEST_RESPONSE, h0=h0)
        continuous = Schedule("continuous", durations, strategies)
        yield simulate(game, continuous, REPLICATOR, eta=float(rng.uniform(0.05, 2)), h0=h0)


@pytest.mark.parametrize("m", range(1, 7))
def test_trajectories_match_oracle(m):
    rng = np.random.default_rng(9000 + m)
    for _ in range(4):
        for traj in random_trajectories(rng, m):
            assert_same_outputs(traj)


def test_empty_trajectory_matches_oracle(mp_game):
    traj = simulate(mp_game, Schedule.constant([0.5, 0.5], 0), MWU, eta=0.1)
    assert_same_outputs(traj)


def make_trajectory(opt_reward, learner_reward=None, y=None):
    r = np.asarray(opt_reward, dtype=float)
    rounds = r.size
    y = np.full((rounds, 2), 0.5) if y is None else np.asarray(y, dtype=float)
    return Trajectory(
        mode="discrete", t=np.arange(1.0, rounds + 1), optimizer_strategy=y,
        learner_strategy=y, optimizer_reward=r,
        learner_reward=-r if learner_reward is None else np.asarray(learner_reward, float),
        h_after=np.zeros((rounds, 2)), totals=(0.0, 0.0),  # the CSV does not show totals
    )


@pytest.mark.parametrize("rewards", [
    [-0.0, 1.0, -1.0],
    [-0.0, -0.0],
    [5e-324, -5e-324, 5e-324],
    [1.7976931348623157e308, -1.7976931348623157e308],
    [0.1, 0.2, 0.3, -0.6],
])
def test_edge_rewards_match_oracle(rewards):
    assert_same_outputs(make_trajectory(rewards))


def test_many_rounds_match_oracle():
    # more rounds than one formatting chunk holds
    rng = np.random.default_rng(77)
    rounds = fileio._CSV_CHUNK_ROWS * 2 + 17
    y = rng.dirichlet(np.ones(3), size=rounds)
    traj = make_trajectory(rng.standard_normal(rounds), rng.standard_normal(rounds), y)
    assert fileio.trajectory_csv(traj) == oracle_csv(traj)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_csv_rejects_non_finite(bad):
    for traj in (make_trajectory([1.0, bad]), make_trajectory([1.0, 2.0], [bad, 0.0]),
                 make_trajectory([1.0], y=[[bad, 0.5]])):
        with pytest.raises(InputError, match="non-finite"):
            oracle_csv(traj)
        with pytest.raises(InputError, match="non-finite"):
            fileio.trajectory_csv(traj)


def test_csv_rejects_overflowing_total():
    traj = make_trajectory([1.7976931348623157e308, 1.7976931348623157e308])
    with pytest.raises(InputError, match="non-finite"):
        oracle_csv(traj)
    with pytest.raises(InputError, match="non-finite"):
        fileio.trajectory_csv(traj)


EDGE_OBJECTS = [
    -0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308, 0.1, 1e16, 1e-5, 123.0,
    [-0.0, 5e-324, 1.7976931348623157e308],
    [np.float64(0.7), np.float32(0.1), np.int64(3), np.int32(-2)],
    [True, False, None, 1, 1.0, "x"],
    [1.0, True],
    [1.0, 2],
    [1.0, np.float64(2.5)],
    [],
    [[]],
    [[1.0, 2.0], [], [[3.0], [4.0, -0.0]], ()],
    (1.5, 2.5),
    {"a": [], "b": {}, "c": {"d": [0.5, [0.25]]}, 7: None},
    np.eye(3),
    np.array([-0.0, 5e-324]),
    np.zeros((0, 2)),
    np.arange(4),
    np.array([[True, False]]),
    "quote \" and é",
]


@pytest.mark.parametrize("obj", EDGE_OBJECTS, ids=range(len(EDGE_OBJECTS)))
def test_edge_values_match_oracle(obj):
    assert fileio.canonical_json(obj) == oracle_json(obj)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("wrap", [
    lambda x: x, lambda x: [x], lambda x: [1.0, x, 2.0], lambda x: {"k": [[0.5], [x]]},
    lambda x: np.array([0.5, x]), lambda x: (x,), lambda x: np.float64(x),
])
def test_json_rejects_non_finite(bad, wrap):
    obj = wrap(bad)
    with pytest.raises(InputError, match="non-finite"):
        oracle_json(obj)
    with pytest.raises(InputError, match="non-finite"):
        fileio.canonical_json(obj)


@pytest.mark.parametrize("obj", [np.bool_(True), [1.0, object()], {"k": {1.0, 2.0}}])
def test_json_rejects_unknown_types(obj):
    with pytest.raises(InputError, match="cannot serialize object of type"):
        oracle_json(obj)
    with pytest.raises(InputError, match="cannot serialize object of type"):
        fileio.canonical_json(obj)


def test_random_float_bits_match_oracle():
    bits = np.random.default_rng(4321).integers(0, 2**64, size=20_000, dtype=np.uint64)
    values = bits.view(np.float64)
    values = values[np.isfinite(values)].tolist()
    assert fileio.canonical_json(values) == oracle_json(values)


def test_plan_reports_match_oracle():
    rng = np.random.default_rng(31)
    games = [matching_pennies(), unique_br_game(3)]
    games += [rng.uniform(-1, 1, size=rng.integers(2, 5, size=2)) for _ in range(6)]
    for i, a in enumerate(games):
        eta = 0.1 if i % 2 == 0 else 1.0
        report = planner_report(a, eta, 10.0 / eta, 1e-6)
        assert fileio.canonical_json(report) == oracle_json(report)


def test_instances_match_oracle(example_graph_5):
    for graph in (example_graph_5, DirectedGraph(2, ((1, 2), (2, 1)))):
        inst = reduce_hamiltonian(graph)
        for obj in (fileio.instance_to_json(inst),
                    fileio.instance_to_json(normalize_payoffs(inst))):
            assert fileio.canonical_json(obj) == oracle_json(obj)
