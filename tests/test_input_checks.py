"""Input checks that no other test reaches: one case per check.

Each library case names the exception class and a fragment of its message,
so the case fails if a different check fires first. The CLI cases also pin
the exit code.
"""

import json

import numpy as np
import pytest

from strategizer import (
    MWU, REPLICATOR, BimatrixGame, DimensionMismatchError, InputError, PreconditionError, Schedule,
    alternating_gain, alternating_plan, best_response_set, fileio, game_value, matching_pennies,
    optimize_continuous, reduce_hamiltonian, reward_bounds, reward_cont, simulate, unique_br_game,
    verify_cycle,
)
from strategizer.acceptance import example_graph
from strategizer.cli import main
from strategizer.games import as_matrix, as_simplex, as_weights

MP = matching_pennies()
MP_GAME = BimatrixGame.from_zero_sum(MP)
DISCRETE = Schedule.constant([0.5, 0.5], 3)
CONTINUOUS = Schedule.constant([0.5, 0.5], 1.0, "continuous")

LIBRARY_CASES = {
    "simulate-mwu-eta-zero": (lambda: simulate(MP_GAME, DISCRETE, MWU, eta=0.0),
                              InputError, "eta must be positive"),
    "simulate-replicator-eta-negative": (lambda: simulate(MP_GAME, CONTINUOUS, REPLICATOR, eta=-1.0),
                                         InputError, "eta must be positive"),
    "simulate-unknown-learner": (lambda: simulate(MP_GAME, DISCRETE, "fictitious-play"),
                                 InputError, "unknown learner kind"),
    "schedule-bad-mode": (lambda: Schedule("hybrid", [1], [[1.0, 0.0]]),
                          InputError, "discrete or continuous"),
    "schedule-zero-duration": (lambda: Schedule("continuous", [1.0, 0.0], [[1.0, 0.0]] * 2),
                               InputError, "duration must be positive"),
    # finite lengths whose sum overflows; under pytest's error::RuntimeWarning
    # these also check that summing them raises no warning
    "schedule-counts-overflow": (lambda: Schedule("discrete", [1e308] * 2, [[1.0, 0.0]] * 2),
                                 InputError, r"must total below 2\*\*63, got inf"),
    "schedule-durations-overflow": (
        lambda: Schedule("continuous", [1e308] * 2, [[1.0, 0.0]] * 2),
        InputError, "durations must total a finite number"),
    "round-strategies-continuous": (lambda: CONTINUOUS.round_strategies(),
                                    PreconditionError, "requires a discrete schedule"),
    "time-average-empty": (lambda: Schedule("continuous", [], []).time_average(),
                           PreconditionError, "empty schedule"),
    "reward-cont-eta-zero": (lambda: reward_cont(CONTINUOUS, None, MP, 0.0),
                             InputError, "eta must be positive"),
    "reward-cont-dimension": (lambda: reward_cont(Schedule.constant([1.0, 0.0, 0.0], 1.0, "continuous"),
                                                  None, MP, 0.5),
                              InputError, "dimension 3, game has 2 rows"),
    "reward-cont-overflow": (lambda: reward_cont(Schedule.constant([1.0, 0.0], 1e300, "continuous"),
                                                 None, MP, 1e10),
                             InputError, "overflows floating point"),
    "optimize-continuous-horizon-zero": (lambda: optimize_continuous(MP, None, 0.0, 0.5, 1e-6),
                                         InputError, "horizon T must be positive"),
    "reward-bounds-eta-negative": (lambda: reward_bounds(game_value(MP), 10.0, -0.5),
                                   InputError, "eta must be positive"),
    "reward-bounds-overflow": (lambda: reward_bounds(game_value(MP), 10.0, 1e-320),
                               InputError, "reward bounds overflow floating point at eta = 9.99989e-321, T = 10"),
    "best-response-set-negative-tol": (lambda: best_response_set([0.5, 0.5], MP_GAME, tol=-1e-9),
                                       InputError, "tol must be non-negative"),
    "best-response-set-nan-tol": (lambda: best_response_set([0.5, 0.5], MP_GAME, tol=float("nan")),
                                  InputError, "tol must be non-negative"),
    "alternating-gain-no-rounds": (
        lambda: alternating_gain(alternating_plan(game_value(MP)), 0.5, 0),
        InputError, "at least one round"),
    "alternating-gain-fractional-rounds": (
        lambda: alternating_gain(alternating_plan(game_value(MP)), 0.5, 2.5),
        InputError, "cannot run 2.5 rounds: it needs a whole number"),
    "alternating-plan-fractional-rounds": (
        lambda: alternating_plan(game_value(MP)).to_schedule(2.5),
        InputError, "cannot run 2.5 rounds: it needs a whole number"),
    "from-rounds-numpy-scalar": (lambda: Schedule.from_rounds(np.float64(1)),
                                 InputError, r"strategies of shape \(S, n\), got \(\) and \(\)"),
    "as-matrix-1d": (lambda: as_matrix([1.0, 2.0]), InputError, "must be 2-D"),
    # a one-hot strategy is written with numbers, not as a comparison's booleans
    "as-simplex-bool-array": (lambda: as_simplex(np.arange(3) == 1), DimensionMismatchError,
                              "strategy is not an array of numbers: False is not a number"),
    "unique-br-game-2": (lambda: unique_br_game(2), InputError, "n >= 3"),
    # ids are read as integers, not truncated or parsed
    "verify-cycle-float-ids": (lambda: verify_cycle(reduce_hamiltonian(example_graph()), [1.9, 5.2, 2, 4, 3]),
                               InputError, "cycle vertex ids must be integers"),
    "verify-cycle-string-ids": (lambda: verify_cycle(reduce_hamiltonian(example_graph()), list("15243")),
                                InputError, "cycle vertex ids must be integers"),
}


@pytest.mark.parametrize("case", sorted(LIBRARY_CASES))
def test_library_check(case):
    call, error, fragment = LIBRARY_CASES[case]
    with pytest.raises(error, match=fragment):
        call()


# Values that are not numbers, each placed inside an otherwise valid input.
NOT_NUMBERS = {"string": "1", "boolean": True, "numpy-boolean": np.True_, "null": None}

# Each array conversion: how it embeds a value, and the class and message
# fragment it raises for a value that is not a number and for 10**400, an int
# too large for a float, which it refuses as non-finite.
CONVERSIONS = {
    "as_matrix": (lambda v: as_matrix([[1.0, v], [0.0, 1.0]]),
                  (InputError, "payoff matrix is not a table of numbers"),
                  (InputError, "payoff matrix contains non-finite entries")),
    "as_simplex": (lambda v: as_simplex([1.0, v]),
                   (DimensionMismatchError, "strategy is not an array of numbers"),
                   (InputError, "strategy contains non-finite weights")),
    "as_weights": (lambda v: as_weights([1.0, v], 2, "h0"),
                   (DimensionMismatchError, "h0 is not a vector of numbers"),
                   (InputError, "h0 has non-finite entries")),
    "schedule-strategy": (lambda v: Schedule("discrete", [1], [[1.0, v]]),
                          (DimensionMismatchError, "bad schedule row dimension or number"),
                          (InputError, "strategy contains non-finite weights")),
    "schedule-length": (lambda v: Schedule("continuous", [1.0, v], [[1.0, 0.0]] * 2),
                        (DimensionMismatchError, "bad schedule row dimension or number"),
                        (InputError, "schedule lengths must be finite")),
}


@pytest.mark.parametrize("value", [*sorted(NOT_NUMBERS), "400-digit-int"])
@pytest.mark.parametrize("conversion", sorted(CONVERSIONS))
def test_one_number_rule(conversion, value):
    convert, not_number, non_finite = CONVERSIONS[conversion]
    error, fragment = not_number if value in NOT_NUMBERS else non_finite
    with pytest.raises(InputError, match=fragment) as info:
        convert(NOT_NUMBERS.get(value, 10**400))
    assert type(info.value) is error
    if value in NOT_NUMBERS:
        assert f"{NOT_NUMBERS[value]!r} is not a number" in str(info.value)


# arrays of shapes (2, 2) and (2, 3), which numpy cannot stack into one array
UNSTACKABLE = [np.zeros((2, 2)), np.zeros((2, 3))]


@pytest.mark.parametrize("convert, error, fragment", [
    (lambda: as_matrix(UNSTACKABLE), InputError, "payoff matrix is not a table of numbers"),
    (lambda: as_simplex(UNSTACKABLE), DimensionMismatchError, "strategy is not an array of numbers"),
    (lambda: as_weights(UNSTACKABLE, 2, "h0"), DimensionMismatchError, "h0 is not a vector of numbers"),
    (lambda: Schedule("discrete", [1, 1], UNSTACKABLE), DimensionMismatchError,
     "bad schedule row dimension or number"),
    (lambda: Schedule.from_rounds(UNSTACKABLE), DimensionMismatchError,
     "bad schedule row dimension or number"),
], ids=["as_matrix", "as_simplex", "as_weights", "schedule", "from-rounds"])
def test_unstackable_arrays_refused(convert, error, fragment):
    with pytest.raises(InputError, match=fragment) as info:
        convert()
    assert type(info.value) is error


@pytest.mark.parametrize("conversion", sorted(CONVERSIONS))
def test_python_and_numpy_numbers_pass(conversion):
    convert = CONVERSIONS[conversion][0]
    for value in (1, 1.0, np.int8(1), np.uint64(1), np.float32(1.0), np.float64(1.0)):
        convert(value)  # none raises


def _malformed_instance():
    obj = fileio.instance_to_json(reduce_hamiltonian(example_graph()))
    obj["labels"]["rows"] = 5  # not a list of labels
    return fileio.canonical_json(obj)


# (reader, file text, message fragment); every one raises InputError
FILE_CASES = {
    "matrix-missing-keys": (fileio.read_matrix, '{"rows": 2, "cols": 2}', "needs rows/cols/data"),
    "schedule-missing-keys": (fileio.read_schedule, '{"mode": "discrete"}', "needs mode and segments"),
    "matrix-empty": (fileio.read_matrix, "# only a comment\n\n", "no matrix rows found"),
    "graph-empty": (fileio.read_graph, "\n# nothing\n", "empty graph file"),
    "json-syntax": (fileio.read_schedule, '{"mode": "discrete",}', "line 1, column 21"),
    "graph-vertex-count": (fileio.read_graph, "five\n1 2\n", "expected vertex count"),
    "dot-named-nodes": (fileio.read_graph, "digraph { a -> b }", "bare integer node ids"),
    "dot-attribute": (fileio.read_graph, "digraph {\n  rankdir=LR;\n  1 -> 2\n}", "unsupported statement"),
    "dot-no-vertices": (fileio.read_graph, "digraph {\n}", "declares no vertices"),
    "dot-unclosed": (fileio.read_graph, "digraph { 1 -> 2", "between { and }"),
    "dot-file-line": (fileio.read_graph, "digraph G\n{\n1 -> 2\n2 -> x\n}", "DOT line 4:"),
    "dot-semicolon-line": (fileio.read_graph, "digraph {\n1 -> 2; 2 -> x\n}", "DOT line 2:"),
    "instance-malformed": (fileio.read_instance_or_graph, _malformed_instance(),
                           "malformed instance JSON"),
    # more digits than Python converts to an int: refused while parsing
    "json-integer-too-long": (fileio.read_schedule, '{"mode": "discrete", "segments": [{"count": '
                              + "9" * 5000 + ', "strategy": [1]}]}', "digits"),
}


@pytest.mark.parametrize("case", sorted(FILE_CASES))
def test_file_check(case, tmp_path):
    reader, text, fragment = FILE_CASES[case]
    path = tmp_path / "input"
    path.write_text(text)
    with pytest.raises(InputError, match=fragment):
        reader(str(path))


@pytest.mark.parametrize("reader", [
    fileio.read_matrix, fileio.read_game, fileio.read_schedule, fileio.read_graph,
    fileio.read_instance_or_graph, fileio.read_witness,
], ids=lambda f: f.__name__)
def test_file_not_utf8_refused(reader, tmp_path):
    path = tmp_path / "input"
    path.write_bytes(b'{"rows": 1, "cols": 1, "data": [[1]], "note": "\xff"}')
    with pytest.raises(InputError, match="cannot read .*'utf-8' codec can't decode byte 0xff"):
        reader(str(path))


GENERAL_SUM = {"a": {"rows": 2, "cols": 2, "data": [[1.0, 0.0], [0.0, 1.0]]},
               "b": {"rows": 2, "cols": 2, "data": [[0.5, 0.0], [0.0, 2.0]]}}


@pytest.mark.parametrize("game, extra, code, fragment", [
    (GENERAL_SUM, ["--schedule", "constant-xstar"], 3, "constant-xstar runs the zero-sum planner"),
    (GENERAL_SUM, ["--schedule", "alternating"], 3, "alternating plan needs a zero-sum game"),
    (None, ["--schedule", "uniform", "--T", "2.5"], 2, "whole number of rounds"),
], ids=["constant-xstar-general-sum", "alternating-general-sum", "mwu-fractional-T"])
def test_cli_simulate_check(game, extra, code, fragment, tmp_path, capsys):
    path = tmp_path / "game.json"
    path.write_text(json.dumps(game) if game else "1 -1\n-1 1\n")
    got = main(["simulate", str(path), "--learner", "mwu", "--out", str(tmp_path / "t"), *extra])
    captured = capsys.readouterr()
    assert got == code and fragment in captured.err and captured.out == ""
    assert not list(tmp_path.glob("t.*"))
