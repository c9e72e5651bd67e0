"""Command-line harness tying the library together.

Subcommands: value, plan, simulate, reduce, verify, brute, battery. Numeric
parameters can also come from environment variables prefixed STRATEGIZER_
(flags win). Exit codes: 0 success, 1 negative verdict/failed battery,
2 input error, 3 precondition violated, 4 resource cap exceeded; any other
library error also exits 1.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

import numpy as np

from . import acceptance, fileio
from .errors import CapExceededError, InputError, PreconditionError, StrategizerError
from .games import BimatrixGame, game_value
from .learners import BEST_RESPONSE, LEARNER_KINDS, MWU, REPLICATOR, Schedule, simulate
from .ocdp import (
    brute_force_ocdp,
    extract_cycle,
    normalize_payoffs,
    play_ocdp,
    playout_labels,
    reduce_hamiltonian,
    verify_cycle,
)
from .planner import alternating_plan, optimize_continuous, planner_report, reward_bounds, reward_cont

ENV_PREFIX = "STRATEGIZER_"

LEARNER_NAMES = {"mwu": MWU, "br": BEST_RESPONSE, "replicator": REPLICATOR}


# Each command's numeric flags, {flag dest: (type, default, help)}; `build_parser` adds
# them, and `main` fills each one left unset from STRATEGIZER_<NAME>, else the default.
_PARAMS = {
    "plan": {"eta": (float, 1.0, "the learner's learning rate"), "T": (float, 100.0, "the horizon"),
             "eps": (float, 1e-6, "the planner's certified reward tolerance")},
    "simulate": {"eta": (float, 0.1, "the learner's learning rate"),
                 "eps": (float, 1e-6, "planner tolerance for constant-xstar"),
                 "T": (float, 100.0, "rounds, or duration for replicator, of a builtin schedule")},
    "brute": {"cap": (int, 10_000_000, "most learner histories the search's passes may build before it exits 4")},
    "battery": {"seed": (int, acceptance.DEFAULT_SEED, "seed of the random games"),
                "count": (int, acceptance.DEFAULT_COUNT, "games per randomized criterion")},
}


def _env_number(name: str, cast, default):
    """STRATEGIZER_<NAME> read as a number, or default when it is unset."""
    raw = os.environ.get(ENV_PREFIX + name.upper(), default)
    try:
        return cast(raw)
    except ValueError:
        raise InputError(f"environment variable {ENV_PREFIX}{name.upper()}={raw!r} is not numeric") from None


def _parse_int(text: str, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise InputError(f"{what} must be an integer, got {text!r}") from None


def _print_json(obj, out_path=None):
    text = fileio.canonical_json(obj)
    if out_path:  # first, so a failed write leaves stdout empty
        fileio.atomic_write((out_path, text))
    sys.stdout.write(text)


def _zero_sum_payoffs(path: str, what: str) -> np.ndarray:
    """A of the game in the file at path, which must be zero-sum."""
    game = fileio.read_game(path)
    if not game.zero_sum:
        raise PreconditionError(f"{what} needs a zero-sum game (B = -A); use 'strategizer "
                                "simulate' for general-sum play")
    return game.a


def cmd_value(args) -> int:
    res = game_value(_zero_sum_payoffs(args.game, "the game value"))
    _print_json({"value": res.value, "optimizer_strategy": res.optimizer_strategy.tolist(),
                 "learner_strategy": res.learner_strategy.tolist(),
                 "certificate_gap": res.certificate_gap}, args.out)
    return 0


def cmd_plan(args) -> int:
    _print_json(planner_report(_zero_sum_payoffs(args.game, "planning"), args.eta, args.T,
                               args.eps), args.out)
    return 0


def _builtin_schedule(name: str, game: BimatrixGame, gv, learner: str, rounds, eta, eps):
    mode = LEARNER_KINDS[learner]
    continuous = mode == "continuous"
    if not (continuous or float(rounds).is_integer()):
        raise InputError(
            f"--T must be a whole number of rounds for a discrete learner, got {rounds:g}"
        )
    total = float(rounds) if continuous else int(rounds)
    if name == "uniform":
        return Schedule.constant(np.full(game.n, 1.0 / game.n), total, mode)
    if name.startswith("pure:"):
        idx = _parse_int(name.split(":", 1)[1], "pure action index")
        if not 1 <= idx <= game.n:
            raise InputError(f"pure action index {idx} outside 1..{game.n}")
        return Schedule.constant(np.eye(game.n)[idx - 1], total, mode)
    if name == "constant-xstar":
        if not game.zero_sum:
            raise PreconditionError("constant-xstar runs the zero-sum planner; game is general-sum")
        res = optimize_continuous(game.a, None, float(rounds), eta, eps)
        return Schedule.constant(res.x_star, total, mode)
    if name == "alternating":
        if not game.zero_sum:
            raise PreconditionError("the alternating plan needs a zero-sum game")
        if continuous:
            raise PreconditionError("the alternating builtin is discrete; replicator needs a continuous schedule")
        return alternating_plan(gv).to_schedule(int(rounds))
    raise InputError(
        f"unknown builtin schedule {name!r}; use uniform, pure:i, constant-xstar, or alternating"
    )


def cmd_simulate(args) -> int:
    game = fileio.read_game(args.game)
    learner = LEARNER_NAMES[args.learner]
    h0 = None
    if args.h0:
        h0 = fileio.read_matrix(args.h0).ravel()
    gv = game_value(game.a) if game.zero_sum else None
    if os.path.exists(args.schedule):
        schedule = fileio.read_schedule(args.schedule)
    else:
        schedule = _builtin_schedule(args.schedule, game, gv, learner, args.T, args.eta, args.eps)
    traj = simulate(game, schedule, learner, eta=args.eta, h0=h0)
    # every line is formatted before the files are written, so a failure writes nothing
    lines = [f"optimizer total {fileio.format_float(traj.totals[0])}",
             f"learner total   {fileio.format_float(traj.totals[1])}"]
    if gv is not None and traj.rounds:
        cont = reward_cont(schedule, h0, game.a, args.eta)
        lo, hi = reward_bounds(gv, schedule.total, args.eta)
        lines += [f"continuous-time reward of the same time-average: {fileio.format_float(cont)}",
                  f"optimal continuous reward bounds: [{fileio.format_float(lo)}, {fileio.format_float(hi)}]"]
    csv_path = args.out + ".csv"
    json_path = args.out + ".json"
    fileio.atomic_write((csv_path, fileio.trajectory_csv(traj)),
                        (json_path, fileio.canonical_json(fileio.trajectory_json(traj))))
    print("\n".join(lines))
    print(f"wrote {csv_path} and {json_path}")
    return 0


def cmd_reduce(args) -> int:
    graph = fileio.read_graph(args.graph)
    inst = reduce_hamiltonian(graph)
    base = args.out or os.path.splitext(os.path.basename(args.graph))[0]
    files = [(base + ".instance.json", inst)]
    if args.normalize:
        files.append((base + ".instance.normalized.json", normalize_payoffs(inst)))
    fileio.atomic_write(*((p, fileio.canonical_json(fileio.instance_to_json(i)))
                          for p, i in files))
    print(
        f"reduced {graph.n_vertices} vertices / {graph.n_edges} edges to a "
        f"{inst.n_actions_opt}x{inst.n_actions_learner} instance with k = T = {inst.k}"
    )
    for p, _ in files:
        print(f"wrote {p}")
    return 0


def _witness(inst, playout, out_path):
    """The cycle a play-out traces, or None; writes the witness JSON to out_path if given."""
    cycle = extract_cycle(inst, playout, inst.graph)
    if out_path:
        fileio.atomic_write((out_path, fileio.canonical_json({
            "sequence": [i + 1 for i in playout.sequence],
            "learner": playout_labels(inst, playout),
            "reward": playout.total_reward,
            "cycle": cycle,
        })))
    return cycle


def cmd_verify(args) -> int:
    graph = fileio.read_graph(args.graph)
    witness = fileio.read_witness(args.witness)
    inst = reduce_hamiltonian(graph)
    given_cycle = witness.get("cycle") is not None
    if given_cycle:
        res = verify_cycle(inst, witness["cycle"])
        if not res.ok:
            print(f"FAIL: {res.reason}")
            return 1
        playout = res.playout
    else:
        for i in witness["sequence"]:  # the file's ids are 1-based
            if not 1 <= i <= inst.n_actions_opt:
                raise InputError(f"sequence id {i} outside 1..{inst.n_actions_opt}")
        playout = play_ocdp(inst, [i - 1 for i in witness["sequence"]])
    cycle = _witness(inst, playout, args.out)  # writes before the verdict lines
    if given_cycle:
        print(f"OK: cycle verified, reward {playout.total_reward}")
        print("sequence: " + " ".join(inst.row_labels[i] for i in playout.sequence))
    print(f"reward {playout.total_reward} (k = {inst.k})")
    print("learner: " + " ".join(playout_labels(inst, playout)))
    if cycle is not None:
        print("OK: extracted cycle " + " -> ".join(str(v) for v in cycle + [cycle[0]]))
    if args.out:
        print(f"wrote {args.out}")
    if cycle is not None:
        return 0
    print("FAIL: sequence is not a reward-k witness")
    return 1


def cmd_brute(args) -> int:
    inst = fileio.read_instance_or_graph(args.input)
    best, seq = brute_force_ocdp(inst, cap=args.cap)
    if args.out:  # before the verdict lines, so a failed write prints none
        _witness(inst, play_ocdp(inst, seq), args.out)
    verdict = "YES" if best >= inst.k else "NO"
    print(f"max reward {best} over {inst.n_actions_opt}^{inst.T} sequences")
    print("best sequence: " + " ".join(inst.row_labels[i] for i in seq))
    print(f"{verdict}: reward {inst.k} {'is' if verdict == 'YES' else 'is not'} achievable")
    if args.out:
        print(f"wrote {args.out}")
    return 0


def cmd_battery(args) -> int:
    seed, count = args.seed, args.count
    if seed < 0:
        raise InputError(f"seed must be non-negative, got {seed}")
    if count < 1:
        raise InputError(f"count must be at least 1, got {count}")
    numbers = None
    if args.only:
        numbers = [_parse_int(tok, "criterion number") for tok in args.only.split(",")]
    results = acceptance.run_battery(seed=seed, count=count, numbers=numbers)
    for res in results:
        print(res.line())
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} criteria passed (seed {seed}, count {count})")
    return 1 if failed else 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; `main` reuses it."""
    parser = argparse.ArgumentParser(
        prog="strategizer",
        description="Optimal and near-optimal play against online learners in matrix games.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("value", help="minmax value of a payoff matrix")
    p.add_argument("game")
    p.add_argument("--out", default=None)

    p = sub.add_parser("plan", help="zero-sum planning report (value, x*, bounds, k)")
    p.add_argument("game")
    p.add_argument("--out", default=None)

    p = sub.add_parser("simulate", help="play a schedule against a learner")
    p.add_argument("game")
    p.add_argument("--learner", choices=sorted(LEARNER_NAMES), required=True)
    p.add_argument(
        "--schedule",
        required=True,
        help="schedule JSON file or builtin: uniform, pure:i, constant-xstar, alternating",
    )
    p.add_argument("--h0", default=None, help="file with the learner's initial historical rewards")
    p.add_argument("--out", default="trajectory", help="output prefix for .csv/.json")

    p = sub.add_parser("reduce", help="Hamiltonian-cycle graph -> control instance")
    p.add_argument("graph")
    p.add_argument("--normalize", action="store_true")
    p.add_argument("--out", default=None, help="output basename")

    p = sub.add_parser("verify", help="check a cycle or action-sequence witness")
    p.add_argument("graph")
    p.add_argument("witness")
    p.add_argument("--out", default=None, help="write the play-out as witness JSON")

    p = sub.add_parser("brute", help="exact maximum reward by exhaustive search")
    p.add_argument("input", help="graph file or instance JSON")
    p.add_argument("--out", default=None, help="write the best play-out as witness JSON")

    p = sub.add_parser("battery", help="run the acceptance criteria")
    p.add_argument("--only", default=None, help="comma-separated criterion numbers")

    for command, params in _PARAMS.items():
        for name, (cast, default, text) in params.items():
            sub.choices[command].add_argument("--" + name, type=cast, help=(
                f"{text} (default: ${ENV_PREFIX}{name.upper()} if set, else {default})"))
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        for name, (cast, default, _) in _PARAMS.get(args.command, {}).items():
            if getattr(args, name) is None:
                setattr(args, name, _env_number(name, cast, default))
        # looked up at each call, so a replaced cmd_* function takes effect
        return globals()["cmd_" + args.command](args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except PreconditionError as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return 3
    except CapExceededError as exc:
        print(f"resource cap exceeded: {exc}", file=sys.stderr)
        return 4
    except StrategizerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
