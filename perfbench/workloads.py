"""The four benchmark workloads: seeded inputs, one timed task, output checks.

Each workload is three functions:

- ``make(seed, i, workdir)`` builds task i's inputs from the seed alone and
  writes any input files. It runs outside the timed window.
- ``run(inp)`` is the timed task. It calls the library only through module
  attributes looked up at call time, so a traced run sees every call.
- ``check(inp, out)`` returns a list of failure messages, computed from
  independent certificates after timing. Checks use tolerances, not bytes.

Size classes are drawn in seeded blocks that cover every class once, so a
run's task mix depends little on the seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from typing import Callable, NamedTuple

import numpy as np
from scipy.optimize import linprog

from strategizer import cli, games, learners, ocdp
from strategizer.acceptance import find_hamiltonian_cycle

import reference

GAME_SIZES = [(n, m) for n in range(2, 7) for m in range(2, 7)]

# (n_vertices, planted cycle, edge count), all within the default brute-force
# cap |E|^(n+1) <= 1e7. Random graphs are mostly NO instances and exhaust the
# search; they stay at n = 5 because random 6-vertex graphs took up to 2 s
# each, too rare and too slow to average out within one run.
GRAPH_CLASSES = [(5, True, 8), (5, False, 8), (6, True, 8), (5, False, 9),
                 (5, True, 11), (5, False, 10), (6, True, 10), (5, False, 9)]


class Workload(NamedTuple):
    make: Callable
    run: Callable
    check: Callable
    reference: Callable  # the reference computation task times are divided by
    tail_pct: float  # tail percentile, with at least ten tasks beyond it in a run
    trace_tasks: int  # fixed task count of one traced pass


def _rng(seed, stream, i):
    return np.random.default_rng([seed, stream, i])


def _size_class(seed, stream, i, classes):
    """Class of task i: each block of len(classes) tasks is a permutation."""
    block, pos = divmod(i, len(classes))
    order = np.random.default_rng([seed, stream, 1 << 20, block]).permutation(len(classes))
    return classes[order[pos]]


def _matrix_json(a):
    return {"rows": a.shape[0], "cols": a.shape[1], "data": a.tolist()}


def _write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh)


def _cli(argv):
    """cli.main in-process; returns (exit code, captured stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, buf.getvalue()


def _lse(z):
    z = np.asarray(z, dtype=float)
    c = z.max(axis=-1, keepdims=True)
    return (c + np.log(np.exp(z - c).sum(axis=-1, keepdims=True)))[..., 0]


def _softmax(z):
    p = np.exp(z - z.max(axis=-1, keepdims=True))
    return p / p.sum(axis=-1, keepdims=True)


def _close(got, want, tol):
    return abs(got - want) <= tol * max(1.0, abs(want))


# --- plan -----------------------------------------------------------------

# eta alternates 0.1 and 1.0 at eta*T = 10. At eta*T = 100 Frank-Wolfe took
# up to 82,260 iterations (40 s) on a 4x6 game, which no run length averages.
PLAN_ETA_T = 10.0
PLAN_EPS = 1e-6


def plan_make(seed, i, workdir):
    n, m = _size_class(seed, 0, i, GAME_SIZES)
    a = _rng(seed, 0, i).uniform(-1.0, 1.0, size=(n, m))
    game = os.path.join(workdir, "plan-game.json")
    _write_json(game, _matrix_json(a))
    eta = 0.1 if i % 2 == 0 else 1.0
    return {"a": a, "eta": eta, "T": PLAN_ETA_T / eta, "game": game,
            "out": os.path.join(workdir, "plan-report.json")}


def plan_run(inp):
    return _cli(["plan", inp["game"], "--eta", repr(inp["eta"]), "--T", repr(inp["T"]),
                 "--eps", repr(PLAN_EPS), "--out", inp["out"]])


def _lp_value(a):
    """Val(A) from the column player's LP: min v s.t. A y <= v, y in the simplex."""
    n, m = a.shape
    c = np.zeros(m + 1)
    c[-1] = 1.0
    res = linprog(c, A_ub=np.hstack([a, -np.ones((n, 1))]), b_ub=np.zeros(n),
                  A_eq=np.hstack([np.ones((1, m)), np.zeros((1, 1))]), b_eq=[1.0],
                  bounds=[(0, None)] * m + [(None, None)], method="highs")
    return float(res.x[-1])


def plan_check(inp, out):
    code, stdout = out
    if code != 0:
        return [f"exit code {code}"]
    with open(inp["out"]) as fh:
        text = fh.read()
    if text != stdout:
        return ["--out file differs from stdout"]
    rep = json.loads(text)
    a, eta, big_t = inp["a"], inp["eta"], inp["T"]
    m = a.shape[1]
    x = np.asarray(rep["x_star"])
    fails = []
    z = -eta * big_t * (a.T @ x)
    if not _close(rep["r_star"], (np.log(m) - _lse(z)) / eta, 1e-9):
        fails.append(f"r_star {rep['r_star']!r} is not the closed form at x_star")
    grad = -eta * big_t * (a @ _softmax(z))
    gap = grad @ x - grad.min()
    if gap > PLAN_EPS * eta * (1.0 + 1e-6):
        fails.append(f"Frank-Wolfe gap {gap:.3g} at x_star exceeds eps*eta")
    value = _lp_value(a)
    if abs(rep["value"] - value) > 1e-7:
        fails.append(f"value {rep['value']!r} differs from LP value {value!r}")
    lo, hi = rep["bounds"]
    if not _close(lo, value * big_t, 1e-7) or not _close(hi, lo + np.log(m) / eta, 1e-9):
        fails.append(f"bounds {rep['bounds']} are not [Val*T, Val*T + ln(m)/eta]")
    if not lo - 2 * PLAN_EPS <= rep["r_star"] <= hi + 2 * PLAN_EPS:
        fails.append(f"r_star {rep['r_star']!r} outside bounds {rep['bounds']}")
    if not 1 <= rep["k"] <= m:
        fails.append(f"k = {rep['k']} outside 1..{m}")
    wit = rep["assumption1"].get("witness")
    if rep["assumption1"]["holds"] != (wit is not None):
        fails.append("assumption1.holds disagrees with the witness")
    if wit is not None:
        wx = np.asarray(wit["x"])
        payoff = wx @ a
        if (abs(wx.sum() - 1.0) > 1e-9 or wx.min() < -1e-9
                or payoff.min() < value - 1e-7
                or abs(payoff[wit["i1"] - 1] - value) > 1e-7
                or abs(payoff[wit["i2"] - 1] - value) > 1e-7):
            fails.append("witness x is not minmax with i1, i2 at the value")
    return fails


# --- exploit --------------------------------------------------------------

EXPLOIT_SCHEDULES = 50
EXPLOIT_ROUNDS = 100


def _exploit_etas():
    return [0.1 if k % 2 == 0 else 1.0 for k in range(EXPLOIT_SCHEDULES)]


def exploit_make(seed, i, workdir):
    n, m = _size_class(seed, 1, i, GAME_SIZES)
    rng = _rng(seed, 1, i)
    a = rng.uniform(-1.0, 1.0, size=(n, m))
    rounds = rng.dirichlet(np.ones(n), size=(EXPLOIT_SCHEDULES, EXPLOIT_ROUNDS))
    return {"a": a, "rounds": rounds}


def exploit_run(inp):
    game = games.BimatrixGame.from_zero_sum(inp["a"])
    totals = []
    for rounds, eta in zip(inp["rounds"], _exploit_etas()):
        schedule = learners.Schedule.from_rounds(rounds)
        mwu = learners.simulate(game, schedule, learners.MWU, eta=eta)
        br = learners.simulate(game, schedule, learners.BEST_RESPONSE)
        totals.append([mwu.totals, br.totals])
    return np.array(totals)


def exploit_check(inp, out):
    """Replays every schedule round by round: h += B'x, y = softmax(eta h) or argmax."""
    a, x = inp["a"], inp["rounds"]
    b = -a
    k, _, _ = x.shape
    eta = np.array(_exploit_etas())[:, None]
    want = np.zeros((k, 2, 2))
    h = np.zeros((k, a.shape[1]))
    for t in range(EXPLOIT_ROUNDS):
        xt = x[:, t, :]
        y_br = np.zeros_like(h)
        y_br[np.arange(k), np.argmax(h, axis=1)] = 1.0
        for j, y in enumerate((_softmax(eta * h), y_br)):
            want[:, j, 0] += np.einsum("ki,ij,kj->k", xt, a, y)
            want[:, j, 1] += np.einsum("ki,ij,kj->k", xt, b, y)
        h += xt @ b
    bad = np.abs(out - want) > 1e-9 * np.maximum(1.0, np.abs(want))
    return [f"{int(bad.sum())} totals differ from the round-by-round replay"] if bad.any() else []


# --- replay ---------------------------------------------------------------

REPLAY_SEGMENTS = 100
REPLAY_ETA = 0.5


def replay_make(seed, i, workdir):
    n, m = _size_class(seed, 2, i, GAME_SIZES)
    rng = _rng(seed, 2, i)
    a = rng.uniform(-1.0, 1.0, size=(n, m))
    zero_sum = i % 2 == 0
    b = -a if zero_sum else rng.uniform(-1.0, 1.0, size=(n, m))
    durations = rng.uniform(0.5, 1.5, size=REPLAY_SEGMENTS)
    strategies = rng.dirichlet(np.ones(n), size=REPLAY_SEGMENTS)
    game = os.path.join(workdir, "replay-game.json")
    _write_json(game, _matrix_json(a) if zero_sum
                else {"a": _matrix_json(a), "b": _matrix_json(b)})
    sched = os.path.join(workdir, "replay-schedule.json")
    _write_json(sched, {"mode": "continuous", "segments": [
        {"duration": float(d), "strategy": s.tolist()} for d, s in zip(durations, strategies)]})
    return {"a": a, "b": b, "durations": durations, "strategies": strategies,
            "game": game, "schedule": sched, "out": os.path.join(workdir, "replay-traj")}


def replay_run(inp):
    return _cli(["simulate", inp["game"], "--learner", "replicator", "--schedule",
                 inp["schedule"], "--eta", repr(REPLAY_ETA), "--out", inp["out"]])


def replay_check(inp, out):
    code, _ = out
    if code != 0:
        return [f"exit code {code}"]
    with open(inp["out"] + ".json") as fh:
        traj = json.load(fh)
    with open(inp["out"] + ".csv") as fh:
        csv_lines = fh.read().splitlines()
    a, b, dur, xs = inp["a"], inp["b"], inp["durations"], inp["strategies"]
    eta = REPLAY_ETA
    drift = xs @ b  # (S, m): segment s moves h by dur * drift[s]
    h_end = np.cumsum(dur[:, None] * drift, axis=0)
    h_start = np.vstack([np.zeros(b.shape[1]), h_end[:-1]])
    learner = float(np.sum(_lse(eta * h_end) - _lse(eta * h_start)) / eta)
    # optimizer reward: 48-point Gauss-Legendre on each segment's smooth integrand
    nodes, weights = np.polynomial.legendre.leggauss(48)
    u = 0.5 * dur[:, None] * (nodes + 1.0)  # (S, q)
    y = _softmax(eta * (h_start[:, None, :] + u[:, :, None] * drift[:, None, :]))
    inst = np.einsum("si,ij,sqj->sq", xs, a, y)
    optimizer = float(np.sum(0.5 * dur * (inst @ weights)))
    fails = []
    if not _close(traj["totals"]["learner"], learner, 1e-9):
        fails.append(f"learner total {traj['totals']['learner']!r} != {learner!r}")
    if abs(traj["totals"]["optimizer"] - optimizer) > 1e-6:
        fails.append(f"optimizer total {traj['totals']['optimizer']!r} != {optimizer!r}")
    if len(csv_lines) != REPLAY_SEGMENTS + 1:
        fails.append(f"CSV has {len(csv_lines)} lines, expected {REPLAY_SEGMENTS + 1}")
    return fails


# --- hamcycle -------------------------------------------------------------

def hamcycle_make(seed, i, workdir):
    n, planted, n_edges = _size_class(seed, 3, i, GRAPH_CLASSES)
    rng = _rng(seed, 3, i)
    pairs = [(u, v) for u in range(1, n + 1) for v in range(1, n + 1) if u != v]
    edges = set()
    if planted:
        order = [int(v) + 1 for v in rng.permutation(n)]
        edges.update(zip(order, order[1:] + order[:1]))
    rest = [p for p in pairs if p not in edges]
    for j in rng.permutation(len(rest))[: n_edges - len(edges)]:
        edges.add(rest[j])
    edges = sorted(edges)
    edges = tuple(edges[j] for j in rng.permutation(len(edges)))
    cycle = find_hamiltonian_cycle(ocdp.DirectedGraph(n, edges))
    return {"n": n, "edges": edges, "verdict": "yes" if cycle is not None else "no"}


def hamcycle_run(inp):
    graph = ocdp.DirectedGraph(inp["n"], inp["edges"])
    inst = ocdp.reduce_hamiltonian(graph)
    best, seq = ocdp.brute_force_ocdp(inst)
    playout = ocdp.play_ocdp(inst, seq)
    cycle = ocdp.extract_cycle(inst, playout, graph) if best >= inst.k else None
    return {"best": best, "sequence": list(seq), "reward": playout.total_reward,
            "cycle": cycle}


def _playout_reward(n, edges, sequence):
    """Reward of an edge sequence against the lexicographic best responder.

    Learner payoffs times 20: the edge (u, v) pays -2 (u = 1) or -80 at v_u,
    +20 at v_v and +17 at v_in_u; the optimizer earns 1 when the learner
    plays v_u.
    """
    h = [0] * (2 * n)
    reward = 0
    for r in sequence:
        u, v = edges[r]
        reward += h.index(max(h)) == u - 1
        h[u - 1] += -2 if u == 1 else -80
        h[v - 1] += 20
        h[n + u - 1] += 17
    return reward


def hamcycle_check(inp, out):
    n, edges = inp["n"], inp["edges"]
    fails = []
    if (out["best"] >= n + 1) != (inp["verdict"] == "yes"):
        fails.append(f"verdict from max reward {out['best']} disagrees with the oracle")
    if len(out["sequence"]) != n + 1 or not all(0 <= r < len(edges) for r in out["sequence"]):
        return fails + [f"sequence {out['sequence']} is not n+1 edge indices"]
    played = _playout_reward(n, edges, out["sequence"])
    if played != out["best"] or out["reward"] != out["best"]:
        fails.append(f"sequence plays out to {played}, reported {out['best']}")
    cyc = out["cycle"]
    if inp["verdict"] == "yes" and not (
            cyc is not None and sorted(cyc) == list(range(1, n + 1))
            and all((cyc[j], cyc[(j + 1) % n]) in edges for j in range(n))):
        fails.append(f"extracted cycle {cyc} is not a Hamiltonian cycle")
    return fails


WORKLOADS = {
    "plan": Workload(plan_make, plan_run, plan_check, reference.linear_programs, 90.0, 15),
    "exploit": Workload(exploit_make, exploit_run, exploit_check, reference.python_numpy,
                        90.0, 10),
    "replay": Workload(replay_make, replay_run, replay_check, reference.python_numpy, 95.0, 20),
    "hamcycle": Workload(hamcycle_make, hamcycle_run, hamcycle_check, reference.python_numpy,
                         95.0, 200),
}
