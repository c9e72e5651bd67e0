"""Acceptance battery: one table of criteria, runnable via the CLI
(`strategizer battery`) or the test suite.

Each criterion is a check(seed, count) -> (ok, detail), registered once in
ALL_CRITERIA with its number, name and runtime budget by @criterion. It
pins its own tolerances; it passes only if every numeric check holds and
the run fits its budget. Randomized batteries are seeded and fully
reproducible.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InputError
from .games import as_matrix, as_simplex, as_weights, game_value, min_br_minmax, matching_pennies, unique_br_game, BimatrixGame
from .learners import MWU, Schedule, _simulate_discrete, simulate, softmax
from .ocdp import (
    DirectedGraph,
    brute_force_ocdp,
    normalize_payoffs,
    play_ocdp,
    playout_labels,
    reduce_hamiltonian,
)
from .planner import (
    _objective_terms,
    alternating_gain,
    alternating_plan,
    frank_wolfe,
    optimize_continuous,
    reward_bounds,
    reward_cont,
)

DEFAULT_SEED = 1729
DEFAULT_COUNT = 200


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str
    seconds: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status}  criterion {self.number:2d}  {self.name}  [{self.seconds:.2f}s]  {self.detail}"


def example_graph() -> DirectedGraph:
    """Five vertices, seven edges, one Hamiltonian cycle (1-5-2-4-3-1)."""
    return DirectedGraph(
        n_vertices=5,
        edges=((1, 5), (5, 2), (1, 2), (2, 4), (4, 1), (4, 3), (3, 1)),
    )


def find_hamiltonian_cycle(g: DirectedGraph):
    """Independent backtracking search for a Hamiltonian cycle from vertex 1.

    Used only to cross-validate the reduction; shares no code with the
    instance machinery. Returns the vertex list or None.
    """
    n = g.n_vertices
    if n < 2:
        return None
    succ = {v: [] for v in range(1, n + 1)}
    pred = {v: [] for v in range(1, n + 1)}
    for u, v in g.edges:
        succ[u].append(v)
        pred[v].append(u)
    # a vertex with no way in or no way out kills every cycle
    if any(not succ[v] or not pred[v] for v in range(1, n + 1)):
        return None
    path = [1]
    visited = {1}

    def extend(u):
        if len(path) == n:
            return 1 in succ[u]
        for v in succ[u]:
            if v not in visited:
                visited.add(v)
                path.append(v)
                if extend(v):
                    return True
                path.pop()
                visited.remove(v)
        return False

    return list(path) if extend(1) else None


def _random_games(rng, count):
    """count games, n x m with n and m in 2..6 and entries in U[-1, 1]."""
    return [rng.uniform(-1.0, 1.0, size=(int(rng.integers(2, 7)), int(rng.integers(2, 7))))
            for _ in range(count)]


def _random_graphs(rng, count, max_vertices=5, max_edges=8):
    graphs = []
    while len(graphs) < count:
        n = int(rng.integers(2, max_vertices + 1))
        pairs = [(u, v) for u in range(1, n + 1) for v in range(1, n + 1) if u != v]
        cap = min(max_edges, len(pairs))
        n_edges = int(rng.integers(1, cap + 1))
        idx = rng.choice(len(pairs), size=n_edges, replace=False)
        graphs.append(DirectedGraph(n_vertices=n, edges=tuple(pairs[i] for i in idx)))
    return graphs


ALL_CRITERIA: dict[int, Callable[..., CriterionResult]] = {}


def criterion(number: int, name: str, budget: float):
    """Register check(seed, count) -> (ok, detail) as criterion `number`.

    The registered runner, ALL_CRITERIA[number](seed=..., count=...), times
    the check and returns its CriterionResult. A check that raises fails, and
    so does a passing one that takes `budget` seconds or more.
    """

    def register(check):
        def run(seed=DEFAULT_SEED, count=DEFAULT_COUNT) -> CriterionResult:
            start = time.perf_counter()
            try:
                ok, detail = check(seed, count)
            except Exception as exc:  # an acceptance criterion must never crash the battery
                ok, detail = False, f"raised {type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - start
            if ok and elapsed >= budget:
                ok, detail = False, detail + f"; runtime {elapsed:.2f}s exceeded budget {budget}s"
            return CriterionResult(number, name, ok, detail, elapsed)

        ALL_CRITERIA[number] = run
        return run

    return register


EPS = 1e-3
ROUNDS = 100


def _planning_pass(rng, count):
    """The seeded planning pass of criteria 2-4: (a, eta, plan) per random game
    and eta in (0.1, 1.0), planned over T = ROUNDS to EPS.

    All games are drawn from rng before the first yield, so a caller's own
    draws from rng come after them.
    """
    for a in _random_games(rng, count):
        for eta in (0.1, 1.0):
            yield a, eta, optimize_continuous(a, None, float(ROUNDS), eta, EPS)


@criterion(1, "matching-pennies alternating reward", budget=1)
def criterion_1(seed, count):
    """Alternating plan vs MWU on matching pennies hits (T/2)*tanh(eta) exactly."""
    plan = alternating_plan(game_value(matching_pennies()))
    game = BimatrixGame.from_zero_sum(plan.gv.a)
    big_t = 1000
    worst = 0.0
    for eta in (0.05, 0.1, 0.5):
        traj = simulate(game, plan.to_schedule(big_t), MWU, eta=eta)
        expected = (big_t / 2) * math.tanh(eta)
        worst = max(worst, abs(traj.totals[0] - expected))
    return worst <= 1e-9, f"max |total - (T/2)tanh(eta)| = {worst:.2e} (tol 1e-9)"


@criterion(2, "continuous reward bounds", budget=120)
def criterion_2(seed, count):
    """Planner rewards stay inside the Val*T .. Val*T + ln(m)/eta bracket."""
    failures = 0
    last = None
    for a, eta, res in _planning_pass(np.random.default_rng(seed), count):
        if a is not last:  # the pass yields each game once per eta
            gv, last = game_value(a), a
        lo, hi = reward_bounds(gv, float(ROUNDS), eta)
        if not lo - 2 * EPS <= res.r_star <= hi + 2 * EPS:
            failures += 1
    return failures == 0, f"{2 * count} planner runs, {failures} outside the bracket"


@criterion(3, "discrete dominance", budget=60)
def criterion_3(seed, count):
    """Replaying the continuous optimum discretely never loses reward."""
    failures = 0
    for a, eta, res in _planning_pass(np.random.default_rng(seed), count):
        schedule = Schedule.constant(res.x_star, ROUNDS)
        cont = reward_cont(schedule, None, a, eta)
        disc = simulate(BimatrixGame.from_zero_sum(a), schedule, MWU, eta=eta)
        if disc.totals[0] < cont - 1e-9:
            failures += 1
    return failures == 0, f"{2 * count} comparisons, {failures} below the continuous reward"


@criterion(4, "eta*T/2 ceiling", budget=180)
def criterion_4(seed, count):
    """No discrete schedule beats the continuous optimum by more than eta*T/2.

    The 50 random schedules per (game, eta) come from the rng after the games.
    """
    rng = np.random.default_rng(seed)
    failures = 0
    for a, eta, res in _planning_pass(rng, count):
        ceiling = res.r_star + 2 * EPS + eta * ROUNDS / 2
        plays = as_simplex(rng.dirichlet(np.ones(a.shape[0]), size=(50, ROUNDS)))
        _, r_opt, _, _ = _simulate_discrete(BimatrixGame.from_zero_sum(a), plays, MWU, eta, 0.0)
        failures += int(np.count_nonzero(~(r_opt.sum(axis=-1) <= ceiling)))  # NaN fails too
    return failures == 0, f"{2 * count * 50} schedules, {failures} above the eta*T/2 ceiling"


@criterion(5, "asymptotic example", budget=5)
def criterion_5(seed, count):
    """The 5x6 example: unique-best-response mix earns T + ln(6)/eta."""
    a = unique_br_game(3)
    eta = 1.0
    x_star = np.array([0.0, 0.0, 0.5, 0.5, 0.0])
    worst = 0.0
    for big_t in (50.0, 200.0):
        r = reward_cont(Schedule.constant(x_star, big_t, "continuous"), None, a, eta)
        worst = max(worst, abs(r - (big_t + math.log(6.0))))
    _, k = min_br_minmax(game_value(a))
    ok = worst <= 0.01 and k == 1
    return ok, f"max |reward - (T + ln 6)| = {worst:.2e} (tol 0.01), k = {k} (want 1)"


@criterion(6, "alternating gain slope", budget=5)
def criterion_6(seed, count):
    """The measured alternating-gain slope is positive and nearly eta-free."""
    plan = alternating_plan(game_value(matching_pennies()))
    big_t = 2000
    slopes = [alternating_gain(plan, eta, big_t) for eta in (0.05, 0.1, 0.2, 0.4)]
    spread = (max(slopes) - min(slopes)) / (sum(slopes) / len(slopes))
    ok = all(s > 0 for s in slopes) and spread < 0.25
    return ok, f"slopes {['%.4f' % s for s in slopes]}, spread {spread:.1%} (< 25%)"


HJB_FD_STEP = 1e-4  # hjb_residual's finite-difference step in h and t


def hjb_residual(h, t: float, a, eta: float) -> float:
    """Finite-difference residual of the optimal-control PDE at (h, t).

    V(h, t) is the optimal reward-to-go with t time remaining: the r_star of
    optimize_continuous from history h over horizon t, solved to tolerance
    fd_step**2, where fd_step = HJB_FD_STEP. With the time-remaining
    parametrization the equation reads

        dV/dt = max_x [ softmax(eta*h)' A' x - (grad_h V)' A' x ],

    and the inner maximum of a linear function over the simplex is attained
    at a vertex. Returns |dV/dt - max_x(...)|; the closed form solves the
    PDE, so the residual is O(fd_step^2 * curvature) plus solver tolerance.
    """
    a = as_matrix(a)
    m = a.shape[1]
    fd_step = HJB_FD_STEP
    if not t > fd_step:
        raise InputError("t must exceed fd_step for the central time difference")
    h = as_weights(h, m, "h")

    def v(hh, tt):
        return optimize_continuous(a, hh, tt, eta, fd_step**2).r_star

    dv_dt = (v(h, t + fd_step) - v(h, t - fd_step)) / (2.0 * fd_step)
    grad = np.zeros(m)
    for i in range(m):
        e = np.zeros(m)
        e[i] = fd_step
        grad[i] = (v(h + e, t) - v(h - e, t)) / (2.0 * fd_step)
    p = softmax(eta * h)
    inner_max = float(np.max(a @ (p - grad)))
    return abs(dv_dt - inner_max)


@criterion(7, "HJB residual", budget=120)
def criterion_7(seed, count):
    """The closed-form value function solves the control PDE (FD residual)."""
    rng = np.random.default_rng(seed)
    games = [rng.uniform(-1.0, 1.0, size=(3, 3)) for _ in range(3)]
    eta = 0.5
    worst = 0.0
    for i in range(20):
        a = games[i % 3]
        h = rng.uniform(-1.0, 1.0, size=3)
        t = float(rng.uniform(1.0, 4.0))
        worst = max(worst, hjb_residual(h, t, a, eta))
    return worst <= 1e-3, f"max residual {worst:.2e} over 20 points (tol 1e-3)"


EXAMPLE_A = np.array([
    [1, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 1, 0, 0, 0, 0, 0],
    [1, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    [0, 1, 0, 0, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 1, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 1, 0, 0, 0, 0, 0, 0],
    [0, 0, 1, 0, 0, 0, 0, 0, 0, 0],
], dtype=float)

# Outgoing-from-v1 entries carry -0.1 (the table's -1 entries are a typo; the
# play-out history in the same source starts at -0.1).
EXAMPLE_B = np.array([
    [-0.1, 0, 0, 0, 1, 0.85, 0, 0, 0, 0],
    [0, 1, 0, 0, -4, 0, 0, 0, 0, 0.85],
    [-0.1, 1, 0, 0, 0, 0.85, 0, 0, 0, 0],
    [0, -4, 0, 1, 0, 0, 0.85, 0, 0, 0],
    [1, 0, 0, -4, 0, 0, 0, 0, 0.85, 0],
    [0, 0, 1, -4, 0, 0, 0, 0, 0.85, 0],
    [1, 0, -4, 0, 0, 0, 0, 0.85, 0, 0],
], dtype=float)

EXAMPLE_HISTORY = np.array([
    [0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    [-0.1, 0, 0, 0, 1, 0.85, 0, 0, 0, 0],
    [-0.1, 1, 0, 0, -3, 0.85, 0, 0, 0, 0.85],
    [-0.1, -3, 0, 1, -3, 0.85, 0.85, 0, 0, 0.85],
    [-0.1, -3, 1, -3, -3, 0.85, 0.85, 0, 0.85, 0.85],
    [0.9, -3, -3, -3, -3, 0.85, 0.85, 0.85, 0.85, 0.85],
    [0.8, -3, -3, -3, -2, 1.7, 0.85, 0.85, 0.85, 0.85],
])

EXAMPLE_SEQUENCE = (0, 1, 3, 5, 6, 0)  # e_1, e_2, e_4, e_6, e_7, e_1
EXAMPLE_LEARNER_LABELS = ["v_1", "v_5", "v_2", "v_4", "v_3", "v_1"]


@criterion(8, "reduction golden test", budget=1)
def criterion_8(seed, count):
    """Golden reduction: matrices, play-out, and history trace match exactly."""
    inst = reduce_hamiltonian(example_graph())
    problems = []
    if not np.array_equal(inst.a, EXAMPLE_A):
        problems.append("A differs")
    if not np.array_equal(inst.b, EXAMPLE_B):
        problems.append("B differs")
    playout = play_ocdp(inst, EXAMPLE_SEQUENCE)
    if playout.total_reward != 6:
        problems.append(f"reward {playout.total_reward} != 6")
    if playout_labels(inst, playout) != EXAMPLE_LEARNER_LABELS:
        problems.append("learner sequence differs")
    if not np.array_equal(playout.history_trace, EXAMPLE_HISTORY):
        problems.append("history trace differs")
    return not problems, "; ".join(problems) if problems else "matrices, play-out, and trace all match"


@criterion(9, "reduction soundness battery", budget=300)
def criterion_9(seed, count):
    """Brute-force max equals n+1 exactly when a Hamiltonian cycle exists."""
    rng = np.random.default_rng(seed)
    graphs = _random_graphs(rng, count)
    base = example_graph()
    graphs += [base, DirectedGraph(base.n_vertices, tuple(e for e in base.edges if e != (5, 2)))]
    disagreements = 0
    for g in graphs:
        inst = reduce_hamiltonian(g)
        best, _ = brute_force_ocdp(inst)
        cycle = find_hamiltonian_cycle(g)
        if (best == g.n_vertices + 1) != (cycle is not None):
            disagreements += 1
    return disagreements == 0, f"{len(graphs)} graphs, {disagreements} oracle disagreements"


def fixed_step_objectives(z0: np.ndarray, mat: np.ndarray, steps: int) -> list:
    """Objective values f(x_s) of classical Frank-Wolfe with step 2/(s+2).

    The reference run for the rate bound f(x_s) - f* <= 2*C/(s+1) of
    criterion 10: it starts at the uniform point, records f(x_s) for
    s = 0, 1, ..., steps and stops early once the Frank-Wolfe gap is 0.
    """
    x = np.full(mat.shape[1], 1.0 / mat.shape[1])
    values = []
    for s in range(steps + 1):
        z = z0 + mat @ x
        c = z.max()
        p = np.exp(z - c)
        total = p.sum()
        values.append(c + math.log(total))
        g = mat.T @ (p / total)
        v = int(np.argmin(g))
        if g @ x - g[v] <= 0.0:
            break
        gamma = 2.0 / (s + 2.0)
        x = x + gamma * (-x)
        x[v] += gamma
    return values


@criterion(10, "Frank-Wolfe rate and gradient", budget=60)
def criterion_10(seed, count):
    """Fixed-step rate bound 2C/(s+1) holds; analytic gradient matches FD.

    f is (eta*T*||A||_2)^2-smooth in the euclidean norm and the simplex has
    euclidean diameter sqrt(2), so C = 2*(eta*T*||A||_2)^2.
    """
    rng = np.random.default_rng(seed)
    games = _random_games(rng, 20)
    eta, big_t = 0.5, 5.0
    rate_ok = True
    worst_rel = 0.0
    for a in games:
        z0, mat = _objective_terms(a, np.zeros(a.shape[1]), big_t, eta)
        x_ref, _, _ = frank_wolfe(z0, mat, gap_target=1e-11)
        f_ref = float(np.logaddexp.reduce(z0 + mat @ x_ref))
        cert = 2.0 * (eta * big_t * np.linalg.norm(a, 2)) ** 2
        log = fixed_step_objectives(z0, mat, 300)
        for s in range(1, len(log)):
            if log[s] - f_ref > 2.0 * cert / (s + 1):
                rate_ok = False
        # gradient vs central differences at a random simplex point
        x = rng.dirichlet(np.ones(a.shape[0]))
        p = softmax(z0 + mat @ x)
        grad = mat.T @ p
        fd = np.zeros_like(grad)
        step = 1e-6
        for i in range(x.size):
            e = np.zeros(x.size)
            e[i] = step
            fp = float(np.logaddexp.reduce(z0 + mat @ (x + e)))
            fm = float(np.logaddexp.reduce(z0 + mat @ (x - e)))
            fd[i] = (fp - fm) / (2 * step)
        rel = np.linalg.norm(fd - grad) / max(1.0, np.linalg.norm(grad))
        worst_rel = max(worst_rel, rel)
    ok = rate_ok and worst_rel <= 1e-5
    return ok, f"rate bound {'held' if rate_ok else 'VIOLATED'}, worst grad rel err {worst_rel:.2e}"


@criterion(11, "normalization neutrality", budget=30)
def criterion_11(seed, count):
    """Payoff normalization never changes the learner's action sequence."""
    rng = np.random.default_rng(seed)
    graphs = _random_graphs(rng, 20)
    mismatches = 0
    checked = 0
    for g in graphs:
        inst = reduce_hamiltonian(g)
        norm = normalize_payoffs(inst)
        for _ in range(5):
            seq = rng.integers(0, inst.n_actions_opt, size=inst.T)
            before = play_ocdp(inst, seq)
            after = play_ocdp(norm, seq)
            checked += 1
            if (before.learner_actions, before.total_reward) != (after.learner_actions, after.total_reward):
                mismatches += 1
    return mismatches == 0, f"{checked} sequences, {mismatches} mismatches"


def run_battery(seed=DEFAULT_SEED, count=DEFAULT_COUNT, numbers=None):
    """Run the requested criteria (all by default), each once; unknown numbers raise InputError."""
    unknown = [k for k in numbers or () if k not in ALL_CRITERIA]
    if unknown:
        raise InputError(f"unknown criteria {unknown}; valid: 1..{len(ALL_CRITERIA)}")
    selected = sorted(set(numbers or ALL_CRITERIA))
    return [ALL_CRITERIA[k](seed=seed, count=count) for k in selected]
