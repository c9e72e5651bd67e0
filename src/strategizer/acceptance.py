"""Acceptance battery: one function per criterion, runnable via the CLI
(`strategizer battery`) or the test suite.

Each criterion pins its tolerances and runtime budget; a criterion passes
only if every numeric check holds and the run fits its budget. Randomized
batteries are seeded and fully reproducible.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .games import game_value, min_br_minmax, matching_pennies, unique_br_game, BimatrixGame
from .learners import MWU, Schedule, simulate, softmax
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
    fixed_step_objectives,
    frank_wolfe,
    fw_rate_constant,
    hjb_residual,
    optimize_continuous,
    reward_cont,
)

DEFAULT_SEED = 1729
DEFAULT_COUNT = 200

RUNTIME_BUDGETS = {1: 1, 2: 120, 3: 60, 4: 180, 5: 5, 6: 5, 7: 120, 8: 1, 9: 300, 10: 60, 11: 30}


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
    games = []
    for _ in range(count):
        n = int(rng.integers(2, 7))
        m = int(rng.integers(2, 7))
        games.append(rng.uniform(-1.0, 1.0, size=(n, m)))
    return games


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


def _timed(number, name, budget, check):
    start = time.perf_counter()
    try:
        ok, detail = check()
    except Exception as exc:  # an acceptance criterion must never crash the battery
        elapsed = time.perf_counter() - start
        return CriterionResult(number, name, False, f"raised {type(exc).__name__}: {exc}", elapsed)
    elapsed = time.perf_counter() - start
    if ok and elapsed >= budget:
        ok = False
        detail += f"; runtime {elapsed:.2f}s exceeded budget {budget}s"
    return CriterionResult(number, name, ok, detail, elapsed)


def criterion_1(seed=DEFAULT_SEED, count=DEFAULT_COUNT):
    """Alternating plan vs MWU on matching pennies hits (T/2)*tanh(eta) exactly."""

    def check():
        a = matching_pennies()
        plan = alternating_plan(a)
        game = BimatrixGame.from_zero_sum(a)
        big_t = 1000
        worst = 0.0
        for eta in (0.05, 0.1, 0.5):
            traj = simulate(game, plan.to_schedule(big_t), MWU, eta=eta)
            expected = (big_t / 2) * math.tanh(eta)
            worst = max(worst, abs(traj.totals[0] - expected))
        return worst <= 1e-9, f"max |total - (T/2)tanh(eta)| = {worst:.2e} (tol 1e-9)"

    return _timed(1, "matching-pennies alternating reward", RUNTIME_BUDGETS[1], check)


def criterion_2(seed=DEFAULT_SEED, count=DEFAULT_COUNT):
    """Planner rewards stay inside the Val*T .. Val*T + ln(m)/eta bracket."""

    def check():
        rng = np.random.default_rng(seed)
        games = _random_games(rng, count)
        eps = 1e-3
        big_t = 100.0
        failures = 0
        for a in games:
            value = game_value(a).value
            for eta in (0.1, 1.0):
                res = optimize_continuous(a, None, big_t, eta, eps)
                lo = value * big_t - 2 * eps
                hi = value * big_t + math.log(a.shape[1]) / eta + 2 * eps
                if not lo <= res.r_star <= hi:
                    failures += 1
        return failures == 0, f"{2 * len(games)} planner runs, {failures} outside the bracket"

    return _timed(2, "continuous reward bounds", RUNTIME_BUDGETS[2], check)


def criterion_3(seed=DEFAULT_SEED, count=DEFAULT_COUNT):
    """Replaying the continuous optimum discretely never loses reward."""

    def check():
        rng = np.random.default_rng(seed)
        games = _random_games(rng, count)
        eps = 1e-3
        rounds = 100
        failures = 0
        for a in games:
            game = BimatrixGame.from_zero_sum(a)
            for eta in (0.1, 1.0):
                res = optimize_continuous(a, None, float(rounds), eta, eps)
                cont = reward_cont(
                    Schedule.constant(res.x_star, float(rounds), "continuous"),
                    None, float(rounds), a, eta,
                )
                disc = simulate(game, Schedule.constant(res.x_star, rounds), MWU, eta=eta)
                if disc.totals[0] < cont - 1e-9:
                    failures += 1
        return failures == 0, f"{2 * len(games)} comparisons, {failures} below the continuous reward"

    return _timed(3, "discrete dominance", RUNTIME_BUDGETS[3], check)


def criterion_4(seed=DEFAULT_SEED, count=DEFAULT_COUNT):
    """No discrete schedule beats the continuous optimum by more than eta*T/2."""

    def check():
        rng = np.random.default_rng(seed)
        games = _random_games(rng, count)
        eps = 1e-3
        rounds = 100
        failures = 0
        for a in games:
            n = a.shape[0]
            game = BimatrixGame.from_zero_sum(a)
            for eta in (0.1, 1.0):
                res = optimize_continuous(a, None, float(rounds), eta, eps)
                ceiling = res.r_star + 2 * eps + eta * rounds / 2
                for _ in range(50):
                    plays = rng.dirichlet(np.ones(n), size=rounds)
                    traj = simulate(game, Schedule.from_rounds(plays), MWU, eta=eta)
                    if traj.totals[0] > ceiling:
                        failures += 1
        return failures == 0, f"{2 * len(games) * 50} schedules, {failures} above the eta*T/2 ceiling"

    return _timed(4, "eta*T/2 ceiling", RUNTIME_BUDGETS[4], check)


def criterion_5(seed=DEFAULT_SEED, count=DEFAULT_COUNT):
    """The 5x6 example: unique-best-response mix earns T + ln(6)/eta."""

    def check():
        a = unique_br_game(3)
        eta = 1.0
        x_star = np.array([0.0, 0.0, 0.5, 0.5, 0.0])
        worst = 0.0
        for big_t in (50.0, 200.0):
            r = reward_cont(
                Schedule.constant(x_star, big_t, "continuous"), None, big_t, a, eta
            )
            worst = max(worst, abs(r - (big_t + math.log(6.0))))
        _, k = min_br_minmax(a, game_value(a))
        ok = worst <= 0.01 and k == 1
        return ok, f"max |reward - (T + ln 6)| = {worst:.2e} (tol 0.01), k = {k} (want 1)"

    return _timed(5, "asymptotic example", RUNTIME_BUDGETS[5], check)


def criterion_6(seed=DEFAULT_SEED, count=DEFAULT_COUNT):
    """The measured alternating-gain slope is positive and nearly eta-free."""

    def check():
        a = matching_pennies()
        plan = alternating_plan(a)
        big_t = 2000
        slopes = [alternating_gain(a, eta, big_t, plan=plan) for eta in (0.05, 0.1, 0.2, 0.4)]
        spread = (max(slopes) - min(slopes)) / (sum(slopes) / len(slopes))
        ok = all(s > 0 for s in slopes) and spread < 0.25
        return ok, f"slopes {['%.4f' % s for s in slopes]}, spread {spread:.1%} (< 25%)"

    return _timed(6, "alternating gain slope", RUNTIME_BUDGETS[6], check)


def criterion_7(seed=DEFAULT_SEED, count=DEFAULT_COUNT):
    """The closed-form value function solves the control PDE (FD residual)."""

    def check():
        rng = np.random.default_rng(seed)
        games = [rng.uniform(-1.0, 1.0, size=(3, 3)) for _ in range(3)]
        eta = 0.5
        worst = 0.0
        for i in range(20):
            a = games[i % 3]
            h = rng.uniform(-1.0, 1.0, size=3)
            t = float(rng.uniform(1.0, 4.0))
            worst = max(worst, hjb_residual(h, t, a, eta, 1e-4))
        return worst <= 1e-3, f"max residual {worst:.2e} over 20 points (tol 1e-3)"

    return _timed(7, "HJB residual", RUNTIME_BUDGETS[7], check)


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


def criterion_8(seed=DEFAULT_SEED, count=DEFAULT_COUNT):
    """Golden reduction: matrices, play-out, and history trace match exactly."""

    def check():
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

    return _timed(8, "reduction golden test", RUNTIME_BUDGETS[8], check)


def criterion_9(seed=DEFAULT_SEED, count=DEFAULT_COUNT):
    """Brute-force max equals n+1 exactly when a Hamiltonian cycle exists."""

    def check():
        rng = np.random.default_rng(seed)
        graphs = _random_graphs(rng, count)
        graphs.append(example_graph())
        base = example_graph()
        graphs.append(DirectedGraph(base.n_vertices, tuple(e for e in base.edges if e != (5, 2))))
        disagreements = 0
        for g in graphs:
            inst = reduce_hamiltonian(g)
            best, _ = brute_force_ocdp(inst)
            cycle = find_hamiltonian_cycle(g)
            if (best == g.n_vertices + 1) != (cycle is not None):
                disagreements += 1
        return disagreements == 0, f"{len(graphs)} graphs, {disagreements} oracle disagreements"

    return _timed(9, "reduction soundness battery", RUNTIME_BUDGETS[9], check)


def criterion_10(seed=DEFAULT_SEED, count=DEFAULT_COUNT):
    """Fixed-step rate bound 2C/(s+1) holds; analytic gradient matches FD."""

    def check():
        rng = np.random.default_rng(seed)
        games = _random_games(rng, 20)
        eta, big_t = 0.5, 5.0
        rate_ok = True
        worst_rel = 0.0
        for a in games:
            z0, mat = _objective_terms(a, np.zeros(a.shape[1]), big_t, eta)
            x_ref, _, _ = frank_wolfe(z0, mat, gap_target=1e-11)
            f_ref = float(np.logaddexp.reduce(z0 + mat @ x_ref))
            cert = fw_rate_constant(a, big_t, eta)
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

    return _timed(10, "Frank-Wolfe rate and gradient", RUNTIME_BUDGETS[10], check)


def criterion_11(seed=DEFAULT_SEED, count=DEFAULT_COUNT):
    """Payoff normalization never changes the learner's action sequence."""

    def check():
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
                if (
                    before.learner_actions != after.learner_actions
                    or before.total_reward != after.total_reward
                ):
                    mismatches += 1
        return mismatches == 0, f"{checked} sequences, {mismatches} mismatches"

    return _timed(11, "normalization neutrality", RUNTIME_BUDGETS[11], check)


ALL_CRITERIA = {
    1: criterion_1, 2: criterion_2, 3: criterion_3, 4: criterion_4,
    5: criterion_5, 6: criterion_6, 7: criterion_7, 8: criterion_8,
    9: criterion_9, 10: criterion_10, 11: criterion_11,
}


def run_battery(seed=DEFAULT_SEED, count=DEFAULT_COUNT, numbers=None):
    """Run the requested criteria (all by default); returns their results."""
    selected = sorted(numbers) if numbers else sorted(ALL_CRITERIA)
    return [ALL_CRITERIA[k](seed=seed, count=count) for k in selected]
