"""Offline planning for zero-sum games against replicator/MWU learners.

The core fact: against replicator dynamics the optimizer's reward for any
schedule depends only on the schedule's time-average x, through

    reward = [lse(eta*h0) - lse(eta*(h0 - T*A'x))] / eta,

where lse is log-sum-exp. Maximizing it is the convex problem of minimizing
f(x) = lse(eta*(h0 - T*A'x)) over the simplex, which Frank-Wolfe solves with
a certified duality gap. Everything else here (value bounds, the asymptotic
ln(m/k) surplus, the odd/even alternating plan) builds on that closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapExceededError, InputError, PreconditionError
from .games import (
    BimatrixGame,
    GameValueResult,
    _scipy_extension,
    as_matrix,
    as_simplex,
    as_weights,
    check_assumption_no_pure,
    game_value,
    min_br_minmax,
)
from .learners import MAX_ROUNDS, MWU, Schedule, lse, simulate, softmax

dgesv = _scipy_extension("scipy.linalg._flapack").dgesv  # scipy.linalg.lapack.dgesv


@dataclass(frozen=True, eq=False)
class PlannerResult:
    """Near-optimal constant strategy with its certified suboptimality."""

    x_star: np.ndarray
    r_star: float
    epsilon: float
    iterations: int


@dataclass(frozen=True, eq=False)
class AlternatingPlan:
    """Odd/even perturbation pair of a minmax strategy of gv's game: (x_odd + x_even)/2 = base."""

    x_odd: np.ndarray
    x_even: np.ndarray
    base: np.ndarray
    delta: float
    i1: int
    i2: int
    gv: GameValueResult

    def to_schedule(self, total_rounds: int) -> Schedule:
        """Discrete schedule playing x_odd on odd rounds and x_even on even ones.

        An odd final round plays the base minmax strategy instead.
        """
        if not (total_rounds >= 0 and total_rounds % 1 == 0):
            raise InputError(f"an alternating plan cannot run {total_rounds} rounds: "
                             "it needs a whole number of rounds")
        if total_rounds > MAX_ROUNDS:
            raise CapExceededError(
                f"alternating plan of {total_rounds} rounds exceeds the {MAX_ROUNDS}-round cap"
            )
        odd = np.arange(1, total_rounds + 1) % 2 == 1
        rounds = np.where(odd[:, None], self.x_odd, self.x_even)
        if total_rounds % 2 == 1:
            rounds[-1] = self.base
        return Schedule.from_rounds(rounds)


def reward_cont(schedule: Schedule, h0, a, eta: float) -> float:
    """Exact continuous-time reward of a schedule against replicator dynamics.

    The horizon T is the schedule's total duration. The closed form depends on
    the schedule only through its time-average, so the piecewise-constant
    integral is evaluated exactly (no discretization). A discrete schedule is
    read the same way, each round lasting one time unit.
    """
    a = as_matrix(a)
    n, m = a.shape
    T = schedule.total
    if not eta > 0:
        raise InputError("eta must be positive")
    h0 = np.zeros(m) if h0 is None else as_weights(h0, m, "h0")
    xbar = schedule.time_average()
    if xbar.size != n:
        raise InputError(f"schedule strategies have dimension {xbar.size}, game has {n} rows")
    with np.errstate(over="ignore", invalid="ignore"):
        reward = float(lse(eta * h0) - lse(eta * (h0 - T * (a.T @ xbar)))) / eta
    if not math.isfinite(reward):
        raise InputError(f"the reward overflows floating point at eta = {eta:g}, T = {T:g}")
    return reward


def _line_minimize(z: np.ndarray, zeta: np.ndarray, hi: float) -> float:
    """Exact line search for t in [0, hi] minimizing phi(t) = lse(z + t*zeta).

    With p = softmax(z + t*zeta), phi'(t) = p'zeta and phi''(t) =
    p'zeta^2 - (p'zeta)^2 >= 0, so phi' is monotone. If phi'(hi) <= 0 the
    minimizer is hi. Otherwise safeguarded Newton runs from t = 0 (where
    phi' < 0 for a descent direction) on a bracket [lo, up] with phi'(lo) <= 0
    < phi'(up): each evaluation shrinks the bracket, and a bisection step
    replaces the Newton step whenever that step leaves the bracket or
    phi'' <= 0. It stops once the step or the bracket is below 1e-15 relative
    to max(1, t). The Frank-Wolfe gap certifies the outer result, so the
    search only has to be accurate, not exact.
    """
    p = softmax(z + hi * zeta)
    if p @ zeta <= 0.0:
        return hi
    zeta2 = zeta * zeta
    lo, up, t = 0.0, hi, 0.0
    for _ in range(62):
        w = z + t * zeta
        e = np.exp(w - w.max())
        s = e.sum()
        slope = (e @ zeta) / s
        if slope > 0.0:
            up = t
        else:
            lo = t
        curv = (e @ zeta2) / s - slope * slope
        nxt = t - slope / curv if curv > 0.0 else math.nan
        if not lo <= nxt <= up:  # a nan step fails this test too
            nxt = 0.5 * (lo + up)
        if abs(nxt - t) <= 1e-15 * max(1.0, nxt) or up - lo <= 1e-15 * max(1.0, up):
            return nxt
        t = nxt
    return t


def _face_newton(ms: np.ndarray, p: np.ndarray, g_s: np.ndarray) -> np.ndarray | None:
    """Newton direction of lse on the face of the simplex spanned by the columns ms.

    Solves the KKT system [[H + rho*I, 1], [1', 0]] [d; nu] = [-g_s; 0], where
    H = ms'(diag p - pp')ms is the Hessian on the face and g_s the gradient.
    H is singular when the face has more vertices than the objective has
    directions (n > m): f is linear along its null space there, and the ridge
    rho = 1e-9*tr(H)/|S| turns that into a long step that the boundary clip
    cuts short. Returns None if the system is singular or d is not a finite
    descent direction with a negative coordinate to clip at.
    """
    k = g_s.size
    c = ms - g_s  # g_s = ms'p: the columns centred under p
    h = (c.T * p) @ c
    kkt = np.ones((k + 1, k + 1))
    kkt[:k, :k] = h + 1e-9 * np.trace(h) / k * np.eye(k)
    kkt[k, k] = 0.0
    *_, sol, info = dgesv(kkt, np.append(-g_s, 0.0))
    d = sol[:k]
    return d if info == 0 and -math.inf < g_s @ d < 0.0 and d.min() < 0.0 else None


@np.errstate(over="ignore", invalid="ignore")  # overflow makes the gap non-finite, which raises
def frank_wolfe(z0: np.ndarray, mat: np.ndarray, gap_target: float):
    """Minimize f(x) = lse(z0 + mat @ x) over the probability simplex.

    The solve starts at the vertex with the least f. Each iteration finds
    the Frank-Wolfe vertex s, the argmin of the gradient. If s is off the
    support S of x, a Frank-Wolfe step toward s with exact line search
    brings it into S. If s is on S, a Newton step on the face of S
    (_face_newton) follows, clipped where a coordinate reaches 0, which then
    leaves S. Unlike away steps, whose linear rate degrades as eta*T
    sharpens f, this converges in a few steps once S is the optimal face.
    Near the optimum the Newton step is taken whole: its line minimum
    lies within rounding of it. Returns (x, gap, iterations). The
    Frank-Wolfe gap max_v grad'(x - v) upper-bounds f(x) - f*, so it
    certifies optimality regardless of the path taken; CapExceededError is
    raised if 100*(n + m) iterations on the m x n mat do not bring it to
    gap_target.
    """
    n = mat.shape[1]
    max_iter = 100 * sum(mat.shape)
    x = np.eye(n)[np.argmin(lse((z0[:, None] + mat).T))]
    for it in range(max_iter + 1):
        z = z0 + mat @ x
        p = np.exp(z - z.max())
        p /= p.sum()
        g = mat.T @ p
        s_idx = int(np.argmin(g))
        gap = g @ x - g[s_idx]
        if gap <= gap_target:
            return x, float(gap), it
        if not math.isfinite(gap):
            raise InputError(f"Frank-Wolfe gap is {gap:g}: the objective is not finite")
        if it == max_iter:
            break
        d_s = None
        if x[s_idx] > 0.0:
            support = np.flatnonzero(x)
            d_s = _face_newton(mat[:, support], p, g[support])
        if d_s is None:
            d = -x
            d[s_idx] += 1.0
            x_next = x + _line_minimize(z, mat @ d, 1.0) * d
        else:
            neg = support[d_s < 0.0]
            ratios = x[neg] / -d_s[d_s < 0.0]
            j = int(np.argmin(ratios))
            hi = max(1.0, ratios[j])
            d = np.zeros(n)
            d[support] = min(1.0, ratios[j]) * d_s  # t = 1: the Newton step, clipped
            zeta = mat @ d
            if -(g @ d) < 1e-3 * np.max(np.abs(zeta)):
                gamma = 1.0  # the line minimum is within rounding of t = 1
            else:
                gamma = _line_minimize(z, zeta, hi)
            x_next = x + gamma * d
            if gamma >= hi:
                x_next[neg[j]] = 0.0  # the clipped coordinate leaves S
        np.maximum(x_next, 0.0, out=x_next)
        x_next /= x_next.sum()
        if np.array_equal(x_next, x):  # a fixed point: every later step repeats this one
            raise CapExceededError(f"Frank-Wolfe stalled at gap {gap:g} > {gap_target:g}")
        x = x_next
    raise CapExceededError(
        f"Frank-Wolfe iteration cap {max_iter} reached before certifying gap "
        f"{gap_target:g} (best gap {gap:g})"
    )


def _objective_terms(a: np.ndarray, h0: np.ndarray, T: float, eta: float):
    """z0 and mat such that f(x) = lse(z0 + mat @ x) = lse(eta*(h0 - T*A'x))."""
    return eta * h0, -eta * T * a.T


def optimize_continuous(a, h0, T: float, eta: float, epsilon: float) -> PlannerResult:
    """Frank-Wolfe search for an epsilon-optimal constant strategy.

    Runs until the Frank-Wolfe duality gap certifies a reward suboptimality
    of at most epsilon (gap <= epsilon * eta on the rescaled objective). The
    classical fixed-step analysis needs ceil(2/(epsilon*eta)) iterations;
    the Newton steps of frank_wolfe certify within tens, also at large eta*T.
    """
    a = as_matrix(a)
    n, m = a.shape
    if not epsilon > 0:
        raise InputError("epsilon must be positive")
    if not eta > 0:
        raise InputError("eta must be positive")
    if not T > 0:
        raise InputError("horizon T must be positive")
    h0 = np.zeros(m) if h0 is None else as_weights(h0, m, "h0")
    with np.errstate(over="ignore", invalid="ignore"):
        z0, mat = _objective_terms(a, h0, T, eta)
    # the solver's z - max(z) stays finite only if 2*(max|z0| + max|mat|) does
    if not math.isfinite(2.0 * (float(np.max(np.abs(z0))) + float(np.max(np.abs(mat))))):
        raise InputError(f"eta = {eta:g} and T = {T:g} overflow eta*h0 or eta*T*A")
    x, gap, iterations = frank_wolfe(z0, mat, gap_target=epsilon * eta)
    schedule = Schedule.constant(x, T, mode="continuous")
    r_star = reward_cont(schedule, h0, a, eta)
    return PlannerResult(
        x_star=schedule.strategies[0], r_star=r_star, epsilon=gap / eta, iterations=iterations,
    )


def reward_bounds(gv: GameValueResult, T: float, eta: float) -> tuple[float, float]:
    """[Val*T, Val*T + ln(m)/eta]: the optimal continuous reward bracket of gv's game."""
    if not eta > 0:
        raise InputError("eta must be positive")
    lo, hi = gv.value * T, gv.value * T + math.log(gv.a.shape[1]) / eta
    if not math.isfinite(hi):  # also when lo is not
        raise InputError(f"the reward bounds overflow floating point at eta = {eta:g}, T = {T:g}")
    return lo, hi


def alternating_plan(gv: GameValueResult) -> AlternatingPlan:
    """Perturb a no-pure-assumption witness of gv's game into an odd/even strategy pair.

    x_odd = (1-delta)*x + delta*e_k and x_even = (1+delta)*x - delta*e_k,
    where delta is the largest simplex-feasible symmetric perturbation. On
    matching pennies that reproduces the pure alternation schedule.
    """
    witness = check_assumption_no_pure(gv)
    if witness is None:
        raise PreconditionError("game does not satisfy the no-pure assumption")
    x = witness.x
    k = witness.k_action
    xk = x[k]
    delta = 1.0 if xk >= 1.0 - 1e-12 else min(1.0, xk / (1.0 - xk))
    e_k = np.zeros(x.size)
    e_k[k] = 1.0
    x_odd = (1.0 - delta) * x + delta * e_k
    x_even = (1.0 + delta) * x - delta * e_k
    if x_odd @ gv.a[:, witness.i1] < x_odd @ gv.a[:, witness.i2]:
        x_odd, x_even = x_even, x_odd
    return AlternatingPlan(
        x_odd=as_simplex(x_odd),
        x_even=as_simplex(x_even),
        base=witness.x,
        delta=delta,
        i1=witness.i1,
        i2=witness.i2,
        gv=gv,
    )


def alternating_gain(plan: AlternatingPlan, eta: float, T: int) -> float:
    """Measured per-round surplus slope (total - T*Val) / (eta*T) vs MWU.

    The plan is played on its own game, plan.gv.a, and measured against that
    game's value. The theory guarantees a positive game-dependent constant;
    this reports the empirical one for the given plan.
    """
    if not T >= 1:
        raise InputError(f"alternating_gain needs at least one round, got T = {T}")
    game = BimatrixGame.from_zero_sum(plan.gv.a)
    traj = simulate(game, plan.to_schedule(T), MWU, eta=eta)
    return (traj.totals[0] - T * plan.gv.value) / (eta * T)


def planner_report(a, eta: float, T: float, epsilon: float) -> dict:
    """Full zero-sum planning summary as a JSON-ready dict."""
    a = as_matrix(a)
    result = optimize_continuous(a, None, T, eta, epsilon)
    gv = game_value(a)
    value = gv.value
    m = a.shape[1]
    _, k = min_br_minmax(gv)
    witness = check_assumption_no_pure(gv)
    report = {
        "value": value,
        "x_star": result.x_star.tolist(),
        "r_star": result.r_star,
        "epsilon": result.epsilon,
        "bounds": list(reward_bounds(gv, T, eta)),
        "k": k,
        "asymptotic_bound": value * T + math.log(m / k) / eta,
        "assumption1": {"holds": witness is not None},
    }
    if witness is not None:
        report["assumption1"]["witness"] = {
            "x": witness.x.tolist(),
            "i1": witness.i1 + 1,
            "i2": witness.i2 + 1,
            "k_action": witness.k_action + 1,
        }
    return report
