import math

import numpy as np
import pytest
from scipy.special import logsumexp

from strategizer import (
    BimatrixGame,
    CapExceededError,
    DimensionMismatchError,
    InputError,
    MWU,
    PreconditionError,
    Schedule,
    alternating_gain,
    alternating_plan,
    check_assumption_no_pure,
    frank_wolfe,
    game_value,
    matching_pennies,
    min_br_minmax,
    optimize_continuous,
    planner_report,
    reward_bounds,
    reward_cont,
    simulate,
    unique_br_game,
)
from strategizer import planner
from strategizer.acceptance import (
    DEFAULT_COUNT, DEFAULT_SEED, _random_games, fixed_step_objectives, hjb_residual,
)
from strategizer.learners import lse, softmax
from strategizer.planner import _face_newton, _line_minimize, _objective_terms

from away_step_fw import away_step_frank_wolfe


FW_ITERATION_BOUND = 30


def constant_schedule(x, total):
    return Schedule.constant(x, total, mode="continuous")


class TestRewardCont:
    def test_all_zeros(self):
        a = np.zeros((3, 4))
        sched = Schedule("continuous", [2.0, 3.0], [[1, 0, 0], [0, 0.5, 0.5]])
        assert reward_cont(sched, None, a, 0.7) == 0.0

    def test_matching_pennies_optimum_is_zero(self, mp_matrix):
        uniform = constant_schedule([0.5, 0.5], 10.0)
        assert abs(reward_cont(uniform, None, mp_matrix, 0.5)) <= 1e-12
        skewed = constant_schedule([0.8, 0.2], 10.0)
        assert reward_cont(skewed, None, mp_matrix, 0.5) < 0.0

    def test_depends_only_on_time_average(self, mp_matrix, rng):
        for _ in range(10):
            x1, x2 = rng.dirichlet(np.ones(2)), rng.dirichlet(np.ones(2))
            split = Schedule("continuous", [1.0, 1.0], [x1, x2])
            merged = constant_schedule((x1 + x2) / 2, 2.0)
            swapped = Schedule("continuous", [1.0, 1.0], [x2, x1])
            r = reward_cont(split, None, mp_matrix, 0.9)
            assert abs(r - reward_cont(merged, None, mp_matrix, 0.9)) <= 1e-12
            assert abs(r - reward_cont(swapped, None, mp_matrix, 0.9)) <= 1e-12

    def test_discrete_schedule(self, rng):
        # a discrete schedule is read as one time unit per round
        a, h0, eta = rng.uniform(-1, 1, (3, 4)), rng.uniform(-1, 1, 4), 0.3
        sched = Schedule("discrete", [2, 5, 1], rng.dirichlet(np.ones(3), 3))
        xbar, big_t = sched.time_average(), sched.total
        want = float(lse(eta * h0) - lse(eta * (h0 - big_t * (a.T @ xbar)))) / eta
        assert reward_cont(sched, h0, a, eta) == want

    @pytest.mark.parametrize("h0", [[1.0, 2.0, 3.0], [[1.0], [2.0]]])
    def test_h0_shape_checked(self, mp_matrix, h0):
        with pytest.raises(InputError, match="h0"):
            reward_cont(constant_schedule([0.5, 0.5], 1.0), h0, mp_matrix, 0.5)

    def test_rejects_general_sum(self):
        # the planner takes A alone, so a game object, general-sum or not, is bad input
        game = BimatrixGame([[1.0, 0.0]], [[1.0, 0.0]])
        sched = constant_schedule([1.0], 1.0)
        with pytest.raises(InputError, match="payoff matrix is not a table of numbers"):
            reward_cont(sched, None, game, 0.5)


class TestOptimizeContinuous:
    def test_matching_pennies(self, mp_matrix):
        res = optimize_continuous(mp_matrix, None, 100.0, 0.5, 1e-6)
        assert np.allclose(res.x_star, [0.5, 0.5], atol=1e-5)
        assert abs(res.r_star) <= 1e-6
        assert res.epsilon <= 1e-6
        assert res.iterations >= 1

    def test_certified_start_vertex_reports_zero_iterations(self):
        # row 1 dominates: frank_wolfe's start vertex e_1 already has gap 0
        res = optimize_continuous([[1.0, 1.0], [0.0, 0.0]], None, 10.0, 1.0, 1e-6)
        assert res.iterations == 0 and res.epsilon == 0.0
        assert np.array_equal(res.x_star, [1.0, 0.0])

    def test_all_zeros(self):
        res = optimize_continuous(np.zeros((3, 4)), None, 10.0, 1.0, 1e-6)
        assert res.r_star == 0.0

    def test_unique_br_example(self):
        a = unique_br_game(3)
        res = optimize_continuous(a, None, 50.0, 1.0, 1e-6)
        assert abs(res.r_star - (50.0 + math.log(6))) <= 0.01

    def test_epsilon_validated(self, mp_matrix):
        with pytest.raises(InputError):
            optimize_continuous(mp_matrix, None, 10.0, 0.5, 0.0)

    def test_eta_and_T_must_be_finite(self, mp_matrix):
        for eta, big_t in ((math.inf, 10.0), (1.0, math.inf), (1e308, 1e308), (3.0, 1e308)):
            with pytest.raises(InputError, match="overflow eta"):
                optimize_continuous(mp_matrix, None, big_t, eta, 1e-6)

    @pytest.mark.parametrize("h0", [[0.0, 0.0, 0.0], [[0.0, 0.0], [0.0, 0.0]], [[0.0], [0.0]],
                                    [0.0, [0.0]]], ids=["long", "square", "column", "ragged"])
    def test_h0_dimension_checked(self, mp_matrix, h0):
        with pytest.raises(DimensionMismatchError, match="h0"):
            optimize_continuous(mp_matrix, h0, 10.0, 1.0, 1e-6)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_h0_must_be_finite(self, mp_matrix, bad):
        with pytest.raises(InputError, match="h0 has non-finite entries") as info:
            optimize_continuous(mp_matrix, [0.0, bad], 10.0, 1.0, 1e-6)
        assert info.type is InputError

    def test_h0_moves_the_plan(self, mp_matrix):
        # without h0 the plan is the uniform minmax mix
        h0 = [1.0, 0.0]
        res = optimize_continuous(mp_matrix, h0, 10.0, 1.0, 1e-9)
        uniform = Schedule.constant([0.5, 0.5], 10.0, "continuous")
        assert res.r_star >= reward_cont(uniform, h0, mp_matrix, 1.0)
        assert abs(res.x_star[0] - 0.5) > 1e-3

    def test_bracket_on_random_games(self, rng):
        for _ in range(10):
            a = rng.uniform(-1, 1, size=(rng.integers(2, 5), rng.integers(2, 5)))
            eps = 1e-4
            res = optimize_continuous(a, None, 20.0, 0.5, eps)
            lo, hi = reward_bounds(game_value(a), 20.0, 0.5)
            assert lo - eps <= res.r_star <= hi + eps


class TestRewardBounds:
    def test_matching_pennies(self, mp_matrix):
        lo, hi = reward_bounds(game_value(mp_matrix), 100.0, 0.5)
        assert abs(lo) <= 1e-9
        assert abs(hi - 2 * math.log(2)) <= 1e-9

    def test_all_zeros(self):
        lo, hi = reward_bounds(game_value(np.zeros((2, 4))), 7.0, 1.0)
        assert lo == 0.0 and abs(hi - math.log(4)) <= 1e-12

    def test_2x2(self):
        lo, hi = reward_bounds(game_value(np.array([[2.0, 0.0], [0.0, 1.0]])), 10.0, 1.0)
        assert abs(lo - 20.0 / 3) <= 1e-8
        assert abs(hi - (20.0 / 3 + math.log(2))) <= 1e-8


class TestAsymptoticLowerBound:
    """planner_report's asymptotic_bound, Val*T + ln(m/k)/eta."""

    def test_matching_pennies_degenerates(self, mp_matrix):
        assert abs(planner_report(mp_matrix, 0.5, 100.0, 1e-6)["asymptotic_bound"]) <= 1e-9

    def test_unique_br_example(self):
        report = planner_report(unique_br_game(3), 1.0, 50.0, 1e-6)
        assert abs(report["asymptotic_bound"] - (50.0 + math.log(6))) <= 1e-8

    def test_all_zeros(self):
        report = planner_report(np.zeros((3, 3)), 1.0, 10.0, 1e-6)
        assert abs(report["asymptotic_bound"]) <= 1e-12


@pytest.mark.parametrize("a", [matching_pennies(), unique_br_game(3)], ids=["pennies", "unique_br_3"])
def test_report_bounds_match_bound_functions(a):
    """planner_report derives every bound from its one game value."""
    eta, big_t = 0.5, 20.0
    report = planner_report(a, eta, big_t, 1e-6)
    gv = game_value(a)
    assert np.max(np.abs(np.subtract(report["bounds"], reward_bounds(gv, big_t, eta)))) <= 1e-12
    _, k = min_br_minmax(gv)
    want = gv.value * big_t + math.log(a.shape[1] / k) / eta
    assert report["k"] == k
    assert abs(report["asymptotic_bound"] - want) <= 1e-12


def test_one_value_lp_per_report(minmax_lp_calls):
    """The report solves the value LP once and passes the analysis along."""
    rng = np.random.default_rng(31)
    seeded = [rng.uniform(-1, 1, size=tuple(rng.integers(2, 7, size=2))) for _ in range(4)]
    for a in [matching_pennies(), unique_br_game(3)] + seeded:
        minmax_lp_calls.clear()
        planner_report(a, 1.0, 10.0, 1e-6)
        assert minmax_lp_calls.count(None) == 1


def test_lps_per_report(minmax_lp_calls):
    """A report solves the value LP, a pinned LP only when game_value's x
    does not settle k, and the pair LPs of the assumption-1 search only on a
    game the uniqueness certificate does not cover (unique_br_game(3))."""
    saddle = np.array([[0.0, 1.0], [-1.0, 2.0]])  # pure saddle point at (0, 0)
    for a, lps in [(matching_pennies(), 1), (saddle, 1), (unique_br_game(3), 3)]:
        minmax_lp_calls.clear()
        planner_report(a, 1.0, 10.0, 1e-6)
        assert len(minmax_lp_calls) == lps
    counts = []
    for a in _random_games(np.random.default_rng(50), 50):
        minmax_lp_calls.clear()
        planner_report(a, 1.0, 10.0, 1e-6)
        counts.append(len(minmax_lp_calls))
    assert np.mean(counts) <= 1.06  # 53 LPs here; 90 with pair LPs on certified games


class TestAlternatingPlan:
    def test_matching_pennies_default_delta(self, mp_matrix):
        plan = alternating_plan(game_value(mp_matrix))
        assert plan.delta == 1.0
        assert np.array_equal(np.sort(plan.x_odd), [0.0, 1.0])
        assert np.allclose((plan.x_odd + plan.x_even) / 2, plan.base, atol=1e-12)
        # sign conditions
        a = mp_matrix
        assert plan.x_odd @ a[:, plan.i1] > plan.x_odd @ a[:, plan.i2]
        assert plan.x_even @ a[:, plan.i1] < plan.x_even @ a[:, plan.i2]

    def test_full_delta_is_pure_alternation(self, mp_matrix):
        plan = alternating_plan(game_value(mp_matrix))
        assert set(map(tuple, [plan.x_odd, plan.x_even])) == {
            (1.0, 0.0), (0.0, 1.0),
        }
        game = BimatrixGame.from_zero_sum(mp_matrix)
        traj = simulate(game, plan.to_schedule(1000), MWU, eta=0.1)
        assert abs(traj.totals[0] - 500 * math.tanh(0.1)) <= 1e-9

    def test_pair_reward_beats_value(self, mp_matrix):
        plan = alternating_plan(game_value(mp_matrix))
        game = BimatrixGame.from_zero_sum(mp_matrix)
        traj = simulate(game, plan.to_schedule(2), MWU, eta=0.3)
        assert traj.totals[0] > 2 * game_value(mp_matrix).value

    def test_odd_horizon_plays_base_last(self, mp_matrix):
        plan = alternating_plan(game_value(mp_matrix))
        sched = plan.to_schedule(5)
        rows = sched.round_strategies()
        assert np.array_equal(rows[-1], plan.base)

    def test_assumption_failure_raises(self):
        with pytest.raises(PreconditionError, match="no-pure"):
            alternating_plan(game_value(np.zeros((2, 2))))

    def test_gain_positive(self, mp_matrix):
        gain = alternating_gain(alternating_plan(game_value(mp_matrix)), 0.2, 400)
        assert gain > 0


def test_bounds_and_gain_read_the_analysis(minmax_lp_calls):
    # neither solves a value LP; the gain scores the plan on its own game
    gv = game_value(matching_pennies())
    plan = alternating_plan(gv)
    minmax_lp_calls.clear()
    lo, hi = reward_bounds(gv, 10.0, 0.5)
    gain = alternating_gain(plan, 0.1, 100)
    assert minmax_lp_calls == []
    assert plan.gv is gv and (lo, hi) == (0.0, 2 * math.log(2))
    assert gain == simulate(BimatrixGame.from_zero_sum(gv.a), plan.to_schedule(100), MWU,
                            eta=0.1).totals[0] / (0.1 * 100)


def test_alternating_gain_positive_on_battery_games():
    # the paper's discrete claim: against MWU the alternating plan of a game
    # where Assumption 1 holds beats T*Val by a positive per-round slope
    gains = []
    for a in _random_games(np.random.default_rng(DEFAULT_SEED), DEFAULT_COUNT):
        try:
            plan = alternating_plan(game_value(a))
        except PreconditionError:
            continue
        gains += [alternating_gain(plan, eta, 1000) for eta in (0.1, 1.0)]
    assert len(gains) >= 300 and min(gains) > 0.0  # 160 games, smallest gain 2.2e-6


class TestHjbResidual:
    def test_all_zeros_exact(self):
        assert hjb_residual(np.zeros(3), 2.0, np.zeros((3, 3)), 0.5) == 0.0

    def test_matching_pennies_point(self, mp_matrix):
        assert hjb_residual(np.zeros(2), 5.0, mp_matrix, 0.5) <= 1e-3

    def test_random_points(self, rng):
        a = rng.uniform(-1, 1, size=(3, 3))
        for _ in range(10):
            h = rng.uniform(-1, 1, size=3)
            t = float(rng.uniform(1.0, 4.0))
            assert hjb_residual(h, t, a, 0.5) <= 1e-3

    def test_small_t_rejected(self, mp_matrix):
        with pytest.raises(InputError):
            hjb_residual(np.zeros(2), 1e-5, mp_matrix, 0.5)

    def test_h_dimension_checked(self, mp_matrix):
        with pytest.raises(DimensionMismatchError, match="h has dimension 3"):
            hjb_residual(np.zeros(3), 2.0, mp_matrix, 0.5)


class TestFrankWolfe:
    def test_non_finite_gap_raises_at_once(self):
        mat = np.array([[math.nan, 0.0], [0.0, 1.0]])
        with pytest.raises(InputError, match="not finite"):
            frank_wolfe(np.zeros(2), mat, 1e-6)

    def test_fixed_point_raises_cap_at_once(self):
        # at payoffs of 1e6 the gap cannot reach 1e-6: a step stops moving x
        # long before the iteration cap
        a = np.array([[1.0, -1e6], [-1e6, 2.0]])
        z0, mat = _objective_terms(a, np.zeros(2), 10.0, 1.0)
        with pytest.raises(CapExceededError, match="stalled"):
            frank_wolfe(z0, mat, 1e-6)

    @pytest.mark.parametrize("eta_t", [100.0, 1000.0])
    def test_certifies_at_large_eta_t(self, eta_t):
        # the plan's epsilon 1e-6 on 200 seeded U[-1, 1] games, n and m in
        # 2..6, within FW_ITERATION_BOUND iterations each (17 at most); away
        # steps missed a 5,000-iteration cap on 1 and 4 of them
        rng = np.random.default_rng(int(eta_t))
        for i in range(200):
            n, m = rng.integers(2, 7, size=2)
            eta = (0.1, 1.0)[i % 2]
            z0, mat = _objective_terms(rng.uniform(-1, 1, size=(n, m)), np.zeros(m),
                                       eta_t / eta, eta)
            _, gap, iterations = frank_wolfe(z0, mat, 1e-6 * eta)
            assert gap <= 1e-6 * eta and iterations <= FW_ITERATION_BOUND

    SINGULAR_FACE_GAME = np.array([
        [-0.33588389625481474, -0.01783157063845553, -0.4523775227764626],
        [0.45315559930815774, -0.8320182913086935, -0.35371696290701604],
        [-0.15825454532041294, -0.48389469454047185, 0.6797558332733771],
        [-0.2917989374910288, -0.15869922645786727, -0.06238906762619467],
    ])

    def test_singular_face(self):
        # n > m: the Hessian on the full simplex face is singular
        z0, mat = _objective_terms(self.SINGULAR_FACE_GAME, np.zeros(3), 100.0, 0.1)
        _, gap, iterations = frank_wolfe(z0, mat, 1e-7)
        assert gap <= 1e-7 and iterations <= 16

    def test_face_newton_on_singular_hessian(self):
        # at the uniform point the full face's Hessian has rank 2 of 4: f is
        # linear along its null space, and the Newton direction must still be
        # a finite descent direction with a coordinate for the clip to cut
        z0, mat = _objective_terms(self.SINGULAR_FACE_GAME, np.zeros(3), 100.0, 0.1)
        p = softmax(z0 + mat @ np.full(4, 0.25))
        g = mat.T @ p
        c = mat - g
        assert np.linalg.matrix_rank((c.T * p) @ c) == 2
        d = _face_newton(mat, p, g)
        assert d is not None and np.all(np.isfinite(d))
        assert g @ d < 0.0 and d.min() < 0.0

    def test_linesearch_objective_monotone(self, rng, monkeypatch):
        objectives = []

        def recording(z, zeta, hi):
            objectives.append(float(logsumexp(z)))
            return _line_minimize(z, zeta, hi)

        monkeypatch.setattr(planner, "_line_minimize", recording)
        a = rng.uniform(-1, 1, size=(4, 5))
        z0, mat = _objective_terms(a, np.zeros(5), 20.0, 0.5)
        _, gap, _ = frank_wolfe(z0, mat, gap_target=1e-9)
        assert gap <= 1e-9 and len(objectives) > 1
        assert np.all(np.diff(objectives) <= 1e-12)

    def test_fixed_step_rate_bound(self, rng):
        eta, big_t = 0.5, 5.0
        for _ in range(3):
            a = rng.uniform(-1, 1, size=(3, 4))
            z0, mat = _objective_terms(a, np.zeros(4), big_t, eta)
            x_ref, _, _ = frank_wolfe(z0, mat, gap_target=1e-11)
            f_ref = float(np.logaddexp.reduce(z0 + mat @ x_ref))
            cert = 2.0 * (eta * big_t * np.linalg.norm(a, 2)) ** 2
            log = fixed_step_objectives(z0, mat, 200)
            for s in range(1, len(log)):
                assert log[s] - f_ref <= 2.0 * cert / (s + 1)

    def test_fixed_step_stops_at_zero_gap(self):
        # row 1 dominates: the first step (gamma = 1) lands on the optimal
        # vertex e_1, where the Frank-Wolfe gap is exactly 0
        a = np.array([[1.0, 0.5], [0.0, -0.5]])
        z0, mat = _objective_terms(a, np.zeros(2), 5.0, 0.5)
        log = fixed_step_objectives(z0, mat, 300)
        assert len(log) == 2
        assert log[0] == pytest.approx(logsumexp(z0 + mat @ [0.5, 0.5]), abs=1e-12)
        assert log[1] == pytest.approx(logsumexp(z0 + mat[:, 0]), abs=1e-12)

    def test_gradient_matches_finite_differences(self, rng):
        a = rng.uniform(-1, 1, size=(4, 4))
        z0, mat = _objective_terms(a, np.zeros(4), 10.0, 0.5)
        for _ in range(5):
            x = rng.dirichlet(np.ones(4))
            p = np.exp(z0 + mat @ x - np.max(z0 + mat @ x))
            p /= p.sum()
            grad = mat.T @ p
            fd = np.zeros(4)
            delta = 1e-6
            for i in range(4):
                e = np.zeros(4)
                e[i] = delta
                fp = np.logaddexp.reduce(z0 + mat @ (x + e))
                fm = np.logaddexp.reduce(z0 + mat @ (x - e))
                fd[i] = (fp - fm) / (2 * delta)
            assert np.linalg.norm(fd - grad) <= 1e-5 * max(1.0, np.linalg.norm(grad))


def bisection_line_minimize(z, zeta, hi):
    """Reference line search: plain bisection on the sign of p(t)'zeta."""
    p = softmax(z + hi * zeta)
    if p @ zeta <= 0.0:
        return hi
    lo, up = 0.0, hi
    for _ in range(62):
        mid = 0.5 * (lo + up)
        p = softmax(z + mid * zeta)
        if p @ zeta > 0.0:
            up = mid
        else:
            lo = mid
        if up - lo <= 1e-15 * max(1.0, up):
            break
    return 0.5 * (lo + up)


def line_search_games(count=24, seed=4711):
    """Seeded U[-1,1] games, n and m in 2..6, cycling eta in {0.1, 1} and eta*T in {10, 100}."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        n, m = rng.integers(2, 7, size=2)
        eta = (0.1, 1.0)[i % 2]
        eta_t = (10.0, 100.0)[(i // 2) % 2]
        a = rng.uniform(-1, 1, size=(n, m))
        yield _objective_terms(a, np.zeros(m), eta_t / eta, eta)


class TestLineSearch:
    def test_newton_matches_bisection(self, monkeypatch):
        searches = []

        def recording(z, zeta, hi):
            searches.append((z.copy(), zeta.copy(), hi))
            return _line_minimize(z, zeta, hi)

        monkeypatch.setattr(planner, "_line_minimize", recording)
        for z0, mat in line_search_games(240):
            frank_wolfe(z0, mat, gap_target=1e-12)
        assert len(searches) > 500
        for z, zeta, hi in searches:
            t_ref = bisection_line_minimize(z, zeta, hi)
            assert abs(_line_minimize(z, zeta, hi) - t_ref) <= 1e-12 * max(1.0, t_ref)

    @pytest.mark.parametrize("search", [_line_minimize, bisection_line_minimize],
                             ids=["newton", "bisection"])
    def test_frank_wolfe_certifies_tight_gap(self, search, monkeypatch):
        monkeypatch.setattr(planner, "_line_minimize", search)
        for z0, mat in line_search_games():
            _, gap, _ = frank_wolfe(z0, mat, gap_target=1e-12)
            assert gap <= 1e-12

    def test_newton_certifies_where_bisection_stalls(self, monkeypatch):
        # under away steps, bisection resolves t only to 1e-15 absolute, so
        # tiny late steps zigzag: it stalls above gap 1e-12 here after 20,000
        # iterations, where the Newton line search certifies
        a = np.array([
            [0.3954595634111311, -0.6935700569063747, 0.5426011294031954],
            [-0.6501674597301406, 0.8288561725427079, -0.04466593913685046],
            [-0.2694478736897963, 0.08092258368297167, 0.8818453950451466],
            [0.9949697334095688, -0.8763226108747277, 0.6249759978270164],
        ])
        z0, mat = _objective_terms(a, np.zeros(3), 1000.0, 0.1)
        _, gap, iterations = away_step_frank_wolfe(z0, mat, gap_target=1e-12)
        assert gap <= 1e-12 and iterations <= 1000
        monkeypatch.setattr(planner, "_line_minimize", bisection_line_minimize)
        with pytest.raises(CapExceededError, match="cap 1000"):
            away_step_frank_wolfe(z0, mat, gap_target=1e-12, max_iter=1000)


class TestDiscreteVsContinuous:
    def test_discrete_dominance(self, rng):
        for _ in range(5):
            a = rng.uniform(-1, 1, size=(3, 3))
            game = BimatrixGame.from_zero_sum(a)
            res = optimize_continuous(a, None, 50.0, 0.5, 1e-6)
            cont = reward_cont(constant_schedule(res.x_star, 50.0), None, a, 0.5)
            disc = simulate(game, Schedule.constant(res.x_star, 50), MWU, eta=0.5)
            assert disc.totals[0] >= cont - 1e-9

    def test_gap_ceiling(self, rng):
        for _ in range(5):
            a = rng.uniform(-1, 1, size=(3, 3))
            game = BimatrixGame.from_zero_sum(a)
            eta, rounds, eps = 0.5, 50, 1e-4
            res = optimize_continuous(a, None, float(rounds), eta, eps)
            for _ in range(5):
                plays = rng.dirichlet(np.ones(3), size=rounds)
                traj = simulate(game, Schedule.from_rounds(plays), MWU, eta=eta)
                assert traj.totals[0] <= res.r_star + 2 * eps + eta * rounds / 2


def test_array_results_compare_by_identity(mp_matrix, mp_game):
    # results with array fields compare by identity, as Schedule and
    # BimatrixGame do, instead of raising numpy's ambiguous-truth error
    def results():
        gv = game_value(mp_matrix)
        return [
            gv,
            check_assumption_no_pure(gv),
            optimize_continuous(mp_matrix, None, 10.0, 0.5, 1e-6),
            alternating_plan(game_value(mp_matrix)),
            simulate(mp_game, Schedule.constant([0.5, 0.5], 3), MWU, eta=0.1),
        ]

    for result, twin in zip(results(), results()):
        assert result == result and not result != result
        assert result != twin
