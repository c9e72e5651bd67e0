import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strategizer import learners
from strategizer import (
    BEST_RESPONSE,
    MWU,
    REPLICATOR,
    BimatrixGame,
    CapExceededError,
    DimensionMismatchError,
    InputError,
    PreconditionError,
    Schedule,
    StrategizerError,
    as_simplex,
    respond,
    simulate,
)

from frozen_simulator import FrozenSchedule

OCDP_B_ROW_E1 = np.array([-0.1, 0, 0, 0, 1, 0.85, 0, 0, 0, 0])


class TestMwuStrategy:
    """MWU plays softmax(eta * h) through the shared response kernel."""

    def test_zero_history_uniform(self):
        y = respond(MWU, np.zeros(4), 0.3)
        assert np.array_equal(y, np.full(4, 0.25))

    def test_two_action_formula(self):
        # h = (1, -1): weights (e^eta, e^-eta) normalized
        for eta in (0.05, 0.3, 0.5):
            y = respond(MWU, [1.0, -1.0], eta)
            z = math.exp(eta) + math.exp(-eta)
            assert abs(y[0] - math.exp(eta) / z) <= 1e-15
            assert abs(y[1] - math.exp(-eta) / z) <= 1e-15

    def test_huge_history_no_overflow(self):
        y = respond(MWU, [1e4, 0.0], 1.0)
        assert np.all(np.isfinite(y))
        assert y[1] < 1e-300
        # extended-precision softmax oracle
        with mpmath.workdps(60):
            tiny = mpmath.exp(-10000)
            y0 = float(1 / (1 + tiny))
        assert abs(y[0] - y0) <= 1e-15

    def test_unknown_kind_raises(self):
        # simulate's message; respond used to fall through to softmax
        with pytest.raises(InputError, match="unknown learner kind 'bogus'"):
            respond("bogus", np.zeros(3))

    def test_sums_to_one_strictly_positive(self, rng):
        for _ in range(20):
            h = rng.uniform(-50, 50, size=5)
            y = respond(MWU, h, 0.4)
            assert abs(y.sum() - 1.0) <= 1e-12
            assert np.all(y > 0)


@settings(max_examples=50, deadline=None)
@given(
    h=st.lists(st.floats(-100, 100), min_size=2, max_size=6),
    shift=st.floats(-100, 100),
    eta=st.floats(0.01, 0.5),
)
def test_mwu_shift_invariance(h, shift, eta):
    base = respond(MWU, h, eta)
    moved = respond(MWU, np.asarray(h) + shift, eta)
    assert np.max(np.abs(base - moved)) <= 1e-12


def test_lse_matches_scipy_bit_for_bit():
    from scipy.special import logsumexp

    rng = np.random.default_rng(2025)
    for _ in range(2000):
        rows, m = rng.integers(1, 5), rng.integers(1, 8)
        scale = 10.0 ** rng.uniform(-3, math.log10(700))
        z = rng.standard_normal((rows, m)) * scale
        if rng.random() < 0.3:  # ties, including ties at the maximum
            z = np.round(z / scale * 2) * scale / 2
        if rng.random() < 0.2:
            z[:, rng.integers(m)] = z.max(axis=1)
        assert learners.lse(z).tobytes() == logsumexp(z, axis=1).tobytes()
        assert learners.lse(z[0]).tobytes() == np.float64(logsumexp(z[0])).tobytes()
    for z in ([math.inf, 1.0], [-math.inf, -math.inf], [-math.inf, 0.0], [math.nan, 1.0]):
        assert learners.lse(z).tobytes() == np.float64(logsumexp(z)).tobytes()


def one_round(game, x, kind=MWU, h0=None):
    """Simulate a single round of x; the trajectory records h0 + B'x."""
    return simulate(game, Schedule.constant(x, 1), kind, eta=0.1, h0=h0)


class TestLearnerUpdate:
    """One simulated round accumulates h' = h + B'x for every learner kind."""

    def test_pure_action_adds_row(self, mp_game):
        traj = one_round(mp_game, [1.0, 0.0])
        assert np.array_equal(traj.h_after[0], [-1.0, 1.0])
        assert traj.rounds == 1

    def test_uniform_over_identical_rows(self):
        game = BimatrixGame(np.zeros((2, 3)), np.array([[1.0, -2.0, 0.5]] * 2))
        traj = one_round(game, [0.5, 0.5], h0=[1.0, 1.0, 1.0])
        assert np.array_equal(traj.h_after[0], [2.0, -1.0, 1.5])

    def test_ocdp_first_round(self):
        # edge (1,5) of the five-vertex instance: source pays -0.1, target +1,
        # the source's v_in column 0.85
        b = np.zeros((3, 10))
        b[0] = OCDP_B_ROW_E1
        game = BimatrixGame(np.zeros((3, 10)), b)
        traj = one_round(game, [1.0, 0.0, 0.0], kind=BEST_RESPONSE)
        assert np.array_equal(traj.h_after[0], OCDP_B_ROW_E1)

    def test_dimension_mismatch(self, mp_game):
        with pytest.raises(Exception, match="dimension"):
            one_round(mp_game, [1.0, 0.0, 0.0])


def br_index(h):
    """The best-response play as an action index, checking it is one-hot."""
    y = respond(BEST_RESPONSE, h)
    (idx,) = np.flatnonzero(y)
    assert y[idx] == 1.0
    return int(idx)


class TestBrAction:
    def test_zero_history_first_action(self):
        assert br_index(np.zeros(6)) == 0

    def test_ocdp_round_two(self):
        assert br_index(OCDP_B_ROW_E1) == 4  # the +1 entry (vertex 5) beats 0.85

    def test_point_nine_beats_point_eight_five(self):
        h = np.array([0.9, -3, -3, -3, -3, 0.85, 0.85, 0.85, 0.85, 0.85])
        assert br_index(h) == 0

    def test_affine_invariance(self, rng):
        for _ in range(20):
            h = rng.integers(-5, 6, size=6).astype(float)
            assert br_index(h) == br_index(2.5 * h + 3.0)

    @staticmethod
    def put_along_axis_one_hot(h):
        """The one-hot first argmax built by writing 1.0 into zeros."""
        y = np.zeros_like(h)
        np.put_along_axis(y, np.argmax(h, axis=-1)[..., None], 1.0, axis=-1)
        return y

    def test_matches_put_along_axis(self, rng):
        # stacked (K, T, m) integer histories tie often; -inf entries never win
        for m in (1, 2, 5):
            h = rng.integers(-2, 3, size=(4, 30, m)).astype(float)
            h[rng.random(h.shape) < 0.2] = -np.inf
            for hist in (h, h[0, 0], np.full(m, -np.inf)):
                y = respond(BEST_RESPONSE, hist)
                want = self.put_along_axis_one_hot(hist)
                assert y.shape == want.shape and y.dtype == want.dtype
                assert y.tobytes() == want.tobytes()


def alternating_pennies_schedule(total_rounds):
    """The pure schedule: action 2 on odd rounds, action 1 on even rounds."""
    a2, a1 = [0.0, 1.0], [1.0, 0.0]
    return Schedule.from_rounds([a2 if t % 2 == 1 else a1 for t in range(1, total_rounds + 1)])


class TestSimulate:
    def test_matching_pennies_alternation(self, mp_game):
        for eta in (0.05, 0.1, 0.5):
            traj = simulate(mp_game, alternating_pennies_schedule(1000), MWU, eta=eta)
            assert abs(traj.totals[0] - 500 * math.tanh(eta)) <= 1e-9
            assert abs(traj.totals[0] + traj.totals[1]) <= 1e-9  # zero-sum

    @pytest.mark.parametrize("kind", [MWU, BEST_RESPONSE])
    def test_zero_sum_rewards_exact_negation(self, kind, rng):
        for n, m in ((2, 2), (3, 5), (6, 4)):
            game = BimatrixGame.from_zero_sum(rng.uniform(-1, 1, (n, m)))
            for sched in (
                Schedule.from_rounds(rng.dirichlet(np.ones(n), size=70)),
                Schedule("discrete", [3, 1, 7], rng.dirichlet(np.ones(n), size=3)),
            ):
                traj = simulate(game, sched, kind, eta=0.4)
                assert traj.optimizer_reward.tobytes() == (-traj.learner_reward).tobytes()
                assert traj.totals[0] == -traj.totals[1]

    def test_eta_must_be_finite(self, mp_game):
        sched = alternating_pennies_schedule(4)
        for eta in (math.inf, math.nan):
            with pytest.raises(InputError, match="finite"):
                simulate(mp_game, sched, MWU, eta=eta)

    def test_overflowing_history_rejected(self, mp_game):
        # eta*h passes 1e308 in round 3 of MWU, and at once in replicator dynamics
        with pytest.raises(InputError, match="overflows"):
            simulate(mp_game, Schedule.constant([1.0, 0.0], 3), MWU, eta=1e308)
        with pytest.raises(InputError, match="overflows"):
            simulate(mp_game, Schedule.constant([1.0, 0.0], 1e300, "continuous"),
                     REPLICATOR, eta=1e10)

    def test_empty_horizon(self, mp_game):
        traj = simulate(mp_game, Schedule.constant([0.5, 0.5], 0), MWU, eta=0.1)
        assert traj.rounds == 0 and traj.totals == (0.0, 0.0)

    def test_totals_match_rows(self, mp_game, rng):
        plays = rng.dirichlet(np.ones(2), size=50)
        traj = simulate(mp_game, Schedule.from_rounds(plays), MWU, eta=0.2)
        assert abs(traj.totals[0] - traj.optimizer_reward.sum()) <= 1e-9
        assert abs(traj.totals[1] - traj.learner_reward.sum()) <= 1e-9

    def test_h_recurrence_exact(self, mp_game, rng):
        plays = rng.dirichlet(np.ones(2), size=40)
        traj = simulate(mp_game, Schedule.from_rounds(plays), MWU, eta=0.2)
        increments = traj.optimizer_strategy @ mp_game.b
        for t in range(1, traj.rounds):
            assert np.array_equal(traj.h_after[t], traj.h_after[t - 1] + increments[t])

    def test_learner_sees_past_only(self, mp_game):
        # round 1 must be the uniform play regardless of the schedule
        traj = simulate(mp_game, alternating_pennies_schedule(4), MWU, eta=0.3)
        assert np.array_equal(traj.learner_strategy[0], [0.5, 0.5])

    def test_best_response_one_hot(self, mp_game):
        traj = simulate(mp_game, alternating_pennies_schedule(6), BEST_RESPONSE)
        assert np.array_equal(np.sort(np.unique(traj.learner_strategy)), [0.0, 1.0])
        assert np.array_equal(traj.learner_strategy.sum(axis=1), np.ones(6))

    def test_replicator_needs_continuous(self, mp_game):
        with pytest.raises(PreconditionError):
            simulate(mp_game, alternating_pennies_schedule(4), REPLICATOR, eta=0.1)

    def test_mwu_needs_discrete(self, mp_game):
        sched = Schedule.constant([0.5, 0.5], 4.0, "continuous")
        with pytest.raises(PreconditionError):
            simulate(mp_game, sched, MWU, eta=0.1)

    def test_replicator_zero_sum_totals(self, mp_game):
        sched = Schedule("continuous", [1.5, 2.5], [[0.9, 0.1], [0.2, 0.8]])
        traj = simulate(mp_game, sched, REPLICATOR, eta=0.5)
        assert traj.totals[0] == -traj.totals[1]
        # learner reward equals the log-partition increment
        h_end = traj.h_after[-1]
        want = (np.logaddexp.reduce(0.5 * h_end) - math.log(2)) / 0.5
        assert abs(traj.totals[1] - want) <= 1e-12

    def test_replicator_general_sum_quadrature(self):
        game = BimatrixGame([[1.0, 0.0], [0.0, 2.0]], [[0.5, 1.0], [1.5, 0.0]])
        sched = Schedule.constant([0.6, 0.4], 3.0, "continuous")
        traj = simulate(game, sched, REPLICATOR, eta=0.3)
        # Riemann oracle for the optimizer's integral
        x = np.array([0.6, 0.4])
        ts = np.linspace(0.0, 3.0, 30001)
        drift = game.b.T @ x
        zs = 0.3 * ts[:, None] * drift
        ys = np.exp(zs - zs.max(axis=1, keepdims=True))
        ys /= ys.sum(axis=1, keepdims=True)
        vals = ys @ (game.a.T @ x)
        oracle = np.trapezoid(vals, ts)
        assert abs(traj.totals[0] - oracle) <= 1e-6

    def test_mwu_equals_replicator_at_integer_times(self, mp_game):
        plays = [np.array([0.7, 0.3]), np.array([0.2, 0.8]), np.array([0.5, 0.5]), np.array([0.9, 0.1])]
        disc = Schedule.from_rounds(plays)
        cont = Schedule("continuous", np.ones(len(plays)), plays)
        mwu = simulate(mp_game, disc, MWU, eta=0.45)
        # row s of the replicator's learner_strategy is its play at time s
        rep = simulate(mp_game, cont, REPLICATOR, eta=0.45)
        assert np.max(np.abs(mwu.learner_strategy - rep.learner_strategy)) <= 1e-12


class TestSchedule:
    def test_total_and_average(self):
        sched = Schedule("continuous", [2.0, 2.0], [[1.0, 0.0], [0.0, 1.0]])
        assert sched.total == 4.0
        assert np.allclose(sched.time_average(), [0.5, 0.5])

    def test_discrete_counts_validated(self):
        with pytest.raises(InputError):
            Schedule("discrete", [1.5], [[1.0, 0.0]])

    def test_discrete_total_cannot_wrap(self):
        # each count fits in int64, but their int64 sum would wrap negative
        with pytest.raises(InputError, match="total below 2"):
            Schedule("discrete", [2**62, 2**62], [[1.0, 0.0], [0.0, 1.0]])

    def test_dim_consistency(self):
        with pytest.raises(Exception, match="dimension"):
            Schedule("discrete", [1, 1], [[1.0, 0.0], [1.0, 0.0, 0.0]])

    def test_round_strategies_expansion(self):
        sched = Schedule("discrete", [2, 1], [[1.0, 0.0], [0.0, 1.0]])
        rows = sched.round_strategies()
        assert rows.shape == (3, 2)
        assert np.array_equal(rows[0], rows[1])
        mixed = Schedule("discrete", [1, 3, 1, 2], np.eye(4)[:, :3] + 0.5)
        assert np.array_equal(mixed.round_strategies(),
                              np.repeat(mixed.strategies, [1, 3, 1, 2], axis=0))

    def test_round_strategies_of_one_round_segments(self, rng):
        sched = Schedule.from_rounds(rng.dirichlet(np.ones(3), size=20))
        rows = sched.round_strategies()
        assert np.array_equal(rows, np.repeat(sched.strategies, sched.lengths, axis=0))
        assert not rows.flags.writeable

    def test_trajectory_cannot_write_into_schedule(self, mp_game):
        sched = alternating_pennies_schedule(4)
        before = sched.strategies.copy()
        traj = simulate(mp_game, sched, MWU, eta=0.1)
        with pytest.raises(ValueError):
            traj.optimizer_strategy[0, 0] = 0.5
        assert np.array_equal(sched.strategies, before)

    @pytest.mark.parametrize("strategy", [[0.5, -3.0], [0.0, 0.0], [[1.0, 0.0]], [math.nan, 1.0]])
    def test_constant_checks_strategy_at_zero_total(self, strategy):
        # a zero total plays nothing but still rejects what a total of 1 rejects
        expected = outcome(lambda s: Schedule.constant(s, 1), strategy)
        assert isinstance(expected, type) and issubclass(expected, StrategizerError)
        with pytest.raises(expected):
            Schedule.constant(strategy, 0)
        assert Schedule.constant([0.5, 0.5], 0).lengths.size == 0

    @pytest.mark.parametrize("mode", ["discrete", "continuous"])
    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_lengths_rejected(self, mode, bad):
        with pytest.raises(InputError, match="finite"):
            Schedule(mode, [1, bad], [[1.0, 0.0], [0.0, 1.0]])


def reference_rows(rows):
    """Row-by-row validation: as_simplex on each row on its own, and every
    row of the same dimension."""
    xs = [as_simplex(row) for row in rows]
    if len({x.size for x in xs}) > 1:
        raise DimensionMismatchError("segment strategies differ in dimension")
    return np.array(xs)


def outcome(build, rows):
    try:
        return build(rows)
    except Exception as exc:  # the exception class is the outcome compared
        return type(exc)


def message(build, rows):
    try:
        build(rows)
    except Exception as exc:
        return str(exc)


class TestFromRoundsMatchesRowByRow:
    MALFORMED = {
        "nan": [0.5, math.nan, 0.5],
        "inf": [0.5, math.inf, 0.5],
        "negative": [0.5, -1e-6, 0.5],
        "clipped": [0.5, -1e-10, 0.5],
        "all_zero": [0.0, 0.0, 0.0],
        "ragged": [0.5, 0.5],
    }

    @pytest.mark.parametrize("name", sorted(MALFORMED))
    def test_malformed_round(self, name, rng):
        rows = rng.dirichlet(np.ones(3), size=8).tolist()
        rows.insert(int(rng.integers(0, 9)), self.MALFORMED[name])
        want = outcome(reference_rows, rows)
        got = outcome(lambda r: Schedule.from_rounds(r).strategies, rows)
        if isinstance(want, type):
            assert got is want
            # the message is the one from_rounds gave when it checked its lengths too
            assert message(Schedule.from_rounds, rows) == message(FrozenSchedule.from_rounds, rows)
        else:
            assert np.max(np.abs(got - want)) <= 1e-15

    def test_empty_round(self):
        assert outcome(reference_rows, [[]]) is DimensionMismatchError
        with pytest.raises(DimensionMismatchError):
            Schedule.from_rounds(np.zeros((1, 0)))

    def test_valid_rows(self, rng):
        for n in (1, 2, 3, 6, 11):
            rows = rng.dirichlet(np.ones(n), size=200) * rng.uniform(0.1, 10.0, size=(200, 1))
            rows[rng.random(rows.shape) < 0.2] = 0.0
            rows[rows.sum(axis=1) == 0.0, 0] = 1.0
            sched = Schedule.from_rounds(rows)
            assert sched.lengths.tolist() == [1] * 200
            assert np.max(np.abs(sched.strategies - reference_rows(rows))) <= 1e-15


def replay_rounds(game, rounds, kind, eta, h0):
    """Round-by-round reference: y from the history so far, then h += B'x."""
    h = np.zeros(game.m) if h0 is None else np.array(h0, dtype=float)
    ys, hs = [], []
    for x in rounds:
        if kind == MWU:
            z = eta * h
            y = np.exp(z - z.max())
            y /= y.sum()
        else:
            y = np.zeros(game.m)
            y[list(h).index(max(h))] = 1.0
        ys.append(y)
        h = h + game.b.T @ x
        hs.append(h)
    ys = np.array(ys)
    r_opt = np.einsum("ti,ij,tj->t", rounds, game.a, ys)
    r_lrn = np.einsum("ti,ij,tj->t", rounds, game.b, ys)
    return ys, r_opt, r_lrn, np.array(hs)


class TestSimulateMatchesRoundByRound:
    @pytest.mark.parametrize("kind", [MWU, BEST_RESPONSE])
    @pytest.mark.parametrize("with_h0", [False, True])
    def test_random_rounds(self, kind, with_h0, rng):
        for _ in range(10):
            n, m = (int(v) for v in rng.integers(2, 7, size=2))
            game = BimatrixGame(rng.uniform(-1, 1, (n, m)), rng.uniform(-1, 1, (n, m)))
            rounds = rng.dirichlet(np.ones(n), size=60)
            h0 = rng.uniform(-2, 2, m) if with_h0 else None
            self.check(game, rounds, kind, 0.3, h0)

    @pytest.mark.parametrize("kind", [MWU, BEST_RESPONSE])
    @pytest.mark.parametrize("with_h0", [False, True])
    def test_exact_ties(self, kind, with_h0, rng):
        # integer payoffs and pure rounds keep h integral, so argmax ties recur
        for _ in range(10):
            b = rng.integers(-1, 2, size=(3, 4)).astype(float)
            game = BimatrixGame(-b, b)
            rounds = np.eye(3)[rng.integers(0, 3, size=40)]
            h0 = [1.0, 0.0, 1.0, 1.0] if with_h0 else None
            self.check(game, rounds, kind, 0.5, h0)

    @staticmethod
    def check(game, rounds, kind, eta, h0):
        traj = simulate(game, Schedule.from_rounds(rounds), kind, eta=eta, h0=h0)
        ys, r_opt, r_lrn, hs = replay_rounds(game, rounds, kind, eta, h0)
        assert np.max(np.abs(traj.learner_strategy - ys)) <= 1e-12
        assert np.max(np.abs(traj.optimizer_reward - r_opt)) <= 1e-12
        assert np.max(np.abs(traj.learner_reward - r_lrn)) <= 1e-12
        assert np.max(np.abs(traj.h_after - hs)) <= 1e-12
        assert abs(traj.totals[0] - r_opt.sum()) <= 1e-12
        assert abs(traj.totals[1] - r_lrn.sum()) <= 1e-12


def softmax_rows(z):
    p = np.exp(z - z.max(axis=-1, keepdims=True))
    return p / p.sum(axis=-1, keepdims=True)


def segment_starts(game, schedule, h0):
    """h at the start of each segment, summed segment by segment."""
    h, starts = np.array(h0, dtype=float), []
    for dur, x in zip(schedule.lengths, schedule.strategies):
        starts.append(h.copy())
        h = h + dur * (x @ game.b)
    return starts


def stiff_segments(seed, count, max_actions=6):
    """One-segment general-sum runs that last 10 to 1e5 time units, far longer
    than their crossing width, with an initial history of scale 1 to 100."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        n, m = rng.integers(2, 7), rng.integers(2, max_actions + 1)
        a, b = rng.uniform(-1.0, 1.0, size=(2, n, m))
        x = rng.dirichlet(np.ones(n))
        dur = 10 ** rng.uniform(1.0, 5.0)
        eta = 10 ** rng.uniform(-1.0, math.log10(5.0))
        h0 = rng.uniform(-1.0, 1.0, m) * 10 ** rng.uniform(0.0, 2.0)
        if dur * eta * np.ptp(x @ b) <= 5e4:  # keeps the dense oracle under 2e5 pieces
            out.append((BimatrixGame(a, b), x, dur, eta, h0))
    return out


def dense_gauss_legendre(c, h, d, dur, eta):
    """Composite 16-point Gauss-Legendre on a uniform mesh, four pieces per
    crossing width 1/(eta * max|d_i - d_j|)."""
    nodes, weights = np.polynomial.legendre.leggauss(16)
    pieces = int(np.ceil(4 * max(1.0, dur * eta * np.ptp(d))))
    edges = np.linspace(0.0, dur, pieces + 1)
    total = 0.0
    for k in range(0, pieces, 10_000):
        e = edges[k:k + 10_001, None]
        lo, hi = e[:-1], e[1:]
        u = 0.5 * (lo + hi) + 0.5 * (hi - lo) * nodes
        f = softmax_rows(eta * (h + u[..., None] * d)) @ c
        total += np.sum(0.5 * (hi - lo) * f * weights)
    return total


class TestReplicatorQuadrature:
    """The optimizer's general-sum segment reward, integrated by the batched
    G10-K21 rule, against scipy's quad and a dense oracle."""

    def test_matches_quad_on_replay_shaped_games(self):
        from scipy.integrate import quad

        for seed in range(8):
            rng = np.random.default_rng(seed)
            n, m = rng.integers(2, 7, size=2)
            game = BimatrixGame(rng.uniform(-1, 1, (n, m)), rng.uniform(-1, 1, (n, m)))
            sched = Schedule("continuous", rng.uniform(0.5, 1.5, 100),
                             rng.dirichlet(np.ones(n), 100))
            traj = simulate(game, sched, REPLICATOR, eta=0.5)
            rows = zip(sched.lengths, sched.strategies, segment_starts(game, sched, np.zeros(m)))
            for got, (dur, x, h) in zip(traj.optimizer_reward, rows):
                c, d = x @ game.a, x @ game.b
                want = quad(lambda u: float(c @ softmax_rows(0.5 * (h + u * d))), 0.0, dur,
                            limit=200)[0]
                assert abs(got - want) <= 1e-12 * max(1.0, abs(want))

    def test_qk21_matches_quadpack(self):
        # where quad accepts its first QK21 evaluation (21 calls), it returns
        # that rule's result and error estimate unchanged
        from scipy.integrate import quad

        rng = np.random.default_rng(5)
        compared = above_floor = 0
        for _ in range(200):
            m = rng.integers(2, 7)
            c, h, d = rng.uniform(-1, 1, (3, m))
            eta, lo = 10 ** rng.uniform(-1, 1), rng.uniform(-1, 1)
            hi = lo + 10 ** rng.uniform(0, 1.3)
            want, want_err, info = quad(
                lambda u: float(c @ softmax_rows(eta * (3 * h + u * d))), lo, hi, full_output=1)
            if info["neval"] != 21:
                continue
            got, err = learners._qk21(c[None], 3 * h[None], d[None], eta,
                                      np.array([lo]), np.array([hi]))
            assert abs(got[0] - want) <= 1e-14 * max(1.0, abs(want))
            # the Kronrod-Gauss difference cancels, so summation order moves it
            assert abs(err[0] - want_err) <= 1e-2 * want_err
            compared += 1
            above_floor += want_err > 500 * np.finfo(float).eps * abs(want)
        assert compared >= 100 and above_floor >= 10

    def test_matches_dense_oracle_on_stiff_segments(self):
        from scipy.integrate import quad

        quad_misses = 0
        for game, x, dur, eta, h0 in stiff_segments(2, 30) + stiff_segments(4, 10, 20):
            c, d = x @ game.a, x @ game.b
            want = dense_gauss_legendre(c, h0, d, dur, eta)
            sched = Schedule("continuous", [dur], [x])
            got = simulate(game, sched, REPLICATOR, eta=eta, h0=h0).optimizer_reward[0]
            assert abs(got - want) <= 1e-8 * max(1.0, abs(want))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # quad warns where it gives up
                q = quad(lambda u: float(c @ softmax_rows(eta * (h0 + u * d))), 0.0, dur,
                         limit=200)[0]
            quad_misses += abs(q - want) > 1e-8 * max(1.0, abs(want))
        assert quad_misses >= 1  # the set holds segments quad gets wrong

    def test_empty_and_single_action_schedules(self):
        game = BimatrixGame([[1.0, 2.0]], [[0.5, -0.5]])
        empty = simulate(game, Schedule("continuous", np.zeros(0), np.zeros((0, 1))),
                         REPLICATOR, eta=1.0)
        assert empty.optimizer_reward.shape == (0,)
        # one learner action: the reward is A[0, 0] times the duration, exactly
        flat = BimatrixGame([[3.0], [1.0]], [[2.0], [0.0]])
        traj = simulate(flat, Schedule("continuous", [2.5], [[0.5, 0.5]]), REPLICATOR, eta=1.0)
        assert traj.optimizer_reward[0] == pytest.approx(5.0, rel=1e-15)

    def test_unreachable_tolerance_raises_cap(self):
        # f = 1e6 * tanh(5 * (u - 5)) is odd about u = 5: the integral is 0,
        # and rounding in the 1e6-sized values keeps every error estimate
        # above the absolute tolerance 1.49e-8.
        game = BimatrixGame([[1e6, -1e6]], [[1.0, 0.0]])
        sched = Schedule("continuous", [10.0], [[1.0]])
        with pytest.raises(CapExceededError, match="200 bisections"):
            simulate(game, sched, REPLICATOR, eta=10.0, h0=[-5.0, 0.0])

    def test_batch_bound_keeps_results(self, monkeypatch):
        # one segment per seeding chunk and one piece per QK21 batch
        rng = np.random.default_rng(11)
        game = BimatrixGame(rng.uniform(-1, 1, (3, 4)), rng.uniform(-1, 1, (3, 4)))
        sched = Schedule("continuous", rng.uniform(0.5, 20.0, 12), rng.dirichlet(np.ones(3), 12))
        whole = simulate(game, sched, REPLICATOR, eta=2.0).optimizer_reward
        monkeypatch.setattr(learners, "_QUAD_BATCH", 1)
        batched = simulate(game, sched, REPLICATOR, eta=2.0).optimizer_reward
        assert np.allclose(batched, whole, rtol=1e-12, atol=1e-12)
        # a failing segment is named by its place in the whole schedule
        cap_game = BimatrixGame([[1e6, -1e6]], [[1.0, 0.0]])
        cap_sched = Schedule("continuous", [1.0, 2.0, 10.0], [[1.0]] * 3)
        with pytest.raises(CapExceededError, match="segment 3:"):
            simulate(cap_game, cap_sched, REPLICATOR, eta=10.0, h0=[-8.0, 0.0])
