"""The (..., T, n) discrete simulator kernel against the one-schedule
simulator it replaced (tests/frozen_simulator.py).

Single schedules must give the same trajectory bit for bit, malformed
schedules the same exception class and message, and stacks of schedules
the per-schedule totals.
"""

import math

import numpy as np
import pytest

from strategizer import BEST_RESPONSE, MWU, BimatrixGame, InputError, Schedule, as_simplex, simulate
from strategizer.learners import _simulate_discrete

from frozen_simulator import FrozenSchedule, frozen_as_simplex, frozen_simulate

FIELDS = ("t", "optimizer_strategy", "learner_strategy", "optimizer_reward", "learner_reward",
          "h_after")


def same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


def random_game(rng, n, m, payoffs, zero_sum):
    draw = ((lambda: rng.integers(-1, 2, (n, m)).astype(float)) if payoffs == "ternary"
            else (lambda: rng.uniform(-1.0, 1.0, (n, m))))
    a = draw()
    return BimatrixGame.from_zero_sum(a) if zero_sum else BimatrixGame(a, draw())


def random_rounds(rng, big_t, n, pure):
    if pure:  # one-hot rounds: integer histories, so argmax ties are common
        return np.eye(n)[rng.integers(0, n, big_t)]
    return rng.dirichlet(np.ones(n), size=big_t)


def random_h0(rng, m, kind):
    if kind == "absent":
        return None
    if kind == "negative-zero":
        return np.where(rng.random(m) < 0.5, -0.0, 0.0)
    return rng.integers(-2, 3, m).astype(float)


def assert_same_trajectory(game, rounds, kind, eta, h0):
    traj = simulate(game, Schedule.from_rounds(rounds), kind, eta=eta, h0=h0)
    want = frozen_simulate(game, FrozenSchedule.from_rounds(rounds), kind, eta=eta, h0=h0)
    for field in FIELDS:
        assert same_bits(getattr(traj, field), want[field]), field
    assert same_bits(traj.totals, want["totals"])
    assert all(type(v) is float for v in traj.totals)


class TestSingleScheduleBitForBit:
    @pytest.mark.parametrize("kind", [MWU, BEST_RESPONSE])
    @pytest.mark.parametrize("payoffs", ["ternary", "uniform"])
    @pytest.mark.parametrize("zero_sum", [True, False])
    @pytest.mark.parametrize("h0_kind", ["absent", "given", "negative-zero"])
    def test_random_schedules(self, kind, payoffs, zero_sum, h0_kind, rng):
        for big_t in (0, 1, 2, 7, 60):
            for pure in (False, True):
                n, m = (int(v) for v in rng.integers(1, 7, 2))
                game = random_game(rng, n, m, payoffs, zero_sum)
                for eta in (0.1, 1.0):
                    assert_same_trajectory(game, random_rounds(rng, big_t, n, pure), kind, eta,
                                           random_h0(rng, m, kind=h0_kind))

    @pytest.mark.parametrize("kind", [MWU, BEST_RESPONSE])
    def test_single_row_and_single_column(self, kind, rng):
        for n, m in ((1, 1), (1, 4), (4, 1)):
            for payoffs in ("ternary", "uniform"):
                game = random_game(rng, n, m, payoffs, zero_sum=True)
                for big_t in (0, 1, 5):
                    assert_same_trajectory(game, random_rounds(rng, big_t, n, pure=False), kind,
                                           0.5, None)

    def test_empty_round_list(self, mp_game):
        for kind in (MWU, BEST_RESPONSE):
            assert_same_trajectory(mp_game, [], kind, 1.0, None)

    def test_negative_zero_rewards_are_written_as_zero(self):
        # B = -A carries -0.0 where A is 0; no reward may come out as -0
        game = BimatrixGame.from_zero_sum(np.zeros((2, 3)))
        for kind in (MWU, BEST_RESPONSE):
            traj = simulate(game, Schedule.from_rounds(np.eye(2)[[0, 1, 1]]), kind, h0=[-0.0] * 3)
            for r in (traj.optimizer_reward, traj.learner_reward, np.array(traj.totals)):
                assert not np.signbit(r).any()

    def test_repeated_segments(self, rng):
        # a schedule whose segments last several rounds expands through np.repeat
        game = random_game(rng, 3, 4, "uniform", zero_sum=False)
        lengths, x = [3, 1, 4], rng.dirichlet(np.ones(3), size=3)
        for kind in (MWU, BEST_RESPONSE):
            traj = simulate(game, Schedule("discrete", lengths, x), kind, eta=0.3)
            want = frozen_simulate(game, FrozenSchedule("discrete", lengths, x), kind, eta=0.3)
            for field in FIELDS:
                assert same_bits(getattr(traj, field), want[field]), field


def outcome(build):
    """What build() returns, or the class and message of what it raises."""
    try:
        return build()
    except Exception as exc:  # the class and message are the outcome compared
        return type(exc), str(exc)


def assert_same_outcome(got, want):
    if isinstance(want, tuple):
        assert got == want
    elif isinstance(want, np.ndarray):
        assert same_bits(got, want) and not got.flags.writeable
    else:  # a schedule
        assert (got.mode, got.total, type(got.total)) == (want.mode, want.total, type(want.total))
        assert same_bits(got.lengths, want.lengths) and not got.lengths.flags.writeable
        assert same_bits(got.strategies, want.strategies) and not got.strategies.flags.writeable


ROWS = {
    "nan": [[0.5, 0.5], [0.5, math.nan]],
    "inf": [[0.5, 0.5], [math.inf, 0.5]],
    "negative": [[0.5, 0.5], [0.5, -1e-6]],
    "clipped": [[0.5, 0.5], [0.5, -1e-10]],
    "negative-zero": [[-0.0, 1.0]],
    "all-zero": [[0.5, 0.5], [0.0, 0.0]],
    "ragged": [[0.5, 0.5], [1.0]],
    "one-d": [0.5, 0.5],
    "three-d": np.ones((2, 2, 2)),
    "no-weights": np.zeros((1, 0)),
    "no-rows": np.zeros((0, 3)),
    "empty-list": [],
    "sum-overflows": [[1e308, 1e308], [1.0, 3.0]],
    "strings": [["a", "b"]],
    "scalar": 5,
    "valid": [[0.2, 0.8], [1.0, 3.0]],
}

SCHEDULES = {
    "bad-mode": ("hybrid", [1], [[1.0, 0.0]]),
    "zero-count": ("discrete", [1, 0], [[1.0, 0.0]] * 2),
    "fractional-count": ("discrete", [2.5], [[1.0, 0.0]]),
    "negative-count": ("discrete", [-1], [[1.0, 0.0]]),
    "nan-count": ("discrete", [math.nan], [[1.0, 0.0]]),
    "inf-count": ("discrete", [math.inf], [[1.0, 0.0]]),
    "counts-at-2**63": ("discrete", [2.0**62, 2.0**62], [[1.0, 0.0]] * 2),
    "counts-overflow": ("discrete", [1e308, 1e308], [[1.0, 0.0]] * 2),
    "zero-duration": ("continuous", [1.0, 0.0], [[1.0, 0.0]] * 2),
    "negative-duration": ("continuous", [-0.5], [[1.0, 0.0]]),
    "nan-duration": ("continuous", [math.nan], [[1.0, 0.0]]),
    "inf-duration": ("continuous", [math.inf], [[1.0, 0.0]]),
    "durations-overflow": ("continuous", [1e308, 1e308], [[1.0, 0.0]] * 2),
    "lengths-2d": ("discrete", [[1], [1]], [[1.0, 0.0]] * 2),
    "lengths-mismatch": ("discrete", [1, 1, 1], [[1.0, 0.0]] * 2),
    "lengths-strings": ("discrete", ["a"], [[1.0, 0.0]]),
    "bad-row-and-count": ("discrete", [0], [[math.nan, 1.0]]),
    "bad-row": ("continuous", [0.5], [[-1e-6, 1.0]]),
    "ragged-rows": ("discrete", [1, 1], [[1.0, 0.0], [1.0]]),
    "empty": ("continuous", [], []),
    "valid-discrete": ("discrete", [3, 1], [[1.0, 3.0], [0.0, 2.0]]),
    "valid-continuous": ("continuous", [0.25, 2.0], [[1.0, 3.0], [0.0, 2.0]]),
}


class TestErrorParity:
    """Schedule, Schedule.from_rounds and as_simplex raise what they raised
    before, class and message, and otherwise return the same bits."""

    @pytest.mark.parametrize("name", sorted(ROWS))
    def test_as_simplex(self, name):
        rows = ROWS[name]
        assert_same_outcome(outcome(lambda: as_simplex(rows)),
                            outcome(lambda: frozen_as_simplex(rows)))

    @pytest.mark.parametrize("name", sorted(ROWS))
    def test_from_rounds(self, name):
        rows = ROWS[name]
        want = outcome(lambda: FrozenSchedule.from_rounds(rows))
        if name == "scalar":
            # the frozen copy let len() raise TypeError; from_rounds now raises
            # the InputError Schedule gives any strategies array that is not 2-D
            assert want[0] is TypeError
            want = (InputError, "a schedule needs lengths of shape (S,) and strategies of "
                                "shape (S, n), got () and ()")
        assert_same_outcome(outcome(lambda: Schedule.from_rounds(rows)), want)

    @pytest.mark.parametrize("name", sorted(SCHEDULES))
    def test_schedule(self, name):
        args = SCHEDULES[name]
        assert_same_outcome(outcome(lambda: Schedule(*args)), outcome(lambda: FrozenSchedule(*args)))


class TestBatchKernel:
    """_simulate_discrete on a stack of schedules gives each schedule's totals."""

    @pytest.mark.parametrize("kind", [MWU, BEST_RESPONSE])
    @pytest.mark.parametrize("zero_sum", [True, False])
    @pytest.mark.parametrize("stack", [(5,), (3, 4)])
    def test_stack_totals_match_simulate(self, kind, zero_sum, stack, rng):
        for payoffs in ("ternary", "uniform"):
            n, m = (int(v) for v in rng.integers(1, 7, 2))
            game = random_game(rng, n, m, payoffs, zero_sum)
            x = as_simplex(rng.dirichlet(np.ones(n), size=stack + (40,)))
            h0 = rng.uniform(-1.0, 1.0, m)
            _, r_opt, r_lrn, _ = _simulate_discrete(game, x, kind, 0.7, h0)
            assert r_opt.shape == r_lrn.shape == stack + (40,)
            got = np.stack([r_opt.sum(axis=-1), r_lrn.sum(axis=-1)], axis=-1)
            want = np.array([simulate(game, Schedule.from_rounds(x[k]), kind, eta=0.7, h0=h0).totals
                             for k in np.ndindex(stack)]).reshape(stack + (2,))
            # 1e-12 relative, with an absolute floor for totals near zero
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("kind", [MWU, BEST_RESPONSE])
    def test_stack_of_one_is_simulate(self, kind, rng):
        for zero_sum in (True, False):
            game = random_game(rng, 4, 5, "ternary", zero_sum)
            x = random_rounds(rng, 30, 4, pure=kind == BEST_RESPONSE)
            h0 = rng.integers(-1, 2, 5).astype(float)
            traj = simulate(game, Schedule.from_rounds(x), kind, eta=0.4, h0=h0)
            y, r_opt, r_lrn, h_after = _simulate_discrete(game, as_simplex(x[None]), kind, 0.4, h0)
            for got, want in ((y, traj.learner_strategy), (r_opt, traj.optimizer_reward),
                              (r_lrn, traj.learner_reward), (h_after, traj.h_after)):
                assert same_bits(got[0], want)
            assert float(r_opt[0].sum()) == traj.totals[0]

    def test_criterion_4_draws_one_stack(self):
        # criterion 4 draws its 50 schedules per (game, eta) as one (50, T, n)
        # stack: the same numbers, and the same rng state after, as 50 draws
        one, many = np.random.default_rng(7), np.random.default_rng(7)
        stack = one.dirichlet(np.ones(4), size=(50, 100))
        assert same_bits(stack, np.stack([many.dirichlet(np.ones(4), size=100) for _ in range(50)]))
        assert one.bit_generator.state == many.bit_generator.state

