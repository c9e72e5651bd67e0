"""Exact symmetries of the discrete simulator and the planner under
power-of-two scaling.

Multiplying payoffs by 2^j, and the MWU step size by 2^-j, changes no
rounding in floating point: every product and sum of the scaled game is
exactly 2^j times that of the original. So the learner plays bit-identical
strategies, and every reward and history is exactly 2^j times the
original's. Likewise the planner's objective eta*T*A is the same float
array for (2^j A, 2^-j T) as for (A, T), so Frank-Wolfe takes the same steps.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from strategizer import (
    BEST_RESPONSE, MWU, BimatrixGame, Schedule, optimize_continuous, planner_report, simulate,
)

# payoffs in [-1, 1] kept away from the subnormal range, where scaling down
# by 2^-j would round
PAYOFFS = st.floats(-1, 1).map(lambda v: v if abs(v) > 1e-100 else 0.0)


@st.composite
def scaled_runs(draw):
    """A game, a discrete schedule and a power of two 2^j."""
    n, m, rounds = draw(st.integers(1, 4)), draw(st.integers(1, 4)), draw(st.integers(1, 30))
    a = draw(arrays(float, (n, m), elements=PAYOFFS))
    if draw(st.booleans()):
        game, scale = BimatrixGame.from_zero_sum(a), lambda c: BimatrixGame.from_zero_sum(c * a)
    else:
        b = draw(arrays(float, (n, m), elements=PAYOFFS))
        game, scale = BimatrixGame(a, b), lambda c: BimatrixGame(c * a, c * b)
    weights = draw(arrays(float, (rounds, n), elements=st.integers(0, 5)))
    weights[:, 0] += 1  # every round has a positive weight
    return game, scale, Schedule.from_rounds(weights), draw(st.integers(-8, 8))


def assert_scaled(base, scaled, factor):
    assert np.array_equal(scaled.learner_strategy, base.learner_strategy)
    assert np.array_equal(scaled.optimizer_reward, factor * base.optimizer_reward)
    assert np.array_equal(scaled.learner_reward, factor * base.learner_reward)
    assert np.array_equal(scaled.h_after, factor * base.h_after)
    assert scaled.totals == (factor * base.totals[0], factor * base.totals[1])


@settings(max_examples=100, deadline=None)
@given(run=scaled_runs(), eta=st.floats(0.01, 1))
def test_mwu_under_scaled_payoffs_and_step(run, eta):
    game, scale, schedule, j = run
    factor = 2.0**j
    base = simulate(game, schedule, MWU, eta)
    assert_scaled(base, simulate(scale(factor), schedule, MWU, eta / factor), factor)


@settings(max_examples=100, deadline=None)
@given(run=scaled_runs())
def test_best_response_under_scaled_payoffs(run):
    game, scale, schedule, j = run
    factor = 2.0**j
    base = simulate(game, schedule, BEST_RESPONSE)
    assert_scaled(base, simulate(scale(factor), schedule, BEST_RESPONSE), factor)


ETA, HORIZON, EPS = 0.5, 32.0, 1e-6  # eta*T = 16


def same_bits(got, want):
    return np.asarray(got, dtype=float).tobytes() == np.asarray(want, dtype=float).tobytes()


@settings(max_examples=100, deadline=None)
@given(a=arrays(float, st.tuples(st.integers(1, 4), st.integers(1, 4)), elements=PAYOFFS),
       j=st.integers(-8, 8))
def test_planner_under_scaled_payoffs_and_horizon(a, j):
    # x*, r* and epsilon come from Frank-Wolfe alone, which sees the same floats
    factor = 2.0**j
    base = optimize_continuous(a, None, HORIZON, ETA, EPS)
    scaled = optimize_continuous(factor * a, None, HORIZON / factor, ETA, EPS)
    for field in ("x_star", "r_star", "epsilon", "iterations"):
        assert same_bits(getattr(scaled, field), getattr(base, field)), field


def test_planner_report_under_scaled_payoffs_and_horizon():
    # k and the Assumption 1 verdict read the value LP, which HiGHS solves
    # afresh for 2^j A: they agree on these seeded games, not by construction
    rng = np.random.default_rng(20240817)
    for _ in range(200):
        a = rng.uniform(-1.0, 1.0, size=tuple(rng.integers(2, 7, 2)))
        factor = 2.0 ** int(rng.integers(-8, 9))
        base = planner_report(a, ETA, HORIZON, EPS)
        scaled = planner_report(factor * a, ETA, HORIZON / factor, EPS)
        for key in ("x_star", "r_star", "epsilon"):
            assert same_bits(scaled[key], base[key]), key
        assert scaled["k"] == base["k"]
        assert scaled["assumption1"]["holds"] == base["assumption1"]["holds"]
