"""Exploiting the discreteness of MWU with an odd/even alternating plan.

In continuous time the replicator learner concedes nothing on matching
pennies. In discrete time MWU reacts one round late: alternating between
two perturbations of the minmax strategy earns (T/2)*tanh(eta), an
eta*T-sized surplus. This script simulates it and measures the slope.
"""

import math

import numpy as np

from strategizer import (
    MWU,
    BimatrixGame,
    alternating_gain,
    alternating_plan,
    game_value,
    matching_pennies,
    simulate,
)

mp = matching_pennies()
game = BimatrixGame.from_zero_sum(mp)
T = 1000

print("== The alternating plan =======================================")
plan = alternating_plan(game_value(mp))   # full perturbation: pure actions
print(f"odd rounds play  {plan.x_odd}")
print(f"even rounds play {plan.x_even}")
print(f"their average is the minmax strategy {plan.base}")

print()
print("eta     simulated total   (T/2)*tanh(eta)")
for eta in (0.05, 0.1, 0.2, 0.5):
    traj = simulate(game, plan.to_schedule(T), MWU, eta=eta)
    print(f"{eta:4.2f}    {traj.totals[0]:14.9f}    {T / 2 * math.tanh(eta):14.9f}")

print()
print("== Why it works: the learner is one step behind ===============")
traj = simulate(game, plan.to_schedule(6), MWU, eta=0.5)
for t in range(6):
    x = traj.optimizer_strategy[t]
    y = traj.learner_strategy[t]
    print(f"round {t + 1}: optimizer {x}, learner {np.round(y, 3)}, "
          f"reward {traj.optimizer_reward[t]:+.4f}")

print()
print("== The surplus scales like eta*T ==============================")
print("eta     (total - T*value) / (eta*T)")
for eta in (0.05, 0.1, 0.2, 0.4):
    print(f"{eta:4.2f}    {alternating_gain(plan, eta, 2000):8.4f}")
print("a near-constant slope: the gain is Omega(eta*T) with a game constant.")
