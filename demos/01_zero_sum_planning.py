"""Planning against a replicator-dynamics learner in zero-sum games.

Walks through the closed-form reward, the value bounds, and the Frank-Wolfe
planner on two games: matching pennies (where the learner cannot be
exploited in continuous time) and a 5x6 game whose minmax strategies differ
wildly in how many best responses they leave the learner.

Run: python demos/01_zero_sum_planning.py
"""

import math

import numpy as np

from strategizer import (
    Schedule,
    best_response_set,
    BimatrixGame,
    game_value,
    matching_pennies,
    min_br_minmax,
    optimize_continuous,
    reward_bounds,
    reward_cont,
    unique_br_game,
)

eta, T = 1.0, 50.0

print("== Matching pennies ===========================================")
mp = matching_pennies()
val = game_value(mp)
print(f"value {val.value:+.3f}, minmax strategy {val.optimizer_strategy}")

# The continuous-time reward of any schedule depends only on its time
# average; the uniform average is optimal here and earns exactly 0.
uniform = Schedule.constant([0.5, 0.5], T, "continuous")
skewed = Schedule.constant([0.8, 0.2], T, "continuous")
print(f"reward of the uniform average : {reward_cont(uniform, None, mp, eta):+.6f}")
print(f"reward of a skewed average    : {reward_cont(skewed, None, mp, eta):+.6f}")

res = optimize_continuous(mp, None, T, eta, epsilon=1e-6)
print(f"planner: x* = {res.x_star}, r* = {res.r_star:.2e} "
      f"(certified within {res.epsilon:.1e}, {res.iterations} iterations)")

print()
print("== A game where the minmax choice matters =====================")
a = unique_br_game(3)                      # 5 rows, 6 columns, value 1
game = BimatrixGame.from_zero_sum(a)
gv = game_value(a)                         # one analysis; the searches need nothing else
print(f"value {gv.value:.3f}")

# Two minmax strategies, very different best-response counts:
spread_out = np.array([1 / 3, 1 / 3, 1 / 3, 0.0, 0.0])
concentrated = np.array([0.0, 0.0, 0.5, 0.5, 0.0])
print(f"uniform-over-diagonal mix leaves {len(best_response_set(spread_out, game))} best responses")
print(f"the concentrated mix leaves     {len(best_response_set(concentrated, game))} best response")

x, k = min_br_minmax(gv)
lo, hi = reward_bounds(gv, T, eta)
print(f"least best-response count k = {k}; reward bracket [{lo:.3f}, {hi:.3f}]")

r = reward_cont(Schedule.constant(concentrated, T, "continuous"), None, a, eta)
print(f"concentrated mix earns {r:.6f} ~= T + ln(6) = {T + math.log(6):.6f}")
print("so the whole ln(m)/eta headroom above value*T is collected here.")

res = optimize_continuous(a, None, T, eta, epsilon=1e-6)
print(f"planner agrees: r* = {res.r_star:.6f}")
