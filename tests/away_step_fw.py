"""Away-step Frank-Wolfe, kept as a test oracle for planner.frank_wolfe.

It starts at the uniform point. Each iteration moves toward the best vertex
or, when that certifies more descent, away from the worst active one, with
planner._line_minimize as the exact line search. It returns (x, gap,
iterations) and raises as planner.frank_wolfe does.
"""

import math

import numpy as np

from strategizer import CapExceededError, InputError
from strategizer import planner


@np.errstate(over="ignore", invalid="ignore")
def away_step_frank_wolfe(z0, mat, gap_target, max_iter=10_000_000):
    m, n = mat.shape
    x = np.full(n, 1.0 / n)
    for it in range(max_iter + 1):
        z = z0 + mat @ x
        p = np.exp(z - z.max())
        p /= p.sum()
        g = mat.T @ p
        s_idx = int(np.argmin(g))
        gx = g @ x
        gap = gx - g[s_idx]
        if gap <= gap_target:
            return x, float(gap), it
        if not math.isfinite(gap):
            raise InputError(f"Frank-Wolfe gap is {gap:g}: the objective is not finite")
        if it == max_iter:
            break
        d = -x.copy()
        d[s_idx] += 1.0
        hi = 1.0
        support = np.flatnonzero(x > 1e-15)
        a_idx = support[int(np.argmax(g[support]))]
        gap_away = g[a_idx] - gx
        if gap_away > gap and support.size > 1:
            d = x.copy()
            d[a_idx] -= 1.0
            xa = x[a_idx]
            hi = min(xa / (1.0 - xa), 1e12) if xa < 1.0 else 1e12
        gamma = planner._line_minimize(z, mat @ d, hi)
        x_next = x + gamma * d
        np.maximum(x_next, 0.0, out=x_next)
        x_next /= x_next.sum()
        if np.array_equal(x_next, x):
            raise CapExceededError(f"Frank-Wolfe stalled at gap {gap:g} > {gap_target:g}")
        x = x_next
    raise CapExceededError(
        f"Frank-Wolfe iteration cap {max_iter} reached before certifying gap "
        f"{gap_target:g} (best gap {gap:g})"
    )
