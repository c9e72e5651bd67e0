"""Fixed reference computations that track the machine's current speed.

The speed of the machine the benchmark was built on drifts by 10-30% over
seconds to minutes, for the whole process. Timing a fixed computation
between tasks and dividing each task's time by it cancels most of that
drift: for `exploit` the ratio varied by about 2% between runs where the
raw task time varied by 25%. Compiled LP code and interpreted Python drift
differently, so each workload is normalised by the reference closest to
where its time goes. Neither reference uses the library, so no change to
the library can move them.
"""

import numpy as np
from scipy.optimize import linprog

_W = np.linspace(0.1, 0.4, 4)
_GAME = np.random.default_rng(0).uniform(-1.0, 1.0, size=(6, 6))


def python_numpy():
    """About 2 ms of small-array numpy work and Python list loops."""
    acc = 0.0
    h = [0] * 12
    for k in range(150):
        w = _W * k
        p = np.exp(w - w.max())
        p /= p.sum()
        acc += float(p @ _W)
        for c in range(12):
            h[c] += (k * c) % 7 - 3
        acc += h.index(max(h))
    return acc


def linear_programs():
    """About 4 ms: the minmax LP of a fixed 6x6 game, solved twice by HiGHS."""
    n, m = _GAME.shape
    for a in (_GAME, -_GAME.T):
        res = linprog(np.r_[np.zeros(n), -1.0], A_ub=np.hstack([-a.T, np.ones((m, 1))]),
                      b_ub=np.zeros(m), A_eq=np.r_[np.ones(n), 0.0][None], b_eq=[1.0],
                      bounds=[(0, None)] * n + [(None, None)], method="highs")
    return res.fun
