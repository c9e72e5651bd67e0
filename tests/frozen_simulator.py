"""The discrete simulator and schedule checks as they were before the
(..., T, n) kernel, kept verbatim as a differential-test oracle.

`FrozenSchedule` is the old `Schedule` construction (every length checked,
`from_rounds` included), `frozen_as_simplex` the old `games.as_simplex`, and
`frozen_simulate` the old `simulate` on discrete schedules: one schedule per
call, with `respond` and `softmax` as they were. It returns the trajectory's
fields as a dict.
"""

import math
import sys
from dataclasses import dataclass

import numpy as np

from strategizer import DimensionMismatchError, InputError, PreconditionError
from strategizer.games import as_weights

MWU = "mwu"
BEST_RESPONSE = "best_response"


def frozen_as_simplex(values) -> np.ndarray:
    try:
        w = np.array(values, dtype=float, ndmin=1)
    except (TypeError, ValueError) as exc:  # ragged rows, strings, objects
        raise DimensionMismatchError(f"strategy is not an array of numbers: {exc}") from None
    if w.shape[-1] == 0 and 0 not in w.shape[:-1]:
        raise DimensionMismatchError("a strategy needs at least one weight")
    low, top = w.min(initial=np.inf), w.max(initial=0.0)
    if not (-np.inf < low and top < np.inf):  # NaN fails both comparisons
        raise InputError("strategy contains non-finite weights")
    if low < -1e-9:
        raise InputError(f"strategy has negative weight {low:g}")
    if low <= 0.0:  # also turns -0.0 into +0.0
        np.maximum(w, 0.0, out=w)
    if float(top) * w.shape[-1] > sys.float_info.max / 2:  # a sum may overflow
        with np.errstate(over="ignore"):
            huge = np.isinf(w.sum(axis=-1, keepdims=True))
        np.divide(w, w.max(axis=-1, keepdims=True), out=w, where=huge)
    sums = w.sum(axis=-1, keepdims=True)
    if np.any(sums <= 0.0):
        raise InputError("strategy weights sum to zero")
    w /= sums
    w.flags.writeable = False
    return w


@dataclass(frozen=True, eq=False)
class FrozenSchedule:
    mode: str
    lengths: np.ndarray
    strategies: np.ndarray

    def __post_init__(self):
        if self.mode not in ("discrete", "continuous"):
            raise InputError(f"schedule mode must be discrete or continuous, got {self.mode!r}")
        try:
            lengths = np.array(self.lengths, dtype=float)
            x = np.asarray(self.strategies, dtype=float)
        except (TypeError, ValueError) as exc:  # ragged rows land here too
            raise DimensionMismatchError(f"bad schedule row dimension or number: {exc}") from exc
        if x.ndim == 1 and x.size == 0:
            x = x.reshape(0, 0)
        if x.ndim != 2 or lengths.shape != x.shape[:1]:
            raise InputError(
                "a schedule needs lengths of shape (S,) and strategies of shape (S, n), "
                f"got {lengths.shape} and {x.shape}"
            )
        low, top = lengths.min(initial=np.inf), lengths.max(initial=0.0)
        if not (-np.inf < low and top < np.inf):  # NaN fails both comparisons
            raise InputError("schedule lengths must be finite")
        with np.errstate(over="ignore"):  # an overflowing total is rejected below
            total = lengths.sum().item()
        if self.mode == "discrete":
            bad = (lengths <= 0) | (lengths != np.floor(lengths))
            if bad.any():
                raise InputError(
                    f"discrete segment count must be a positive integer, got {lengths[bad][0]:g}"
                )
            if total >= 2.0**63:
                raise InputError(f"discrete segment counts must total below 2**63, got {total:g}")
            lengths = lengths.astype(np.int64)
            total = int(total)
        elif not low > 0:
            raise InputError(f"segment duration must be positive, got {low:g}")
        elif total == math.inf:
            raise InputError("segment durations must total a finite number")
        lengths.flags.writeable = False
        object.__setattr__(self, "lengths", lengths)
        object.__setattr__(self, "strategies", frozen_as_simplex(x))
        object.__setattr__(self, "total", total)

    @classmethod
    def from_rounds(cls, strategies) -> "FrozenSchedule":
        return cls("discrete", np.ones(len(strategies)), strategies)

    def round_strategies(self) -> np.ndarray:
        if self.total == self.lengths.size:
            return self.strategies
        return np.repeat(self.strategies, self.lengths, axis=0)


def frozen_softmax(z: np.ndarray) -> np.ndarray:
    z = np.asarray(z, dtype=float)
    p = np.exp(z - z.max(axis=-1, keepdims=True))
    return p / p.sum(axis=-1, keepdims=True)


def frozen_respond(kind: str, h, eta: float = 1.0) -> np.ndarray:
    h = np.asarray(h, dtype=float)
    if kind != BEST_RESPONSE:
        return frozen_softmax(eta * h)
    return (np.arange(h.shape[-1]) == np.argmax(h, axis=-1)[..., None]).astype(float)


@np.errstate(over="ignore", invalid="ignore")
def frozen_simulate(game, schedule, learner_kind, eta=1.0, h0=None) -> dict:
    """The old simulate on a discrete schedule (MWU or best response)."""
    if learner_kind not in (MWU, BEST_RESPONSE):
        raise InputError(f"unknown learner kind {learner_kind!r}")
    if not math.isfinite(eta):
        raise InputError(f"eta must be finite, got {eta:g}")
    h0 = np.zeros(game.m) if h0 is None else as_weights(h0, game.m, "h0")
    if schedule.mode != "discrete":
        raise PreconditionError(f"{learner_kind} needs a discrete schedule")
    if learner_kind == MWU and not eta > 0:
        raise InputError("eta must be positive")
    x_rounds = schedule.round_strategies().reshape(-1, game.n)  # (0, n) when empty
    big_t = x_rounds.shape[0]
    increments = x_rounds @ game.b  # row t is B' x(t)
    h = np.zeros((big_t + 1, game.m))  # row t is the history after round t
    np.cumsum(increments, axis=0, out=h[1:])
    h += h0
    h_before, h_after = h[:-1], h[1:]
    y_rounds = frozen_respond(learner_kind, h_before, eta)
    r_lrn = np.einsum("tj,tj->t", increments, y_rounds)
    r_opt = -r_lrn if game.zero_sum else np.einsum("tj,tj->t", x_rounds @ game.a, y_rounds)
    r_opt, r_lrn = r_opt + 0.0, r_lrn + 0.0  # -0.0 becomes 0.0: no reward is written as -0
    totals = (float(r_opt.sum()), float(r_lrn.sum()))
    if not all(map(math.isfinite, totals)):
        raise InputError("eta times the learner's history overflows")
    return dict(
        t=np.arange(1, big_t + 1), optimizer_strategy=x_rounds, learner_strategy=y_rounds,
        optimizer_reward=r_opt, learner_reward=r_lrn, h_after=h_after, totals=totals,
    )
