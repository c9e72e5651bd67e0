"""The three learner algorithms behind one interface, plus the round-by-round
simulator.

All learners are functions of the cumulative historical reward vector h:
MWU plays softmax(eta * h), replicator dynamics is its continuous-time
analogue driven by the integrated payoff, and best-response plays the
lexicographically-first argmax of h. The simulator's round convention is
the standard one: the learner commits y(t) from the history through round
t-1, then observes x(t).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.special import logsumexp

from .errors import CapExceededError, DimensionMismatchError, InputError, PreconditionError
from .games import BimatrixGame, SimplexVector, as_weights

MWU = "mwu"
REPLICATOR = "replicator"
BEST_RESPONSE = "best_response"
LEARNER_KINDS = (MWU, REPLICATOR, BEST_RESPONSE)

# Most rounds a discrete schedule may expand to. The simulator holds several
# (T, n) and (T, m) float arrays; at this cap each takes 80 MB per column.
MAX_ROUNDS = 10_000_000


def softmax(z: np.ndarray) -> np.ndarray:
    """Overflow-safe softmax (max-subtracted before exponentiation)."""
    z = np.asarray(z, dtype=float)
    p = np.exp(z - z.max(axis=-1, keepdims=True))
    return p / p.sum(axis=-1, keepdims=True)


def respond(kind: str, h, eta: float = 1.0) -> np.ndarray:
    """The learner's play from cumulative rewards h of shape (..., m).

    MWU and replicator play softmax(eta * h); best response plays the one-hot
    lexicographically-first argmax of h (exact float comparison, eta unused).
    """
    h = np.asarray(h, dtype=float)
    if kind != BEST_RESPONSE:
        return softmax(eta * h)
    y = np.zeros_like(h)
    np.put_along_axis(y, np.argmax(h, axis=-1)[..., None], 1.0, axis=-1)
    return y


@dataclass(frozen=True, eq=False)
class Schedule:
    """The optimizer's plan: piecewise-constant strategies over S segments.

    ``lengths`` has shape (S,) and ``strategies`` shape (S, n); segment s
    plays strategies[s] for lengths[s]. Discrete mode: lengths are positive
    integer round counts totalling below 2**63. Continuous mode: positive
    finite durations. Each strategy row is validated like a SimplexVector
    (finite, negatives down to -1e-9 clipped, positive sum) and renormalised
    to sum to 1. ``total``, the sum of the lengths, is computed once here.
    """

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
        if not np.all(np.isfinite(lengths)):
            raise InputError("schedule lengths must be finite")
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
        elif not np.all(lengths > 0):
            raise InputError(f"segment duration must be positive, got {lengths.min():g}")
        if x.shape[0] and not x.shape[1]:
            raise InputError("simplex vector needs at least one weight")
        if not np.all(np.isfinite(x)):
            raise InputError("schedule strategy contains non-finite weights")
        if x.size and x.min() < -1e-9:
            raise InputError(f"schedule strategy has negative weight {x.min():g}")
        x = np.maximum(x, 0.0)
        sums = x.sum(axis=1, keepdims=True)
        if np.any(sums <= 0.0):
            raise InputError("schedule strategy weights sum to zero")
        x = x / sums
        lengths.flags.writeable = False
        x.flags.writeable = False
        object.__setattr__(self, "lengths", lengths)
        object.__setattr__(self, "strategies", x)
        object.__setattr__(self, "total", total)

    @classmethod
    def constant(cls, strategy, total, mode: str = "discrete") -> "Schedule":
        x = as_weights(strategy)[None, :]
        schedule = cls(mode, [total], x) if total else cls(mode, np.zeros(0), x[:0])
        if isinstance(strategy, SimplexVector):
            # Already validated: keep its weights bit for bit, since dividing
            # them by their sum again can move the last bit of planner output.
            object.__setattr__(schedule, "strategies", x[: schedule.lengths.size])
        return schedule

    @classmethod
    def from_rounds(cls, strategies) -> "Schedule":
        """One-round segments from a (T, n) array of per-round strategies."""
        return cls("discrete", np.ones(len(strategies)), strategies)

    @property
    def dim(self) -> int | None:
        return self.strategies.shape[1] if self.lengths.size else None

    def round_strategies(self) -> np.ndarray:
        """Expand a discrete schedule to a (T, n) array of per-round strategies.

        Raises CapExceededError when T exceeds MAX_ROUNDS.
        """
        if self.mode != "discrete":
            raise PreconditionError("round_strategies requires a discrete schedule")
        if self.total > MAX_ROUNDS:
            raise CapExceededError(
                f"schedule has {self.total} rounds, more than the {MAX_ROUNDS} a play-out expands"
            )
        return np.repeat(self.strategies, self.lengths, axis=0)

    def time_average(self) -> np.ndarray:
        """The schedule's time-average strategy (1/T) * integral of x(s) ds."""
        if not self.lengths.size:
            raise PreconditionError("cannot average an empty schedule")
        return self.lengths @ self.strategies / self.total

    def integral_to(self, t: float) -> np.ndarray:
        """Exact integral of x(s) ds over [0, t] for a continuous schedule."""
        if self.mode != "continuous":
            raise PreconditionError("integral_to requires a continuous schedule")
        if t < -1e-12 or t > self.total + 1e-9:
            raise InputError(f"time {t:g} outside the schedule horizon [0, {self.total:g}]")
        # whole segments that end by t, plus the part of the one that straddles it
        starts = np.cumsum(self.lengths) - self.lengths
        return np.clip(t - starts, 0.0, self.lengths) @ self.strategies


@dataclass(frozen=True)
class Trajectory:
    """Per-round record of a simulated play-out plus reward totals."""

    mode: str
    t: np.ndarray
    optimizer_strategy: np.ndarray
    learner_strategy: np.ndarray
    optimizer_reward: np.ndarray
    learner_reward: np.ndarray
    h_after: np.ndarray
    totals: tuple[float, float]

    @property
    def rounds(self) -> int:
        return self.t.size


def replicator_strategy(
    h0, schedule: Schedule, t: float, eta: float, game: BimatrixGame
) -> SimplexVector:
    """Replicator-dynamics play at time t under a piecewise-constant schedule.

    y_i(t) is proportional to exp(eta * (h0_i + integral_0^t x(s)' B e_i ds));
    the integral is a finite sum over whole and partial segments, so no
    quadrature is involved.
    """
    if schedule.mode != "continuous":
        raise PreconditionError("replicator_strategy requires a continuous schedule")
    h0 = np.zeros(game.m) if h0 is None else as_weights(h0, game.m, "h0")
    xint = schedule.integral_to(t)
    if xint.size != game.n:
        raise DimensionMismatchError(
            f"schedule strategies have dimension {xint.size}, game has {game.n} rows"
        )
    return SimplexVector(respond(REPLICATOR, h0 + game.b.T @ xint, eta))


def _simulate_discrete(game, schedule, learner_kind, eta, h0) -> Trajectory:
    x_rounds = schedule.round_strategies()
    big_t = x_rounds.shape[0]
    if big_t == 0:
        empty = np.zeros((0, 0))
        return Trajectory(
            mode="discrete", t=np.zeros(0, dtype=int),
            optimizer_strategy=empty, learner_strategy=empty,
            optimizer_reward=np.zeros(0), learner_reward=np.zeros(0),
            h_after=empty, totals=(0.0, 0.0),
        )
    increments = x_rounds @ game.b  # row t is B' x(t)
    h_after = h0 + np.cumsum(increments, axis=0)
    h_before = np.vstack([h0, h_after[:-1]])
    y_rounds = respond(learner_kind, h_before, eta)
    r_opt = np.einsum("ti,ij,tj->t", x_rounds, game.a, y_rounds)
    r_lrn = np.einsum("ti,ij,tj->t", x_rounds, game.b, y_rounds)
    return Trajectory(
        mode="discrete", t=np.arange(1, big_t + 1),
        optimizer_strategy=x_rounds, learner_strategy=y_rounds,
        optimizer_reward=r_opt, learner_reward=r_lrn,
        h_after=h_after, totals=(float(r_opt.sum()), float(r_lrn.sum())),
    )


def _simulate_replicator(game, schedule, eta, h0) -> Trajectory:
    """One trajectory row per segment; rewards are exact per segment.

    The learner's segment reward is the log-partition increment
    [lse(eta*h(end)) - lse(eta*h(start))]/eta for any game. The optimizer's
    reward equals minus that in zero-sum games and is integrated numerically
    otherwise.
    """
    durations = schedule.lengths
    xs = schedule.strategies.reshape(durations.size, game.n)  # (0, n) when empty
    drifts = xs @ game.b  # row s is B' x_s
    h = np.cumsum(np.vstack([h0, durations[:, None] * drifts]), axis=0)
    h_start, h_after = h[:-1], h[1:]
    r_lrn = (logsumexp(eta * h_after, axis=1) - logsumexp(eta * h_start, axis=1)) / eta
    if game.zero_sum:
        r_opt = -r_lrn
    else:
        def integrand(u, x, hs, d):
            return float(x @ game.a @ softmax(eta * (hs + u * d)))
        r_opt = np.array([
            quad(integrand, 0.0, dur, args=(x, hs, d), limit=200)[0]
            for x, hs, d, dur in zip(xs, h_start, drifts, durations)
        ])
    return Trajectory(
        mode="continuous", t=np.cumsum(durations),
        optimizer_strategy=xs, learner_strategy=respond(REPLICATOR, h_start, eta),
        optimizer_reward=r_opt, learner_reward=r_lrn,
        h_after=h_after, totals=(float(r_opt.sum()), float(r_lrn.sum())),
    )


def simulate(
    game: BimatrixGame,
    schedule: Schedule,
    learner_kind: str,
    eta: float = 1.0,
    h0=None,
) -> Trajectory:
    """Play a full schedule against a learner and record the trajectory.

    MWU and best-response run on discrete schedules; replicator dynamics on
    continuous ones. The learner's strategy in round t depends on rounds
    1..t-1 only.
    """
    if learner_kind not in LEARNER_KINDS:
        raise InputError(f"unknown learner kind {learner_kind!r}")
    h0 = np.zeros(game.m) if h0 is None else as_weights(h0, game.m, "h0")
    if schedule.dim not in (None, game.n):
        raise DimensionMismatchError(
            f"schedule strategies have dimension {schedule.dim}, game has {game.n} rows"
        )
    if learner_kind == REPLICATOR:
        if schedule.mode != "continuous":
            raise PreconditionError("replicator dynamics needs a continuous schedule")
        if not eta > 0:
            raise InputError("eta must be positive")
        return _simulate_replicator(game, schedule, eta, h0)
    if schedule.mode != "discrete":
        raise PreconditionError(f"{learner_kind} needs a discrete schedule")
    if learner_kind == MWU and not eta > 0:
        raise InputError("eta must be positive")
    return _simulate_discrete(game, schedule, learner_kind, eta, h0)
