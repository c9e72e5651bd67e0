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

# QUADPACK's 21-point Gauss-Kronrod rule QK21 on [-1, 1] (Piessens et al.,
# 1983): Kronrod nodes from the right end down to the centre, their weights,
# and the weights of the embedded 10-point Gauss rule on nodes _XGK[1::2].
_XGK = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0,
])
_WGK = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077208980222223, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
])
_WG = np.array([
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
])

# The same rule on all 21 nodes, left to right.
_NODES = np.concatenate([-_XGK[:10], _XGK[::-1]])
_W_KRONROD = np.concatenate([_WGK[:10], _WGK[::-1]])
_W_GAUSS = np.zeros(21)
_W_GAUSS[1:10:2] = _W_GAUSS[19:10:-2] = _WG

# The default tolerances of SciPy's quad: a segment's integral I is
# accepted once its error estimate is at most max(_EPS_ABS, _EPS_REL * |I|).
# A segment needing more than _MAX_BISECTIONS bisections (the subinterval
# limit the replay used to give quad) raises CapExceededError.
_EPS_ABS = _EPS_REL = 1.49e-8
_MAX_BISECTIONS = 200
# Most float64 values one batched quadrature array holds (2 MiB): segments are
# cut in chunks of at most this many action pairs, and pieces are evaluated in
# batches of at most this many integrand values.
_QUAD_BATCH = 1 << 18
# Cuts around a crossing of two learner actions, in units of its transition
# width: the crossing itself, then +-2^k out to 64 widths, beyond which the
# transition has settled to within e^-64.
_CUT_OFFSETS = np.concatenate([[0.0], 2.0 ** np.arange(7), -(2.0 ** np.arange(7))])


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


def _qk21(c, h, d, eta, lo, hi):
    """QUADPACK's QK21 on pieces lo < hi of f(u) = c . softmax(eta*(h + u*d)).

    c, h and d hold one row per piece. Returns (result, abserr) per piece,
    with QUADPACK's error estimate: the Kronrod-Gauss difference scaled by
    resasc, and never below 50 machine epsilons of the integral of |f|.
    """
    half = 0.5 * (hi - lo)
    u = (0.5 * (lo + hi))[:, None] + half[:, None] * _NODES
    y = softmax(eta * (h[:, None, :] + u[..., None] * d[:, None, :]))
    f = np.einsum("pkm,pm->pk", y, c)
    resk = f @ _W_KRONROD
    resabs = np.abs(f) @ _W_KRONROD * half
    resasc = np.abs(f - 0.5 * resk[:, None]) @ _W_KRONROD * half
    err = np.abs(resk - f @ _W_GAUSS) * half
    scaled = (resasc != 0) & (err != 0)
    ratio = np.divide(200.0 * err, resasc, out=np.zeros_like(err), where=scaled)
    err = np.where(scaled, resasc * np.minimum(1.0, ratio**1.5), err)
    eps, uflow = np.finfo(float).eps, np.finfo(float).tiny
    err = np.where(resabs > uflow / (50 * eps), np.maximum(50 * eps * resabs, err), err)
    return resk * half, err


def _integrate_segments(c, h, d, dur, eta):
    """Integrals over [0, dur_s] of c_s . softmax(eta*(h_s + u*d_s)), all rows at once.

    Each segment is first cut into pieces at the crossings of its lines
    (`_cut_pieces`). QK21 then runs on every piece in one batch, and every
    piece whose error estimate exceeds its length share of max(_EPS_ABS,
    _EPS_REL*|I|) is bisected, again in one batch, until none is left. A
    segment needing more than _MAX_BISECTIONS bisections raises
    CapExceededError. Segments are taken in chunks of at most _QUAD_BATCH
    action pairs (at least one segment), and pieces in batches of at most
    _QUAD_BATCH integrand values.
    """
    rows, m = h.shape
    pairs = np.triu_indices(m, 1)
    chunk = max(1, _QUAD_BATCH // max(1, pairs[0].size))
    parts = [
        _integrate_chunk(c[s:s + chunk], h[s:s + chunk], d[s:s + chunk], dur[s:s + chunk],
                         eta, pairs, s)
        for s in range(0, rows, chunk)
    ]
    return np.concatenate(parts) if parts else np.zeros(0)


def _cut_pieces(c, h, d, dur, eta, pairs):
    """The pieces (segment, lo, hi) that segments are cut into before QK21 runs.

    h(u) is linear, so the integrand turns sharply only where two of its lines
    cross, at u_ij = (h_j - h_i)/(d_i - d_j), over a width
    w_ij = 1/(eta*|d_i - d_j|). A crossing is cut at, and around at
    u_ij +- w_ij*2^k (_CUT_OFFSETS), when three things hold. Its width is
    below a quarter of the segment, since QK21 resolves wider transitions as
    they are. It lies within 64 widths of the segment. And it can move the
    integral: a pair crossing gap = eta*(top - level) below the top line
    holds weight at most exp(-gap) there, so its transition moves the
    integral by at most 4*|c_i - c_j|*w_ij*exp(-gap), and crossings whose
    bounds sum to under a thousandth of _EPS_ABS per segment are left uncut.
    A crossing's cuts stop at its neighbours, whose own cuts grade the rest.
    """
    rows, m = h.shape
    i, j = pairs
    sharp = np.flatnonzero(eta * np.ptp(d, axis=1) * dur > 4.0)  # rows with a narrow pair
    gaps = d[sharp][:, i] - d[sharp][:, j]
    k, p = np.nonzero(eta * np.abs(gaps) * dur[sharp, None] > 4.0)
    r = sharp[k]
    cross = (h[r, j[p]] - h[r, i[p]]) / gaps[k, p]
    width = 1.0 / (eta * np.abs(gaps[k, p]))
    near = (cross > -64.0 * width) & (cross < dur[r] + 64.0 * width)
    r, p, cross, width = r[near], p[near], cross[near], width[near]
    level = h[r, i[p]] + cross * d[r, i[p]]
    top = np.empty(r.size)
    step = max(1, _QUAD_BATCH // m)
    for k in range(0, r.size, step):
        q = slice(k, k + step)
        top[q] = np.max(h[r[q]] + cross[q, None] * d[r[q]], axis=1)
    bound = 4.0 * np.abs(c[r, i[p]] - c[r, j[p]]) * width * np.exp(-eta * (top - level))
    keep = bound * np.bincount(r, minlength=rows)[r] > 1e-3 * _EPS_ABS
    order = np.lexsort((cross[keep], r[keep]))
    r, cross, width = r[keep][order], cross[keep][order], width[keep][order]
    apart = np.where(r[1:] == r[:-1], np.diff(cross), np.inf)
    offsets = width[:, None] * _CUT_OFFSETS
    used = (offsets <= np.append(apart, np.inf)[:, None]) & (
        -offsets <= np.insert(apart, 0, np.inf)[:, None])
    owner = np.concatenate(
        [np.arange(rows), np.arange(rows), np.broadcast_to(r[:, None], used.shape)[used]])
    cuts = np.concatenate(
        [np.zeros(rows), dur, np.clip(cross[:, None] + offsets, 0.0, dur[r, None])[used]])
    order = np.lexsort((cuts, owner))
    owner, cuts = owner[order], cuts[order]
    piece = (owner[1:] == owner[:-1]) & (cuts[1:] > cuts[:-1])
    return owner[1:][piece], cuts[:-1][piece], cuts[1:][piece]


def _integrate_chunk(c, h, d, dur, eta, pairs, first):
    """`_integrate_segments` on one chunk of segments, numbered from `first`."""
    rows, m = h.shape
    seg, lo, hi = _cut_pieces(c, h, d, dur, eta, pairs)
    total = np.zeros(rows)
    bisections = np.zeros(rows, dtype=np.int64)
    batch = max(1, _QUAD_BATCH // (_NODES.size * m))
    while seg.size:
        res, err = np.empty(seg.size), np.empty(seg.size)
        for k in range(0, seg.size, batch):
            p, q = seg[k:k + batch], slice(k, k + batch)
            res[q], err[q] = _qk21(c[p], h[p], d[p], eta, lo[q], hi[q])
        estimate = np.abs(total + np.bincount(seg, res, rows))
        share = np.maximum(_EPS_ABS, _EPS_REL * estimate) / dur
        done = err <= share[seg] * (hi - lo)
        total += np.bincount(seg[done], res[done], rows)
        seg, lo, hi = seg[~done], lo[~done], hi[~done]
        bisections += np.bincount(seg, minlength=rows)
        if bisections.max(initial=0) > _MAX_BISECTIONS:
            s = int(np.argmax(bisections))
            raise CapExceededError(
                f"segment {first + s + 1}: the optimizer's reward integral needs more than "
                f"{_MAX_BISECTIONS} bisections to reach tolerance {_EPS_REL:g}"
            )
        mid = 0.5 * (lo + hi)
        seg, lo, hi = np.tile(seg, 2), np.concatenate([lo, mid]), np.concatenate([mid, hi])
    return total


def _simulate_replicator(game, schedule, eta, h0) -> Trajectory:
    """One trajectory row per segment; rewards are exact per segment.

    The learner's segment reward is the log-partition increment
    [lse(eta*h(end)) - lse(eta*h(start))]/eta for any game. The optimizer's
    reward equals minus that in zero-sum games. In general-sum games it is
    the integral of (A'x_s) . softmax(eta*(h_s + u*B'x_s)) over the segment,
    which `_integrate_segments` computes for all segments at once with
    QUADPACK's G10-K21 rule, seeded at the crossing times of h and bisected
    to quad's default tolerance.
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
        r_opt = _integrate_segments(xs @ game.a, h_start, drifts, durations, eta)
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
