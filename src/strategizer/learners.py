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

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapExceededError, DimensionMismatchError, InputError, PreconditionError
from .games import BimatrixGame, as_simplex, as_weights

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
    rows = z.reshape(-1, z.shape[-1])
    if len(rows) == 1:
        p = z - z.max(axis=-1, keepdims=True)
    else:  # on many short rows numpy's argmax is several times faster than its max
        p = z - rows[np.arange(len(rows)), rows.argmax(axis=-1)].reshape(z.shape[:-1] + (1,))
    np.exp(p, out=p)
    p /= p.sum(axis=-1, keepdims=True)
    return p


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def lse(z: np.ndarray) -> np.ndarray:
    """log(sum(exp(z))) over the last axis, with scipy.special.logsumexp's
    arithmetic in its order, so both give the same bits.

    Every maximal term is taken out of the sum, the rest is shifted by the
    maximum, summed and divided by the number of maximal terms, and the
    result is log1p(s) + log(count) + max. Where that is not finite (an
    infinite or NaN z), log(sum(exp(z))) is returned instead, as scipy does.
    """
    z = np.asarray(z, dtype=float)
    top = z.max(axis=-1, keepdims=True)
    is_top = z == top
    count = is_top.sum(axis=-1, keepdims=True, dtype=float)
    s = np.exp(np.where(is_top, -np.inf, z) - top).sum(axis=-1, keepdims=True) / count
    out = (np.log1p(s) + np.log(count) + top)[..., 0]
    if not np.isfinite(out).all():
        out = np.where(np.isfinite(out), out, np.log(np.exp(z).sum(axis=-1)))
    return out


def respond(kind: str, h, eta: float = 1.0) -> np.ndarray:
    """The learner's play from cumulative rewards h of shape (..., m).

    MWU and replicator play softmax(eta * h); best response plays the one-hot
    lexicographically-first argmax of h (exact float comparison, eta unused).
    Any other kind raises InputError.
    """
    h = np.asarray(h, dtype=float)
    if kind == BEST_RESPONSE:
        return (np.arange(h.shape[-1]) == h.argmax(axis=-1)[..., None]).astype(float)
    if kind not in LEARNER_KINDS:
        raise InputError(f"unknown learner kind {kind!r}")
    return softmax(eta * h)


def _schedule_arrays(lengths, strategies):
    """A schedule's lengths and strategies as float arrays of shapes (S,) and (S, n).
    Lengths None stand for one round per leading entry of strategies."""
    try:
        lengths = None if lengths is None else np.array(lengths, dtype=float)
        x = np.asarray(strategies, dtype=float)
    except (TypeError, ValueError) as exc:  # ragged rows land here too
        raise DimensionMismatchError(f"bad schedule row dimension or number: {exc}") from exc
    if lengths is None:
        lengths = np.ones(x.shape[:1])
    if x.ndim == 1 and x.size == 0:
        x = x.reshape(0, 0)
    if x.ndim != 2 or lengths.shape != x.shape[:1]:
        raise InputError(
            "a schedule needs lengths of shape (S,) and strategies of shape (S, n), "
            f"got {lengths.shape} and {x.shape}"
        )
    return lengths, x


@dataclass(frozen=True, eq=False)
class Schedule:
    """The optimizer's plan: piecewise-constant strategies over S segments.

    ``lengths`` has shape (S,) and ``strategies`` shape (S, n); segment s
    plays strategies[s] for lengths[s]. Discrete mode: lengths are positive
    integer round counts totalling below 2**63. Continuous mode: positive
    finite durations with a finite total. All strategy rows go through
    games.as_simplex in one pass. ``total``, the sum of the lengths, is
    computed once here.
    """

    mode: str
    lengths: np.ndarray
    strategies: np.ndarray

    def __post_init__(self):
        if self.mode not in ("discrete", "continuous"):
            raise InputError(f"schedule mode must be discrete or continuous, got {self.mode!r}")
        lengths, x = _schedule_arrays(self.lengths, self.strategies)
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
        self._set(self.mode, lengths, x, total)

    def _set(self, mode, lengths, x, total) -> "Schedule":
        lengths.flags.writeable = False
        object.__setattr__(self, "mode", mode)
        object.__setattr__(self, "lengths", lengths)
        object.__setattr__(self, "strategies", as_simplex(x))
        object.__setattr__(self, "total", total)
        return self

    @classmethod
    def constant(cls, strategy, total, mode: str = "discrete") -> "Schedule":
        """One segment playing strategy for total; no segment when total is 0.

        The strategy is checked either way; with total 0 that takes a second
        construction, kept off the nonzero path.
        """
        if total:
            return cls(mode, [total], [strategy])
        cls(mode, [1], [strategy])
        return cls(mode, [], [])

    @classmethod
    def from_rounds(cls, strategies) -> "Schedule":
        """One-round segments from a (T, n) array of per-round strategies.
        Only the strategies are checked, not the all-ones lengths made for them."""
        lengths, x = _schedule_arrays(None, strategies)
        rounds = np.ones(lengths.size, dtype=np.int64)
        return cls.__new__(cls)._set("discrete", rounds, x, rounds.size)

    @property
    def dim(self) -> int | None:
        return self.strategies.shape[1] if self.lengths.size else None

    def round_strategies(self) -> np.ndarray:
        """Expand a discrete schedule to a (T, n) array of per-round strategies.

        Raises CapExceededError when T exceeds MAX_ROUNDS. A schedule of
        one-round segments returns its own read-only strategies.
        """
        if self.mode != "discrete":
            raise PreconditionError("round_strategies requires a discrete schedule")
        if self.total > MAX_ROUNDS:
            raise CapExceededError(
                f"schedule has {self.total} rounds, more than the {MAX_ROUNDS} a play-out expands"
            )
        if self.total == self.lengths.size:
            return self.strategies
        return np.repeat(self.strategies, self.lengths, axis=0)

    def time_average(self) -> np.ndarray:
        """The schedule's time-average strategy (1/T) * integral of x(s) ds."""
        if not self.lengths.size:
            raise PreconditionError("cannot average an empty schedule")
        return self.lengths @ self.strategies / self.total


@dataclass(frozen=True, eq=False)
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


def _simulate_discrete(game, x, learner_kind, eta, h0):
    """MWU or best response from history h0 against rounds x of shape (..., T, n):
    the learner's strategies y, the rewards r_opt and r_lrn, and h_after."""
    increments = x @ game.b  # row t is B' x(t)
    h = np.empty(increments.shape[:-2] + (increments.shape[-2] + 1, game.m))
    h[..., 0, :] = h0  # row t is the history after round t
    h_after = np.add.accumulate(increments, axis=-2, out=h[..., 1:, :])
    h_after += h0
    y = respond(learner_kind, h[..., :-1, :], eta)
    r_lrn = np.einsum("...tj,...tj->...t", increments, y)
    r_opt = -r_lrn if game.zero_sum else np.einsum("...tj,...tj->...t", x @ game.a, y)
    r_opt += 0.0  # -0.0 becomes 0.0: no reward is written as -0
    r_lrn += 0.0
    return y, r_opt, r_lrn, h_after


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
    CapExceededError. Segments are cut in chunks of at most _QUAD_BATCH
    action pairs (at least one segment), and pieces go to QK21 in batches of
    at most _QUAD_BATCH integrand values.
    """
    rows, m = h.shape
    if not rows:
        return np.zeros(0)
    pairs = np.triu_indices(m, 1)
    chunk = max(1, _QUAD_BATCH // max(1, pairs[0].size))
    seg, lo, hi = [], [], []
    for s in range(0, rows, chunk):
        cut = _cut_pieces(c[s:s + chunk], h[s:s + chunk], d[s:s + chunk], dur[s:s + chunk], eta, pairs)
        seg.append(cut[0] + s)
        lo.append(cut[1])
        hi.append(cut[2])
    seg, lo, hi = np.concatenate(seg), np.concatenate(lo), np.concatenate(hi)
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
            raise CapExceededError(
                f"segment {int(np.argmax(bisections)) + 1}: the optimizer's reward integral needs "
                f"more than {_MAX_BISECTIONS} bisections to reach tolerance {_EPS_REL:g}"
            )
        mid = 0.5 * (lo + hi)
        seg, lo, hi = np.tile(seg, 2), np.concatenate([lo, mid]), np.concatenate([mid, hi])
    return total


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


def _simulate_replicator(game, xs, durations, eta, h0):
    """Replicator dynamics from history h0 over segments xs of the given durations:
    (y, r_opt, r_lrn, h_after), one row per segment, with exact segment rewards.

    The learner's segment reward is the log-partition increment
    [lse(eta*h(end)) - lse(eta*h(start))]/eta for any game. The optimizer's
    reward equals minus that in zero-sum games. In general-sum games it is
    the integral of (A'x_s) . softmax(eta*(h_s + u*B'x_s)) over the segment,
    which `_integrate_segments` computes for all segments at once with
    QUADPACK's G10-K21 rule, seeded at the crossing times of h and bisected
    to quad's default tolerance.
    """
    drifts = xs @ game.b  # row s is B' x_s
    h = np.cumsum(np.vstack([h0, durations[:, None] * drifts]), axis=0)
    h_start, h_after = h[:-1], h[1:]
    scaled = eta * h
    if not np.isfinite(scaled).all():  # before the integration, which would bisect NaN
        raise InputError("eta times the learner's history overflows")
    r_lrn = (lse(scaled[1:]) - lse(scaled[:-1])) / eta
    if game.zero_sum:
        r_opt = -r_lrn
    else:
        r_opt = _integrate_segments(xs @ game.a, h_start, drifts, durations, eta)
    r_opt, r_lrn = r_opt + 0.0, r_lrn + 0.0  # -0.0 becomes 0.0: no reward is written as -0
    return respond(REPLICATOR, h_start, eta), r_opt, r_lrn, h_after


@np.errstate(over="ignore", invalid="ignore")  # overflow is checked before returning
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
    if not math.isfinite(eta):
        raise InputError(f"eta must be finite, got {eta:g}")
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
    elif schedule.mode != "discrete":
        raise PreconditionError(f"{learner_kind} needs a discrete schedule")
    elif learner_kind == MWU and not eta > 0:
        raise InputError("eta must be positive")
    if learner_kind == REPLICATOR:
        x, t = schedule.strategies.reshape(-1, game.n), np.cumsum(schedule.lengths)
        y, r_opt, r_lrn, h_after = _simulate_replicator(game, x, schedule.lengths, eta, h0)
    else:
        x = schedule.round_strategies().reshape(-1, game.n)  # (0, n) when empty
        t = np.arange(1, x.shape[0] + 1)
        y, r_opt, r_lrn, h_after = _simulate_discrete(game, x, learner_kind, eta, h0)
    totals = (float(r_opt.sum()), float(r_lrn.sum()))
    if not all(map(math.isfinite, totals)):
        raise InputError("eta times the learner's history overflows")
    return Trajectory(schedule.mode, t, x, y, r_opt, r_lrn, h_after, totals)
