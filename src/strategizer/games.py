"""Matrix-game fundamentals: payoffs, simplex strategies, game values via LP,
best-response sets, and minmax-strategy structure analysis.

Conventions: the optimizer is the row player (n actions), the learner the
column player (m actions). A is the optimizer's utility matrix, B the
learner's. Zero-sum means B = -A exactly. All indices are 0-based in code;
file formats and labels are 1-based (see fileio).
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import os
import sys
from dataclasses import dataclass, field
from itertools import combinations
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatchError, InputError, PreconditionError


def _scipy_extension(name: str):
    """The compiled scipy module `name`, loaded without the package __init__s above it.

    Importing scipy.optimize or scipy.linalg pulls in most of scipy, about
    0.5 s of a cold start; the extension module alone takes milliseconds. So
    scipy itself is imported (its __init__ is cheap and readies the bundled
    libraries), and `name` is loaded from its file under the scipy directory
    and registered in sys.modules as `name`: a module already there is
    reused, and a later `import a.b.c as m` or `from a.b import c` gets this
    same object (the parent package, imported later, gets no attribute for
    it). Without such a file, or if it fails to load, `name` is imported the
    ordinary way.
    """
    if name not in sys.modules:
        import scipy

        stem = os.path.join(scipy.__path__[0], *name.split(".")[1:])
        for path in (stem + suffix for suffix in importlib.machinery.EXTENSION_SUFFIXES):
            if os.path.isfile(path):
                loader = importlib.machinery.ExtensionFileLoader(name, path)
                spec = importlib.util.spec_from_loader(name, loader)
                sys.modules[name] = module = importlib.util.module_from_spec(spec)
                try:
                    loader.exec_module(module)
                except ImportError:
                    del sys.modules[name]
                break
    return importlib.import_module(name)


_highs = _scipy_extension("scipy.optimize._highspy._core")  # private: scipy >= 1.15

DEFAULT_TOL = 1e-7
_NUMBERS = (int, float, np.integer, np.floating)  # what _floats reads as a number, bool aside

# unique-equilibrium certificate (_unique_support): the first-order margin
# per unit of 1 + max|A|, and the constant C of its product test
_CERT_MARGIN = 1e-6
_CERT_FACTOR = 100.0

# feasibility tolerance of the follow-up LPs, which pin columns at the float
# value from game_value; slightly looser than the value LP's 1e-10, it
# absorbs that value's own LP noise without hurting the margin test (tol is
# 1e-7)
_LP_TOL_PINNED = 1e-9


def _highs_options(tol: float):
    """The options scipy.optimize.linprog(method="highs") passes HiGHS."""
    opts = _highs.HighsOptions()
    opts.presolve = "on"
    opts.highs_debug_level = 0
    opts.output_flag = opts.log_to_console = False
    opts.simplex_strategy = 1  # dual simplex
    opts.primal_feasibility_tolerance = opts.dual_feasibility_tolerance = tol
    return opts


_LP_OPTS = _highs_options(1e-10)
_LP_OPTS_PINNED = _highs_options(_LP_TOL_PINNED)
_LP_CHECK_TOL = 10 * np.sqrt(1e-9)  # scipy's check of an optimal answer
# HiGHS model statuses scipy.optimize.linprog reports as status 2
_INFEASIBLE = (_highs.HighsModelStatus.kInfeasible, _highs.HighsModelStatus.kModelError)


class _LPResult(NamedTuple):
    success: bool
    status: int  # 0 success, 2 infeasible or rejected by HiGHS, 4 otherwise
    message: str
    x: np.ndarray | None  # None, like duals, when HiGHS found no optimum
    duals: np.ndarray | None  # row duals of the a_ub rows


_solver = None  # the one HiGHS object, made by the first linprog call


def linprog(c, a_ub, b_ub, a_eq, b_eq, lower, upper, options) -> _LPResult:
    """min c'x subject to a_ub x <= b_ub, a_eq x = b_eq, lower <= x <= upper.

    The dense LP goes to HiGHS as scipy.optimize.linprog(method="highs")
    gives it: one column-wise matrix of the stacked [a_ub; a_eq] rows with
    exact zeros dropped, row bounds [-inf, b_ub] and [b_eq, b_eq], and
    `options` from _highs_options. All calls share one HiGHS object, made by
    the first; it is cleared and given the options again before each model,
    so x and the duals are scipy's bit for bit whatever ran before
    (tests/test_games.py). linprog is not reentrant; the library runs no
    threads. As in scipy, an optimal answer succeeds only if x is within its
    bounds, the a_ub slack is at least -_LP_CHECK_TOL and the a_eq residual
    at most _LP_CHECK_TOL; otherwise the status is 4.
    """
    global _solver
    a = np.vstack([a_ub, a_eq]).T  # row j is column j of the LP
    nonzero = a != 0.0
    lp = _highs.HighsLp()
    lp.num_col_ = lp.a_matrix_.num_col_ = a.shape[0]
    lp.num_row_ = lp.a_matrix_.num_row_ = a.shape[1]
    lp.a_matrix_.format_ = _highs.MatrixFormat.kColwise
    lp.a_matrix_.start_ = np.concatenate(([0], np.cumsum(nonzero.sum(axis=1))))
    lp.a_matrix_.index_ = np.nonzero(nonzero)[1]
    lp.a_matrix_.value_ = a[nonzero]
    lp.col_cost_, lp.col_lower_, lp.col_upper_ = c, lower, upper
    lp.row_lower_ = np.concatenate((np.full(len(b_ub), -_highs.kHighsInf), b_eq))
    lp.row_upper_ = np.concatenate((b_ub, b_eq))
    if _solver is None:
        _solver = _highs._Highs()
    highs = _solver
    highs.clearModel()
    highs.clearSolver()
    highs.passOptions(options)
    rejected = highs.passModel(lp) == _highs.HighsStatus.kError
    failed = rejected or highs.run() == _highs.HighsStatus.kError
    status = _highs.HighsModelStatus.kModelError if rejected else highs.getModelStatus()
    message = f"HiGHS status {int(status)}: {highs.modelStatusToString(status)}"
    if failed or status != _highs.HighsModelStatus.kOptimal:
        return _LPResult(False, 2 if status in _INFEASIBLE else 4, message, None, None)
    solution = highs.getSolution()
    x, rows, k = np.array(solution.col_value), np.array(solution.row_value), len(b_ub)
    ok = bool((x >= lower - _LP_CHECK_TOL).all() and (x <= upper + _LP_CHECK_TOL).all()
              and (b_ub - rows[:k] >= -_LP_CHECK_TOL).all()
              and (np.abs(b_eq - rows[k:]) <= _LP_CHECK_TOL).all())
    if not ok:
        message += f", but x misses the constraints by more than {_LP_CHECK_TOL:.2E}"
    return _LPResult(ok, 0 if ok else 4, message, x, np.array(solution.row_dual)[:k])


def _floats(values, error: type, what: str, copy: bool = False, ndmin: int = 0) -> np.ndarray:
    """values as a float array (new if copy, of at least ndmin dimensions) by the one rule
    of what a number is: a Python or numpy int or float. A string, boolean, None or other
    object at any depth, or rows of unequal shapes, raise error("<what>: <why>"); an int too
    large for a float becomes inf. Types are checked as one set, not value by value."""
    if isinstance(values, np.ndarray) and values.dtype.kind in "iuf":
        return np.array(values, dtype=float, copy=copy or None, ndmin=ndmin)
    try:
        cells = np.array(values, dtype=object, ndmin=ndmin)
        kinds = [t for t in set(map(type, cells.flat)) if t is bool or not issubclass(t, _NUMBERS)]
        if not kinds:
            return cells.astype(float)
        np.asarray(cells.tolist(), dtype=float)  # numpy's own words for ragged rows and words
    except (TypeError, ValueError) as exc:  # also arrays of shapes numpy cannot stack
        raise error(f"{what}: {exc}") from None
    except OverflowError:  # an int too large for a float: inf, if every value is a number
        if not kinds:
            return np.where(abs(cells) <= sys.float_info.max, cells, np.inf).astype(float)
    bad = next(v for v in cells.flat if type(v) in kinds)
    raise error(f"{what}: {bad!r} is not a number")


def as_matrix(a) -> np.ndarray:
    """Validate and return a finite 2-D float payoff matrix."""
    m = _floats(a, InputError, "payoff matrix is not a table of numbers")
    if m.ndim != 2 or m.size == 0:
        raise InputError(f"payoff matrix must be 2-D and non-empty, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise InputError("payoff matrix contains non-finite entries")
    return m


def as_simplex(values) -> np.ndarray:
    """Probability weights along the last axis, validated and read-only.

    Works on one strategy of shape (n,) or a stack of shape (..., n) in one
    pass. Weights must be finite; negatives down to -1e-9 are clipped to 0,
    every vector needs at least one weight and a positive sum, and each is
    divided by its sum. A vector whose sum overflows is divided by its largest
    weight first. Returns a new read-only float array.
    """
    what = "strategy is not an array of numbers"
    w = _floats(values, DimensionMismatchError, what, copy=True, ndmin=1)
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
    sums = w.sum(axis=-1)
    if sums.min(initial=np.inf) <= 0.0:
        raise InputError("strategy weights sum to zero")
    w /= sums[..., None]
    w.flags.writeable = False
    return w


def as_weights(x, dim: int, what: str) -> np.ndarray:
    """x as a finite float vector of length dim; errors name it `what`."""
    w = _floats(x, DimensionMismatchError, f"{what} is not a vector of numbers")
    if w.shape != (dim,):
        size = w.size if w.ndim == 1 else f"shape {w.shape}"
        raise DimensionMismatchError(f"{what} has dimension {size}, expected {dim}")
    if not np.all(np.isfinite(w)):
        raise InputError(f"{what} has non-finite entries")
    return w


@dataclass(frozen=True, eq=False)
class BimatrixGame:
    """A two-player matrix game (optimizer utility A, learner utility B).

    Both matrices are validated and made read-only at construction.
    ``zero_sum`` is read off the payoffs: True exactly when B = -A entrywise.
    """

    a: np.ndarray
    b: np.ndarray
    zero_sum: bool = field(init=False)

    def __post_init__(self):
        a = as_matrix(self.a)
        b = as_matrix(self.b)
        if a.shape != b.shape:
            raise DimensionMismatchError(
                f"utility matrices disagree: A is {a.shape}, B is {b.shape}"
            )
        a.flags.writeable = False
        b.flags.writeable = False
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "zero_sum", bool(np.all(a == -b)))

    @classmethod
    def from_zero_sum(cls, a) -> "BimatrixGame":
        a = as_matrix(a)
        return cls(a, -a)

    @property
    def n(self) -> int:
        return self.a.shape[0]

    @property
    def m(self) -> int:
        return self.a.shape[1]

    def __repr__(self):
        kind = "zero-sum" if self.zero_sum else "general-sum"
        return f"BimatrixGame({self.n}x{self.m}, {kind})"


@dataclass(frozen=True, eq=False)
class GameValueResult:
    """Minmax value with bracketing strategy certificates, for the game `a`.

    min_j optimizer_strategy' A e_j and max_i e_i' A learner_strategy bracket
    the value within certificate_gap. `a` is a read-only C-ordered copy of
    the validated payoff matrix, so the searches need only this analysis.
    """

    value: float
    optimizer_strategy: np.ndarray
    learner_strategy: np.ndarray
    certificate_gap: float
    a: np.ndarray

    @functools.cached_property
    def support(self) -> tuple[int, ...] | None:
        """The learner's support if _unique_support certifies it, else None; run once, on first use."""
        return _unique_support(self)


@dataclass(frozen=True, eq=False)
class AssumptionWitness:
    """Witness that two best responses differ on the support of a minmax x."""

    x: np.ndarray
    i1: int
    i2: int
    k_action: int


def _minmax_lp(a: np.ndarray, value: float | None = None, tight: tuple[int, ...] = (),
               rows=None):
    """The one minmax LP: variables (x, t) with x on the simplex.

    Columns in `tight` are pinned at x'Ae_j = value and every other column
    must satisfy x'Ae_j >= value + t. By default the margin t is maximized:
    with value None (read as 0) t is free, so the optimum is Val(A) itself;
    given a value, t >= 0, and t = 0 when no column is left unpinned. Given
    `rows`, t is fixed at 0 and the mass of x on those rows is maximized.
    Returns the result of the lean HiGHS solve `linprog`.
    """
    n, m = a.shape
    rest = [j for j in range(m) if j not in tight]
    c = np.zeros(n + 1)
    if rows is None:
        c[-1] = -1.0
    else:
        c[rows] = -1.0
    lower, upper = np.zeros(n + 1), np.full(n + 1, np.inf)
    if value is None:
        value, lower[-1], opts = 0.0, -np.inf, _LP_OPTS
    else:
        upper[-1] = np.inf if rest and rows is None else 0.0
        opts = _LP_OPTS_PINNED
    a_eq = np.zeros((1 + len(tight), n + 1))
    a_eq[0, :n] = 1.0
    a_eq[1:, :n] = a[:, list(tight)].T
    b_eq = np.array([1.0] + [value] * len(tight))
    a_ub = np.hstack([-a[:, rest].T, np.ones((len(rest), 1))])
    return linprog(c, a_ub, np.full(len(rest), -value), a_eq, b_eq, lower, upper, opts)


def _lp_strategy(w) -> np.ndarray:
    """An LP's strategy weights mapped onto the simplex.

    HiGHS, through `linprog`, may return a basic variable below its bound 0
    by more than its feasibility tolerance (-1.5e-9 was seen on a pinned LP
    at 1e-9; the post-check allows 10*sqrt(1e-9)), which
    as_simplex would reject as bad input. Negatives are clipped to 0 and the
    rest renormalized; on weights as_simplex accepts this is as_simplex.
    """
    return as_simplex(np.maximum(w, 0.0))


def game_value(a) -> GameValueResult:
    """Solve Val(A) = max_x min_y x'Ay = min_y max_x x'Ay by linear programming.

    One LP gives both strategies: the optimizer's from its primal solution,
    the learner's from the duals of the column constraints.
    """
    a = as_matrix(a).copy(order="C")  # one layout, so x @ a sums alike and a game has one answer
    a.flags.writeable = False
    n = a.shape[0]
    res = _minmax_lp(a)
    if not res.success:  # feasible and bounded, so only payoffs HiGHS cannot take
        raise InputError(f"minmax LP rejected the payoffs: {res.message}")
    x = _lp_strategy(res.x[:n])
    y = _lp_strategy(-res.duals)
    lo = float(np.min(x @ a))
    hi = float(np.max(a @ y))
    return GameValueResult(
        value=0.5 * (lo + hi),
        optimizer_strategy=x,
        learner_strategy=y,
        certificate_gap=hi - lo,
        a=a,
    )


def best_response_set(x, game: BimatrixGame, tol: float = DEFAULT_TOL) -> set[int]:
    """Column indices within tol of the learner's best payoff against x.

    Defined as the argmax of x'B; for zero-sum games this equals the argmin
    of x'A because B = -A.
    """
    if not tol >= 0:  # also NaN, which would select no column
        raise InputError("tol must be non-negative")
    xw = as_weights(x, game.n, "optimizer strategy")
    scores = xw @ game.b
    return set(np.flatnonzero(scores >= scores.max() - tol).tolist())


def _unique_support(gv: GameValueResult) -> tuple[int, ...] | None:
    """Support S of gv's learner strategy when gv's strategies are the game's
    only equilibrium, else None; GameValueResult.support calls it.

    With R and S the supports of gv's strategies x and y, the Shapley-Snow
    kernel argument makes x the only minmax strategy, with best responses
    exactly S, when |R| = |S|, the bordered kernel
    K = [[A[R,S]', -1], [1', 0]] is nonsingular, every column off S pays
    more than the value at x (slack sigma_j) and every row off R pays less
    against y (slack r_i). A minmax x' has x''Ay = value, so it puts no mass
    off R and holds every column of S at the value, and K (x'_R, value) =
    (0, 1) has the one solution (x_R, value).

    Both searches read their answer off gv's x on a certified game, and that
    x is itself an LP answer, minmax only up to noise of about
    (delta + gap)*(1 + max|A|), delta the pinned LPs' tolerance. So the
    certificate also needs two margins, which make gv's x stand for any point
    such an LP may return. The identity sum_j y_j (x'Ae_j - value) =
    x'Ay - value at such a point x bounds the mass on a row off R by
    noise/r_i and the excess of a column of S by noise/y_j. Through K^-1 that
    moves a column's payoff by at most about cond(K)*(1 + max|A|)*noise/rho,
    rho = min(r_i, y_j), so no column off S comes near the value when
        min sigma * rho > C * cond(K) * (1 + max|A|)**2 * (delta + gap),
    with cond(K) in the 1-norm and C = _CERT_FACTOR covering the norm and
    dimension factors. HiGHS uses that room: at delta = 1e-9 it put 1.8e-5
    of mass on a row of slack 1.17e-5. The first-order test
    sigma_j, r_i > _CERT_MARGIN*(1 + max|A|) holds every column off S and
    every row off R well clear of the value at that noise, and keeps the
    product test off a zero slack. An x below the value by more than
    DEFAULT_TOL at some column gets no certificate either.
    """
    a, x, y = gv.a, gv.optimizer_strategy, gv.learner_strategy
    rows, cols = np.flatnonzero(x > 0.0), np.flatnonzero(y > 0.0)
    k = cols.size
    if rows.size != k:
        return None
    kernel = np.zeros((k + 1, k + 1))
    kernel[:k, :k] = a[np.ix_(rows, cols)].T
    kernel[:k, k] = -1.0
    kernel[k, :k] = 1.0
    cond = np.linalg.cond(kernel, 1)  # inf when K is singular
    scale = 1.0 + np.max(np.abs(a))
    delta = _LP_TOL_PINNED
    gap = gv.certificate_gap
    col_slack = np.delete(x @ a - gv.value, cols).min(initial=np.inf)
    row_slack = np.delete(gv.value - a @ y, rows).min(initial=np.inf)
    if (np.isfinite(cond) and min(col_slack, row_slack) > _CERT_MARGIN * scale
            and col_slack * min(row_slack, y[cols].min()) > _CERT_FACTOR * cond * scale**2 * (delta + gap)
            and np.min(x @ a) >= gv.value - DEFAULT_TOL):
        return tuple(cols.tolist())
    return None


def min_br_minmax(gv: GameValueResult) -> tuple[np.ndarray, int]:
    """Minmax strategy with the fewest best responses, and that count k.

    Takes the game's analysis gv from game_value. When gv.support is set,
    gv's x is the only minmax strategy and its best responses are exactly
    that support, so x and the support's size are returned and no LP is
    solved. Otherwise a set S of columns, pinned at the value in the
    max-margin LP, grows by one column per LP until S is non-empty and its
    LP succeeds with every column pinned or the rest held more than
    tol = DEFAULT_TOL above the value; that LP's x and |S| are returned. A
    call solves at most m - |F| + 1 LPs, F the forced set below.

    S starts as the forced set F. For a minmax x with column j unpinned at
    margin t, x'Ay >= value + t*y_j (y gv's learner strategy), while
    x'Ay <= value + gap/2 (gap the certificate gap). Widened by the pinned
    LP's tolerance delta, a column with y_j*tol > gap/2 + delta*(1 + max|A|)
    never carries a margin above tol, so it is in every accepted S. At a
    margin t* <= tol, LP duality gives weights w >= 0 on the unpinned
    columns (the row duals, scaled to sum to 1) with
    sum_j w_j (x'Ae_j - value) <= t* on all of S's pinned face: no minmax x
    holds all of supp(w) above tol. The heaviest column (the first on ties)
    is pinned next; with tol 0 in exact arithmetic every column of supp(w)
    is tight at every minmax x, so k is exact. A failed LP, or all weights
    zero, raises PreconditionError.
    """
    if gv.support is not None:
        return gv.optimizer_strategy, len(gv.support)
    a = gv.a
    n, m = a.shape
    slack = 0.5 * gv.certificate_gap + _LP_TOL_PINNED * (1.0 + np.max(np.abs(a)))
    tight, column = np.flatnonzero(gv.learner_strategy * DEFAULT_TOL > slack).tolist(), None
    while (res := _minmax_lp(a, gv.value, tuple(tight))).success:
        if tight and (len(tight) == m or res.x[-1] > DEFAULT_TOL):
            return _lp_strategy(res.x[:n]), len(tight)
        weights = np.abs(res.duals)
        column = [j for j in range(m) if j not in tight][int(np.argmax(weights))]
        if weights.max() == 0.0:
            break
        tight = sorted(tight + [column])
    where = "a forced column" if column is None else f"column {column + 1}"
    raise PreconditionError(f"no exact best-response set: {where} can neither be pinned at the "
                            f"value nor held more than {DEFAULT_TOL:g} above it")


def check_assumption_no_pure(gv: GameValueResult) -> AssumptionWitness | None:
    """Search for a minmax x with two best responses differing on support(x).

    Takes the game's analysis gv from game_value. For every column pair
    (i1, i2) and the rows where their payoffs differ by more than
    DEFAULT_TOL, the minmax LP pins both columns at the value and puts as
    much mass as possible on those rows. Positive mass yields a witness once
    the LP's x, mapped onto the simplex, is minmax with i1 and i2 at the
    value, all within DEFAULT_TOL; exhausting all pairs proves none exists.
    When gv.support is set, gv's strategies are the only equilibrium and
    every pair LP could only return gv's x, so no LP is solved: the pairs
    inside the support are tried in the same order with x = gv's x, its mass
    on the rows and the same test.
    """
    a, support = gv.a, gv.support
    n, m = a.shape
    for i1, i2 in combinations(range(m) if support is None else support, 2):
        rows = np.flatnonzero(np.abs(a[:, i1] - a[:, i2]) > DEFAULT_TOL)
        if rows.size == 0:
            continue
        if support is None:
            res = _minmax_lp(a, gv.value, (i1, i2), rows)
            if not res.success:
                continue
            x, mass = _lp_strategy(res.x[:n]), res.x[rows]
        else:
            x = gv.optimizer_strategy
            mass = x[rows]
        if mass.sum() > DEFAULT_TOL:
            pays = x @ a - gv.value
            if pays.min() >= -DEFAULT_TOL and max(pays[i1], pays[i2]) <= DEFAULT_TOL:
                return AssumptionWitness(x=x, i1=i1, i2=i2, k_action=int(rows[np.argmax(mass)]))
    return None


# --- example games -----------------------------------------------------------

def matching_pennies() -> np.ndarray:
    """Optimizer utility of matching pennies: value 0, unique minmax (1/2, 1/2)."""
    return np.array([[1.0, -1.0], [-1.0, 1.0]])


def unique_br_game(n: int) -> np.ndarray:
    """(n+2) x (n+3) zero-sum game with value 1 and many minmax strategies.

    Mixing the first n rows uniformly leaves n+1 best responses, while mixing
    rows n-1 and n (0-based) half-half leaves a single best response (the
    all-ones last column), which is what makes the game useful for studying
    the ln(m/k) surplus. Requires n >= 3 for the single-best-response claim.
    """
    if n < 3:
        raise InputError("unique_br_game needs n >= 3")
    a = np.zeros((n + 2, n + 3))
    a[:n, :n] = n * np.eye(n)
    a[:n, n] = n
    a[:n, n + 1] = n
    a[n:, :n] = n
    a[n, n] = 2.0
    a[n + 1, n + 1] = 2.0
    a[:, n + 2] = 1.0
    return a
