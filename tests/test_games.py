import json
import math
import warnings
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from strategizer import (
    BimatrixGame,
    DimensionMismatchError,
    InputError,
    PreconditionError,
    Schedule,
    as_simplex,
    best_response_set,
    check_assumption_no_pure,
    game_value,
    min_br_minmax,
    planner_report,
    unique_br_game,
)
from strategizer import acceptance, cli, fileio, games, matching_pennies

from exact_lp import exact_k


def value_2x2(a):
    """Independent closed-form oracle for 2x2 zero-sum values.

    Returns (value, row strategy); assumes no saddle point when mixing.
    """
    a = np.asarray(a, dtype=float)
    maxmin = max(a[0].min(), a[1].min())
    minmax = min(a[:, 0].max(), a[:, 1].max())
    if maxmin == minmax:  # saddle point
        i = int(np.argmax(a.min(axis=1)))
        x = np.zeros(2)
        x[i] = 1.0
        return maxmin, x
    den = a[0, 0] + a[1, 1] - a[0, 1] - a[1, 0]
    value = (a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]) / den
    x = np.array([(a[1, 1] - a[1, 0]) / den, (a[0, 0] - a[0, 1]) / den])
    return value, x


def first_error(build, values):
    """The exception class build(values) raises (None when it returns)."""
    try:
        build(values)
    except Exception as exc:  # the exception class is the outcome compared
        return type(exc)
    return None


class TestAsSimplex:
    """One validator for one strategy and for every row of a Schedule."""

    MALFORMED = {
        "negative": [0.5, -1e-6, 0.5],
        "nan": [0.5, math.nan, 0.5],
        "inf": [0.5, math.inf, 0.5],
        "all_zero": [0.0, 0.0, 0.0],
        "empty": [],
        "ragged": [0.5, [0.25, 0.25]],
    }

    @pytest.mark.parametrize("mode", ["discrete", "continuous"])
    @pytest.mark.parametrize("name", sorted(MALFORMED))
    def test_same_error_as_schedule_row(self, name, mode):
        bad = self.MALFORMED[name]
        as_vector = first_error(as_simplex, bad)
        rows = [[0.2, 0.3, 0.5], bad, [1.0, 0.0, 0.0]]
        as_row = first_error(lambda r: Schedule(mode, [1, 2, 3], r), rows)
        assert as_vector is not None and as_row is as_vector

    @pytest.mark.parametrize("mode", ["discrete", "continuous"])
    def test_schedule_rows_are_as_simplex(self, mode, rng):
        for n in (1, 2, 3, 6, 11, 40):
            x = rng.dirichlet(np.ones(n), size=3) * rng.uniform(0.1, 10.0, size=(3, 1))
            x[rng.random(x.shape) < 0.2] = 0.0
            x[x.sum(axis=1) == 0.0, 0] = 1.0
            strategies = Schedule(mode, [1, 2, 3], x).strategies
            assert not strategies.flags.writeable
            for s in range(3):
                want = as_simplex(x[s])
                assert not want.flags.writeable
                assert strategies[s].tobytes() == want.tobytes()

    def test_renormalizes(self):
        v = as_simplex([2.0, 2.0])
        assert np.allclose(v, [0.5, 0.5])
        assert abs(v.sum() - 1.0) <= 1e-12

    def test_rejects_negative(self):
        with pytest.raises(InputError):
            as_simplex([0.5, -0.5])

    def test_clips_noise(self):
        v = as_simplex([1.0, -1e-12])
        assert v[1] == 0.0

    def test_immutable(self):
        values = np.full(3, 1 / 3)
        v = as_simplex(values)
        with pytest.raises(ValueError):
            v[0] = 2.0
        values[0] = 2.0  # a copy: the input stays the caller's
        assert v[0] == 1 / 3

    def test_pure(self):
        assert np.array_equal(as_simplex(np.eye(3)[1]), [0.0, 1.0, 0.0])

    def test_overflowing_sum(self):
        # the sum 2e308 overflows: that row is scaled by its largest weight
        # first, with no RuntimeWarning; the other row keeps its bits
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert as_simplex([1e308, 1e308]).tolist() == [0.5, 0.5]
            stack = as_simplex([[1e308, 0.0, 1e308], [0.1, 0.2, 0.3]])
        assert stack[0].tolist() == [0.5, 0.0, 0.5]
        assert stack[1].tobytes() == as_simplex([0.1, 0.2, 0.3]).tobytes()

    @pytest.mark.parametrize("values", [[-0.0, 1.0], [[1.0, -0.0, 2.0], [-0.0, -0.0, 1.0]]])
    def test_negative_zero_becomes_positive_zero(self, values):
        v = as_simplex(values)
        zeros = v[v == 0.0]
        assert zeros.size and not np.signbit(zeros).any()
        assert "-0" not in fileio.canonical_json({"strategy": v.tolist()})

    @pytest.mark.parametrize("values", [[0.25, 0.75], [0.0, 1.0], [[0.5, 0.5], [1.0, 3.0]]])
    def test_new_array_never_aliases_input(self, values):
        # strictly positive input skips the clipping pass and must still be copied
        given_array = np.array(values)
        v = as_simplex(given_array)
        assert not np.shares_memory(v, given_array)
        assert given_array.flags.writeable and np.array_equal(given_array, values)

    @pytest.mark.parametrize("values, message", [
        ([0.5, math.nan], "non-finite"),
        ([0.5, math.inf], "non-finite"),
        ([-math.inf, 1.0], "non-finite"),
        ([-1.0, math.nan], "non-finite"),
        ([[0.5, 0.5], [1.0, -1e-6]], "negative weight -1e-06"),
        ([[0.5, 0.5], [0.0, -0.0]], "sum to zero"),
        ([-1e-10, 0.0], "sum to zero"),
    ])
    def test_error_messages(self, values, message):
        with pytest.raises(InputError, match=message):
            as_simplex(values)


class TestBimatrixGame:
    def test_zero_sum_exact(self):
        g = BimatrixGame.from_zero_sum([[1.0, -1.0], [-1.0, 1.0]])
        assert g.zero_sum and np.max(np.abs(g.a + g.b)) == 0.0

    def test_zero_sum_flag_checked(self):
        # zero_sum is read off the payoffs, exactly, and cannot be passed in
        a = np.array([[1.0, -0.5], [0.25, 3.0]])
        assert BimatrixGame(a, -a).zero_sum
        off = -a
        off[1, 0] = np.nextafter(off[1, 0], np.inf)
        assert not BimatrixGame(a, off).zero_sum
        with pytest.raises(TypeError):
            BimatrixGame(a, -a, zero_sum=True)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            BimatrixGame([[1.0, 0.0]], [[1.0], [0.0]])

    def test_nonfinite_rejected(self):
        with pytest.raises(InputError):
            BimatrixGame.from_zero_sum([[np.inf, 0.0]])

    def test_immutable(self):
        g = BimatrixGame([[1.0, 0.0]], [[0.0, 2.0]])
        with pytest.raises(AttributeError):
            g.a = np.zeros((1, 2))
        with pytest.raises(ValueError):
            g.b[0, 0] = 5.0
        assert repr(g) == "BimatrixGame(1x2, general-sum)"
        assert repr(BimatrixGame.from_zero_sum([[1.0]])) == "BimatrixGame(1x1, zero-sum)"


class TestGameValue:
    def test_matching_pennies(self, mp_matrix):
        res = game_value(mp_matrix)
        assert abs(res.value) <= 1e-9
        assert np.allclose(res.optimizer_strategy, [0.5, 0.5], atol=1e-9)
        assert res.certificate_gap <= 1e-8

    def test_all_zeros(self):
        res = game_value(np.zeros((3, 5)))
        assert res.value == 0.0
        assert res.certificate_gap <= 1e-12

    def test_2x2_against_oracle(self):
        a = np.array([[2.0, 0.0], [0.0, 1.0]])
        want_v, want_x = value_2x2(a)
        res = game_value(a)
        assert abs(res.value - want_v) <= 1e-9
        assert np.allclose(res.optimizer_strategy, want_x, atol=1e-8)

    def test_random_2x2_against_oracle(self, rng):
        for _ in range(25):
            a = rng.uniform(-1, 1, size=(2, 2))
            want_v, _ = value_2x2(a)
            assert abs(game_value(a).value - want_v) <= 1e-8

    def test_duality_bracket_random(self, rng):
        for _ in range(20):
            a = rng.uniform(-1, 1, size=(rng.integers(2, 7), rng.integers(2, 7)))
            res = game_value(a)
            lo = np.min(res.optimizer_strategy @ a)
            hi = np.max(a @ res.learner_strategy)
            assert lo >= res.value - 1e-8
            assert hi <= res.value + 1e-8

    def test_against_column_player_lp(self):
        """One LP with the learner from its duals vs. the learner's own LP."""
        rng = np.random.default_rng(314)
        games = [rng.uniform(-1, 1, size=(rng.integers(2, 7), rng.integers(2, 7)))
                 for _ in range(200)]
        games += [np.zeros((3, 4)), np.ones((2, 4))]
        for a in games:
            res = game_value(a)
            assert abs(res.value - column_player_value(a)) <= 1e-9
            assert res.certificate_gap <= 1e-8
            assert np.max(a @ res.learner_strategy) <= res.value + 1e-8


def column_player_value(a):
    """min v over (y, v) with A y <= v and y on the simplex."""
    n, m = a.shape
    res = linprog(
        np.r_[np.zeros(m), 1.0], A_ub=np.hstack([a, -np.ones((n, 1))]), b_ub=np.zeros(n),
        A_eq=np.r_[np.ones(m), 0.0][None, :], b_eq=[1.0],
        bounds=[(0, None)] * m + [(None, None)], method="highs",
    )
    assert res.success
    return res.x[-1]


class TestBestResponseSet:
    def test_matching_pennies_uniform(self, mp_game):
        assert best_response_set([0.5, 0.5], mp_game) == {0, 1}

    def test_strict_argmax(self):
        game = BimatrixGame([[1.0, 0.0], [0.0, 0.0]], [[0.0, 3.0], [1.0, 0.0]])
        assert best_response_set([1.0, 0.0], game) == {1}

    def test_unique_br_example(self):
        a = unique_br_game(3)
        game = BimatrixGame.from_zero_sum(a)
        x_star = [0.0, 0.0, 0.5, 0.5, 0.0]
        assert best_response_set(x_star, game) == {5}

    def test_dimension_error_names_dim(self, mp_game):
        with pytest.raises(DimensionMismatchError, match="dimension 3"):
            best_response_set([1.0, 0.0, 0.0], mp_game)

    def test_never_empty_and_monotone_in_tol(self, rng):
        for _ in range(20):
            a = rng.uniform(-1, 1, size=(3, 4))
            game = BimatrixGame.from_zero_sum(a)
            x = rng.dirichlet(np.ones(3))
            small = best_response_set(x, game, tol=1e-9)
            big = best_response_set(x, game, tol=0.5)
            assert small and small <= big

    def test_scale_and_shift_invariance(self, rng):
        # argmax is invariant under B -> c*B + d*ones for c > 0
        for _ in range(20):
            b = rng.integers(-3, 4, size=(3, 4)).astype(float)
            a = rng.uniform(-1, 1, size=(3, 4))
            x = rng.dirichlet(np.ones(3))
            base = best_response_set(x, BimatrixGame(a, b))
            scaled = best_response_set(x, BimatrixGame(a, 2.0 * b + 5.0))
            assert base == scaled


class TestMinBrMinmax:
    def test_matching_pennies(self, mp_matrix):
        x, k = min_br_minmax(game_value(mp_matrix))
        assert k == 2
        assert np.allclose(x, [0.5, 0.5], atol=1e-8)

    def test_unique_br_example(self):
        a = unique_br_game(3)
        x, k = min_br_minmax(game_value(a))
        assert k == 1
        game = BimatrixGame.from_zero_sum(a)
        assert best_response_set(x, game) == {5}
        assert np.min(x @ a) >= game_value(a).value - 1e-8

    def test_all_zeros_k_equals_m(self):
        zeros = np.zeros((2, 4))
        _, k = min_br_minmax(game_value(zeros))
        assert k == 4

    def test_lp_bound(self, minmax_lp_calls):
        # the search starts from the forced set F and pins one column per LP,
        # so no call solves more than m - |F| + 1 LPs, refusals included
        battery = [a for kind in range(4) for a in min_br_battery(kind)] + REFUSED_GAMES[:2]
        for a in battery + near_degenerate_games(60, 8642) + small_weight_games(60, 8642):
            gv = game_value(a)
            minmax_lp_calls.clear()
            try:
                min_br_minmax(gv)
            except PreconditionError:
                pass
            assert len(minmax_lp_calls) <= a.shape[1] - forced_count(a, gv) + 1, a

    @pytest.mark.parametrize("seed, k", [(80, 9), (134, 8)])
    def test_many_tied_columns(self, seed, k, minmax_lp_calls, capsys, tmp_path):
        # 4x20 games with entries in {-1, 0, 1} that the subset enumeration
        # gave up on after 10,000 LPs (exit 4); k is the exact oracle's
        a = np.random.default_rng(seed).integers(-1, 2, (4, 20))
        gv = game_value(a.astype(float))
        minmax_lp_calls.clear()
        x, got = min_br_minmax(gv)
        assert got == exact_k(a.tolist()) == k
        assert len(minmax_lp_calls) <= 20 - forced_count(a, gv) + 1
        assert len(best_response_set(x, BimatrixGame.from_zero_sum(a))) == k
        game = tmp_path / "game.txt"
        game.write_text("\n".join(" ".join(map(str, row)) for row in a.tolist()) + "\n")
        assert cli.main(["plan", str(game), "--eta", "1", "--T", "10"]) == 0
        assert json.loads(capsys.readouterr().out)["k"] == k

    def test_many_columns_need_few_lps(self, minmax_lp_calls):
        # 25 columns were over the old 20-column cap; the certificate covers
        # the game, so gv's own x answers without a pinned LP
        a = np.random.default_rng(25).uniform(-1, 1, (3, 25))
        gv = game_value(a)
        minmax_lp_calls.clear()
        x, k = min_br_minmax(gv)
        assert len(minmax_lp_calls) == 0
        assert x.tobytes() == gv.optimizer_strategy.tobytes()
        assert np.min(x @ a) >= gv.value - 1e-8
        assert len(best_response_set(x, BimatrixGame.from_zero_sum(a))) == k

    def test_contract_on_random_games(self, rng):
        for _ in range(10):
            a = rng.uniform(-1, 1, size=(3, 4))
            x, k = min_br_minmax(game_value(a))
            game = BimatrixGame.from_zero_sum(a)
            assert np.min(x @ a) >= game_value(a).value - 1e-8
            assert len(best_response_set(x, game)) == k


def forced_count(a, gv):
    """|F|, the columns min_br_minmax pins from the start: those whose dual
    weight y_j*tol exceeds half the certificate gap plus the pinned LP's
    tolerance room."""
    slack = 0.5 * gv.certificate_gap + games._LP_TOL_PINNED * (1.0 + np.max(np.abs(a)))
    return int(np.sum(gv.learner_strategy * games.DEFAULT_TOL > slack))


def exhaustive_min_br(a, tol=games.DEFAULT_TOL):
    """Reference search: every candidate set in order, one LP each, no pruning."""
    n, m = a.shape
    value = game_value(a).value
    for size in range(1, m + 1):
        for tight in combinations(range(m), size):
            res = games._minmax_lp(a, value, tight)
            if res.success and (size == m or res.x[-1] > tol):
                return as_simplex(np.maximum(res.x[:n], 0.0)), size
    raise AssertionError("no exact-BR set")


def exhaustive_assumption(a, tol=games.DEFAULT_TOL):
    """Reference search: every column pair in order, one LP each, no pruning.
    Returns (x, i1, i2, k_action) or None."""
    n, m = a.shape
    value = game_value(a).value
    for i1, i2 in combinations(range(m), 2):
        rows = np.flatnonzero(np.abs(a[:, i1] - a[:, i2]) > tol)
        if rows.size == 0:
            continue
        res = games._minmax_lp(a, value, (i1, i2), rows)
        if res.success and res.x[rows].sum() > tol:
            x = as_simplex(np.maximum(res.x[:n], 0.0))
            pays = x @ a - value
            if pays.min() >= -tol and max(pays[i1], pays[i2]) <= tol:
                return x, i1, i2, int(rows[np.argmax(res.x[rows])])
    return None


def check_min_br(a, minmax_lp_calls):
    """min_br_minmax(a) against exhaustive_min_br(a). On a game the
    uniqueness certificate does not cover, both find the same k and x byte
    for byte, or both find no exact best-response set. On a certified game
    the search solves no LP and returns gv's own x, which must be minmax
    within 1e-8 with exactly k best responses; k is the reference's, or,
    where the reference's tol-banded search gives another k or none,
    exact_k's. Returns whether the game is certified."""
    gv = game_value(a)
    minmax_lp_calls.clear()
    try:
        x, k = min_br_minmax(gv)
    except PreconditionError:
        with pytest.raises(AssertionError, match="no exact-BR set"):
            exhaustive_min_br(a)
        return False
    lps = len(minmax_lp_calls)
    try:
        x_ref, k_ref = exhaustive_min_br(a)
    except AssertionError:
        x_ref, k_ref = None, None
    if gv.support is None:
        assert k == k_ref and x.tobytes() == x_ref.tobytes(), a
        return False
    assert lps == 0, a
    assert x.tobytes() == gv.optimizer_strategy.tobytes(), a
    assert np.min(x @ a) >= gv.value - 1e-8, a
    assert len(best_response_set(x, BimatrixGame.from_zero_sum(a))) == k, a
    if k != k_ref:
        assert k == exact_k(a.tolist()), a
    return True


def check_certified_witness(a, gv, w, tol=games.DEFAULT_TOL):
    """An assumption-1 witness checked from its definition: x on the simplex
    and minmax within tol, i1 and i2 within tol of the value, and k_action a
    row where x carries mass and the two columns differ by more than tol."""
    x = w.x
    assert x.min() >= 0.0 and abs(x.sum() - 1.0) <= 1e-12, a
    pays = x @ a - gv.value
    assert pays.min() >= -tol, a
    assert w.i1 < w.i2 and max(abs(pays[w.i1]), abs(pays[w.i2])) <= tol, a
    assert x[w.k_action] > 0.0 and abs(a[w.k_action, w.i1] - a[w.k_action, w.i2]) > tol, a


def check_witness(a, minmax_lp_calls):
    """check_assumption_no_pure(a) against exhaustive_assumption(a). On a game
    _unique_support does not certify, the witness is the reference's byte for
    byte. On a certified game the search solves no LP, reaches the
    reference's verdict, and its witness passes check_certified_witness; its
    x is gv's, which can differ from the pair LP's in the last bits (or, on
    games at the certificate's margins, by the LP's tolerance room). Returns
    whether the game is certified."""
    gv = game_value(a)
    minmax_lp_calls.clear()
    w = check_assumption_no_pure(gv)
    lps = len(minmax_lp_calls)
    certified = gv.support is not None
    ref = exhaustive_assumption(a)
    assert (w is None) == (ref is None), a
    if certified:
        assert lps == 0, a
        if w is not None:
            check_certified_witness(a, gv, w)
    elif w is not None:
        assert w.x.tobytes() == ref[0].tobytes() and (w.i1, w.i2, w.k_action) == ref[1:], a
    return certified


def min_br_battery(kind, count=200):
    """200 seeded games, n and m in 2..6, with entries U[-1,1] (kind 0), in
    {-1, 0, 1} (kind 1) or U[-1,1] rounded to one decimal (kind 2); kind 3 is
    unique_br_game(3..6), all-zeros and all-ones."""
    if kind == 3:
        return [unique_br_game(n) for n in range(3, 7)] + [np.zeros((3, 3)), np.ones((2, 4))]
    rng = np.random.default_rng(1357 + kind)
    draw = (
        lambda shape: rng.uniform(-1, 1, size=shape),
        lambda shape: rng.integers(-1, 2, size=shape).astype(float),
        lambda shape: np.round(rng.uniform(-1, 1, size=shape), 1),
    )[kind]
    return [draw(tuple(rng.integers(2, 7, size=2))) for _ in range(count)]


class TestMinBrPruning:
    @pytest.mark.parametrize("kind", range(4), ids=["uniform", "ternary", "one-decimal", "special"])
    def test_matches_exhaustive_search(self, kind, minmax_lp_calls):
        for a in min_br_battery(kind):
            check_min_br(a, minmax_lp_calls)

    def test_shortcut_keeps_k(self, minmax_lp_calls):
        # seeded games of every family the no-LP answer was checked on, at
        # seeds the other tests do not use; both paths are taken
        rng = np.random.default_rng(4242)
        families = [acceptance._random_games(rng, 40), min_br_battery(1, 40),
                    min_br_battery(2, 40), near_degenerate_games(40, 1),
                    small_weight_games(40, 1), REFUSED_GAMES[:2]]
        certified = [check_min_br(a, minmax_lp_calls) for family in families for a in family]
        assert 50 <= sum(certified) <= len(certified) - 50

    def test_generic_games_need_two_lps(self, minmax_lp_calls):
        # One value LP, then at most one pinned LP at the dual support,
        # whenever every column the learner plays carries enough dual weight
        # to be forced (above 0.02 at tol 1e-7 on these games); none when
        # the certificate covers the game.
        rng = np.random.default_rng(97)
        checked = 0
        for _ in range(20):
            a = rng.uniform(-1, 1, size=(6, 6))
            y = game_value(a).learner_strategy
            if y[y > 0].min() <= 0.05:
                continue
            minmax_lp_calls.clear()
            min_br_minmax(game_value(a))
            assert len(minmax_lp_calls) <= 2
            checked += 1
        assert checked >= 10


def near_degenerate_games(count, seed):
    """Random games with one column of slack eps at the minmax x and, on odd
    games, one row of slack eps against the learner's y, eps log-uniform in
    [1e-10, 1e-4], columns permuted. The equilibrium stays the base game's."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(count):
        a = rng.uniform(-1, 1, size=tuple(rng.integers(2, 6, size=2)))
        gv = game_value(a)
        eps = 10.0 ** rng.uniform(-10, -4)
        col = rng.uniform(-1, 1, size=a.shape[0])
        a = np.column_stack([a, col + gv.value + eps - gv.optimizer_strategy @ col])
        if i % 2:
            y = np.r_[gv.learner_strategy, 0.0]
            row = rng.uniform(-1, 1, size=a.shape[1])
            a = np.vstack([a, row + gv.value - eps - row @ y])
        out.append(a[:, rng.permutation(a.shape[1])])
    return out


def small_weight_games(count, seed):
    """Games around a k x k kernel (k in 2..5) whose unique equilibrium gives
    one column a dual weight eps, log-uniform in [1e-10, 1e-1], with 1-3 rows
    and 0-2 columns off the supports at slacks log-uniform in [1e-6, 1e-1],
    rows and columns permuted."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        k = int(rng.integers(2, 6))
        x, y = rng.dirichlet(np.ones(k)), rng.dirichlet(np.ones(k))
        y[rng.integers(k)] = 10.0 ** rng.uniform(-10, -1)
        y /= y.sum()
        value = rng.uniform(-0.5, 0.5)
        # value + P B Q with x'P = 0 and Q y = 0 pays the value on both supports
        kernel = value + (np.eye(k) - np.outer(np.ones(k), x)) @ rng.uniform(-1, 1, (k, k)) @ (
            np.eye(k) - np.outer(y, np.ones(k)))
        cols = rng.uniform(-1, 1, size=(k, int(rng.integers(0, 3))))
        cols += value + 10.0 ** rng.uniform(-6, -1, size=cols.shape[1]) - x @ cols
        a = np.column_stack([kernel, cols])
        rows = rng.uniform(-1, 1, size=(int(rng.integers(1, 4)), a.shape[1]))
        rows += (value - 10.0 ** rng.uniform(-6, -1, size=rows.shape[0]) - rows[:, :k] @ y)[:, None]
        a = np.vstack([a, rows])
        out.append(a[rng.permutation(a.shape[0])][:, rng.permutation(a.shape[1])])
    return out


def layout_answer(a):
    """Every answer of the analysis of a, in exact bytes; an exit 3 by its message."""
    gv = game_value(a)
    try:
        k = min_br_minmax(gv)[1]
    except PreconditionError as exc:
        k = str(exc)
    w = check_assumption_no_pure(gv)
    witness = None if w is None else (w.x.tobytes(), w.i1, w.i2, w.k_action)
    return (gv.value.hex(), gv.optimizer_strategy.tobytes(), gv.learner_strategy.tobytes(),
            gv.certificate_gap.hex(), k, witness)


@pytest.mark.parametrize("family", [near_degenerate_games, small_weight_games])
def test_answers_do_not_depend_on_layout(family):
    # a[:, permutation] leaves both families F-ordered, where x @ a sums in
    # another order than on a C-ordered copy; game_value analyses a C-ordered
    # copy, so both layouts get one answer
    for a in family(200, 1):
        assert a.flags.f_contiguous and not a.flags.c_contiguous
        assert layout_answer(a) == layout_answer(np.ascontiguousarray(a))


class TestUniqueSupportPruning:
    """On a game the unique-equilibrium certificate covers, the assumption
    search reads its verdict off gv's x and solves no LP; it still reaches
    the unpruned search's verdict (check_witness). The min-BR search agrees
    with its reference as before."""

    @pytest.mark.parametrize("kind", range(4), ids=["uniform", "ternary", "one-decimal", "special"])
    def test_witness_matches_unpruned_search(self, kind, minmax_lp_calls):
        for a in min_br_battery(kind, count=100):
            check_witness(a, minmax_lp_calls)

    @pytest.mark.parametrize("family", [near_degenerate_games, small_weight_games])
    def test_near_degenerate_games_match(self, family, minmax_lp_calls):
        certified = 0
        for a in family(60, 8642):
            check_min_br(a, minmax_lp_calls)
            certified += check_witness(a, minmax_lp_calls)
        assert certified >= 5  # the certificate is exercised, not only refused

    def test_lp_counts(self, minmax_lp_calls):
        # certified generic games: the verdict is read off gv's x
        rng = np.random.default_rng(531)
        for _ in range(10):
            a = rng.uniform(-1, 1, size=(5, 6))
            gv = game_value(a)
            assert gv.support is not None
            minmax_lp_calls.clear()
            check_assumption_no_pure(gv)
            assert minmax_lp_calls == []
        # a pure saddle point: no pair lies inside a one-column support
        a = rng.uniform(0.5, 1.0, size=(4, 5))
        a[1:, 2] = -rng.uniform(0.5, 1.0, size=3)
        a[0, 2] = 0.0
        gv = game_value(a)
        minmax_lp_calls.clear()
        assert check_assumption_no_pure(gv) is None
        assert minmax_lp_calls == []
        # small dual weights (0.0123, 0.0126) force only three of the five
        # support columns, which took three pinned LPs; the certificate
        # covers the game, so the min-BR search reads k off it instead
        a = np.random.default_rng(2468).uniform(-1, 1, (6, 6))
        gv = game_value(a)
        minmax_lp_calls.clear()
        _, k = min_br_minmax(gv)
        assert k == 5 and minmax_lp_calls == []

    def test_certified_k_is_exact(self):
        # on a certified game k is the size of the one minmax x's support;
        # the tol-banded search gave a smaller k or exit 3 on 8 of these
        certified = 0
        for a in small_weight_games(200, 1):
            gv = game_value(a)
            if gv.support is not None:
                assert min_br_minmax(gv)[1] == exact_k(a.tolist()), a
                certified += 1
        assert certified >= 50

    def test_one_certificate_per_analysis(self, monkeypatch, tmp_path, capsys):
        # a plan report proves uniqueness once for both searches; value and
        # simulate, whose zero-sum reward bounds read only the value, never do
        calls = []
        real = games._unique_support

        def counted(gv):
            calls.append(gv.a.shape)
            return real(gv)

        monkeypatch.setattr(games, "_unique_support", counted)
        rng = np.random.default_rng(531)
        game = tmp_path / "game.txt"
        for shape in [(2, 2), (5, 6), (4, 3)]:
            a = rng.uniform(-1, 1, size=shape)
            calls.clear()
            planner_report(a, 1.0, 10.0, 1e-6)
            assert calls == [shape]
            calls.clear()
            game.write_text("\n".join(" ".join(map(repr, row)) for row in a.tolist()) + "\n")
            assert cli.main(["value", str(game)]) == 0
            assert cli.main(["simulate", str(game), "--learner", "mwu", "--schedule", "uniform",
                             "--T", "5", "--out", str(tmp_path / "run")]) == 0
            assert "optimal continuous reward bounds" in capsys.readouterr().out
            assert calls == []

    def test_analysis_keeps_its_own_game(self):
        # the certificate runs on first use, after the caller's array changed
        a = np.random.default_rng(531).uniform(-1, 1, size=(5, 6))
        original = a.copy()
        gv = game_value(a)
        a[:] = 0.0
        assert gv.a.tobytes() == original.tobytes() and not gv.a.flags.writeable
        assert gv.support is not None
        assert gv.support == game_value(original).support


def scipy_linprog(c, a_ub, b_ub, a_eq, b_eq, lower, upper, options):
    """games.linprog's LP through scipy.optimize.linprog(method="highs"), with
    the feasibility tolerances of `options`."""
    return linprog(
        c, A_ub=a_ub if len(b_ub) else None, b_ub=b_ub if len(b_ub) else None,
        A_eq=a_eq, b_eq=b_eq, bounds=np.column_stack([lower, upper]), method="highs",
        options={"primal_feasibility_tolerance": options.primal_feasibility_tolerance,
                 "dual_feasibility_tolerance": options.dual_feasibility_tolerance},
    )


# games CHANGES.md records as refused by min_br_minmax (a near tie, and a
# 4x3 game whose pinned support LP HiGHS calls infeasible), and payoffs HiGHS
# rejects as a model error
REFUSED_GAMES = [
    np.array([[0.0, 1.49e-8]]),
    np.array([[0.2626956206108866, 0.33207018973519586, -0.4189703966730227],
              [0.9731631487163525, 0.33155578608063363, 0.9595093681008914],
              [1.2160058979172441, 0.3313797196878173, 1.126191006862087],
              [-0.1080089793191158, 0.33234527541928754, -0.02824809608414092]]),
    np.array([[1.0, -1e16], [-1e16, 2.0]]),
]

LP_FAMILIES = ["integer", "uniform", "huge", "near-degenerate", "small-weight", "refused"]


def lp_family(name):
    """25 seeded games, n and m in 2..6, with entries in {-1, 0, 1}, U[-1, 1],
    or U[-1, 1] with about half of them scaled by one 10**U(6, 14.9) (below
    the 1e15 HiGHS rejects; HiGHS stops some of these LPs as unbounded or
    unknown); 20 of each tier-1 degenerate family; or REFUSED_GAMES."""
    if name == "near-degenerate":
        return near_degenerate_games(20, 8642)
    if name == "small-weight":
        return small_weight_games(20, 8642)
    if name == "refused":
        return REFUSED_GAMES
    rng = np.random.default_rng(2718 + LP_FAMILIES.index(name))

    def huge(shape):
        a = rng.uniform(-1, 1, size=shape)
        a[rng.random(shape) < 0.5] *= 10.0 ** rng.uniform(6, 14.9)
        return a

    draw = {"integer": lambda shape: rng.integers(-1, 2, size=shape).astype(float),
            "uniform": lambda shape: rng.uniform(-1, 1, size=shape), "huge": huge}[name]
    return [draw(tuple(rng.integers(2, 7, size=2))) for _ in range(25)]


def family_lps(name, monkeypatch):
    """The arguments of every LP shape _minmax_lp builds on lp_family(name),
    in order: the value LP (t free), up to three pinned sets per size (t >= 0,
    or t = 0 with every column pinned), some infeasible, and up to three pair
    LPs maximising the mass on rows."""
    lps, real = [], games.linprog

    def record(*lp):
        lps.append(lp)
        return real(*lp)

    with monkeypatch.context() as patch:
        patch.setattr(games, "linprog", record)
        for a in lp_family(name):
            try:
                value = game_value(a).value
            except InputError:  # HiGHS rejected the value LP
                continue
            m = a.shape[1]
            for size in range(1, m + 1):
                for tight in list(combinations(range(m), size))[:3]:
                    games._minmax_lp(a, value, tight)
            for pair in list(combinations(range(m), 2))[:3]:
                rows = np.flatnonzero(np.abs(a[:, pair[0]] - a[:, pair[1]]) > games.DEFAULT_TOL)
                if rows.size:
                    games._minmax_lp(a, value, pair, rows)
    return lps


def same_answer(one, other):
    """Whether two linprog results agree in success, status, x and the duals,
    bit for bit."""
    if (one.success, one.status) != (other.success, other.status):
        return False
    if one.x is None or other.x is None:
        return one.x is other.x and one.duals is other.duals
    return one.x.tobytes() == other.x.tobytes() and one.duals.tobytes() == other.duals.tobytes()


class TestLeanLinprog:
    @pytest.mark.parametrize("family", LP_FAMILIES)
    def test_matches_scipy_bit_for_bit(self, family, monkeypatch):
        statuses = []
        for lp in family_lps(family, monkeypatch):
            ours, ref = games.linprog(*lp), scipy_linprog(*lp)
            assert ours.success == ref.success and (ours.status == 2) == (ref.status == 2)
            if ref.x is None:
                assert ours.x is None and ours.duals is None
            else:
                assert ours.x.tobytes() == ref.x.tobytes()
                assert ours.duals.tobytes() == ref.ineqlin.marginals.tobytes()
            statuses.append(ref.status)
        assert 0 in statuses and 2 in statuses

    def test_reused_solver_is_order_independent(self, monkeypatch):
        """The one HiGHS object carries nothing from one LP to the next: every
        family's LPs solved forward and then in reverse give the same bits,
        infeasible LPs and the model error of 1e16 payoffs included."""
        lps = [lp for family in LP_FAMILIES for lp in family_lps(family, monkeypatch)]
        forward = [games.linprog(*lp) for lp in lps]
        backward = [games.linprog(*lp) for lp in reversed(lps)][::-1]
        assert all(same_answer(f, b) for f, b in zip(forward, backward))
        assert {0, 2, 4} <= {res.status for res in forward}
        assert any("Model error" in res.message for res in forward)

    def test_refused_games_leave_no_state(self):
        before = game_value(matching_pennies())
        for a in REFUSED_GAMES:
            with pytest.raises((InputError, PreconditionError)):
                min_br_minmax(game_value(a))
        after = game_value(matching_pennies())
        for field in ("optimizer_strategy", "learner_strategy"):
            assert getattr(before, field).tobytes() == getattr(after, field).tobytes()
        assert (before.value, before.certificate_gap) == (after.value, after.certificate_gap)


class TestAssumptionNoPure:
    def test_matching_pennies_witness(self, mp_matrix):
        w = check_assumption_no_pure(game_value(mp_matrix))
        assert w is not None
        assert np.allclose(w.x, [0.5, 0.5], atol=1e-8)
        assert {w.i1, w.i2} == {0, 1}
        assert abs(mp_matrix[w.k_action, w.i1] - mp_matrix[w.k_action, w.i2]) == 2.0

    def test_all_zeros_none(self):
        zeros = np.zeros((3, 3))
        assert check_assumption_no_pure(game_value(zeros)) is None

    def test_row_dominant_none(self):
        # unique minmax x = (1, 0); its best responses pay identically on support
        a = np.array([[1.0, 1.0], [0.0, 0.0]])
        assert check_assumption_no_pure(game_value(a)) is None
        # brute-force the (degenerate) minmax set to confirm no witness exists
        value = game_value(a).value
        for p in np.linspace(0.0, 1.0, 201):
            x = np.array([p, 1 - p])
            if np.min(x @ a) < value - 1e-9:
                continue
            scores = x @ a
            br = np.flatnonzero(scores <= scores.min() + 1e-9)
            support = np.flatnonzero(x > 1e-9)
            for i in br:
                for j in br:
                    for kk in support:
                        assert a[kk, i] == a[kk, j]


@settings(max_examples=60, deadline=None)
@given(
    data=st.lists(
        st.lists(st.integers(-4, 4), min_size=3, max_size=3), min_size=2, max_size=2
    ),
    x0=st.integers(0, 8),
)
def test_br_set_exact_scale_invariance(data, x0):
    # dyadic strategies and integer payoffs make the affine map exact in floats
    b = np.asarray(data, dtype=float)
    a = np.zeros_like(b)
    x = [x0 / 8.0, 1.0 - x0 / 8.0]
    base = best_response_set(x, BimatrixGame(a, b), tol=0.0)
    mapped = best_response_set(x, BimatrixGame(a, 2.0 * b + 3.0), tol=0.0)
    assert base == mapped
