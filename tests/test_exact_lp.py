"""The minmax analysis against an exact-arithmetic oracle (tests/exact_lp.py).

The oracle solves the same LPs as `game_value` and `min_br_minmax` by a
rational simplex, so on integer games it says which answer is right rather
than comparing HiGHS with HiGHS.
"""

from fractions import Fraction

import numpy as np
import pytest

from strategizer import game_value, matching_pennies, min_br_minmax, unique_br_game

from exact_lp import exact_k, exact_value


def integer_games(seed, count, low, high):
    rng = np.random.default_rng(seed)
    return [rng.integers(low, high + 1, size=(int(rng.integers(2, 6)), int(rng.integers(2, 6))))
            for _ in range(count)]


def test_oracle_on_known_games():
    assert exact_value(matching_pennies().astype(int)) == 0
    assert exact_k(matching_pennies().astype(int)) == 2
    assert exact_value([[Fraction(1, 3), 2], [1, Fraction(-1, 2)]]) == Fraction(13, 19)  # (ad - bc)/(a + d - b - c), no saddle point
    a = unique_br_game(3)
    assert exact_value(a.astype(int)) == 1 and exact_k(a.astype(int)) == 1


@pytest.mark.parametrize("low, high, seed", [(-1, 1, 1001), (-2, 2, 1002)],
                         ids=["entries-in-minus1..1", "entries-in-minus2..2"])
def test_value_and_k_match_exact_oracle(low, high, seed):
    for a in integer_games(seed, 100, low, high):
        gv = game_value(a.astype(float))
        value = exact_value(a.tolist())
        assert abs(gv.value - value) <= 1e-9, a.tolist()
        _, k = min_br_minmax(gv)
        assert k == exact_k(a.tolist(), value), a.tolist()
