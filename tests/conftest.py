import numpy as np
import pytest

from strategizer import BimatrixGame, DirectedGraph, games, matching_pennies


@pytest.fixture
def mp_matrix():
    return matching_pennies()

@pytest.fixture
def mp_game():
    return BimatrixGame.from_zero_sum(matching_pennies())


@pytest.fixture
def example_graph_5():
    """Five vertices, seven edges; Hamiltonian cycle 1-5-2-4-3-1."""
    return DirectedGraph(
        n_vertices=5,
        edges=((1, 5), (5, 2), (1, 2), (2, 4), (4, 1), (4, 3), (3, 1)),
    )


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def minmax_lp_calls(monkeypatch):
    """The `value` argument of every games._minmax_lp call from now on, in
    order: None for a value LP, the pinned value otherwise."""
    calls = []
    real = games._minmax_lp

    def counted(a, value=None, *args):
        calls.append(value)
        return real(a, value, *args)

    monkeypatch.setattr(games, "_minmax_lp", counted)
    return calls
