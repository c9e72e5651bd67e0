"""The acceptance battery: every criterion at its stated tolerance.

Each test prints its one-line PASS/FAIL verdict (run with -s to stream
them; failures always show the line). `strategizer battery` runs the same
checks from the command line.
"""

import pytest

from strategizer import acceptance


def _run(number):
    result = acceptance.ALL_CRITERIA[number]()
    print(result.line())
    assert result.passed, result.line()


def test_criterion_01_matching_pennies_alternating_reward():
    _run(1)


def test_criterion_02_continuous_reward_bounds():
    _run(2)


def test_criterion_03_discrete_dominance():
    _run(3)


def test_criterion_04_eta_t_half_ceiling():
    _run(4)


def test_criterion_05_asymptotic_example():
    _run(5)


def test_criterion_06_alternating_gain_slope():
    _run(6)


def test_criterion_07_hjb_residual():
    _run(7)


def test_criterion_08_reduction_golden():
    _run(8)


def test_criterion_09_reduction_soundness_battery():
    _run(9)


def test_criterion_10_frank_wolfe_rate_and_gradient():
    _run(10)


def test_criterion_11_normalization_neutrality():
    _run(11)


@pytest.mark.parametrize("number, count, value_lps", [(1, 200, 1), (2, 10, 10), (6, 200, 1)])
def test_one_value_lp_per_game(number, count, value_lps, minmax_lp_calls):
    # criterion 2 analyses each game once for both eta; 1 and 6 build one
    # plan whose analysis also scores it
    result = acceptance.ALL_CRITERIA[number](count=count)
    assert result.passed, result.line()
    assert minmax_lp_calls.count(None) == value_lps
