"""Byte-identity gates for `plan` reports.

The canonical `planner_report` JSON of 202 games must keep the SHA-256
digests stored in plan_report_sha256.json: the 200 battery games of seed
1729 (n and m in 2..6, U[-1, 1]), then matching pennies and
unique_br_game(3). Game i runs at eta 0.1 (i even) or 1 (i odd), with
T = 10/eta and eps 1e-6, as the `plan` benchmark workload does.

plan_report_lp_sha256.json pins the half of each report that the LPs
decide: the digest of the report without the Frank-Wolfe fields x_star,
r_star and epsilon. A change to the Frank-Wolfe solver regenerates only the
full digests, with `PYTHONPATH=src python tests/test_plan_golden.py`, and
says why; the LP digests must still match. A change meant to alter the LP
half writes both files with `PYTHONPATH=src python tests/test_plan_golden.py lp`.
"""

import hashlib
import json
import pathlib
import sys

import numpy as np
import pytest

from strategizer import matching_pennies, planner, planner_report, unique_br_game
from strategizer.acceptance import DEFAULT_COUNT, DEFAULT_SEED, _random_games
from strategizer.fileio import canonical_json

from away_step_fw import away_step_frank_wolfe

GOLDEN = pathlib.Path(__file__).with_name("plan_report_sha256.json")
GOLDEN_LP = pathlib.Path(__file__).with_name("plan_report_lp_sha256.json")
SOLVER_FIELDS = ("x_star", "r_star", "epsilon")
EPS = 1e-6


def golden_reports():
    games = _random_games(np.random.default_rng(DEFAULT_SEED), DEFAULT_COUNT)
    games += [matching_pennies(), unique_br_game(3)]
    reports = []
    for i, a in enumerate(games):
        eta = 0.1 if i % 2 == 0 else 1.0
        reports.append(planner_report(a, eta, 10.0 / eta, EPS))
    return reports


def lp_half(report):
    return {key: val for key, val in report.items() if key not in SOLVER_FIELDS}


def digest(report):
    return hashlib.sha256(canonical_json(report).encode()).hexdigest()


@pytest.fixture(scope="module")
def reports():
    return golden_reports()


def changed_games(golden, digests):
    want = json.loads(golden.read_text())
    assert len(want) == len(digests) == DEFAULT_COUNT + 2
    return [i for i, (got, w) in enumerate(zip(digests, want)) if got != w]


def test_plan_reports_byte_identical(reports):
    changed = changed_games(GOLDEN, [digest(r) for r in reports])
    assert not changed, f"plan reports changed on games {changed}"


def test_lp_half_byte_identical(reports):
    changed = changed_games(GOLDEN_LP, [digest(lp_half(r)) for r in reports])
    assert not changed, f"the LP-derived report fields changed on games {changed}"


def test_reports_agree_with_away_step_solver(reports):
    # the solver may change x_star (flat optima have many minimisers) but
    # not the LP half, and both solvers certify r_star to within eps
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(planner, "frank_wolfe", away_step_frank_wolfe)
        old = golden_reports()
    for i, (new, ref) in enumerate(zip(reports, old)):
        assert canonical_json(lp_half(new)) == canonical_json(lp_half(ref)), i
        assert abs(new["r_star"] - ref["r_star"]) <= EPS, i
        assert new["epsilon"] <= EPS, i


if __name__ == "__main__":
    reports = golden_reports()
    GOLDEN.write_text(json.dumps([digest(r) for r in reports], indent=1) + "\n")
    if sys.argv[1:] == ["lp"]:
        GOLDEN_LP.write_text(json.dumps([digest(lp_half(r)) for r in reports], indent=1) + "\n")
