"""Byte-identity gate for `plan` reports.

The canonical `planner_report` JSON of 202 games must keep the SHA-256
digests stored in plan_report_sha256.json: the 200 battery games of seed
1729 (n and m in 2..6, U[-1, 1]), then matching pennies and
unique_br_game(3). Game i runs at eta 0.1 (i even) or 1 (i odd), with
T = 10/eta and eps 1e-6, as the `plan` benchmark workload does.

A change that is meant to alter the reports regenerates the file with
`PYTHONPATH=src python tests/test_plan_golden.py` and says why.
"""

import hashlib
import json
import pathlib

import numpy as np

from strategizer import matching_pennies, planner_report, unique_br_game
from strategizer.acceptance import DEFAULT_COUNT, DEFAULT_SEED, _random_games
from strategizer.fileio import canonical_json

GOLDEN = pathlib.Path(__file__).with_name("plan_report_sha256.json")


def report_digests():
    games = _random_games(np.random.default_rng(DEFAULT_SEED), DEFAULT_COUNT)
    games += [matching_pennies(), unique_br_game(3)]
    digests = []
    for i, a in enumerate(games):
        eta = 0.1 if i % 2 == 0 else 1.0
        text = canonical_json(planner_report(a, eta, 10.0 / eta, 1e-6))
        digests.append(hashlib.sha256(text.encode()).hexdigest())
    return digests


def test_plan_reports_byte_identical():
    golden = json.loads(GOLDEN.read_text())
    digests = report_digests()
    assert len(golden) == len(digests) == DEFAULT_COUNT + 2
    changed = [i for i, (got, want) in enumerate(zip(digests, golden)) if got != want]
    assert not changed, f"plan reports changed on games {changed}"


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(report_digests(), indent=1) + "\n")
