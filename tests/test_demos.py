"""Each narrative demo runs to completion against the library in src/, and
every name the package exports resolves."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import strategizer

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(demo)], cwd=ROOT, env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr


def test_exports_resolve():
    names = strategizer.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(strategizer, name)]
    assert missing == []
