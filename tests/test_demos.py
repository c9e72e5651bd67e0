"""Each narrative demo runs to completion against the library in src/, and
the package exports exactly its public names, each of which resolves."""

import os
import subprocess
import sys
import types
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


def test_exports_are_the_public_bindings():
    # a name moved out of a submodule cannot leave a stale export behind
    bound = {name for name, value in vars(strategizer).items()
             if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert sorted(strategizer.__all__) == sorted(bound)
