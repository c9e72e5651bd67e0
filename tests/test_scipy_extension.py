"""games._scipy_extension: HiGHS and dgesv come from their compiled modules
without scipy.optimize's and scipy.linalg's package __init__s, and scipy
imported before or after sees the same module objects.

Each case runs in a fresh interpreter, because this process has imported
scipy already.
"""

import os
import subprocess
import sys
import textwrap

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# the identities a later or earlier scipy import must see, and one LP that
# scipy.optimize.linprog and games.linprog solve to the same bits
SHARED = textwrap.dedent("""
    import sys
    import numpy as np
    import scipy.linalg.lapack
    from scipy.optimize import linprog
    from scipy.optimize._highspy import _core
    from strategizer import games, planner

    assert games._highs is _core is sys.modules["scipy.optimize._highspy._core"]
    assert planner.dgesv is scipy.linalg.lapack.dgesv
    c, b_ub = np.array([0.0, 0.0, -1.0]), np.zeros(2)
    a_ub = np.array([[-1.0, 1.0, 1.0], [1.0, -1.0, 1.0]])  # matching pennies' minmax LP
    a_eq, b_eq = np.array([[1.0, 1.0, 0.0]]), np.ones(1)
    lower, upper = np.array([0.0, 0.0, -np.inf]), np.full(3, np.inf)
    ref = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
                  bounds=np.column_stack([lower, upper]), method="highs",
                  options={"primal_feasibility_tolerance": 1e-10,
                           "dual_feasibility_tolerance": 1e-10})
    ours = games.linprog(c, a_ub, b_ub, a_eq, b_eq, lower, upper, games._LP_OPTS)
    assert ref.status == 0 and np.allclose(ref.x, [0.5, 0.5, 0.0])
    assert ours.x.tobytes() == ref.x.tobytes()
    assert ours.duals.tobytes() == ref.ineqlin.marginals.tobytes()
""")


def run_fresh(code):
    paths = [SRC, *filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))]
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-c", textwrap.dedent(code)],
        env={**os.environ, "PYTHONPATH": os.pathsep.join(paths)},
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_cold_import_skips_scipy_packages():
    run_fresh("""
        import sys
        import strategizer, strategizer.cli
        assert "scipy.optimize" not in sys.modules and "scipy.linalg" not in sys.modules
        assert "scipy.optimize._highspy._core" in sys.modules
        assert "scipy.linalg._flapack" in sys.modules
    """)


def test_scipy_imported_after_shares_the_modules():
    run_fresh("import strategizer, strategizer.cli\n" + SHARED)


def test_scipy_imported_first_shares_the_modules():
    run_fresh("import scipy.optimize, scipy.linalg.lapack, strategizer\n" + SHARED)


def test_name_without_extension_file_is_an_ordinary_import():
    run_fresh("""
        import sys
        from strategizer import games
        optimize = games._scipy_extension("scipy.optimize")
        assert optimize is sys.modules["scipy.optimize"] and callable(optimize.linprog)
        try:
            games._scipy_extension("scipy.no_such_module")
        except ModuleNotFoundError:
            pass
        else:
            raise AssertionError("a missing module imported")
    """)


def test_file_that_fails_to_load_falls_back_to_the_ordinary_import():
    run_fresh("""
        import importlib.abc  # registers the real loader class by its name
        import importlib.machinery
        import sys

        class Broken(importlib.machinery.ExtensionFileLoader):
            def exec_module(self, module):
                raise ImportError("cannot load " + self.path)

        real, importlib.machinery.ExtensionFileLoader = importlib.machinery.ExtensionFileLoader, Broken
        try:  # the loader takes Broken; the ordinary import keeps the real class
            from strategizer import games, planner
        finally:
            importlib.machinery.ExtensionFileLoader = real
        import scipy.linalg.lapack
        from scipy.optimize._highspy import _core

        assert games._highs is _core and planner.dgesv is scipy.linalg.lapack.dgesv
        assert "scipy.optimize" in sys.modules and "scipy.linalg" in sys.modules
    """)
