"""Cold start: the package and every non-FEM command run without scipy.

Each check runs in a fresh interpreter, so that modules an earlier test
imported into this one do not count.  Only FEM solves need scipy
(``fem.assemble``, ``fem.symmetry``, ``fem.eigs`` import it inside the
functions that use it); the FEM tests cover that path.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# prints the scipy modules loaded after the given statements, as JSON
_REPORT = "import json, sys; print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))"


def _fresh(code, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.run([sys.executable, "-c", f"{code}\n{_REPORT}"], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_package_import_loads_no_scipy(tmp_path):
    assert _fresh("import elastica, elastica.cli, elastica.specfun", tmp_path) == []


def test_non_fem_commands_load_no_scipy(tmp_path):
    commands = [
        ["coeffs", "--mu", "1", "--lambda", "1"],
        ["spectrum", "--domain", "disk", "--mu", "1", "--lambda", "1", "--bc", "free",
         "--method", "potential", "--lambda-max", "200", "--out", "p.csv"],
        ["spectrum", "--domain", "disk", "--mu", "1", "--lambda", "-1", "--bc", "dirichlet",
         "--method", "analytic", "--lambda-max", "200", "--out", "a.csv"],
        ["fit", "--spectrum", "p.csv", "--model", "counting", "--out", "fit.json"],
        ["verify", "--suite", "all", "--mu", "1", "--lambda", "1"],
    ]
    code = (
        "from elastica import cli\n"
        f"codes = [cli.main(argv) for argv in {commands!r}]\n"
        "assert codes == [0] * len(codes), codes"
    )
    assert _fresh(code, tmp_path) == []
    assert (tmp_path / "fit.json").is_file()


def test_every_export_resolves():
    # a name left in __all__ after its definition was deleted breaks
    # `from elastica.specfun import *` but no other import
    import importlib

    for name in ("elastica", "elastica.specfun", "elastica.fem"):
        module = importlib.import_module(name)
        missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
        assert not missing, (name, missing)
        assert len(set(module.__all__)) == len(module.__all__), name
