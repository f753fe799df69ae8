"""The package runs on numpy alone.

numpy and scipy each bundle their own OpenBLAS with its own thread pool;
two pools in one process compete for the cores on every factorization.
Importing no scipy module keeps the solver on numpy's single pool.
"""

import os
import subprocess
import sys
from pathlib import Path

import mlblue

_PROBE = """
import importlib, pkgutil, sys
import mlblue, mlblue.cli
for info in pkgutil.iter_modules(mlblue.__path__):
    if info.name != "__main__":  # runs the CLI on import
        importlib.import_module("mlblue." + info.name)
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def test_package_imports_no_scipy():
    src = str(Path(mlblue.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    out = subprocess.run(
        [sys.executable, "-c", _PROBE], env=env, capture_output=True,
        text=True, timeout=60, check=True,
    )
    assert out.stdout.strip() == "[]", out.stdout
