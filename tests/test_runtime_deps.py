import os
import subprocess
import sys
from pathlib import Path

# Imports placevision and every submodule in a fresh interpreter and prints
# the top-level names of the modules that this loaded beyond the stdlib,
# numpy and placevision itself.  Modules loaded before the import (site
# hooks of the environment) and aliases of the script (multiprocessing's
# __mp_main__) are not the package's dependencies.
PROBE = """
import importlib, pkgutil, sys
before = set(sys.modules)
import placevision
for info in pkgutil.iter_modules(placevision.__path__):
    importlib.import_module(f"placevision.{info.name}")
main = sys.modules["__main__"]
loaded = {n.split(".")[0] for n in set(sys.modules) - before if sys.modules[n] is not main}
print(sorted(loaded - set(sys.stdlib_module_names) - {"numpy", "placevision"}))
"""


def test_runtime_needs_only_numpy_and_the_stdlib():
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run([sys.executable, "-c", PROBE], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)}, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
