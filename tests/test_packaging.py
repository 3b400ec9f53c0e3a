"""The library's runtime needs: numpy and the standard library, and
pyproject.toml declares exactly that."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# Prints the top-level package of each module that ``import projclt`` loads
# from a file; the runtime modules that numpy's Cython extensions register
# have no file and no package of their own.
IMPORT_PROBE = """
import sys
before = set(sys.modules)
import projclt
loaded = (sys.modules[name] for name in set(sys.modules) - before)
print(*sorted({m.__name__.partition('.')[0] for m in loaded if getattr(m, '__file__', None)}))
"""


def test_import_loads_no_third_party_module_but_numpy():
    # A fresh interpreter, so that modules the tests import do not count.
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])])}
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], capture_output=True, text=True,
                          env=env, check=True)
    assert set(proc.stdout.split()) - set(sys.stdlib_module_names) == {"projclt", "numpy"}


def test_numpy_is_the_one_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert project["dependencies"] == ["numpy>=2.0"]
