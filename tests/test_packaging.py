"""The library's runtime needs: numpy and the standard library, and
pyproject.toml declares exactly that; and the names the package exports."""

import ast
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


# The public names ``projclt/__init__.py`` imports, sorted: a change to the
# package's API shows here as a diff.
PUBLIC_NAMES = [
    "BoundReport", "ConfigError", "DEFAULT_EXCHANGEABLE_CONSTANTS", "DirectionSet",
    "DiscrepancyEstimate", "ExchangeableConstants", "ExchangeableModel", "Expectation",
    "GaussianSpec", "IIDModel", "IndependentModel", "InvalidInputError", "InvalidMomentsError",
    "LinearDependenceError", "MissingMomentsError", "MomentSummary", "ProjcltError",
    "RESAMPLING", "TRANSPOSITION", "TestFunction", "UnsupportedDimensionError",
    "UnsupportedMethodError", "VerificationReport", "bound_abstract", "bump_testfn",
    "centered_exponential", "compute_bound", "cosine_testfn", "eij_second_moments",
    "estimate_discrepancy", "exchangeable_moments", "gaussian_expectation",
    "hypercube_directions", "iid", "load_population", "moment_summary", "pair_for",
    "rademacher", "random_orthonormal", "sample_tiles", "standardize_population",
    "stein_lambda", "two_point", "uniform", "verify_bound",
]


def test_the_package_exports_the_pinned_names():
    tree = ast.parse((ROOT / "src" / "projclt" / "__init__.py").read_text())
    names = [alias.asname or alias.name for node in tree.body
             if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names]
    assert sorted(name for name in names if not name.startswith("_")) == PUBLIC_NAMES
