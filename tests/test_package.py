"""The package's public surface and what importing it loads."""

import json
import os
import subprocess
import sys
from pathlib import Path

import cellfree

ROOT = Path(__file__).resolve().parents[1]


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from cellfree import *", namespace)
    assert set(cellfree.__all__) <= set(namespace)
    assert len(set(cellfree.__all__)) == len(cellfree.__all__)


# numpy with the subpackages the library uses (numpy.random also registers
# Cython's runtime modules) and whatever the interpreter loads at startup (site
# hooks such as _distutils_hack) are the baseline; every cellfree module is
# imported after it
IMPORT_EVERY_MODULE = """
import json, sys
import numpy, numpy.linalg, numpy.random
baseline = {name.partition(".")[0] for name in sys.modules}
import importlib, pkgutil
import cellfree
for module in pkgutil.iter_modules(cellfree.__path__):
    importlib.import_module("cellfree." + module.name)
print(json.dumps(sorted({name.partition(".")[0] for name in sys.modules} - baseline)))
"""


def test_modules_import_only_numpy_and_the_standard_library():
    """`dependencies` in pyproject.toml lists numpy alone."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    result = subprocess.run([sys.executable, "-c", IMPORT_EVERY_MODULE], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    loaded = set(json.loads(result.stdout.splitlines()[-1]))
    assert "cellfree" in loaded
    assert loaded - set(sys.stdlib_module_names) - {"cellfree"} == set()
