"""The traced benchmark wraps library functions and methods by name.

perfbench/spans.py looks each hook up as a module attribute or in a class
body, so renaming or moving one of them breaks `perfbench/run.py --trace 1`.
This test installs the tracer in a fresh interpreter to catch that early.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_tracer_installs_every_hook():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    result = subprocess.run(
        [sys.executable, "-c", "import spans; spans.Tracer().install()"],
        cwd=ROOT / "perfbench", env=env, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr
