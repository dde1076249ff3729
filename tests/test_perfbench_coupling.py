"""The benchmark's tracer wraps rotavg entry points by name; renaming or
deleting one must fail here, not only when the benchmark runs."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

INSTALL = """
import sys
sys.path.insert(0, "perfbench")
import rotavg, rotavg.cli, tracing
tracing.install(tracing.Tracer(), rotavg)
"""


def test_tracer_installs_on_every_entry_point():
    # a subprocess, because install rebinds module globals for good
    path = [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path), PYTHONDONTWRITEBYTECODE="1")
    result = subprocess.run(
        [sys.executable, "-c", INSTALL], cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr


def test_benchmark_selftest_passes():
    # every workload's output check and metric set, at tiny sizes
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    result = subprocess.run(
        [sys.executable, "perfbench/selftest.py"], cwd=ROOT, env=env, capture_output=True,
        text=True, timeout=300,
    )
    assert result.returncode == 0, result.stdout + result.stderr
