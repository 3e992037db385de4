"""The benchmark's self-test runs on every test pass.

`benchmark/selftest.py` runs one toy round per task through the CLI and
feeds deliberately corrupted outputs (a flipped label, a wrong p-value, a
gradient 1% off, ...) to the benchmark's checks, which must reject each of
them. Running it here keeps those checks, and the evaluate and significance
outputs they read, working. Its work directory is per process and removed
when it ends.
"""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.slow
def test_benchmark_selftest_passes():
    result = subprocess.run(
        [sys.executable, os.path.join("benchmark", "selftest.py")],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert "selftest: 0 problem(s)" in result.stdout
