"""The benchmark's own self-test, run with the suite.

``perfbench/selftest.py`` checks that the tracer's patch targets still exist
and that a traced query reproduces each workload's exact primitive counts,
so a refactor that breaks the benchmark fails here too.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_selftest_passes():
    result = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT,
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stdout + result.stderr
    assert "all workloads ok" in result.stdout
