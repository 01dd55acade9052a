"""The narrative scripts in demos/ must stay runnable."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
DEMOS = sorted((ROOT / "demos").glob("demo_*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_runs_clean(script):
    # pyproject's pythonpath does not reach subprocesses: put the checkout's
    # src first so the demos import this tree's pinfer.
    inherited = os.environ.get("PYTHONPATH")
    src_dir = str(ROOT / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src_dir, inherited] if inherited else [src_dir]))
    result = subprocess.run([sys.executable, str(script)], env=env,
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip()
