import os
import subprocess
import sys
from pathlib import Path

from conftest import rng_seed


def test_rng_seed_is_the_same_in_every_process(checkout_env):
    # str hashes are salted per process, so a seed taken from hash() would
    # draw other models, inputs and masks in each run of the suite.
    tests_dir = str(Path(__file__).resolve().parent)
    code = "from conftest import rng_seed; print(rng_seed('test_x'))"
    seeds = []
    for salt in ("1", "2"):
        env = dict(checkout_env, PYTHONHASHSEED=salt,
                   PYTHONPATH=os.pathsep.join([tests_dir, checkout_env["PYTHONPATH"]]))
        result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                                text=True, timeout=60)
        assert result.returncode == 0, result.stderr
        seeds.append(int(result.stdout))
    assert seeds == [rng_seed("test_x")] * 2
