"""Shared fixtures: test-scale keys and per-test deterministic RNGs.

512-bit keys are far below production size but exercise every code path;
key generation is seeded so failures reproduce.
"""

import os
import zlib
from pathlib import Path

import pytest

from pinfer import keygen
from pinfer.numutil import insecure_rng


@pytest.fixture(scope="session")
def client_keys():
    return keygen(512, insecure_rng(0xC11E57))


@pytest.fixture(scope="session")
def server_keys():
    return keygen(512, insecure_rng(0x5E4E4))


def rng_seed(name: str) -> int:
    """The seed of a test's stream: a CRC of its name, which, unlike
    ``hash``, no per-process salt (PYTHONHASHSEED) changes."""
    return zlib.crc32(name.encode("utf-8"))


@pytest.fixture
def rng(request):
    # Distinct, reproducible stream per test.
    return insecure_rng(rng_seed(request.node.name))


@pytest.fixture
def checkout_env():
    """Environment for a Python subprocess that imports this checkout's pinfer.

    pyproject's pythonpath does not reach subprocesses, so the checkout's
    src goes first on their PYTHONPATH.
    """
    src_dir = str(Path(__file__).resolve().parent.parent / "src")
    inherited = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src_dir, inherited] if inherited else [src_dir]))
