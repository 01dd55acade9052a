"""The arithmetic backend: ``numutil.powmod`` and ``numutil.invert`` give
Python's values on every input, from any thread."""

import ctypes
import subprocess
import sys
import threading

import pytest

from pinfer.numutil import insecure_rng, invert, powmod


def _outcome(fn, *args):
    """fn(*args), or the type and message of the ValueError it raised."""
    try:
        return fn(*args)
    except ValueError as exc:
        return ValueError, str(exc)


def _python_inverse(a, mod):
    try:
        return pow(a, -1, mod)
    except ValueError:
        return ValueError, f"{a} is not invertible modulo {mod}"


def _random_triples(seed, count, max_bits=6144):
    """``count`` triples (b, e, m) of 1 to ``max_bits`` bits each: odd
    moduli mostly, some even, and bases above the modulus or negative."""
    rng = insecure_rng(seed)
    triples = []
    for i in range(count):
        b, e, m = (rng.getrandbits(rng.randrange(1, max_bits + 1)) for _ in range(3))
        triples.append((-b if i % 5 == 4 else b, e, (m | 1) if i % 4 else m))
    return triples


def test_powmod_and_invert_match_pow_on_random_triples():
    for b, e, m in _random_triples(1, 24):
        assert _outcome(powmod, b, e, m) == _outcome(pow, b, e, m)
        assert _outcome(invert, b, m) == _python_inverse(b, m)


def test_edge_cases_match_pow():
    moduli = (1, 2, 3, 8, 15, 2**64 + 1, 2**127 - 1)
    for m in moduli:
        for b in (0, 1, -1, 2, 6, m, m + 5, -m - 5, 3 * m + 2):
            for e in (0, 1, 2, -1, -2, 10**40 + 1):
                assert _outcome(powmod, b, e, m) == _outcome(pow, b, e, m), (b, e, m)
            assert _outcome(invert, b, m) == _python_inverse(b, m), (b, m)
    for args in ((3, 5, 0), (3, 5, -7), (3, -1, -7)):
        assert _outcome(powmod, *args) == _outcome(pow, *args)


def test_a_value_with_no_inverse_raises_value_error():
    with pytest.raises(ValueError, match="^6 is not invertible modulo 15$"):
        invert(6, 15)
    with pytest.raises(ValueError, match="^0 is not invertible modulo 7$"):
        invert(0, 7)


def test_threads_in_the_binding_at_once_get_their_own_values():
    triples = _random_triples(2, 64, max_bits=1024)
    want = [(_outcome(pow, *t), _python_inverse(t[0], t[2])) for t in triples]
    got = {}

    def run(k):
        got[k] = [[(_outcome(powmod, *t), _outcome(invert, t[0], t[2])) for t in triples]
                  for _ in range(3)]

    threads = [threading.Thread(target=run, args=(k,), daemon=True) for k in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert got == {k: [want] * 3 for k in range(8)}


def _soname_loads():
    try:
        ctypes.CDLL("libgmp.so.10")
    except OSError:
        return False
    return True


@pytest.mark.skipif(not _soname_loads(), reason="libgmp.so.10 does not load")
def test_importing_pinfer_starts_no_process(checkout_env):
    # ctypes.util.find_library runs ldconfig or a compiler; the soname needs neither.
    code = """
import sys
events = []
spawns = ("subprocess.Popen", "os.exec", "os.fork", "os.forkpty", "os.posix_spawn",
          "os.spawn", "os.system")
sys.addaudithook(lambda event, args: event in spawns and events.append(event))
import pinfer
from pinfer import numutil
print(numutil.BACKEND, events)
"""
    result = subprocess.run([sys.executable, "-c", code], env=checkout_env,
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["libgmp", "[]"]


def test_importing_pinfer_loads_no_openssl(checkout_env):
    # Against the interpreter's own start-up modules, so a site hook that
    # loads any of these before pinfer does not count against it.
    code = """
import sys
before = set(sys.modules)
import pinfer, pinfer.runner, pinfer.cli
loaded = set(sys.modules) - before
print(sorted(loaded & {"_hashlib", "_ssl", "hashlib", "hmac", "secrets"}), "pinfer.cli" in loaded)
"""
    result = subprocess.run([sys.executable, "-c", code], env=checkout_env,
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["[]", "True"]
