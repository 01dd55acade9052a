"""Big-integer helpers: modular exponentiation, inverses, CRT, probable primes,
and the power worker.

:func:`powmod` and :func:`invert` run in GMP: through gmpy2 when it imports,
else through the system's libgmp (``libgmp.so.10``) by ``ctypes``, else in
Python's ``pow``. :data:`BACKEND` names the choice. On the libgmp path every
power with an exponent above 0 and an odd modulus above 1 is GMP's
constant-time ``mpz_powm_sec``, since the exponents and bases here are
secrets, and ``pow`` takes the rest. All callers go through this module, and
the worker's program starts with the same source, so both sides of a batch
compute alike.

Prime search is split in two. :func:`prime_candidate` is a cheap filter: it
draws odd integers with their top two bits set, so the product of two of them
has an exact bit length, and discards those with an odd prime factor below
2**12 (one gcd with a primorial) or that fail a base-2 Fermat test (one
exponentiation). :func:`is_probable_prime` is the full Miller-Rabin test, run
once on each surviving candidate by whoever needs a prime.

:func:`powers_while` computes a list of ``(base, exponent, modulus)`` items
on both cores: the power worker, one child process per party process,
started at its first shared batch and ended at exit, takes items from the
front while the calling thread runs its own work and then takes items from
the back, so the batch balances itself. Both prime tests are such batches,
so the worker receives prime candidates, p and q among them, while a key is
made or loaded; what it receives for encryptions and decryptions is listed
in :mod:`pinfer.paillier`. The two sides claim items under ``fcntl.lockf``,
so the worker needs a POSIX system.
"""

from __future__ import annotations

import atexit
import contextlib
import fcntl
import itertools
import math
import os
import random
import secrets
import struct
import subprocess
import sys
import tempfile
import threading

from .errors import WorkerError

#: Module-wide default entropy source. Cryptographically secure.
SYSTEM_RNG = random.SystemRandom()

# Miller-Rabin rounds; error probability below 4^-40 = 2^-80 per composite.
MR_ROUNDS = 40

#: Trial division covers every prime below 2**SIEVE_BITS.
SIEVE_BITS = 12


def _primes_below(limit: int) -> list[int]:
    """Sieve of Eratosthenes."""
    sieve = bytearray([1]) * limit
    sieve[:2] = b"\x00\x00"
    for i in range(2, math.isqrt(limit - 1) + 1):
        if sieve[i]:
            sieve[i * i::i] = bytes(len(range(i * i, limit, i)))
    return [i for i, flag in enumerate(sieve) if flag]


_SMALL_PRIMES = frozenset(_primes_below(1 << SIEVE_BITS))
#: Product of the odd primes below 2**SIEVE_BITS: one gcd does the trial division.
_ODD_PRIMORIAL = math.prod(p for p in _SMALL_PRIMES if p != 2)


def insecure_rng(seed: int) -> random.Random:
    """Deterministic RNG for reproducible tests.

    INSECURE: never use for production keys, masks or blinding factors.
    """
    return random.Random(seed)


#: The arithmetic backend, run by this module at import and by the worker's
#: program before its loop. Each libgmp call makes and clears its own mpz
#: temporaries, because ctypes drops the GIL for the power or the inverse
#: (``CDLL``) and other threads may be inside the binding at once; the
#: conversions around it are cheap and keep the GIL (``PyDLL``).
_ARITH_SRC = '''
import ctypes
try:
    import gmpy2
except ImportError:
    gmpy2 = None
class _Mpz(ctypes.Structure):
    _fields_ = [("alloc", ctypes.c_int), ("size", ctypes.c_int), ("limbs", ctypes.c_void_p)]
def _load_gmp(name="libgmp.so.10", search=True):
    try:
        slow, fast = ctypes.CDLL(name), ctypes.PyDLL(name)
    except OSError:
        from ctypes.util import find_library
        found = search and find_library("gmp")
        return _load_gmp(found, False) if found else None
    gmp, z, n, i, p = {}, ctypes.POINTER(_Mpz), ctypes.c_size_t, ctypes.c_int, ctypes.c_void_p
    for lib, name, restype, *argtypes in (
            (fast, "init", None, z), (fast, "clear", None, z),
            (fast, "import", None, z, n, i, n, i, n, ctypes.c_char_p),
            (fast, "export", p, p, p, i, n, i, n, z),
            (slow, "powm_sec", None, z, z, z, z), (slow, "invert", i, z, z, z)):
        gmp[name] = getattr(lib, "__gmpz_" + name)
        gmp[name].restype, gmp[name].argtypes = restype, argtypes
    return gmp
_gmp = None if gmpy2 else _load_gmp()
BACKEND = "gmpy2" if gmpy2 else "libgmp" if _gmp else "python"
def _gmp_call(name, bound, *args):
    """(result, status) of GMP's ``name(result, *args)`` on non-negative
    ints, the result below ``bound``."""
    zs = [_Mpz() for _ in range(len(args) + 1)]
    for z in zs:
        _gmp["init"](z)
    try:
        for z, x in zip(zs[1:], args):
            data = x.to_bytes((x.bit_length() + 7) // 8, "little")
            _gmp["import"](z, len(data), -1, 1, 0, 0, data)
        status = _gmp[name](*zs)
        out = ctypes.create_string_buffer((bound.bit_length() + 7) // 8)
        _gmp["export"](out, None, -1, 1, 0, 0, zs[0])
        return int.from_bytes(out.raw, "little"), status
    finally:
        for z in zs:
            _gmp["clear"](z)
def powmod(base, exp, mod):
    """base**exp mod mod; negative exponents require an invertible base."""
    if gmpy2:
        return int(gmpy2.powmod(base, exp, mod))
    if _gmp and exp > 0 and mod > 1 and mod & 1:
        return _gmp_call("powm_sec", mod, base % mod, exp, mod)[0]
    return pow(base, exp, mod)
'''
exec(_ARITH_SRC)
HAVE_GMPY2 = BACKEND == "gmpy2"


def invert(a: int, mod: int) -> int:
    """Multiplicative inverse of a modulo mod."""
    try:
        if gmpy2:
            return int(gmpy2.invert(a, mod))
        if _gmp and mod > 1:
            inverse, found = _gmp_call("invert", mod, a % mod, mod)
            if found:
                return inverse
            raise ValueError
        return pow(a, -1, mod)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"{a} is not invertible modulo {mod}") from None


#: A batch's claim counters ``front`` and ``back``: the items not yet taken
#: are ``items[front:back]``, in a file both processes change under a lock.
_COUNTERS = struct.Struct("<qq")

#: The worker's program: the arithmetic backend, then a loop whose arguments
#: are the counters' file descriptor and format. Each input line is a batch,
#: groups ``e m b_1 ... b_k`` separated by commas, in hex separated by
#: spaces: an exponent, a modulus and the bases raised to it. It takes
#: items from the front until the counters meet, answers with a line of the
#: hex ``b**e mod m`` of each item it took, and exits at the end of its
#: input. It ignores SIGINT, which ends its parent, and so it.
_WORKER_SRC = _ARITH_SRC + """
import fcntl, os, signal, struct, sys
signal.signal(signal.SIGINT, signal.SIG_IGN)
claims, counters = int(sys.argv[1]), struct.Struct(sys.argv[2])
def take():
    fcntl.lockf(claims, fcntl.LOCK_EX)
    front, back = counters.unpack(os.pread(claims, counters.size, 0))
    os.pwrite(claims, counters.pack(front + (front < back), back), 0)
    fcntl.lockf(claims, fcntl.LOCK_UN)
    return front < back
for line in sys.stdin:
    groups = [[int(w, 16) for w in group.split()] for group in line.split(",")]
    items = [(b, e, m) for e, m, *bases in groups for b in bases]
    powers = []
    while take():
        powers.append(format(powmod(*items[len(powers)]), "x"))
    print(*powers, flush=True)
"""


class _PowerWorker:
    """The party process's one worker process for batches of powers.

    It starts at the first batch that shares work, and again after it has
    died. A lock held for the whole batch keeps concurrent batches in step;
    a batch that finds it held runs on its own thread instead of waiting.
    The worker gets each batch whole and takes its items itself, with no
    thread here that would need the GIL the calling thread holds.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._proc: subprocess.Popen | None = None
        self._claims = None
        self._front = 0

    def powers_while(self, items: list[tuple[int, int, int]], work=None):
        """``(work(), [pow(b, e, m) for b, e, m in items])``. The worker takes
        items from the front, one at a time; this thread runs ``work``, then
        takes items from the back, until the two sides meet. A batch of one
        item without work, or of work alone, runs here, and so does a batch
        that finds another batch using the worker. When ``work`` raises,
        the items left are taken and the worker's reply is read, so the next
        batch is in step.

        Raises:
            WorkerError: the worker died, or did not answer with a line of
                one hex word per item it took; the next call starts a new one.
        """
        if len(items) + (work is not None) < 2 or not self._lock.acquire(blocking=False):
            return work() if work else None, [powmod(*item) for item in items]
        try:
            line = ",".join(" ".join(format(x, "x") for x in (e, m, *(b for b, _, _ in group)))
                            for (e, m), group in itertools.groupby(items, lambda item: item[1:]))
            powers = [0] * len(items)
            try:
                if self._proc is None or self._proc.poll() is not None:
                    self._end()
                    self._claims = tempfile.TemporaryFile()
                    fd = self._claims.fileno()
                    self._proc = subprocess.Popen(
                        [sys.executable, "-I", "-c", _WORKER_SRC, str(fd), _COUNTERS.format],
                        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, pass_fds=(fd,))
                os.pwrite(self._claims.fileno(), _COUNTERS.pack(0, len(items)), 0)
                print(line, file=self._proc.stdin, flush=True)
            except OSError as exc:
                self._end()
                raise WorkerError(f"cannot reach the power worker: {exc}") from None
            try:
                result = work() if work else None
                while (i := self._take()) is not None:
                    powers[i] = powmod(*items[i])
            finally:
                try:
                    while self._take() is not None:  # only if work raised
                        pass
                    reply = self._proc.stdout.readline()
                    theirs = [int(w, 16) for w in reply.split()]
                    if not reply.endswith("\n") or len(theirs) != self._front:
                        raise ValueError
                except (OSError, ValueError):
                    self._end()
                    raise WorkerError("the power worker exited before it answered") from None
            powers[:self._front] = theirs
            return result, powers
        finally:
            self._lock.release()

    def close(self) -> None:
        """End the worker, if one runs: EOF on its input, then reap it."""
        with self._lock:
            self._end()

    def _take(self) -> int | None:
        """Take the item at the back, if any is left: its index. Once none
        is, ``_front`` is the number of items the worker took."""
        claims = self._claims.fileno()
        fcntl.lockf(claims, fcntl.LOCK_EX)
        self._front, back = _COUNTERS.unpack(os.pread(claims, _COUNTERS.size, 0))
        os.pwrite(claims, _COUNTERS.pack(self._front, back - (self._front < back)), 0)
        fcntl.lockf(claims, fcntl.LOCK_UN)
        return back - 1 if self._front < back else None

    def _end(self) -> None:
        proc, self._proc = self._proc, None
        if self._claims is not None:
            self._claims.close()
            self._claims = None
        if proc is None:
            return
        with contextlib.suppress(OSError):
            proc.stdin.close()
        proc.stdout.close()
        proc.wait()


_POWERS = _PowerWorker()
atexit.register(_POWERS.close)


def powers_while(items: list[tuple[int, int, int]], work=None) -> tuple:
    """``(work(), [b**e mod m for b, e, m in items])``, computed with the
    party's power worker (``_PowerWorker.powers_while``).

    Raises:
        WorkerError: the worker process died; the next call starts a new one.
    """
    return _POWERS.powers_while(items, work)


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin with ``MR_ROUNDS`` random bases from ``secrets``, after
    trial division. The powers a**d mod n are one :func:`powers_while`
    batch; the squarings that follow each power run here.

    Raises:
        WorkerError: the worker process died; the next call starts a new one.
    """
    if n < 1 << SIEVE_BITS:
        return n in _SMALL_PRIMES
    if n % 2 == 0 or math.gcd(n, _ODD_PRIMORIAL) != 1:
        return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    bases = [secrets.randbelow(n - 3) + 2 for _ in range(MR_ROUNDS)]
    for x in powers_while([(a, d, n) for a in bases])[1]:
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = (x * x) % n
            if x == n - 1:
                break
        else:
            return False
    return True


def gcd(a: int, b: int) -> int:
    return math.gcd(a, b)


#: Candidates that pass trial division, drawn and Fermat-tested together as
#: one :func:`powers_while` batch.
CANDIDATE_BATCH = 4


def prime_candidate(bits: int, rng: random.Random | None = None) -> int:
    """Random odd ``bits``-bit integer with its top two bits set that has no
    odd prime factor below 2**SIEVE_BITS and passes a base-2 Fermat test.

    This is a filter, not a primality proof: base-2 pseudoprimes such as
    341 = 11 * 31 pass it. Run :func:`is_probable_prime` on the result before
    treating it as prime. The top two bits make the product of a ``b``-bit
    and a ``c``-bit candidate exactly ``b + c`` bits long.

    Candidates that pass trial division are drawn ``CANDIDATE_BATCH`` at a
    time and Fermat-tested across the worker; the first to pass in draw
    order wins. A seeded ``rng`` is then rewound to its state just after
    that candidate's draw, so the result and the state that follows are
    those of a one-at-a-time search; from ``SystemRandom`` the later draws
    are discarded.

    Raises:
        WorkerError: the worker process died; the next call starts a new one.
    """
    if bits <= SIEVE_BITS:
        raise ValueError(f"prime size must exceed {SIEVE_BITS} bits")
    rng = rng or SYSTEM_RNG
    rewind = not isinstance(rng, random.SystemRandom)
    while True:
        batch, states = [], []
        while len(batch) < CANDIDATE_BATCH:
            candidate = rng.getrandbits(bits) | (3 << (bits - 2)) | 1
            if math.gcd(candidate, _ODD_PRIMORIAL) == 1:
                batch.append(candidate)
                states.append(rng.getstate() if rewind else None)
        _, powers = powers_while([(2, c - 1, c) for c in batch])
        for candidate, power, state in zip(batch, powers, states):
            if power == 1:
                if rewind:
                    rng.setstate(state)
                return candidate


def random_unit(mod: int, rng: random.Random | None = None) -> int:
    """Uniform nonzero element of [1, mod) coprime to mod, by rejection."""
    rng = rng or SYSTEM_RNG
    while True:
        r = rng.randrange(1, mod)
        if math.gcd(r, mod) == 1:
            return r


def crt2(r1: int, m1: int, r2: int, m2: int, m2_inv_m1: int) -> int:
    """Solve x = r1 (mod m1), x = r2 (mod m2) for coprime m1, m2; x in [0, m1*m2)."""
    return (r2 + m2 * (((r1 - r2) * m2_inv_m1) % m1)) % (m1 * m2)
