"""Big-integer helpers: modular exponentiation, inverses, CRT, probable primes,
and the power worker.

Delegates to gmpy2 when it is installed (roughly an order of magnitude faster
on crypto-sized operands); otherwise falls back to pure Python. All callers go
through this module so the two paths stay interchangeable.

Prime search is split in two. :func:`prime_candidate` is a cheap filter: it
draws odd integers with their top two bits set, so the product of two of them
has an exact bit length, and discards those with an odd prime factor below
2**12 (one gcd with a primorial) or that fail a base-2 Fermat test (one
exponentiation). :func:`is_probable_prime` is the full Miller-Rabin test, run
once on each surviving candidate by whoever needs a prime.

:func:`powers_while` hands a list of ``(base, exponent, modulus)`` items to
the power worker, one child process per party process, started at its first
batch and ended at exit, and runs the caller's own work meanwhile. Both
prime tests split across it: the worker runs the Fermat tests of the later
half of each small batch of candidates, and computes half of the
Miller-Rabin powers a**d mod n. It therefore receives prime candidates, p
and q among them, while a key is made or loaded; what it receives for
encryptions and decryptions is listed in :mod:`pinfer.paillier`.
"""

from __future__ import annotations

import atexit
import contextlib
import itertools
import math
import random
import secrets
import subprocess
import sys
import threading

from .errors import WorkerError

try:
    import gmpy2

    HAVE_GMPY2 = True
except ImportError:  # pragma: no cover - exercised only without gmpy2
    gmpy2 = None
    HAVE_GMPY2 = False

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


if HAVE_GMPY2:

    def powmod(base: int, exp: int, mod: int) -> int:
        """base**exp mod mod; negative exponents require an invertible base."""
        return int(gmpy2.powmod(base, exp, mod))

    def invert(a: int, mod: int) -> int:
        """Multiplicative inverse of a modulo mod."""
        try:
            return int(gmpy2.invert(a, mod))
        except ZeroDivisionError:
            raise ValueError(f"{a} is not invertible modulo {mod}") from None

else:

    def powmod(base: int, exp: int, mod: int) -> int:
        """base**exp mod mod; negative exponents require an invertible base."""
        return pow(base, exp, mod)

    def invert(a: int, mod: int) -> int:
        """Multiplicative inverse of a modulo mod."""
        try:
            return pow(a, -1, mod)
        except ValueError:
            raise ValueError(f"{a} is not invertible modulo {mod}") from None


#: The worker's program. Each input line is a list of groups separated by
#: commas, each group ``e m b_1 ... b_k`` in lower-case hex separated by
#: spaces: an exponent, a modulus and the bases raised to it. It answers
#: with one line of the hex ``b**e mod m`` of every base, in order. It exits
#: at the end of its input. It ignores SIGINT: a Ctrl-C ends its parent,
#: whose exit then ends it.
_WORKER_SRC = """
import signal, sys
signal.signal(signal.SIGINT, signal.SIG_IGN)
try:
    from gmpy2 import powmod
except ImportError:
    powmod = pow
for line in sys.stdin:
    powers = []
    for group in line.split(","):
        exponent, modulus, *bases = (int(w, 16) for w in group.split())
        powers += (format(powmod(b, exponent, modulus), "x") for b in bases)
    print(*powers, flush=True)
"""


class _PowerWorker:
    """The party process's one worker process for batches of powers.

    It starts at the first batch and again after it has died. A lock held
    from request to reply keeps concurrent batches, from the connections of
    a server, in step on the one pipe.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._proc: subprocess.Popen | None = None

    def powers_while(self, items: list[tuple[int, int, int]], work):
        """``(work(), [pow(b, e, m) for b, e, m in items])``, with the powers
        computed in the worker while ``work`` runs here. Consecutive items
        of one exponent and modulus share a group on the line, so a batch
        under one key sends its exponent and modulus once.

        The reply is read even when ``work`` raises, so no stale reply is
        left for the next batch. No items, no request.

        Raises:
            WorkerError: the worker died or its reply is not one full line
                of ``len(items)`` hex words; it is reaped and the next call
                starts a new one.
        """
        if not items:
            return work(), []
        line = ",".join(" ".join(format(x, "x") for x in (e, m, *(b for b, _, _ in group)))
                        for (e, m), group in itertools.groupby(items, lambda item: item[1:]))
        with self._lock:
            try:
                if self._proc is None or self._proc.poll() is not None:
                    self._end()
                    self._proc = subprocess.Popen([sys.executable, "-I", "-c", _WORKER_SRC],
                                                  stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                                  text=True)
                proc = self._proc
                print(line, file=proc.stdin, flush=True)
            except OSError as exc:
                self._end()
                raise WorkerError(f"cannot reach the power worker: {exc}") from None
            try:
                result = work()
            finally:
                try:
                    reply = proc.stdout.readline()
                    powers = [int(w, 16) for w in reply.split()]
                    if not reply.endswith("\n") or len(powers) != len(items):
                        raise ValueError
                except ValueError:
                    self._end()
                    raise WorkerError("the power worker exited before it answered") from None
            return result, powers

    def close(self) -> None:
        """End the worker, if one runs: EOF on its input, then reap it."""
        with self._lock:
            self._end()

    def _end(self) -> None:
        proc, self._proc = self._proc, None
        if proc is None:
            return
        with contextlib.suppress(OSError):
            proc.stdin.close()
        proc.stdout.close()
        proc.wait()


_POWERS = _PowerWorker()
atexit.register(_POWERS.close)


def powers_while(items: list[tuple[int, int, int]], work) -> tuple:
    """``(work(), [b**e mod m for b, e, m in items])``, the powers computed
    by the party's power worker while ``work`` runs in this thread.

    Raises:
        WorkerError: the worker process died; the next call starts a new one.
    """
    return _POWERS.powers_while(items, work)


def _halved_powers(items: list[tuple[int, int, int]]) -> list[int]:
    """``[b**e mod m for b, e, m in items]``: the first half computed here,
    the rest by the worker."""
    half = len(items) // 2
    mine, theirs = powers_while(items[half:], lambda: [powmod(*item) for item in items[:half]])
    return mine + theirs


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin with ``MR_ROUNDS`` random bases from ``secrets``, after
    trial division. The worker computes half of the powers a**d mod n; the
    squarings that follow each power run here.

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
    for x in _halved_powers([(a, d, n) for a in bases]):
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


#: Candidates that pass trial division, drawn and Fermat-tested together:
#: the first half here, the rest in the worker.
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
        powers = _halved_powers([(2, c - 1, c) for c in batch])
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
