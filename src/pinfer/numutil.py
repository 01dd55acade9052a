"""Big-integer helpers: modular exponentiation, inverses, CRT, probable primes,
and batches of powers on two threads.

:func:`powmod` and :func:`invert` have two backends; :data:`BACKEND` names
the one chosen at import. ``"libgmp"``, when the system's GMP
(``libgmp.so.10``, else ``find_library("gmp")``) loads through ``ctypes``:
every power with an exponent above 0 and an odd modulus above 1 is GMP's
constant-time ``mpz_powm_sec``, since the exponents and bases here are
secrets, every inverse is ``mpz_invert``, and ``pow`` takes the rest.
``"python"`` otherwise: Python's ``pow``, correct but not constant-time and
about 5-7x slower at 2048 bits. gmpy2 is never used, even when it imports.
All callers go through this module.

Prime search is split in two. :func:`prime_candidate` is a cheap filter: it
draws odd integers with their top two bits set, so the product of two of them
has an exact bit length, and discards those with an odd prime factor below
2**12 (one gcd with a primorial) or that fail a base-2 Fermat test (one
exponentiation). :func:`is_probable_prime` is the full Miller-Rabin test, run
once on each surviving candidate by whoever needs a prime, with bases from
:data:`SYSTEM_RNG` (``os.urandom``), never from the caller's ``rng``.

:func:`powers_while` computes a list of ``(base, exponent, modulus)`` items
on two threads: a helper thread, started for the batch and joined before it
returns, takes items from the front while the calling thread runs its own
work and then takes items from the back, so the batch balances itself. Both
prime tests are such batches. Only the libgmp path runs the two threads at
once, since its powers drop the GIL; under ``pow`` the helper takes turns
with the caller. No value leaves the process.
"""

from __future__ import annotations

import ctypes
import math
import random
import threading

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


def has_small_factor(n: int) -> bool:
    """Whether n has an odd prime factor below 2**SIEVE_BITS: the trial
    division of both prime tests and of the comparison's bit owner check."""
    return math.gcd(n, _ODD_PRIMORIAL) != 1


def insecure_rng(seed: int) -> random.Random:
    """Deterministic RNG for reproducible tests.

    INSECURE: never use for production keys, masks or blinding factors.
    """
    return random.Random(seed)


class _Mpz(ctypes.Structure):
    """GMP's ``__mpz_struct``."""
    _fields_ = [("alloc", ctypes.c_int), ("size", ctypes.c_int), ("limbs", ctypes.c_void_p)]


def _load_gmp(name: str | None = "libgmp.so.10", search: bool = True) -> dict | None:
    """The libgmp functions this module calls, by name, or None if the
    library does not load. The power and the inverse come through ``CDLL``,
    which drops the GIL for the call; the conversions around them are cheap
    and keep it (``PyDLL``)."""
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


_gmp = _load_gmp()
BACKEND = "libgmp" if _gmp else "python"
# Always False: the bench's environment line still reads it. It goes when
# the bench records BACKEND in its place.
HAVE_GMPY2 = False


def _gmp_call(name: str, bound: int, *args: int) -> tuple[int, int]:
    """(result, status) of GMP's ``name(result, *args)`` on non-negative
    ints, the result below ``bound``. Each call makes and clears its own mpz
    temporaries, since other threads may be inside the binding at once."""
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


def powmod(base: int, exp: int, mod: int) -> int:
    """base**exp mod mod; negative exponents require an invertible base."""
    if _gmp and exp > 0 and mod > 1 and mod & 1:
        return _gmp_call("powm_sec", mod, base % mod, exp, mod)[0]
    return pow(base, exp, mod)


def invert(a: int, mod: int) -> int:
    """Multiplicative inverse of a modulo mod."""
    try:
        if _gmp and mod > 1:
            inverse, found = _gmp_call("invert", mod, a % mod, mod)
            if found:
                return inverse
            raise ValueError
        return pow(a, -1, mod)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"{a} is not invertible modulo {mod}") from None


def powers_while(items: list[tuple[int, int, int]], work=None) -> tuple:
    """``(work(), [b**e mod m for b, e, m in items])`` on two threads.

    A helper thread takes items from the front, one at a time, while this
    thread runs ``work`` and then takes items from the back, until the two
    sides meet; then it joins the helper. A batch of one item without work,
    or of work alone, runs here without a helper. A power that raises on the
    helper raises here after the join. When ``work`` or a power here raises,
    the items left are dropped and the helper is joined before the
    exception leaves.
    """
    if len(items) + (work is not None) < 2:
        return work() if work else None, [powmod(*item) for item in items]
    powers, failed = [None] * len(items), []
    lock, front, back = threading.Lock(), 0, len(items)

    def take(from_front: bool) -> int | None:
        """The index of the item taken from one end, or None once the ends meet."""
        nonlocal front, back
        with lock:
            if front == back:
                return None
            if from_front:
                front += 1
                return front - 1
            back -= 1
            return back

    def helper() -> None:
        try:
            while (i := take(True)) is not None:
                powers[i] = powmod(*items[i])
        except BaseException as exc:
            failed.append(exc)

    thread = threading.Thread(target=helper, name="powers_while")
    thread.start()
    try:
        result = work() if work else None
        while (i := take(False)) is not None:
            powers[i] = powmod(*items[i])
    finally:
        with lock:
            back = front
        thread.join()
    if failed:
        raise failed[0]
    return result, powers


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin with ``MR_ROUNDS`` bases uniform in [2, n - 2] from
    :data:`SYSTEM_RNG`, after trial division. The powers a**d mod n are one
    :func:`powers_while` batch; the squarings that follow each power run here.
    """
    if n < 1 << SIEVE_BITS:
        return n in _SMALL_PRIMES
    if n % 2 == 0 or has_small_factor(n):
        return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    bases = [SYSTEM_RNG.randrange(2, n - 1) for _ in range(MR_ROUNDS)]
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
    time and Fermat-tested as one :func:`powers_while` batch; the first to pass in draw
    order wins. A seeded ``rng`` is then rewound to its state just after
    that candidate's draw, so the result and the state that follows are
    those of a one-at-a-time search; from ``SystemRandom`` the later draws
    are discarded.
    """
    if bits <= SIEVE_BITS:
        raise ValueError(f"prime size must exceed {SIEVE_BITS} bits")
    rng = rng or SYSTEM_RNG
    rewind = not isinstance(rng, random.SystemRandom)
    while True:
        batch, states = [], []
        while len(batch) < CANDIDATE_BATCH:
            candidate = rng.getrandbits(bits) | (3 << (bits - 2)) | 1
            if not has_small_factor(candidate):
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
