"""Big-integer helpers: modular exponentiation, inverses, CRT, probable primes.

Delegates to gmpy2 when it is installed (roughly an order of magnitude faster
on crypto-sized operands); otherwise falls back to pure Python. All callers go
through this module so the two paths stay interchangeable.

Prime search is split in two. :func:`prime_candidate` is a cheap filter: it
draws odd integers with their top two bits set, so the product of two of them
has an exact bit length, and discards those with an odd prime factor below
2**12 (one gcd with a primorial) or that fail a base-2 Fermat test (one
exponentiation). :func:`is_probable_prime` is the full Miller-Rabin test, run
once on each surviving candidate by whoever needs a prime.
"""

from __future__ import annotations

import math
import random
import secrets

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

    def is_probable_prime(n: int) -> bool:
        return bool(gmpy2.is_prime(n, MR_ROUNDS))

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

    def is_probable_prime(n: int) -> bool:
        if n < 1 << SIEVE_BITS:
            return n in _SMALL_PRIMES
        if n % 2 == 0 or math.gcd(n, _ODD_PRIMORIAL) != 1:
            return False
        d, s = n - 1, 0
        while d % 2 == 0:
            d //= 2
            s += 1
        for _ in range(MR_ROUNDS):
            a = secrets.randbelow(n - 3) + 2
            x = pow(a, d, n)
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


def prime_candidate(bits: int, rng: random.Random | None = None) -> int:
    """Random odd ``bits``-bit integer with its top two bits set that has no
    odd prime factor below 2**SIEVE_BITS and passes a base-2 Fermat test.

    This is a filter, not a primality proof: base-2 pseudoprimes such as
    341 = 11 * 31 pass it. Run :func:`is_probable_prime` on the result before
    treating it as prime. The top two bits make the product of a ``b``-bit
    and a ``c``-bit candidate exactly ``b + c`` bits long.
    """
    if bits <= SIEVE_BITS:
        raise ValueError(f"prime size must exceed {SIEVE_BITS} bits")
    rng = rng or SYSTEM_RNG
    while True:
        candidate = rng.getrandbits(bits) | (3 << (bits - 2)) | 1
        if (math.gcd(candidate, _ODD_PRIMORIAL) == 1
                and powmod(2, candidate - 1, candidate) == 1):
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
