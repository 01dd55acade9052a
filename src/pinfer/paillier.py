"""Additively homomorphic encryption (Paillier cryptosystem).

The public key is a modulus N = p*q; ciphertexts live modulo N**2. The message
space is Z/NZ, viewed as the signed representative set
M = {-floor(N/2), ..., ceil(N/2) - 1} so that sign is preserved through
decryption. Given ciphertexts of m1 and m2 one can compute ciphertexts of
m1 + m2, m1 - m2 and a*m1 (all modulo N) without the secret key:

    add:       c1 * c2          mod N**2
    subtract:  c1 * c2**-1      mod N**2
    scale:     c1 ** a          mod N**2

Encryption is probabilistic; ``rerandomize`` refreshes a ciphertext's
randomness without changing its plaintext. Each ciphertext holds the key it
was produced under. Keys are equal when their moduli are, so a ciphertext
under a key rebuilt from N mixes with the key holder's; combining, decrypting
or rerandomizing under a key of another modulus fails fast with
:class:`~pinfer.errors.KeyMismatchError`.

The party that holds the secret key never exponentiates modulo N**2. Its
own public key (``SecretKey.public_key``) draws the encryption randomness
r**N as a CRT pair of p-th and q-th powers modulo p**2 and q**2, and
decryption works modulo p**2 and q**2 as well. A public key built from N
alone, as a peer's key is, holds no factors and takes the generic path; both
produce the same distribution of ciphertexts, and their ciphertexts mix
freely.

Every random factor is drawn and computed here, through ``_factors``, and
every decryption through ``SecretKey._halves``: each lists its powers as
items of one batch of :func:`pinfer.numutil.powers_while`, which splits them
between the calling thread and a helper thread. The random factors do not
depend on the values (Paillier, EUROCRYPT 1999, notes they can be
precomputed), so a batch draws them as single encryptions would, in order,
and the calling thread's work beside it is the products r*c of
``PublicKey.blind_all`` or the scalar products of ``encrypt_batch``. Other
modules call only the batches: ``linear``'s inner products and challenges
``encrypt_batch``; every other multi-value encryption ``encrypt_all``;
``comparison``'s blinds ``blind_all``; every multi-value decryption
``decrypt_all``. A lone encryption, rerandomization or decryption is a batch
of its own. Under a key built from N alone a factor is one item, s**N mod
N**2; under a key holder's own key each factor, and each decryption, is two
half-size items, mod p**2 and mod q**2. Each power is computed in
:mod:`pinfer.numutil`'s backend (GMP when the system has it, see
``numutil.BACKEND``); the backend changes how an item is computed, never
which items a batch holds.

Key sizes of 2048 or 3072 bits are the production presets; the 64-bit floor
and the deterministic RNG from :func:`pinfer.numutil.insecure_rng` exist for
tests only.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from . import numutil
from .errors import DecryptionError, KeyMismatchError, ParameterError
from .numutil import (SYSTEM_RNG, crt2, invert, is_probable_prime, powmod,
                      prime_candidate, random_unit)

DEFAULT_KEY_BITS = 2048
#: Absolute floor, for test-scale keys only.
MIN_KEY_BITS = 64


class PublicKey:
    """Paillier public key: the modulus N. Two keys are equal, and their
    ciphertexts mix, exactly when their moduli are, secret held or not.

    Attributes:
        n: the composite modulus N = p*q; also the message-space size M.
        n_squared: N**2, the ciphertext modulus.
        bit_length: ceil(log2 N), written l_M in the size formulas.
    """

    __slots__ = ("n", "n_squared", "bit_length", "max_signed", "min_signed", "_secret")

    def __init__(self, n: int):
        if n <= 2 or n % 2 == 0:
            raise ParameterError("modulus must be odd and greater than 2")
        self.n = n
        self.n_squared = n * n
        self.bit_length = n.bit_length()
        self.max_signed = (n + 1) // 2 - 1
        self.min_signed = -(n // 2)
        #: The SecretKey that owns this key, if the caller holds it.
        self._secret: SecretKey | None = None

    def __eq__(self, other) -> bool:
        return isinstance(other, PublicKey) and self.n == other.n

    def __hash__(self) -> int:
        return hash(self.n)

    def __repr__(self) -> str:
        return f"<PublicKey {self.bit_length} bits n=...{self.n & 0xFFFFFFFF:08x}>"

    def to_signed(self, m: int) -> int:
        """Map a residue in [0, N) to its signed representative."""
        return m if m < (self.n + 1) // 2 else m - self.n

    def contains(self, m: int) -> bool:
        """Whether m lies in the signed message space."""
        return self.min_signed <= m <= self.max_signed

    def encrypt(self, m: int, rng: random.Random | None = None) -> "Ciphertext":
        """Probabilistic encryption of a signed message.

        Raises:
            ParameterError: if m lies outside the signed message space.
        """
        return self.encrypt_unsigned(self._residue(m), rng)

    def encrypt_unsigned(self, m: int, rng: random.Random | None = None,
                         factor: int | None = None) -> "Ciphertext":
        """Probabilistic encryption of a residue already in [0, N), with a
        random N-th power drawn here or ``factor``, one the caller has
        already computed."""
        if not 0 <= m < self.n:
            raise ParameterError(f"residue {m} outside [0, N)")
        if factor is None:
            factor = self._fresh_factor(rng)
        return Ciphertext(((1 + m * self.n) % self.n_squared) * factor % self.n_squared, self)

    def encrypt_all(self, ms: list[int],
                    rng: random.Random | None = None) -> list["Ciphertext"]:
        """``[encrypt(m, rng) for m in ms]``, as one ``encrypt_batch``.

        Raises:
            ParameterError: a message outside the signed message space,
                before anything is drawn.
        """
        return encrypt_batch([(self, self._residue(m)) for m in ms], rng)[1]

    def rerandomize(self, c: "Ciphertext", rng: random.Random | None = None,
                    factor: int | None = None) -> "Ciphertext":
        """Fresh ciphertext of the same plaintext: multiplies in a random
        N-th power, or ``factor``, one the caller has already computed."""
        self._check_own(c)
        if factor is None:
            factor = self._fresh_factor(rng)
        return Ciphertext(c.value * factor % self.n_squared, self)

    def blind_all(self, values: list["Ciphertext"],
                  rng: random.Random | None = None) -> list["Ciphertext"]:
        """``[rerandomize(r_i * c_i)]`` for a fresh unit r_i per value, each
        drawn before its rerandomization's randomness, as a loop would; the
        factors are one ``_factors`` batch beside the products r_i * c_i.
        """
        rng = rng or SYSTEM_RNG
        units, draws = [], []
        for _ in values:
            units.append(random_unit(self.n, rng))
            draws.append(self._draw(rng))
        scaled, factors = _factors(draws, lambda: [r * c for r, c in zip(units, values)])
        return [self.rerandomize(c, factor=f) for c, f in zip(scaled, factors)]

    def _fresh_factor(self, rng: random.Random | None = None) -> int:
        """Uniform N-th residue r**N mod N**2: a batch of one ``_factors`` draw."""
        return _factors([self._draw(rng)])[1][0]

    def _draw(self, rng: random.Random | None = None) -> tuple:
        """One random factor, drawn: this key and its items, s**N mod N**2 for
        a unit s, or a key holder's x**p mod p**2 and y**q mod q**2 (x first)."""
        rng, sk = rng or SYSTEM_RNG, self._secret
        if sk is None:
            return self, [(random_unit(self.n, rng), self.n, self.n_squared)]
        return self, [(rng.randrange(1, sk.p), sk.p, sk._p_sq),
                      (rng.randrange(1, sk.q), sk.q, sk._q_sq)]

    def _residue(self, m: int) -> int:
        """m mod N, for a signed message m."""
        if not self.contains(m):
            raise ParameterError(f"message {m} outside the signed message space")
        return m % self.n

    def _check_own(self, c: "Ciphertext") -> None:
        if c.public_key != self:
            raise KeyMismatchError("ciphertext was produced under a different key")


def encrypt_batch(plain: list, rng: random.Random | None = None, work=None) -> tuple:
    """``(work(), cts)``: ``key.encrypt_unsigned(m, rng)`` for each ``(key, m)``
    of ``plain`` in order, under any mix of keys, with every random factor
    drawn as that loop would and all of them one ``_factors`` batch beside
    ``work``, which may be None."""
    result, factors = _factors([key._draw(rng) for key, _ in plain], work)
    return result, [key.encrypt_unsigned(m, factor=f) for (key, m), f in zip(plain, factors)]


def _factors(draws: list, work=None) -> tuple:
    """``(work(), factors)``: the random factor of each ``PublicKey._draw``,
    in order, its items one ``powers_while`` batch beside ``work``. A key
    holder's factor is the CRT pair: x -> x**p mod p**2 depends only on x
    mod p and maps onto the p-th powers, which raising to q permutes, since
    gcd(N, phi) = 1 means q does not divide p - 1. Likewise modulo q**2.
    """
    result, powers = numutil.powers_while([item for _, items in draws for item in items], work)
    powers = iter(powers)
    return result, [pk._secret._join(next(powers), next(powers)) if pk._secret else
                    next(powers) for pk, _ in draws]


class SecretKey:
    """Paillier secret key: the prime factors of N.

    Decryption is the CRT form from Paillier (EUROCRYPT 1999, section 7):
    with L_p(x) = (x - 1) / p, the plaintext is m = L_p(c**(p-1) mod p**2)
    * h_p mod p, likewise modulo q, joined by CRT, where h_p = (-q)**-1 mod
    p. Each half costs one exponentiation with a half-size exponent modulo
    p**2. ``public_key`` is linked back to this key, so encryption and
    rerandomization under it also run modulo p**2 and q**2.
    """

    def __init__(self, p: int, q: int):
        if p == q:
            raise ParameterError("prime factors must be distinct")
        if not (is_probable_prime(p) and is_probable_prime(q)):
            raise ParameterError("secret key factors must be prime")
        self.p = p
        self.q = q
        n = p * q
        phi = (p - 1) * (q - 1)
        if math.gcd(n, phi) != 1:
            raise ParameterError("modulus shares a factor with its totient")
        self.public_key = PublicKey(n)
        self.public_key._secret = self
        self._q_inv_p = invert(q % p, p)
        self._p_sq = p * p
        self._q_sq = q * q
        self._q_sq_inv_p_sq = invert(self._q_sq % self._p_sq, self._p_sq)
        # h_p = L_p((1+N)**(p-1) mod p**2)**-1 = (-q)**-1 mod p, likewise h_q.
        self._h_p = invert(-q % p, p)
        self._h_q = invert(-p % q, q)

    def __repr__(self) -> str:
        return f"<SecretKey for {self.public_key!r}>"

    def decrypt_unsigned(self, c: "Ciphertext",
                         powers: tuple[int, int] | None = None) -> int:
        """Plaintext residue in [0, N); ``powers`` are c**(p-1) mod p**2 and
        c**(q-1) mod q**2, if the caller has already computed them.

        Raises:
            KeyMismatchError: ciphertext produced under another key.
            DecryptionError: ciphertext value not coprime to N.
        """
        self.public_key._check_own(c)
        if math.gcd(c.value, self.public_key.n) != 1:
            raise DecryptionError("ciphertext is not coprime to the modulus")
        p, q = self.p, self.q
        x_p, x_q = powers or numutil.powers_while(self._halves(c))[1]
        # p does not divide c, so x_p is 1 modulo p by Fermat; likewise x_q.
        m_p = (x_p - 1) // p * self._h_p % p
        m_q = (x_q - 1) // q * self._h_q % q
        return crt2(m_p, p, m_q, q, self._q_inv_p)

    def decrypt(self, c: "Ciphertext", powers: tuple[int, int] | None = None) -> int:
        """Plaintext as a signed representative in M."""
        return self.public_key.to_signed(self.decrypt_unsigned(c, powers))

    def decrypt_all(self, cts: list["Ciphertext"]) -> list[int]:
        """``[decrypt(c) for c in cts]``, every c's ``_halves`` one ``powers_while`` batch.

        Raises:
            KeyMismatchError: a ciphertext produced under another key,
                before any power is computed.
            DecryptionError: as ``decrypt``.
        """
        for c in cts:
            self.public_key._check_own(c)
        _, x = numutil.powers_while([item for c in cts for item in self._halves(c)])
        return [self.decrypt(c, pair) for c, pair in zip(cts, zip(x[::2], x[1::2]))]

    def _halves(self, c: "Ciphertext") -> list[tuple[int, int, int]]:
        """The items of c's decryption: c**(p-1) mod p**2, c**(q-1) mod q**2."""
        return [(c.value % self._p_sq, self.p - 1, self._p_sq),
                (c.value % self._q_sq, self.q - 1, self._q_sq)]

    def _join(self, f_p: int, f_q: int) -> int:
        """The residue mod N**2 that is f_p mod p**2 and f_q mod q**2."""
        return crt2(f_p, self._p_sq, f_q, self._q_sq, self._q_sq_inv_p_sq)


@dataclass(frozen=True)
class Ciphertext:
    """An element of [0, N**2), tagged with the key that produced it.

    Supports ``c1 + c2``, ``c1 - c2`` and ``a * c`` for an integer scalar a;
    the decryptions satisfy the corresponding congruences modulo N.
    """

    value: int
    public_key: PublicKey = field(repr=False)

    def _check_same(self, other: "Ciphertext") -> None:
        if self.public_key != other.public_key:
            raise KeyMismatchError("cannot combine ciphertexts under different keys")

    def __add__(self, other: "Ciphertext") -> "Ciphertext":
        self._check_same(other)
        return Ciphertext(self.value * other.value % self.public_key.n_squared, self.public_key)

    def __sub__(self, other: "Ciphertext") -> "Ciphertext":
        self._check_same(other)
        nsq = self.public_key.n_squared
        return Ciphertext(self.value * invert(other.value, nsq) % nsq, self.public_key)

    def __mul__(self, scalar: int) -> "Ciphertext":
        if not isinstance(scalar, int):
            return NotImplemented
        pk = self.public_key
        e = scalar % pk.n
        if e == 0:
            return Ciphertext(1, pk)
        # Keep the exponent short: a scalar near N is cheaper as a negated inverse.
        if pk.n - e < e:
            return Ciphertext(powmod(invert(self.value, pk.n_squared), pk.n - e, pk.n_squared), pk)
        return Ciphertext(powmod(self.value, e, pk.n_squared), pk)

    __rmul__ = __mul__

    def __neg__(self) -> "Ciphertext":
        return Ciphertext(invert(self.value, self.public_key.n_squared), self.public_key)

    def add_plain(self, m: int) -> "Ciphertext":
        """Ciphertext of (plaintext + m); costs one multiplication.

        Does not refresh randomness: the result is linked to this ciphertext
        and must be rerandomized before leaving the party that computed it.
        """
        pk = self.public_key
        return Ciphertext(self.value * (1 + (m % pk.n) * pk.n) % pk.n_squared, pk)


def keygen(bits: int = DEFAULT_KEY_BITS, rng: random.Random | None = None) -> tuple[PublicKey, SecretKey]:
    """Fresh key pair with a modulus of exactly ``bits`` bits.

    The primes are balanced, ``bits // 2`` and ``bits - bits // 2`` bits
    long, and each has its top two bits set, so N = p*q has exactly ``bits``
    bits for odd sizes too and no draw is discarded for its size. Candidates
    come from :func:`~pinfer.numutil.prime_candidate`, a cheap filter; the
    one full primality test per prime (``MR_ROUNDS`` Miller-Rabin rounds,
    error below 2**-80) is the one ``SecretKey`` runs on every key, generated
    or loaded. Both tests are :func:`~pinfer.numutil.powers_while` batches;
    the primes, and a seeded ``rng``'s state afterwards, are those of a
    one-at-a-time search.

    Raises:
        ParameterError: if bits is below the 64-bit test floor.
    """
    if bits < MIN_KEY_BITS:
        raise ParameterError(f"key size {bits} below the {MIN_KEY_BITS}-bit floor")
    rng = rng or SYSTEM_RNG
    while True:
        p = prime_candidate(bits // 2, rng)
        q = prime_candidate(bits - bits // 2, rng)
        try:
            sk = SecretKey(p, q)
        except ParameterError:
            continue
        return sk.public_key, sk
