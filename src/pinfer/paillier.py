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
randomness without changing its plaintext. Ciphertexts are tagged with the
key they were produced under, and mixing keys in a homomorphic operation
fails fast with :class:`~pinfer.errors.KeyMismatchError`.

The party that holds the secret key never exponentiates modulo N**2. Its
own public key (``SecretKey.public_key``) draws the encryption randomness
r**N as a CRT pair of p-th and q-th powers modulo p**2 and q**2, and
decryption works modulo p**2 and q**2 as well. A public key built from N
alone, as a peer's key is, holds no factors and takes the generic path; both
produce the same distribution of ciphertexts, and their ciphertexts mix
freely.

Every batch of fresh randomness goes through ``PublicKey._factors``, which
shares its powers with the power worker of :mod:`pinfer.numutil`: one child
process per party process, started at the first batch and ended at exit.
The random factors do not depend on the values (Paillier, EUROCRYPT 1999,
notes they can be precomputed), so a batch draws them as single encryptions
would, in order, and the worker computes its share while the caller computes
the rest and its own work: the products r*c of ``PublicKey.blind_all``, or
the scalar products of ``linear.encrypted_dot``.

- Under a key built from N alone, the worker computes s**N mod N**2 for
  every base when the caller has work, and for the last half when it has
  none. It receives N, N**2 and the bases s.
- Under a key holder's own key each factor, and in ``SecretKey.decrypt_all``
  each decryption, is a pair of half-size powers; the worker computes the
  one modulo q**2 (y**q or c**(q-1)). It receives q or q - 1, q**2 and the
  bases mod q**2: secret key material, passed over pipes to a child of the
  same party process.
- While a key is made (``keygen``) or loaded (``SecretKey``), the worker
  runs half of the prime tests, so it receives prime candidates, p and q
  among them. That adds nothing to what it can learn: from the q it
  already receives, p = N/q.

The worker never receives plaintexts, masks or the units r.

Key sizes of 2048 or 3072 bits are the production presets; the 64-bit floor
and the deterministic RNG from :func:`pinfer.numutil.insecure_rng` exist for
tests only.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field

from .errors import DecryptionError, KeyMismatchError, ParameterError
from .numutil import (SYSTEM_RNG, crt2, gcd, invert, is_probable_prime, powers_while,
                      powmod, prime_candidate, random_unit)

DEFAULT_KEY_BITS = 2048
#: Absolute floor, for test-scale keys only.
MIN_KEY_BITS = 64


class PublicKey:
    """Paillier public key: the modulus N.

    Attributes:
        n: the composite modulus N = p*q; also the message-space size M.
        n_squared: N**2, the ciphertext modulus.
        bit_length: ceil(log2 N), written l_M in the size formulas.
        key_id: short stable identifier used to tag ciphertexts.
    """

    __slots__ = ("n", "n_squared", "bit_length", "max_signed", "min_signed", "key_id",
                 "_secret")

    def __init__(self, n: int):
        if n <= 2 or n % 2 == 0:
            raise ParameterError("modulus must be odd and greater than 2")
        self.n = n
        self.n_squared = n * n
        self.bit_length = n.bit_length()
        self.max_signed = (n + 1) // 2 - 1
        self.min_signed = -(n // 2)
        digest = hashlib.sha256(n.to_bytes((n.bit_length() + 7) // 8, "big")).digest()
        self.key_id = digest[:8].hex()
        #: The SecretKey that owns this key, if the caller holds it.
        self._secret: SecretKey | None = None

    def __eq__(self, other) -> bool:
        return isinstance(other, PublicKey) and self.n == other.n

    def __hash__(self) -> int:
        return hash(self.n)

    def __repr__(self) -> str:
        return f"<PublicKey {self.bit_length} bits id={self.key_id}>"

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
        """``[encrypt(m, rng) for m in ms]``, with the random factors drawn as
        ``encrypt`` draws them and computed as one ``_factors`` batch.

        Raises:
            ParameterError: a message outside the signed message space,
                before anything is drawn.
            WorkerError: the worker process died; the next batch starts a new one.
        """
        residues = [self._residue(m) for m in ms]
        _, factors = self._factors([self._draw_base(rng) for _ in ms])
        return [self.encrypt_unsigned(m, factor=f) for m, f in zip(residues, factors)]

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

        Raises:
            WorkerError: the worker process died; the next batch starts a new one.
        """
        rng = rng or SYSTEM_RNG
        units, bases = [], []
        for _ in values:
            units.append(random_unit(self.n, rng))
            bases.append(self._draw_base(rng))
        scaled, factors = self._factors(bases, lambda: [r * c for r, c in zip(units, values)])
        return [self.rerandomize(c, factor=f) for c, f in zip(scaled, factors)]

    def _fresh_factor(self, rng: random.Random | None = None) -> int:
        """Uniform N-th residue r**N mod N**2, computed here."""
        base, sk = self._draw_base(rng), self._secret
        if sk is None:
            return powmod(base, self.n, self.n_squared)
        # x -> x**p mod p**2 depends only on x mod p and maps onto the
        # p-th powers, which raising to q permutes: gcd(N, phi) = 1, so q
        # does not divide p - 1. Likewise modulo q**2.
        return sk._join(powmod(base[0], sk.p, sk._p_sq), powmod(base[1], sk.q, sk._q_sq))

    def _draw_base(self, rng: random.Random | None = None):
        """What one random factor draws: s mod N, or a key holder's x mod p, then y mod q."""
        rng, sk = rng or SYSTEM_RNG, self._secret
        if sk is None:
            return rng.randrange(1, self.n)
        return rng.randrange(1, sk.p), rng.randrange(1, sk.q)

    def _factors(self, bases: list, work=None) -> tuple:
        """``(work(), factors)`` for bases from ``_draw_base``, in order. The
        worker computes a key holder's y**q mod q**2, or under a key without
        factors s**N mod N**2 for every base if there is ``work`` and for the
        last half if not, while this thread runs ``work`` and the rest.

        Raises:
            WorkerError: the worker process died; the next batch starts a new one.
        """
        sk = self._secret
        if sk is not None:
            (result, f_ps), f_qs = powers_while(
                [(y, sk.q, sk._q_sq) for _, y in bases],
                lambda: (work() if work else None, [powmod(x, sk.p, sk._p_sq) for x, _ in bases]))
            return result, [sk._join(f_p, f_q) for f_p, f_q in zip(f_ps, f_qs)]
        split = 0 if work else len(bases) // 2
        (result, mine), theirs = powers_while(
            [(s, self.n, self.n_squared) for s in bases[split:]],
            lambda: (work() if work else None, [powmod(s, self.n, self.n_squared)
                                                for s in bases[:split]]))
        return result, mine + theirs

    def _residue(self, m: int) -> int:
        """m mod N, for a signed message m."""
        if not self.contains(m):
            raise ParameterError(f"message {m} outside the signed message space")
        return m % self.n

    def _check_own(self, c: "Ciphertext") -> None:
        if c.public_key.key_id != self.key_id:
            raise KeyMismatchError("ciphertext was produced under a different key")


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
        if gcd(n, phi) != 1:
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
            DecryptionError: ciphertext value not coprime to N, or not a
                valid encryption.
        """
        self.public_key._check_own(c)
        if gcd(c.value, self.public_key.n) != 1:
            raise DecryptionError("ciphertext is not coprime to the modulus")
        p, q = self.p, self.q
        x_p, x_q = powers or (powmod(c.value % self._p_sq, p - 1, self._p_sq),
                              powmod(c.value % self._q_sq, q - 1, self._q_sq))
        if (x_p - 1) % p != 0 or (x_q - 1) % q != 0:
            raise DecryptionError("ciphertext does not decode to a valid plaintext")
        m_p = (x_p - 1) // p * self._h_p % p
        m_q = (x_q - 1) // q * self._h_q % q
        return crt2(m_p, p, m_q, q, self._q_inv_p)

    def decrypt(self, c: "Ciphertext", powers: tuple[int, int] | None = None) -> int:
        """Plaintext as a signed representative in M."""
        return self.public_key.to_signed(self.decrypt_unsigned(c, powers))

    def decrypt_all(self, cts: list["Ciphertext"]) -> list[int]:
        """``[decrypt(c) for c in cts]``, with each c**(q-1) mod q**2
        computed in the worker process while this thread computes each
        c**(p-1) mod p**2.

        Raises:
            KeyMismatchError: a ciphertext produced under another key,
                before the worker sees any value.
            DecryptionError: as ``decrypt``.
            WorkerError: the worker process died; the next batch starts a new one.
        """
        for c in cts:
            self.public_key._check_own(c)
        p, p_sq, q_sq = self.p, self._p_sq, self._q_sq
        x_ps, x_qs = powers_while([(c.value % q_sq, self.q - 1, q_sq) for c in cts],
                                  lambda: [powmod(c.value % p_sq, p - 1, p_sq) for c in cts])
        return [self.decrypt(c, powers) for c, powers in zip(cts, zip(x_ps, x_qs))]

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

    @property
    def key_id(self) -> str:
        return self.public_key.key_id

    def _check_same(self, other: "Ciphertext") -> None:
        if self.key_id != other.key_id:
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
    or loaded. Both tests split across the power worker of
    :mod:`pinfer.numutil`, which receives the candidates and, in the
    Miller-Rabin test, p and q; the primes, and a seeded ``rng``'s state
    afterwards, are those of a one-at-a-time search.

    Raises:
        ParameterError: if bits is below the 64-bit test floor.
        WorkerError: the worker process died; the next call starts a new one.
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
