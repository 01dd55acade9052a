"""Shared-output private comparison (DGK-style), and the masked comparison on top.

One party (the bit owner) holds a private l-bit integer mu; ``bit_owner_request``
returns its bits encrypted under its own key, a tuple, low bit first. The other
(the evaluator) holds a private l-bit integer eta and a share bit delta_eval;
``evaluator_respond`` reads l off the tuple's length and returns the l+1
blinded values in random order. ``bit_owner_finish`` decrypts them: the owner's
share delta_owner is 1 iff exactly one is zero. The shares then satisfy

    delta_owner XOR delta_eval = [mu <= eta].

Neither party learns the comparison result on its own.

The masked comparison finds the sign of a value |t| < 2**l. The mask owner
sends t + r under the evaluator's key, with r uniform over
[2**l - 1, 2**(l+kappa)), and the low l bits of r under its own key
(``linear.masked_challenge``). The evaluator reads l off the bit count,
which its caller checks, and compares the low l bits of t + r against them
with delta_eval = bit l of t + r XOR a flip bit; the owner's share XOR bit
l of r is then [t >= 0] XOR flip. svm-core runs it with the client as
owner and flip 0, the core network units with the server as owner and a
random flip.

Blinding scalars are drawn from the units modulo M by rejection sampling;
M = N is composite here, but a product r*h can only vanish modulo M for
h = 0 when r is a unit, which is all correctness needs. Privacy needs more:
a prime p <= l+2 dividing the owner's N would let the owner read whether p
divides h, so ``evaluator_step`` refuses an owner key with a factor below
2**12.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import ParameterError, ProtocolViolationError
from .numutil import SYSTEM_RNG, has_small_factor
from .paillier import Ciphertext, PublicKey, SecretKey


def bit_owner_request(pk: PublicKey, mu: int, bit_length: int,
                      rng: random.Random | None = None) -> tuple[Ciphertext, ...]:
    """Encrypt the binary digits of mu under the bit owner's key, low bit first.

    The bits are one ``PublicKey.encrypt_all`` batch: under the owner's own
    key, both half-size powers of each random factor are its items.

    Raises:
        ParameterError: if mu is not an l-bit non-negative integer.
    """
    return tuple(pk.encrypt_all(digits(mu, bit_length), rng))


def digits(mu: int, bit_length: int) -> list[int]:
    """The bit_length binary digits of mu, low bit first: the bits of either
    party's input. ``ParameterError`` if mu is not an l-bit non-negative integer."""
    if bit_length < 1:
        raise ParameterError("bit length must be positive")
    if not 0 <= mu < (1 << bit_length):
        raise ParameterError(f"value {mu} is not a {bit_length}-bit non-negative integer")
    return [(mu >> i) & 1 for i in range(bit_length)]


def evaluator_respond(pk: PublicKey, bits: tuple[Ciphertext, ...], eta: int, delta_eval: int,
                      rng: random.Random | None = None) -> tuple[Ciphertext, ...]:
    """Blinded test values for the comparison of the l = len(bits) encrypted
    bits, low bit first, against eta.

    For i = l-1 .. 0 the evaluator forms, over encrypted data,

        h_i = s*(mu_i - eta_i) + 1 + sum_{j>i} (mu_j XOR eta_j),  s = 1 - 2*delta_eval,

    plus the equality guard h_-1 = delta_eval + sum_j (mu_j XOR eta_j), scales
    each by a fresh unit, rerandomizes, and returns them shuffled. The scaling
    and rerandomizing is one ``PublicKey.blind_all`` batch: under the owner's
    key rebuilt from bytes, a helper thread computes the random N-th powers
    s**N mod N**2 of the rerandomization while this thread scales, then
    both take the rest.

    Raises:
        ParameterError: no bits, eta not an l-bit non-negative integer, or
            delta_eval not a bit.
    """
    rng = rng or SYSTEM_RNG
    eta_bits = digits(eta, len(bits))
    if delta_eval not in (0, 1):
        raise ParameterError("share must be a bit")
    s = 1 - 2 * delta_eval
    # XOR against a known bit: reuse the ciphertext for 0, flip it for 1.
    xor_terms = [bit if eta_bits[i] == 0 else (-bit).add_plain(1)
                 for i, bit in enumerate(bits)]

    values: list[Ciphertext] = []
    suffix = None  # encrypted sum of xor_terms[j] for j > i
    for i in reversed(range(len(bits))):
        term = bits[i] if s == 1 else -bits[i]
        value = term.add_plain(1 - s * eta_bits[i])
        if suffix is not None:
            value = value + suffix
        values.append(value)
        suffix = xor_terms[i] if suffix is None else suffix + xor_terms[i]
    values.append(suffix.add_plain(delta_eval))
    blinded = pk.blind_all(values, rng)
    rng.shuffle(blinded)
    return tuple(blinded)


def bit_owner_finish(sk: SecretKey, blinded: tuple[Ciphertext, ...]) -> int:
    """The bit owner's share: 1 iff exactly one blinded value decrypts to zero.

    The values are one ``SecretKey.decrypt_all`` batch: both half-size
    powers of each decryption are its items.

    Raises:
        ProtocolViolationError: more than one zero, impossible for honest peers.
    """
    zeros = sk.decrypt_all(list(blinded)).count(0)
    if zeros > 1:
        raise ProtocolViolationError(f"{zeros} blinded values decrypted to zero")
    return 1 if zeros == 1 else 0


# ---------------------------------------------------------------------------
# masked comparison

@dataclass(frozen=True)
class UnitChallenge:
    """t + mask under the evaluator's key; the mask's low ell bits under the
    owner's, whose count the receiver checks against its ell. A heuristic
    network unit sends lam * t + mu in its place, and no bits."""

    masked_inner: Ciphertext
    mask_bits: tuple[Ciphertext, ...]


def draw_mask(ell: int, kappa: int, rng: random.Random, mask: int | None = None) -> int:
    """Uniform over [2**ell - 1, 2**(ell+kappa)), so t + mask >= 0 for |t| < 2**ell;
    a forced ``mask`` (a test hook) is checked against the same range."""
    low, high = (1 << ell) - 1, 1 << (ell + kappa)
    if mask is None:
        return rng.randrange(low, high)
    if not low <= mask < high:
        raise ParameterError("mask outside [2**ell - 1, 2**(ell+kappa))")
    return mask


def evaluator_step(sk_eval: SecretKey, pk_owner: PublicKey, challenge: UnitChallenge,
                   flip: int, rng: random.Random | None = None) -> tuple[Ciphertext, ...]:
    """The blinded values comparing the low ell bits of t + mask against the
    mask's, with the evaluator's share bit ell of t + mask XOR ``flip``.
    ell is the number of mask bits; the caller checks it against its own.

    Raises:
        ProtocolViolationError: the owner's modulus has an odd prime factor
            below 2**12, before any blind. r*h mod such a prime p is 0
            exactly when p divides h, so the owner could read h mod p.
    """
    ell = len(challenge.mask_bits)
    if has_small_factor(pk_owner.n):
        raise ProtocolViolationError("the bit owner's modulus has a small factor")
    t_star = sk_eval.decrypt_unsigned(challenge.masked_inner)
    delta_eval = ((t_star >> ell) & 1) ^ flip
    return evaluator_respond(pk_owner, challenge.mask_bits, t_star % (1 << ell), delta_eval, rng)


def owner_step(sk_owner: SecretKey, mask: int, ell: int,
               blinded: tuple[Ciphertext, ...]) -> int:
    """[t >= 0] XOR flip: the owner's share XOR bit ell of the mask."""
    return bit_owner_finish(sk_owner, blinded) ^ ((mask >> ell) & 1)
