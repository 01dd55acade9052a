"""Single-round-trip private inference for linear models.

Four protocols, each split into client-step and server-step functions that
exchange plain message objects (the wire module handles byte framing):

* regression, core mode: the client sends its encrypted features, the server
  returns the encrypted inner product, the client decrypts and applies any
  injective link function. Everything is under the client's key.
* regression, dual mode: the server publishes its model encrypted under its
  own key once; per query the client homomorphically computes the inner
  product, masks it with a fresh uniform value, and unmasks the server's
  plaintext reply.
* SVM, core mode: dual-style masked inner product plus a shared-output
  private comparison, so the client learns only the class sign. Still one
  request and one response.
* SVM, heuristic mode: the server replies with a scaled-and-shifted inner
  product whose sign is the class. Cheapest, but the magnitude of the reply
  leaks some information about the model; callers must opt in explicitly.

Request functions return the outgoing message together with a single-use
session object holding the client's secrets for the finish step.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from . import activations
from .errors import (DimensionMismatchError, ParameterError,
                     ProtocolViolationError)
from .fixedpoint import decode, encode
from .numutil import SYSTEM_RNG, gcd
from .paillier import Ciphertext, PublicKey, SecretKey

#: Default statistical security parameter for masking.
DEFAULT_KAPPA = 95


def _ceil_log2(value: int) -> int:
    return (value - 1).bit_length() if value > 1 else 0


@dataclass(frozen=True)
class LinearModel:
    """Integer model vector theta with its inner-product bound.

    theta[0] is the bias, carried at scale 2**(2*precision); theta[1:] are the
    weights at scale 2**precision, so that against features at scale
    2**precision every term of the inner product carries scale 2**(2*precision).
    ``ell`` is the bit length of the bound B = 2**ell - 1 on |theta . x| over
    all admissible inputs (|x_j| <= 2**precision, x_0 = 1), checked at
    construction.
    """

    theta: tuple[int, ...]
    ell: int
    precision: int

    def __post_init__(self):
        if len(self.theta) < 2:
            raise ParameterError("model needs a bias and at least one weight")
        if self.precision < 0:
            raise ParameterError("precision must be non-negative")
        if self.ell < 1:
            raise ParameterError("ell must be positive")
        if self.worst_case_bound() > (1 << self.ell) - 1:
            raise ParameterError(
                f"inner product can reach {self.worst_case_bound()}, "
                f"above the declared bound 2**{self.ell} - 1")

    def worst_case_bound(self) -> int:
        x_max = 1 << self.precision
        return abs(self.theta[0]) + sum(abs(t) * x_max for t in self.theta[1:])

    @property
    def d(self) -> int:
        return len(self.theta) - 1

    @property
    def output_scale(self) -> int:
        return 2 * self.precision

    @classmethod
    def from_real(cls, weights, bias: float = 0.0, precision: int = 53,
                  ell: int | None = None) -> "LinearModel":
        """Encode real weights in [-1, 1] at the given precision.

        The default bound length is ell = 2*precision + ceil(log2(d+1)),
        widened if the encoded coefficients demand it.
        """
        theta = (encode(bias, 2 * precision),
                 *(encode(w, precision) for w in weights))
        d = len(theta) - 1
        natural = 2 * precision + _ceil_log2(d + 1)
        x_max = 1 << precision
        bound = abs(theta[0]) + sum(abs(t) * x_max for t in theta[1:])
        if ell is None:
            ell = max(natural, bound.bit_length())
        return cls(theta, ell, precision)


@dataclass(frozen=True)
class FeatureVector:
    """Integer feature vector with the fixed coordinate x_0 = 1."""

    values: tuple[int, ...]
    precision: int
    bound_bits: int | None = None

    def __post_init__(self):
        if not self.values or self.values[0] != 1:
            raise ParameterError("feature vector must start with the fixed coordinate 1")
        limit = 1 << (self.bound_bits if self.bound_bits is not None else self.precision)
        if any(abs(v) > limit for v in self.values[1:]):
            raise ParameterError("feature magnitude exceeds the declared bound")

    @property
    def d(self) -> int:
        return len(self.values) - 1

    @classmethod
    def from_real(cls, features, precision: int = 53,
                  allow_unscaled: bool = False) -> "FeatureVector":
        encoded = tuple(encode(f, precision) for f in features)
        bound_bits = None
        if allow_unscaled:
            bound_bits = max((abs(v).bit_length() for v in encoded), default=0)
            bound_bits = max(bound_bits, precision)
        return cls((1, *encoded), precision, bound_bits)


@dataclass(frozen=True)
class FeatureRequest:
    """Client's encrypted features x_1..x_d (x_0 = 1 is implicit) and key."""

    ciphertexts: tuple[Ciphertext, ...]
    public_key: PublicKey

    @property
    def d(self) -> int:
        return len(self.ciphertexts)


@dataclass(frozen=True)
class PublishedLinearModel:
    """Server-key encryptions of theta_0..theta_d; reusable across queries."""

    public_key: PublicKey
    ciphertexts: tuple[Ciphertext, ...]
    ell: int
    precision: int

    @property
    def d(self) -> int:
        return len(self.ciphertexts) - 1


@dataclass(frozen=True)
class SvmCoreRequest:
    """Masked inner product under the server key plus mask bits under the client key."""

    masked_inner: Ciphertext
    mask_bits: tuple[Ciphertext, ...]
    client_key: PublicKey


@dataclass
class RegrCoreSession:
    precision: int
    d: int


@dataclass
class DualSession:
    published: PublishedLinearModel
    mask: int  # residue in [0, M)
    _used: bool = field(default=False, repr=False)

    def consume(self) -> int:
        if self._used:
            raise ProtocolViolationError("session mask already used; start a new session")
        self._used = True
        return self.mask


@dataclass
class SvmCoreSession:
    mask: int
    ell: int
    _used: bool = field(default=False, repr=False)

    def consume(self) -> int:
        if self._used:
            raise ProtocolViolationError("session mask already used; start a new session")
        self._used = True
        return self.mask


# ---------------------------------------------------------------------------
# sizing checks

def check_core_sizing(modulus: int, ell: int, kappa: int) -> None:
    """Require M >= 2**ell * (2**kappa + 1) - 1 so the masked sum cannot wrap."""
    if modulus < (1 << ell) * ((1 << kappa) + 1) - 1:
        raise ParameterError(
            f"message space of {modulus.bit_length()} bits is too small for "
            f"ell={ell}, kappa={kappa}")


def max_core_ell(modulus: int, kappa: int) -> int:
    """Largest ell admissible for the masked-comparison protocols at this kappa."""
    return ((modulus + 1) // ((1 << kappa) + 1)).bit_length() - 1


def heuristic_interval(modulus: int, ell: int) -> tuple[int, int]:
    """Inclusive scaling-factor interval keeping lam*t + mu inside the message space.

    Symmetric with the floor bound on both signs: a magnitude of
    ceil(ceil(M/2) / (B+1)) on the negative side can push |lam|*(B+1) - 1
    past the largest signed representative whenever B+1 does not divide
    ceil(M/2), so only the floor is safe.
    """
    half = (modulus + 1) // 2
    bound = half // (1 << ell)  # B + 1 = 2**ell with B = 2**ell - 1
    return (-bound, bound)


def check_heuristic_sizing(modulus: int, ell: int, kappa: int) -> None:
    """Require the scaling interval to contain more than 2**kappa values."""
    lo, hi = heuristic_interval(modulus, ell)
    if hi - lo + 1 <= (1 << kappa):
        raise ParameterError(
            f"scaling interval of {hi - lo + 1} values is too small for kappa={kappa}")


def draw_heuristic_mask(modulus: int, ell: int, kappa: int,
                        rng: random.Random | None = None,
                        require_unit: bool = False) -> tuple[int, int, int]:
    """Draw (lam, mu, delta) with lam != 0, |mu| < |lam|, sign(mu) = sign(lam).

    delta = 0 when lam is positive, 1 when negative. mu = 0 is permitted for
    either sign. With ``require_unit`` lam is redrawn until invertible modulo
    the message space (needed when the protocol later divides by lam).
    """
    rng = rng or SYSTEM_RNG
    check_heuristic_sizing(modulus, ell, kappa)
    lo, hi = heuristic_interval(modulus, ell)
    while True:
        lam = rng.randrange(lo, hi + 1)
        if lam == 0:
            continue
        if require_unit and gcd(abs(lam), modulus) != 1:
            continue
        break
    mu = rng.randrange(0, lam) if lam > 0 else rng.randrange(lam + 1, 1)
    return lam, mu, 0 if lam > 0 else 1


def masked_sign_value(t: int, lam: int, mu: int, modulus: int) -> int:
    """Signed representative of (-1)**delta * (lam*t + mu) mod modulus.

    Plaintext core of the heuristic blinding; exposed so a toy modulus can be
    swept exhaustively.
    """
    delta = 0 if lam > 0 else 1
    v = ((-1) ** delta * (lam * t + mu)) % modulus
    return v if v < (modulus + 1) // 2 else v - modulus


def encrypted_dot(start: Ciphertext, coeffs, cts) -> Ciphertext:
    """Encrypted start + sum of coeff * ct; a fresh ``start`` makes the sum fresh."""
    if len(coeffs) != len(cts):
        raise DimensionMismatchError(
            f"{len(coeffs)} coefficients for {len(cts)} ciphertexts")
    acc = start
    for coeff, ct in zip(coeffs, cts):
        acc = acc + coeff * ct
    return acc


def _check_dims(model_d: int, request_d: int) -> None:
    if model_d != request_d:
        raise DimensionMismatchError(f"model has d={model_d}, request has d={request_d}")


def _injective(activation: str) -> activations.Activation:
    act = activations.get(activation)
    if not act.injective:
        raise ParameterError(
            f"activation {activation!r} is not injective; use the comparison protocols")
    return act


# ---------------------------------------------------------------------------
# regression, core mode

def regr_core_request(pk_client: PublicKey, x: FeatureVector,
                      rng: random.Random | None = None
                      ) -> tuple[FeatureRequest, RegrCoreSession]:
    """Encrypt the features under the client key; x_0 is not transmitted."""
    cts = tuple(pk_client.encrypt(v, rng) for v in x.values[1:])
    return FeatureRequest(cts, pk_client), RegrCoreSession(x.precision, x.d)


def regr_core_respond(model: LinearModel, request: FeatureRequest,
                      rng: random.Random | None = None) -> Ciphertext:
    """Encrypted inner product theta . x under the client key."""
    _check_dims(model.d, request.d)
    return encrypted_dot(request.public_key.encrypt(model.theta[0], rng),
                         model.theta[1:], request.ciphertexts)


def regr_core_finish(sk_client: SecretKey, response: Ciphertext,
                     session: RegrCoreSession, activation: str = "identity") -> float:
    """Decrypt the inner product and apply the link function."""
    act = _injective(activation)
    t = sk_client.decrypt(response)
    return act.fn(decode(t, 2 * session.precision))


# ---------------------------------------------------------------------------
# regression, dual mode

def regr_dual_publish(model: LinearModel, pk_server: PublicKey,
                      rng: random.Random | None = None) -> PublishedLinearModel:
    """One-time encryption of the model under the server key."""
    cts = tuple(pk_server.encrypt(t, rng) for t in model.theta)
    return PublishedLinearModel(cts[0].public_key, cts, model.ell, model.precision)


def regr_dual_request(published: PublishedLinearModel, x: FeatureVector,
                      rng: random.Random | None = None, mask: int | None = None
                      ) -> tuple[Ciphertext, DualSession]:
    """Homomorphic inner product plus a fresh uniform mask.

    The mask makes the value the server decrypts uniform over the message
    space. ``mask`` can be forced for tests; by default it is drawn uniformly.
    """
    _check_dims(published.d, x.d)
    if x.precision != published.precision:
        raise ParameterError("feature precision differs from the published model")
    rng = rng or SYSTEM_RNG
    n = published.public_key.n
    mask = rng.randrange(n) if mask is None else mask % n
    acc = encrypted_dot(published.ciphertexts[0], x.values[1:], published.ciphertexts[1:])
    acc = acc + published.public_key.encrypt_unsigned(mask, rng)
    return acc, DualSession(published, mask)


def regr_dual_respond(sk_server: SecretKey, request: Ciphertext) -> int:
    """Decrypt the masked inner product; the result is uniform and safe to return."""
    return sk_server.decrypt_unsigned(request)


def regr_dual_finish(session: DualSession, masked_value: int,
                     activation: str = "identity") -> float:
    """Remove the mask and apply the link function."""
    act = _injective(activation)
    n = session.published.public_key.n
    if not 0 <= masked_value < n:
        raise ProtocolViolationError("masked value outside the message space")
    t = session.published.public_key.to_signed((masked_value - session.consume()) % n)
    return act.fn(decode(t, 2 * session.published.precision))


# ---------------------------------------------------------------------------
# SVM, core mode

def svm_core_request(published: PublishedLinearModel, pk_client: PublicKey,
                     x: FeatureVector, kappa: int = DEFAULT_KAPPA,
                     rng: random.Random | None = None, mask: int | None = None
                     ) -> tuple[SvmCoreRequest, SvmCoreSession]:
    """Masked inner product under the server key plus encrypted mask bits.

    The mask is uniform over [2**ell - 1, 2**(ell+kappa)); the sizing check
    guarantees theta . x + mask never wraps modulo M, so the server sees the
    true integer. The low ell bits of the mask go to the server encrypted
    under the client key for the comparison step.
    """
    _check_dims(published.d, x.d)
    if x.precision != published.precision:
        raise ParameterError("feature precision differs from the published model")
    ell = published.ell
    check_core_sizing(published.public_key.n, ell, kappa)
    rng = rng or SYSTEM_RNG
    if mask is None:
        mask = rng.randrange((1 << ell) - 1, 1 << (ell + kappa))
    elif not (1 << ell) - 1 <= mask < 1 << (ell + kappa):
        raise ParameterError("mask outside [2**ell - 1, 2**(ell+kappa))")
    acc = encrypted_dot(published.ciphertexts[0], x.values[1:], published.ciphertexts[1:])
    acc = acc + published.public_key.encrypt_unsigned(mask, rng)
    bits = tuple(pk_client.encrypt((mask >> i) & 1, rng) for i in range(ell))
    return SvmCoreRequest(acc, bits, pk_client), SvmCoreSession(mask, ell)


def svm_core_respond(sk_server: SecretKey, request: SvmCoreRequest, ell: int,
                     rng: random.Random | None = None):
    """Decrypt the masked sum and answer the embedded comparison.

    The server's comparison share is pinned to bit ell of the decrypted sum
    rather than drawn at random; together with the client's mask bit it
    reconstructs the sign of the inner product.
    """
    from .comparison import ComparisonRequest, evaluator_respond

    if len(request.mask_bits) != ell:
        raise ProtocolViolationError(
            f"expected {ell} mask bits, got {len(request.mask_bits)}")
    t_star = sk_server.decrypt_unsigned(request.masked_inner)
    eta = t_star % (1 << ell)
    delta_eval = (t_star >> ell) & 1
    comp = ComparisonRequest(request.mask_bits, ell)
    return evaluator_respond(request.client_key, comp, eta, delta_eval, rng)


def svm_core_finish(sk_client: SecretKey, response, session: SvmCoreSession) -> int:
    """Recover the class: +1 iff theta . x >= 0."""
    from .comparison import bit_owner_finish

    delta_own = bit_owner_finish(sk_client, response)
    mask = session.consume()
    mask_bit = (mask >> session.ell) & 1
    return 1 if (delta_own ^ mask_bit) else -1


# ---------------------------------------------------------------------------
# SVM, heuristic mode

def svm_heur_request(pk_client: PublicKey, x: FeatureVector,
                     rng: random.Random | None = None) -> FeatureRequest:
    """Same message as the core regression request."""
    cts = tuple(pk_client.encrypt(v, rng) for v in x.values[1:])
    return FeatureRequest(cts, pk_client)


def svm_heur_respond(model: LinearModel, request: FeatureRequest,
                     kappa: int = DEFAULT_KAPPA,
                     rng: random.Random | None = None,
                     mask: tuple[int, int] | None = None) -> Ciphertext:
    """Scaled and shifted inner product whose sign is the class.

    No formal security guarantee: the magnitude of the reply can leak
    information about the model. ``mask`` forces (lam, mu) for tests.
    """
    _check_dims(model.d, request.d)
    pk = request.public_key
    if mask is None:
        lam, mu, delta = draw_heuristic_mask(pk.n, model.ell, kappa, rng)
    else:
        lam, mu = mask
        if lam == 0 or abs(mu) >= abs(lam) or (mu != 0 and (mu > 0) != (lam > 0)):
            raise ParameterError("forced mask violates the heuristic constraints")
        delta = 0 if lam > 0 else 1
    flip = 1 if delta == 0 else -1
    return encrypted_dot(pk.encrypt(flip * (lam * model.theta[0] + mu), rng),
                         [flip * lam * coeff for coeff in model.theta[1:]],
                         request.ciphertexts)


def svm_heur_finish(sk_client: SecretKey, response: Ciphertext) -> int:
    """Class sign of the reply; sign(0) maps to +1."""
    return activations.sign_value(sk_client.decrypt(response))
