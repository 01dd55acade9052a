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
* SVM, core mode: the masked comparison of the comparison module on the
  dual-style inner product, with the client owning the mask, so the client
  learns only the class sign. Still one request and one response.
* SVM, heuristic mode: the server replies with a scaled-and-shifted inner
  product whose sign is the class. Cheapest, but the magnitude of the reply
  leaks some information about the model; callers must opt in explicitly.

Request functions return the outgoing message together with what the finish
step needs, if anything: a single-use session holding the client's mask
(dual and SVM core), or the input precision (regression core).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from . import activations, wire
from .comparison import UnitChallenge, digits, draw_mask, evaluator_step, owner_step
from .errors import (DimensionMismatchError, ParameterError,
                     ProtocolViolationError)
from .fixedpoint import decode, encode
from .numutil import SYSTEM_RNG
from .paillier import Ciphertext, PublicKey, SecretKey, encrypt_batch

#: Default statistical security parameter for masking.
DEFAULT_KAPPA = 95


def inner_product_bound(theta, x_max: int) -> int:
    """The largest |theta . x| over x_0 = 1 and |x_j| <= x_max:
    |theta_0| + sum_j |theta_j| * x_max."""
    return abs(theta[0]) + x_max * sum(abs(t) for t in theta[1:])


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
        bound = inner_product_bound(self.theta, 1 << self.precision)
        if bound > (1 << self.ell) - 1:
            raise ParameterError(
                f"inner product can reach {bound}, above the declared bound 2**{self.ell} - 1")

    @property
    def d(self) -> int:
        return len(self.theta) - 1

    def check_inputs(self, d: int) -> None:
        """Refuse a request of ``d`` features if the model takes another number."""
        if d != self.d:
            raise DimensionMismatchError(f"model has d={self.d}, request has d={d}")

    @property
    def output_scale(self) -> int:
        return 2 * self.precision

    @classmethod
    def from_real(cls, weights, bias: float = 0.0, precision: int = 53) -> "LinearModel":
        """Encode real weights in [-1, 1] at the given precision.

        The bound length is ell = 2*precision + ceil(log2(d+1)), widened if
        the encoded coefficients demand it.
        """
        theta = (encode(bias, 2 * precision),
                 *(encode(w, precision) for w in weights))
        natural = 2 * precision + (len(theta) - 1).bit_length()
        return cls(theta, max(natural, inner_product_bound(theta, 1 << precision).bit_length()),
                   precision)


@dataclass(frozen=True)
class FeatureVector:
    """Integer feature vector with the fixed coordinate x_0 = 1. Every model's
    ell assumes |x_j| <= 2**precision, a real in [-1, 1] as encoded; only an
    ``unscaled`` vector may pass it, by ``excess_bits``."""

    values: tuple[int, ...]
    precision: int
    unscaled: bool = False

    def __post_init__(self):
        if not self.values or self.values[0] != 1:
            raise ParameterError("feature vector must start with the fixed coordinate 1")
        if not self.unscaled and self.excess_bits:
            j = next(j for j, v in enumerate(self.values) if abs(v) > 1 << self.precision)
            raise ParameterError(f"feature x_{j} lies beyond 2**{self.precision}, outside "
                                 "[-1, 1] as encoded; rescale it or pass --allow-unscaled")

    @property
    def d(self) -> int:
        return len(self.values) - 1

    @property
    def excess_bits(self) -> int:
        """The least e >= 0 with every |x_j| <= 2**(precision + e)."""
        top = max((abs(v) for v in self.values[1:]), default=0)
        return 0 if top <= 1 << self.precision else (top - 1).bit_length() - self.precision

    def require_scaled(self) -> None:
        """Refuse |x_j| > 2**precision, which every model's bound length assumes."""
        if self.excess_bits:
            unbounded = ", ".join(name for name, protocol in wire.PROTOCOLS.items()
                                  if protocol.variant is None)
            raise ParameterError("input lies outside [-1, 1]; --allow-unscaled inputs "
                                 f"suit only {unbounded}")

    def require_fits(self, precision: int, d: int | None = None) -> None:
        """Refuse an input of another precision than the model's, or of
        another dimension where the client learns the model's ``d``."""
        if self.precision != precision or d not in (None, self.d):
            takes = f"precision {precision}" if d is None else f"d={d} at precision {precision}"
            raise ParameterError(f"input does not fit the model: the model takes {takes}, "
                                 f"the input is d={self.d} at precision {self.precision}")

    @classmethod
    def from_real(cls, features, precision: int = 53,
                  allow_unscaled: bool = False) -> "FeatureVector":
        return cls((1, *(encode(f, precision) for f in features)), precision, allow_unscaled)


@dataclass(frozen=True)
class FeatureRequest:
    """Client's encrypted features x_1..x_d (x_0 = 1 is implicit) and key."""

    ciphertexts: tuple[Ciphertext, ...]
    public_key: PublicKey

    @property
    def d(self) -> int:
        return len(self.ciphertexts)

    @classmethod
    def encrypt(cls, pk: PublicKey, x: FeatureVector,
                rng: random.Random | None = None) -> "FeatureRequest":
        """Encrypt x_1..x_d under ``pk``; x_0 is not transmitted."""
        return cls(tuple(pk.encrypt_all(x.values[1:], rng)), pk)


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


@dataclass
class MaskSession:
    """The client's mask for one dual or SVM core query against ``published``."""

    published: PublishedLinearModel
    mask: int
    _used: bool = field(default=False, repr=False)

    def consume(self) -> int:
        if self._used:
            raise ProtocolViolationError("session mask already used; start a new session")
        self._used = True
        return self.mask


# ---------------------------------------------------------------------------
# sizing checks

def check_core_sizing(modulus: int, ell: int, kappa: int) -> None:
    """Require M >= 2**ell * (2**kappa + 1) - 1 so the masked sum cannot wrap;
    at kappa = 0, where nothing is masked, so that |t| < M/2 decrypts as t.
    Bit lengths are compared first, so a peer's ell costs no memory."""
    if ell + kappa >= modulus.bit_length() or modulus < (1 << ell) * ((1 << kappa) + 1) - 1:
        raise ParameterError(
            f"message space of {modulus.bit_length()} bits is too small for "
            f"ell={ell}, kappa={kappa}")


def check_unscaled(modulus: int, ell: int, excess: int) -> None:
    """Refuse an input ``excess`` bits beyond 2**precision where it widens an
    inner product of bound length ell to ell + excess, if that can wrap."""
    if excess:
        try:
            check_core_sizing(modulus, ell + excess, 0)
        except ParameterError as exc:
            raise ParameterError(f"input {excess} bits beyond [-1, 1]: {exc}") from None


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
                        rng: random.Random | None = None) -> tuple[int, int]:
    """Draw (lam, mu) with lam a unit modulo the message space, |mu| < |lam|
    and sign(mu) = sign(lam); mu = 0 only for lam > 0.

    lam is redrawn until invertible, so the network's relu units can divide
    by it; a non-unit lam needs p | lam or q | lam, so at real key sizes the
    redraw practically never happens. A negative lam with mu = 0 is redrawn
    too: the sign unit reads lam * 0 + 0 as t >= 0 and its select bit as
    t < 0, so it would return -1 for t = 0.
    """
    rng = rng or SYSTEM_RNG
    check_heuristic_sizing(modulus, ell, kappa)
    lo, hi = heuristic_interval(modulus, ell)
    while True:
        lam = rng.randrange(lo, hi + 1)
        if lam == 0 or math.gcd(abs(lam), modulus) != 1:
            continue
        mu = rng.randrange(0, lam) if lam > 0 else rng.randrange(lam + 1, 1)
        if lam > 0 or mu != 0:
            return lam, mu


def masked_sign_value(t: int, lam: int, mu: int, modulus: int) -> int:
    """Signed representative of (-1)**delta * (lam*t + mu) mod modulus.

    Plaintext core of the heuristic blinding; exposed so a toy modulus can be
    swept exhaustively.
    """
    delta = 0 if lam > 0 else 1
    v = ((-1) ** delta * (lam * t + mu)) % modulus
    return v if v < (modulus + 1) // 2 else v - modulus


def _products(coeffs, cts):
    """The work of an inner product's batch, once the lengths are checked."""
    if len(coeffs) != len(cts):
        raise DimensionMismatchError(f"{len(coeffs)} coefficients for {len(cts)} ciphertexts")
    return lambda: [coeff * ct for coeff, ct in zip(coeffs, cts)]


def encrypted_dot(pk: PublicKey, start: int, coeffs, cts,
                  rng: random.Random | None = None) -> Ciphertext:
    """Enc(start mod N) + sum of coeff * ct under ``pk``, fresh through Enc(start)."""
    terms, (fresh,) = encrypt_batch([(pk, start % pk.n)], rng, _products(coeffs, cts))
    return sum(terms, fresh)


def masked_challenge(pk: PublicKey, start: int, coeffs, cts, pk_owner: PublicKey, ell: int,
                     kappa: int, rng: random.Random | None = None, mask: int | None = None
                     ) -> tuple[UnitChallenge, int]:
    """The mask owner's challenge on t = start + coeffs . cts, |t| < 2**ell, and
    its mask: t + mask under ``pk``, which the sizing check keeps from wrapping,
    and the mask's low ell bits under ``pk_owner``, as ``bit_owner_request``
    encrypts them: Enc(start + mask), then the bits, one ``encrypt_batch``
    beside the scalar products. ``mask`` can be forced for tests."""
    check_core_sizing(pk.n, ell, kappa)
    rng = rng or SYSTEM_RNG
    mask = draw_mask(ell, kappa, rng, mask)
    low_bits = digits(mask % (1 << ell), ell)
    plain = [(pk, (start + mask) % pk.n)] + [(pk_owner, bit) for bit in low_bits]
    terms, (fresh, *bits) = encrypt_batch(plain, rng, _products(coeffs, cts))
    return UnitChallenge(sum(terms, fresh), tuple(bits)), mask


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
                      ) -> tuple[FeatureRequest, int]:
    """Encrypt the features under the client key; returns the request and
    the input precision, which ``regr_core_finish`` takes."""
    return FeatureRequest.encrypt(pk_client, x, rng), x.precision


def regr_core_respond(model: LinearModel, request: FeatureRequest,
                      rng: random.Random | None = None) -> Ciphertext:
    """Encrypted inner product theta . x under the client key, which must
    hold it without wrapping."""
    model.check_inputs(request.d)
    check_core_sizing(request.public_key.n, model.ell, 0)
    return encrypted_dot(request.public_key, model.theta[0], model.theta[1:],
                         request.ciphertexts, rng)


def regr_core_finish(sk_client: SecretKey, response: Ciphertext,
                     precision: int, activation: str = "identity") -> float:
    """Decrypt the inner product, at scale 2**(2*precision), and apply the
    link function."""
    act = _injective(activation)
    t = sk_client.decrypt(response)
    return act.fn(decode(t, 2 * precision))


# ---------------------------------------------------------------------------
# regression, dual mode

def regr_dual_publish(model: LinearModel, pk_server: PublicKey,
                      rng: random.Random | None = None) -> PublishedLinearModel:
    """One-time encryption of the model under the server key."""
    cts = tuple(pk_server.encrypt_all(model.theta, rng))
    return PublishedLinearModel(pk_server, cts, model.ell, model.precision)


def regr_dual_request(published: PublishedLinearModel, x: FeatureVector,
                      rng: random.Random | None = None, mask: int | None = None
                      ) -> tuple[Ciphertext, MaskSession]:
    """Homomorphic inner product theta . x plus a fresh uniform mask.

    The mask makes the value the server decrypts uniform over the message
    space. ``mask`` can be forced for tests; by default it is drawn uniformly.
    An unscaled input is refused where theta . x could wrap (``check_unscaled``).
    """
    x.require_fits(published.precision, published.d)
    check_unscaled(published.public_key.n, published.ell, x.excess_bits)
    rng = rng or SYSTEM_RNG
    pk = published.public_key
    mask = rng.randrange(pk.n) if mask is None else mask % pk.n
    return (encrypted_dot(pk, mask, x.values, published.ciphertexts, rng),
            MaskSession(published, mask))


def regr_dual_respond(sk_server: SecretKey, request: Ciphertext) -> int:
    """Decrypt the masked inner product; the result is uniform and safe to return."""
    return sk_server.decrypt_unsigned(request)


def regr_dual_finish(session: MaskSession, masked_value: int,
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
                     ) -> tuple[UnitChallenge, MaskSession]:
    """The client's ``masked_challenge`` on theta . x (x_0 = 1): the masked
    sum under the server key, the mask's low ell bits under the client key.
    ``mask`` can be forced for tests.
    """
    x.require_fits(published.precision, published.d)
    x.require_scaled()
    challenge, mask = masked_challenge(published.public_key, 0, x.values, published.ciphertexts,
                                       pk_client, published.ell, kappa, rng, mask)
    return challenge, MaskSession(published, mask)


def svm_core_respond(sk_server: SecretKey, request: UnitChallenge, ell: int,
                     rng: random.Random | None = None) -> tuple[Ciphertext, ...]:
    """Decrypt the masked sum and answer the embedded comparison with flip 0,
    so the client's share reconstructs the sign of the inner product."""
    # Checked first: the client's key is read off the first mask bit.
    check_mask_bits(ell, len(request.mask_bits))
    return evaluator_step(sk_server, request.mask_bits[0].public_key, request, 0, rng)


def check_mask_bits(ell: int, count: int) -> None:
    """Refuse an svm-core request of ``count`` mask bits against a model of ``ell``."""
    if count != ell:
        raise ProtocolViolationError(f"expected {ell} mask bits, got {count}")


def svm_core_finish(sk_client: SecretKey, response: tuple[Ciphertext, ...],
                    session: MaskSession) -> int:
    """Recover the class: +1 iff theta . x >= 0."""
    ell = session.published.ell
    return 1 if owner_step(sk_client, session.consume(), ell, response) else -1


# ---------------------------------------------------------------------------
# SVM, heuristic mode

def svm_heur_request(pk_client: PublicKey, x: FeatureVector,
                     rng: random.Random | None = None) -> FeatureRequest:
    """Same message as the core regression request."""
    x.require_scaled()
    return FeatureRequest.encrypt(pk_client, x, rng)


def svm_heur_respond(model: LinearModel, request: FeatureRequest,
                     kappa: int = DEFAULT_KAPPA,
                     rng: random.Random | None = None,
                     mask: tuple[int, int] | None = None) -> Ciphertext:
    """Scaled and shifted inner product whose sign is the class.

    No formal security guarantee: the magnitude of the reply can leak
    information about the model. ``mask`` forces (lam, mu) for tests.
    """
    model.check_inputs(request.d)
    pk = request.public_key
    if mask is None:
        lam, mu = draw_heuristic_mask(pk.n, model.ell, kappa, rng)
    else:
        lam, mu = mask
        if lam == 0 or abs(mu) >= abs(lam) or (mu != 0 and (mu > 0) != (lam > 0)):
            raise ParameterError("forced mask violates the heuristic constraints")
    flip = 1 if lam > 0 else -1
    return encrypted_dot(pk, flip * (lam * model.theta[0] + mu),
                         [flip * lam * coeff for coeff in model.theta[1:]],
                         request.ciphertexts, rng)


def svm_heur_finish(sk_client: SecretKey, response: Ciphertext) -> int:
    """Class sign of the reply; sign(0) maps to +1."""
    return activations.sign_value(sk_client.decrypt(response))
