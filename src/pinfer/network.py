"""Privacy-preserving evaluation of feed-forward networks.

Per hidden layer the server and client exchange exactly one round of
messages, batching all units of the layer into a single message pair. Three
evaluation modes exist:

* generic: the server sends each unit's encrypted inner product, the client
  decrypts, applies the activation in the clear and re-encrypts. Works for
  any activation; the client sees every pre-activation value.
* encrypted, core variant: sign and relu units are evaluated with the
  masked-comparison machinery so the client never sees a pre-activation
  value in the clear. Data ciphertexts stay under the client key; the
  comparison bits and blinded values travel under the server key. Compared
  to the linear protocols the roles in the comparison are swapped: here the
  server owns the mask bits and the client is the evaluator.
* encrypted, heuristic variant: one ciphertext per unit per direction, with
  the leakage caveat of the heuristic SVM protocol.

Fixed-point scales accumulate across relu/identity layers (there is no
homomorphic rescaling), so each layer carries its own bound length and the
admissible depth is capped by the key size; see NetworkSpec.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, fields, is_dataclass

from . import activations
from .comparison import (ComparisonRequest, ComparisonResponse,
                         bit_owner_finish, evaluator_respond)
from .errors import (DimensionMismatchError, ParameterError,
                     ProtocolViolationError)
from .fixedpoint import decode, encode
from .linear import (DEFAULT_KAPPA, FeatureRequest, FeatureVector,
                     check_core_sizing, check_heuristic_sizing,
                     draw_heuristic_mask, encrypted_dot)
from .numutil import SYSTEM_RNG, invert
from .paillier import Ciphertext, PublicKey, SecretKey

#: Activations with a fully encrypted per-unit protocol.
ENCRYPTED_ACTIVATIONS = ("sign", "relu")
OUTPUT_MODES = ("raw", "activated")


@dataclass(frozen=True)
class LayerSpec:
    """One layer: d_l rows of 1 + d_{l-1} integer weights, bias first.

    ``in_scale`` is the fixed-point scale of the layer's inputs, so each
    inner product carries scale ``in_scale + precision`` (the bias is stored
    pre-scaled to match). ``ell`` is the bit length of the bound on the inner
    product magnitude.
    """

    weights: tuple[tuple[int, ...], ...]
    activation: str
    ell: int
    in_scale: int
    out_scale: int

    @property
    def units(self) -> int:
        return len(self.weights)

    @property
    def fan_in(self) -> int:
        return len(self.weights[0]) - 1


@dataclass(frozen=True)
class LayerMeta:
    """What the client learns about a layer: shape, not weights."""

    units: int
    activation: str
    ell: int
    t_scale: int


@dataclass(frozen=True)
class NetworkMeta:
    """Client-side view of the network needed to run the protocol."""

    layers: tuple[LayerMeta, ...]
    d_in: int
    precision: int
    mode: str
    variant: str
    output_mode: str


@dataclass(frozen=True)
class NetworkSpec:
    """Layered integer model with per-layer bound lengths and scales."""

    layers: tuple[LayerSpec, ...]
    precision: int
    output_mode: str = "raw"

    def __post_init__(self):
        if not self.layers:
            raise ParameterError("network needs at least one layer")
        if self.output_mode not in OUTPUT_MODES:
            raise ParameterError(f"unknown output mode {self.output_mode!r}")
        fan = self.layers[0].fan_in
        for i, layer in enumerate(self.layers):
            activations.get(layer.activation)
            if layer.fan_in != fan:
                raise DimensionMismatchError(f"layer {i} expects {layer.fan_in} inputs, got {fan}")
            if any(len(row) != layer.fan_in + 1 for row in layer.weights):
                raise DimensionMismatchError(f"layer {i} has ragged weight rows")
            fan = layer.units
        if self.output_mode == "activated" and \
                self.layers[-1].activation not in ENCRYPTED_ACTIVATIONS:
            raise ParameterError("activated output needs a sign or relu output layer")

    @property
    def d_in(self) -> int:
        return self.layers[0].fan_in

    @property
    def depth(self) -> int:
        return len(self.layers)

    @property
    def d_out(self) -> int:
        return self.layers[-1].units

    def meta(self, mode: str, variant: str = "core") -> NetworkMeta:
        rows = tuple(LayerMeta(l.units, l.activation, l.ell, l.in_scale + self.precision)
                     for l in self.layers)
        return NetworkMeta(rows, self.d_in, self.precision, mode, variant, self.output_mode)

    def check_encryptable(self) -> None:
        for layer in self.layers[:-1]:
            if layer.activation not in ENCRYPTED_ACTIVATIONS:
                raise ParameterError(
                    f"activation {layer.activation!r} has no encrypted protocol")
        if self.output_mode == "activated" and \
                self.layers[-1].activation not in ENCRYPTED_ACTIVATIONS:
            raise ParameterError("activated output needs a sign or relu output layer")

    def check_keys(self, modulus: int, kappa: int, variant: str = "core") -> None:
        """Every layer's masked sum must fit the message space at this kappa."""
        for i, layer in enumerate(self.layers):
            try:
                if variant == "heuristic":
                    check_heuristic_sizing(modulus, layer.ell, kappa)
                else:
                    check_core_sizing(modulus, layer.ell, kappa)
            except ParameterError as exc:
                raise ParameterError(f"layer {i}: {exc}") from None

    @classmethod
    def from_real(cls, layer_defs, precision: int = 53,
                  output_mode: str = "raw") -> "NetworkSpec":
        """Build from real-valued layers [(rows, activation), ...].

        Each row is [bias, w_1, ..., w_fan_in] with entries in [-1, 1].
        Scales and bound lengths are derived layer by layer: sign resets the
        scale to 1, relu and identity keep the accumulated scale, smooth
        activations re-encode at ``precision``.
        """
        layers = []
        in_scale = precision
        in_bound = 1 << precision
        for rows, activation in layer_defs:
            weights = tuple(
                (encode(row[0], in_scale + precision),
                 *(encode(w, precision) for w in row[1:]))
                for row in rows)
            layers.append(_make_layer(weights, activation, in_scale, in_bound, precision))
            in_scale, in_bound = layers[-1].out_scale, _out_bound(layers[-1], in_bound, precision)
        return cls(tuple(layers), precision, output_mode)

    @classmethod
    def from_integer(cls, layer_defs, precision: int = 0,
                     output_mode: str = "raw",
                     ells: list[int] | None = None) -> "NetworkSpec":
        """Build from integer weight rows directly (test and toy models)."""
        layers = []
        in_scale = precision
        in_bound = 1 << precision
        for i, (rows, activation) in enumerate(layer_defs):
            weights = tuple(tuple(row) for row in rows)
            layer = _make_layer(weights, activation, in_scale, in_bound, precision)
            if ells is not None:
                if ells[i] < layer.ell:
                    raise ParameterError(
                        f"layer {i}: declared ell {ells[i]} below required {layer.ell}")
                layer = LayerSpec(weights, activation, ells[i],
                                  layer.in_scale, layer.out_scale)
            layers.append(layer)
            in_scale, in_bound = layer.out_scale, _out_bound(layer, in_bound, precision)
        return cls(tuple(layers), precision, output_mode)


def _make_layer(weights, activation: str, in_scale: int, in_bound: int,
                precision: int) -> LayerSpec:
    act = activations.get(activation)
    t_bound = max(abs(row[0]) + sum(abs(w) * in_bound for w in row[1:])
                  for row in weights)
    ell = max(t_bound.bit_length(), 1)
    if act.name == "sign":
        out_scale = 0
    elif act.integer_exact:  # relu, identity: keep the accumulated scale
        out_scale = in_scale + precision
    else:
        out_scale = precision
    return LayerSpec(weights, activation, ell, in_scale, out_scale)


def _out_bound(layer: LayerSpec, in_bound: int, precision: int) -> int:
    act = activations.get(layer.activation)
    if act.name == "sign":
        return 1
    if act.integer_exact:
        return (1 << layer.ell) - 1
    return 1 << precision


# ---------------------------------------------------------------------------
# per-unit protocol messages and steps
#
# The field order of every message class is its wire order (see ``flatten``).

@dataclass(frozen=True)
class UnitChallenge:
    """Core-variant unit: masked inner product (client key) + mask bits (server key)."""

    masked_inner: Ciphertext
    mask_bits: tuple[Ciphertext, ...]
    ell: int


@dataclass(frozen=True)
class HeurChallenge:
    """Heuristic-variant unit: the scaled-and-shifted inner product only."""

    masked_inner: Ciphertext


@dataclass(frozen=True)
class SignUnitResponse:
    masked_sign: Ciphertext            # client key, (-1)**b
    comparison: ComparisonResponse     # server key


@dataclass(frozen=True)
class ReluUnitResponse:
    masked_bit: Ciphertext                      # client key, b
    pair: tuple[Ciphertext, Ciphertext]         # (0, t**) or (t**, 0) by b
    comparison: ComparisonResponse              # server key


@dataclass(frozen=True)
class ReluHeurResponse:
    masked_bit: Ciphertext
    pair: tuple[Ciphertext, Ciphertext]


@dataclass
class CoreUnitState:
    mask: int
    ell: int


@dataclass
class SignHeurState:
    delta: int


@dataclass
class ReluHeurState:
    lam: int
    mu: int
    delta: int


def _inner_with_offset(theta, enc_inputs, offset: int,
                       rng: random.Random | None) -> Ciphertext:
    """Encrypted theta . x + offset under the inputs' key, with fresh randomness."""
    pk = enc_inputs[0].public_key
    return encrypted_dot(pk.encrypt_unsigned((theta[0] + offset) % pk.n, rng),
                         theta[1:], enc_inputs)


def _draw_core_mask(ell: int, kappa: int, rng: random.Random) -> int:
    return rng.randrange((1 << ell) - 1, 1 << (ell + kappa))


def sign_core_challenge(theta, enc_inputs, pk_server: PublicKey, ell: int,
                        kappa: int = DEFAULT_KAPPA,
                        rng: random.Random | None = None,
                        mask: int | None = None
                        ) -> tuple[UnitChallenge, CoreUnitState]:
    """Server step: mask the inner product and encrypt the mask bits.

    The inner product stays under the client key; the mask bits go under the
    server key so the client can act as the comparison evaluator.
    """
    rng = rng or SYSTEM_RNG
    pk_client = enc_inputs[0].public_key
    check_core_sizing(pk_client.n, ell, kappa)
    if mask is None:
        mask = _draw_core_mask(ell, kappa, rng)
    t_ct = _inner_with_offset(theta, enc_inputs, mask, rng)
    bits = tuple(pk_server.encrypt((mask >> i) & 1, rng) for i in range(ell))
    return UnitChallenge(t_ct, bits, ell), CoreUnitState(mask, ell)


def sign_core_answer(sk_client: SecretKey, pk_server: PublicKey,
                     challenge: UnitChallenge,
                     rng: random.Random | None = None,
                     b: int | None = None) -> SignUnitResponse:
    """Client step: run the comparison with a random flip hiding the outcome."""
    rng = rng or SYSTEM_RNG
    ell = challenge.ell
    t_star = sk_client.decrypt_unsigned(challenge.masked_inner)
    eta = t_star % (1 << ell)
    if b is None:
        b = rng.randrange(2)
    delta_eval = ((t_star >> ell) & 1) ^ b
    comp = evaluator_respond(pk_server, ComparisonRequest(challenge.mask_bits, ell),
                             eta, delta_eval, rng)
    masked_sign = sk_client.public_key.encrypt(1 - 2 * b, rng)
    return SignUnitResponse(masked_sign, comp)


def sign_core_finish(sk_server: SecretKey, state: CoreUnitState,
                     response: SignUnitResponse) -> Ciphertext:
    """Server step: unflip; the result decrypts to sign(theta . x)."""
    delta_own = bit_owner_finish(sk_server, response.comparison)
    mask_bit = (state.mask >> state.ell) & 1
    flip = 1 if (delta_own ^ mask_bit) else -1
    return flip * response.masked_sign


def _heur_challenge(theta, enc_inputs, ell: int, kappa: int,
                    rng: random.Random | None, require_unit: bool):
    """Encrypted lam * (theta . x) + mu with a fresh heuristic mask."""
    rng = rng or SYSTEM_RNG
    pk_client = enc_inputs[0].public_key
    lam, mu, delta = draw_heuristic_mask(pk_client.n, ell, kappa, rng,
                                         require_unit=require_unit)
    acc = encrypted_dot(pk_client.encrypt(lam * theta[0] + mu, rng),
                        [lam * coeff for coeff in theta[1:]], enc_inputs)
    return HeurChallenge(acc), lam, mu, delta


def sign_heur_challenge(theta, enc_inputs, ell: int,
                        kappa: int = DEFAULT_KAPPA,
                        rng: random.Random | None = None
                        ) -> tuple[HeurChallenge, SignHeurState]:
    """Server step: scaled-and-shifted inner product, sign flip kept private."""
    challenge, _, _, delta = _heur_challenge(theta, enc_inputs, ell, kappa, rng, False)
    return challenge, SignHeurState(delta)


def sign_heur_answer(sk_client: SecretKey, challenge: HeurChallenge,
                     rng: random.Random | None = None) -> Ciphertext:
    """Client step: encrypt the sign of what it sees (flipped by the server's secret)."""
    y_star = activations.sign_value(sk_client.decrypt(challenge.masked_inner))
    return sk_client.public_key.encrypt(y_star, rng)


def sign_heur_finish(state: SignHeurState, response: Ciphertext) -> Ciphertext:
    return (1 - 2 * state.delta) * response


def relu_core_challenge(theta, enc_inputs, pk_server: PublicKey, ell: int,
                        kappa: int = DEFAULT_KAPPA,
                        rng: random.Random | None = None,
                        mask: int | None = None
                        ) -> tuple[UnitChallenge, CoreUnitState]:
    """Server step; same message shape as the sign unit. The one mask serves
    both the comparison and the one-time pad on the value."""
    return sign_core_challenge(theta, enc_inputs, pk_server, ell, kappa, rng, mask)


def relu_core_answer(sk_client: SecretKey, pk_server: PublicKey,
                     challenge: UnitChallenge,
                     rng: random.Random | None = None,
                     b: int | None = None) -> ReluUnitResponse:
    """Client step: comparison plus an ordered pair hiding which entry is live.

    The masked inner product is rerandomized before going back so the server
    cannot match it against what it sent.
    """
    rng = rng or SYSTEM_RNG
    ell = challenge.ell
    pk_client = sk_client.public_key
    t_star = sk_client.decrypt_unsigned(challenge.masked_inner)
    eta = t_star % (1 << ell)
    if b is None:
        b = rng.randrange(2)
    delta_eval = ((t_star >> ell) & 1) ^ b
    comp = evaluator_respond(pk_server, ComparisonRequest(challenge.mask_bits, ell),
                             eta, delta_eval, rng)
    zero = pk_client.encrypt(0, rng)
    fresh = pk_client.rerandomize(challenge.masked_inner, rng)
    pair = (zero, fresh) if b == 0 else (fresh, zero)
    return ReluUnitResponse(pk_client.encrypt(b, rng), pair, comp)


def relu_core_finish(sk_server: SecretKey, state: CoreUnitState,
                     response: ReluUnitResponse) -> Ciphertext:
    """Server step: select the live pair entry and strip the pad obliviously."""
    if len(response.pair) != 2:
        raise ProtocolViolationError("pair must have exactly two entries")
    delta_own = bit_owner_finish(sk_server, response.comparison)
    select = delta_own ^ ((state.mask >> state.ell) & 1)
    # [b xor select]: reuse the bit ciphertext for 0, flip it for 1.
    b_sel = response.masked_bit if select == 0 else (-response.masked_bit).add_plain(1)
    return response.pair[select] - state.mask * b_sel


def relu_heur_challenge(theta, enc_inputs, ell: int,
                        kappa: int = DEFAULT_KAPPA,
                        rng: random.Random | None = None
                        ) -> tuple[HeurChallenge, ReluHeurState]:
    """Server step: like the sign heuristic, but lam must be invertible so the
    scale can be removed exactly afterwards."""
    challenge, lam, mu, delta = _heur_challenge(theta, enc_inputs, ell, kappa, rng, True)
    return challenge, ReluHeurState(lam, mu, delta)


def relu_heur_answer(sk_client: SecretKey, challenge: HeurChallenge,
                     rng: random.Random | None = None) -> ReluHeurResponse:
    rng = rng or SYSTEM_RNG
    pk_client = sk_client.public_key
    t_star = sk_client.decrypt(challenge.masked_inner)
    b = 0 if t_star >= 0 else 1
    zero = pk_client.encrypt(0, rng)
    fresh = pk_client.rerandomize(challenge.masked_inner, rng)
    pair = (zero, fresh) if b == 0 else (fresh, zero)
    return ReluHeurResponse(pk_client.encrypt(b, rng), pair)


def relu_heur_finish(state: ReluHeurState, response: ReluHeurResponse) -> Ciphertext:
    if len(response.pair) != 2:
        raise ProtocolViolationError("pair must have exactly two entries")
    pk = response.masked_bit.public_key
    select = 1 - state.delta
    b_sel = response.masked_bit if select == 0 else (-response.masked_bit).add_plain(1)
    inner = response.pair[select] - state.mu * b_sel
    return invert(state.lam % pk.n, pk.n) * inner


# ---------------------------------------------------------------------------
# layer messages and party sessions

@dataclass(frozen=True)
class LayerInners:
    """Generic mode / raw output: one inner-product ciphertext per unit."""

    layer: int
    ciphertexts: tuple[Ciphertext, ...]
    is_output: bool = False


@dataclass(frozen=True)
class LayerChallenges:
    """Encrypted mode: one unit challenge per unit."""

    layer: int
    challenges: tuple


@dataclass(frozen=True)
class LayerActivations:
    """Generic mode client reply: re-encrypted activation outputs."""

    layer: int
    ciphertexts: tuple[Ciphertext, ...]


@dataclass(frozen=True)
class LayerResponses:
    """Encrypted mode client reply: one unit response per unit."""

    layer: int
    responses: tuple


@dataclass(frozen=True)
class LayerOutputs:
    """Activated output mode: encrypted activation values of the last layer."""

    ciphertexts: tuple[Ciphertext, ...]


# ---------------------------------------------------------------------------
# wire layout of the layer messages

def unit_layout(kind: type, meta: NetworkMeta, layer: LayerMeta) -> str:
    """Key of each ciphertext in one unit's share of a ``kind`` message, in
    wire order: 'c' for the client key, 's' for the server key."""
    if kind is LayerChallenges:
        return "c" if meta.variant == "heuristic" else "c" + "s" * layer.ell
    if kind is LayerResponses:
        head = "c" if layer.activation == "sign" else "ccc"
        return head if meta.variant == "heuristic" else head + "s" * (layer.ell + 1)
    return "c"  # inner products, activations and outputs


def flatten(message) -> tuple[Ciphertext, ...]:
    """A layer message's ciphertexts in wire order, which is the field order
    of its message and unit classes; ``unflatten`` inverts it."""
    if isinstance(message, Ciphertext):
        return (message,)
    if isinstance(message, tuple):
        return tuple(ct for item in message for ct in flatten(item))
    if is_dataclass(message):
        return flatten(tuple(getattr(message, f.name) for f in fields(message)))
    return ()  # layer index, bound length, output flag


def unflatten(kind: type, meta: NetworkMeta, index: int, cts,
              is_output: bool = False):
    """Rebuild a ``kind`` message of layer ``index`` from its ciphertexts in
    wire order; their number must match ``unit_layout``."""
    cts = tuple(cts)
    if kind is LayerOutputs:
        return LayerOutputs(cts)
    if kind is LayerInners:
        return LayerInners(index, cts, is_output)
    if kind is LayerActivations:
        return LayerActivations(index, cts)
    layer = meta.layers[index]
    size = len(unit_layout(kind, meta, layer))
    chunks = [cts[i:i + size] for i in range(0, len(cts), size)]
    core = meta.variant == "core"
    if kind is LayerChallenges:
        return LayerChallenges(index, tuple(
            UnitChallenge(u[0], u[1:], layer.ell) if core else HeurChallenge(u[0])
            for u in chunks))
    if layer.activation == "sign":
        units = (SignUnitResponse(u[0], ComparisonResponse(u[1:])) if core else u[0]
                 for u in chunks)
    else:
        units = (ReluUnitResponse(u[0], u[1:3], ComparisonResponse(u[3:])) if core
                 else ReluHeurResponse(u[0], u[1:3]) for u in chunks)
    return LayerResponses(index, tuple(units))


@dataclass(frozen=True)
class NetworkRun:
    """Final outputs; ``raw`` holds the output-layer pre-activations when the
    client sees them (raw output mode), for exactness checks."""

    outputs: tuple[float, ...]
    raw: tuple[int, ...] | None
    class_labels: tuple[int, ...] | None


class NetworkServerSession:
    """Server side of one network evaluation.

    Holds the model and, for the core variant, the server key pair. Never
    holds the client's secret key; everything it sees under the client key
    stays encrypted.
    """

    def __init__(self, spec: NetworkSpec, *, mode: str,
                 server_keys: tuple[PublicKey, SecretKey] | None = None,
                 kappa: int = DEFAULT_KAPPA, variant: str = "core",
                 rng: random.Random | None = None):
        if mode not in ("generic", "encrypted"):
            raise ParameterError(f"unknown mode {mode!r}")
        if variant not in ("core", "heuristic"):
            raise ParameterError(f"unknown variant {variant!r}")
        if mode == "encrypted":
            spec.check_encryptable()
            if variant == "core" and server_keys is None:
                raise ParameterError("core variant needs a server key pair")
        self.spec = spec
        self.mode = mode
        self.variant = variant
        self.kappa = kappa
        self.server_keys = server_keys
        self.rng = rng or SYSTEM_RNG
        self._state: list | None = None
        self._enc: tuple[Ciphertext, ...] | None = None
        self._layer = 0
        self.done = False

    def start(self, request: FeatureRequest):
        """Consume the encrypted input layer; returns the first down message."""
        if request.d != self.spec.d_in:
            raise DimensionMismatchError(
                f"network expects {self.spec.d_in} inputs, got {request.d}")
        if self.mode == "encrypted":
            self.spec.check_keys(request.public_key.n, self.kappa, self.variant)
        self._enc = request.ciphertexts
        self._layer = 0
        return self._down()

    def advance(self, reply):
        """Consume a client reply for the current layer; returns the next down message."""
        if self.done or self._enc is None:
            raise ProtocolViolationError("session is not expecting a reply")
        layer = self.spec.layers[self._layer]
        if self.mode == "generic":
            if not isinstance(reply, LayerActivations) or reply.layer != self._layer:
                raise ProtocolViolationError("expected activations for the current layer")
            if len(reply.ciphertexts) != layer.units:
                raise ProtocolViolationError("activation count mismatch")
            self._enc = reply.ciphertexts
        else:
            if not isinstance(reply, LayerResponses) or reply.layer != self._layer:
                raise ProtocolViolationError("expected unit responses for the current layer")
            if len(reply.responses) != layer.units:
                raise ProtocolViolationError("unit response count mismatch")
            self._enc = tuple(self._finish_unit(layer, state, resp)
                              for state, resp in zip(self._state, reply.responses))
        self._layer += 1
        return self._down()

    def _down(self):
        if self._layer == self.spec.depth:
            # Activated output: the unit round already produced the values.
            self.done = True
            fresh = tuple(ct.public_key.rerandomize(ct, self.rng) for ct in self._enc)
            return LayerOutputs(fresh)
        layer = self.spec.layers[self._layer]
        is_output = self._layer == self.spec.depth - 1
        if self.mode == "generic" or (is_output and self.spec.output_mode == "raw"):
            self.done = is_output
            return LayerInners(self._layer, self._layer_inners(layer), is_output=is_output)
        challenges, states = [], []
        for theta in layer.weights:
            challenge, state = self._challenge_unit(layer, theta)
            challenges.append(challenge)
            states.append(state)
        self._state = states
        return LayerChallenges(self._layer, tuple(challenges))

    def _layer_inners(self, layer: LayerSpec) -> tuple[Ciphertext, ...]:
        return tuple(_inner_with_offset(theta, self._enc, 0, self.rng)
                     for theta in layer.weights)

    def _challenge_unit(self, layer: LayerSpec, theta):
        if layer.activation == "sign":
            if self.variant == "core":
                return sign_core_challenge(theta, self._enc, self.server_keys[0],
                                           layer.ell, self.kappa, self.rng)
            return sign_heur_challenge(theta, self._enc, layer.ell, self.kappa, self.rng)
        if self.variant == "core":
            return relu_core_challenge(theta, self._enc, self.server_keys[0],
                                       layer.ell, self.kappa, self.rng)
        return relu_heur_challenge(theta, self._enc, layer.ell, self.kappa, self.rng)

    def _finish_unit(self, layer: LayerSpec, state, response) -> Ciphertext:
        if layer.activation == "sign":
            if self.variant == "core":
                return sign_core_finish(self.server_keys[1], state, response)
            return sign_heur_finish(state, response)
        if self.variant == "core":
            return relu_core_finish(self.server_keys[1], state, response)
        return relu_heur_finish(state, response)


class NetworkClientSession:
    """Client side of one network evaluation; sees only the layer metadata."""

    def __init__(self, meta: NetworkMeta,
                 client_keys: tuple[PublicKey, SecretKey],
                 server_public_key: PublicKey | None = None,
                 rng: random.Random | None = None):
        if meta.mode == "encrypted" and meta.variant == "core" and server_public_key is None:
            raise ParameterError("core variant needs the server public key")
        self.meta = meta
        self.pk, self.sk = client_keys
        self.server_pk = server_public_key
        self.rng = rng or SYSTEM_RNG
        self.result: NetworkRun | None = None

    def request(self, x: FeatureVector) -> FeatureRequest:
        if x.d != self.meta.d_in:
            raise DimensionMismatchError(
                f"network expects {self.meta.d_in} inputs, got {x.d}")
        if x.precision != self.meta.precision:
            raise ParameterError("feature precision differs from the model")
        cts = tuple(self.pk.encrypt(v, self.rng) for v in x.values[1:])
        return FeatureRequest(cts, self.pk)

    def handle(self, message):
        """Process a down message; returns the reply, or None when finished."""
        if isinstance(message, LayerInners):
            layer = self.meta.layers[message.layer]
            if len(message.ciphertexts) != layer.units:
                raise ProtocolViolationError("unit count mismatch")
            is_output = message.layer == len(self.meta.layers) - 1
            if message.is_output != is_output:
                raise ProtocolViolationError("output flag disagrees with the layer count")
            values = [self.sk.decrypt(ct) for ct in message.ciphertexts]
            if is_output:
                self._finish_raw(layer, values)
                return None
            outs = [activations.apply_fixed(layer.activation, t, layer.t_scale,
                                            self.meta.precision)
                    for t in values]
            cts = tuple(self.pk.encrypt(v, self.rng) for v in outs)
            return LayerActivations(message.layer, cts)
        if isinstance(message, LayerChallenges):
            layer = self.meta.layers[message.layer]
            if len(message.challenges) != layer.units:
                raise ProtocolViolationError("unit count mismatch")
            replies = tuple(self._answer_unit(layer, ch) for ch in message.challenges)
            return LayerResponses(message.layer, replies)
        if isinstance(message, LayerOutputs):
            self._finish_activated(message)
            return None
        raise ProtocolViolationError(f"unexpected message {type(message).__name__}")

    def _answer_unit(self, layer: LayerMeta, challenge):
        if self.meta.variant == "core":
            if not isinstance(challenge, UnitChallenge) or challenge.ell != layer.ell:
                raise ProtocolViolationError("challenge does not match the layer bound")
            if layer.activation == "sign":
                return sign_core_answer(self.sk, self.server_pk, challenge, self.rng)
            return relu_core_answer(self.sk, self.server_pk, challenge, self.rng)
        if layer.activation == "sign":
            return sign_heur_answer(self.sk, challenge, self.rng)
        return relu_heur_answer(self.sk, challenge, self.rng)

    def _finish_raw(self, layer: LayerMeta, values) -> None:
        act = activations.get(layer.activation)
        outputs = tuple(act.fn(decode(t, layer.t_scale)) for t in values)
        labels = tuple(activations.sign_value(t) for t in values) \
            if layer.activation == "sign" else None
        self.result = NetworkRun(outputs, tuple(values), labels)

    def _finish_activated(self, message: LayerOutputs) -> None:
        layer = self.meta.layers[-1]
        values = [self.sk.decrypt(ct) for ct in message.ciphertexts]
        if layer.activation == "sign":
            self.result = NetworkRun(tuple(float(v) for v in values), None, tuple(values))
        else:
            self.result = NetworkRun(tuple(decode(v, layer.t_scale) for v in values),
                                     None, None)


def evaluate_network(spec: NetworkSpec, mode: str, x: FeatureVector,
                     client_keys: tuple[PublicKey, SecretKey],
                     server_keys: tuple[PublicKey, SecretKey] | None = None,
                     kappa: int = DEFAULT_KAPPA, variant: str = "core",
                     rng: random.Random | None = None,
                     transcript=None) -> NetworkRun:
    """Run both parties in process and return the client's result.

    ``transcript``, if given, is a wire.Transcript; message sizes are
    accounted as fixed-width ciphertexts so round and count assertions can be
    made without sockets.
    """
    server = NetworkServerSession(spec, mode=mode, server_keys=server_keys,
                                  kappa=kappa, variant=variant, rng=rng)
    client = NetworkClientSession(spec.meta(mode, variant), client_keys,
                                  server_public_key=server_keys[0] if server_keys else None,
                                  rng=rng)
    request = client.request(x)
    _record(transcript, "up", 0, request.ciphertexts)
    message = server.start(request)
    while True:
        _record(transcript, "down", _step_of(message), flatten(message))
        reply = client.handle(message)
        if reply is None:
            break
        _record(transcript, "up", _step_of(reply), flatten(reply))
        message = server.advance(reply)
    return client.result


def _step_of(message) -> int:
    return getattr(message, "layer", -1) + 1


def _record(transcript, direction: str, step: int, cts) -> None:
    if transcript is None:
        return
    n_bytes = sum(2 * ((ct.public_key.bit_length + 7) // 8) for ct in cts)
    transcript.record(direction, step, n_bytes, len(cts))
