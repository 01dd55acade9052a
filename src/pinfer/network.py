"""Privacy-preserving evaluation of feed-forward networks.

Per hidden layer the server and client exchange exactly one round of
messages, batching all units of the layer into a single message pair. Three
evaluation modes exist:

* generic: the server sends each unit's encrypted inner product, the client
  decrypts, applies the activation in the clear and re-encrypts. Works for
  any activation; the client sees every pre-activation value.
* encrypted, core variant: sign and relu units run the masked comparison
  of the comparison module, so the client never sees a pre-activation
  value in the clear. Data ciphertexts stay under the client key; the
  comparison bits and blinded values travel under the server key. Compared
  to the SVM core protocol the roles are swapped: here the server owns the
  mask and the client evaluates, with a random flip bit that hides the
  outcome from both parties.
* encrypted, heuristic variant: the server sends one scaled-and-shifted
  inner product per unit and the client answers with one ciphertext per
  sign unit or three per relu unit, with the leakage caveat of the
  heuristic SVM protocol.

Fixed-point scales accumulate across relu/identity layers (there is no
homomorphic rescaling), so each layer carries its own bound length and the
admissible depth is capped by the key size; see NetworkSpec.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, fields, is_dataclass

from . import activations, wire
# perfbench's tracer wraps bit_owner_finish and evaluator_respond under these names.
from .comparison import (ComparisonResponse, UnitChallenge,  # noqa: F401
                         bit_owner_finish, draw_mask, evaluator_respond,
                         evaluator_step, mask_challenge, owner_step)
from .errors import (DimensionMismatchError, ParameterError,
                     ProtocolViolationError)
from .fixedpoint import decode, encode
from .linear import (DEFAULT_KAPPA, FeatureRequest, FeatureVector,
                     check_core_sizing, check_heuristic_sizing,
                     draw_heuristic_mask, encrypted_dot, inner_product_bound)
from .numutil import SYSTEM_RNG, invert
from .paillier import Ciphertext, PublicKey, SecretKey

#: Activations with a fully encrypted per-unit protocol.
ENCRYPTED_ACTIVATIONS = frozenset({"sign", "relu"})
OUTPUT_MODES = ("raw", "activated")
#: The variants of each mode.
MODES = {"generic": (None,), "encrypted": ("core", "heuristic")}


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
    """Client-side view of the network needed to run the protocol. It
    refuses a network no party can run: sizes that are not non-negative
    integers, a zero bound length, an unknown mode, variant, output mode or
    activation, or a compared or activated output layer that has no unit
    protocol, being neither sign nor relu."""

    layers: tuple[LayerMeta, ...]
    d_in: int
    precision: int
    mode: str
    #: "core" or "heuristic"; None in generic mode, which compares nothing.
    variant: str | None
    output_mode: str

    def __post_init__(self):
        sizes = (self.d_in, self.precision,
                 *(v for layer in self.layers for v in (layer.units, layer.ell, layer.t_scale)))
        if not self.layers or not all(type(v) is int and v >= 0 for v in sizes) or \
                min(layer.ell for layer in self.layers) < 1:
            raise ParameterError("network sizes must be non-negative integers, and ell positive")
        if self.output_mode not in OUTPUT_MODES or self.variant not in MODES.get(self.mode, ()):
            raise ParameterError(f"unknown mode {self.mode!r}, variant {self.variant!r} "
                                 f"or output mode {self.output_mode!r}")
        for layer in self.layers:
            activations.get(layer.activation)
        if not compared_activations(self) <= ENCRYPTED_ACTIVATIONS or (
                self.output_mode == "activated" and
                self.layers[-1].activation not in ENCRYPTED_ACTIVATIONS):
            raise ParameterError("compared layers and an activated output need sign or relu")


@dataclass(frozen=True)
class NetworkSpec:
    """Layered integer model with per-layer bound lengths and scales."""

    layers: tuple[LayerSpec, ...]
    precision: int
    output_mode: str = "raw"

    def __post_init__(self):
        if not self.layers:
            raise ParameterError("network needs at least one layer")
        for i, layer in enumerate(self.layers):
            if not layer.weights:
                raise ParameterError(f"layer {i} has no units")
        fan = self.layers[0].fan_in
        for i, layer in enumerate(self.layers):
            if layer.fan_in != fan:
                raise DimensionMismatchError(f"layer {i} expects {layer.fan_in} inputs, got {fan}")
            if any(len(row) != layer.fan_in + 1 for row in layer.weights):
                raise DimensionMismatchError(f"layer {i} has ragged weight rows")
            fan = layer.units
        self.meta("generic")  # what any network needs: see NetworkMeta

    @property
    def d_in(self) -> int:
        return self.layers[0].fan_in

    @property
    def depth(self) -> int:
        return len(self.layers)

    @property
    def d_out(self) -> int:
        return self.layers[-1].units

    def meta(self, mode: str, variant: str | None = "core") -> NetworkMeta:
        """The client's view under ``mode``; generic mode has no variant."""
        rows = tuple(LayerMeta(l.units, l.activation, l.ell, l.in_scale + self.precision)
                     for l in self.layers)
        return NetworkMeta(rows, self.d_in, self.precision, mode,
                           variant if mode == "encrypted" else None, self.output_mode)

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

        Each row is [bias, w_1, ..., w_fan_in] with entries in [-1, 1]; the
        bias is encoded at the layer's input scale plus ``precision``.
        """
        return cls._build(layer_defs, precision, output_mode, lambda row, in_scale: (
            encode(row[0], in_scale + precision), *(encode(w, precision) for w in row[1:])))

    @classmethod
    def from_integer(cls, layer_defs, precision: int = 0,
                     output_mode: str = "raw",
                     ells: list[int] | None = None) -> "NetworkSpec":
        """Build from integer weight rows directly (test and toy models);
        ``ells`` declares bound lengths, each at least the derived one."""
        return cls._build(layer_defs, precision, output_mode,
                          lambda row, in_scale: tuple(row), ells)

    @classmethod
    def _build(cls, layer_defs, precision: int, output_mode: str, encode_row,
               ells=None) -> "NetworkSpec":
        """Derive each layer's bound length from its inputs' bound, then its
        outputs' scale and bound: sign gives scale 0 and bound 1; relu and
        identity keep the scale, bounded by 2**ell - 1; smooth activations
        re-encode at ``precision``."""
        layers = []
        in_scale, in_bound = precision, 1 << precision
        for i, (rows, activation) in enumerate(layer_defs):
            weights = tuple(encode_row(row, in_scale) for row in rows)
            ell = max(max((inner_product_bound(row, in_bound) for row in weights),
                          default=0).bit_length(), 1)
            if ells is not None:
                if ells[i] < ell:
                    raise ParameterError(f"layer {i}: declared ell {ells[i]} below required {ell}")
                ell = ells[i]
            if activation == "sign":
                out_scale, out_bound = 0, 1
            elif activations.get(activation).integer_exact:
                out_scale, out_bound = in_scale + precision, (1 << ell) - 1
            else:
                out_scale, out_bound = precision, 1 << precision
            layers.append(LayerSpec(weights, activation, ell, in_scale, out_scale))
            in_scale, in_bound = out_scale, out_bound
        return cls(tuple(layers), precision, output_mode)


# ---------------------------------------------------------------------------
# the comparing unit
#
# Sign and relu units, core and heuristic, run one protocol in three steps.
# The variant decides how the server hides the inner product t: the core
# variant adds a mask and sends the mask's low ell bits under the server key
# for the comparison; the heuristic variant sends lam * t + mu for a unit lam
# and no bits. The activation decides what the client sends back for its bit
# b: Enc((-1)**b) for sign, or Enc(b) and the pair (0, t*) or (t*, 0) by b
# for relu, where t* is its masked value. The server's select bit s then
# equals [t >= 0] XOR b, so (2s - 1) * (-1)**b is sign(t) and pair[s], with
# the pad stripped, is relu(t) (times lam in the heuristic variant).

@dataclass(frozen=True)
class UnitResponse:
    """The client's answer, in wire order: Enc((-1)**b) for sign or Enc(b)
    for relu under the client key, relu's pair, and in the core variant the
    comparison under the server key."""

    bit: Ciphertext
    pair: tuple[Ciphertext, ...] = ()
    comparison: ComparisonResponse | None = None


@dataclass
class UnitState:
    """The server's secret for one unit: the pad on t (the core mask or the
    heuristic mu), and the heuristic lam, None in the core variant."""

    pad: int
    ell: int
    lam: int | None = None


def unit_challenge(variant: str, theta, enc_inputs, pk_server: PublicKey | None,
                   ell: int, kappa: int = DEFAULT_KAPPA,
                   rng: random.Random | None = None
                   ) -> tuple[UnitChallenge, UnitState]:
    """Server step: hide t = theta . x by the variant. The masked value stays
    under the client key; the core mask bits go under the server key so the
    client can act as the comparison evaluator."""
    rng = rng or SYSTEM_RNG
    pk = enc_inputs[0].public_key
    if variant == "core":
        check_core_sizing(pk.n, ell, kappa)
        mask = draw_mask(ell, kappa, rng)
        t_ct = encrypted_dot(pk, theta[0] + mask, theta[1:], enc_inputs, rng)
        return mask_challenge(t_ct, pk_server, mask, ell, rng), UnitState(mask, ell)
    lam, mu = draw_heuristic_mask(pk.n, ell, kappa, rng)
    t_ct = encrypted_dot(pk, lam * theta[0] + mu, [lam * c for c in theta[1:]], enc_inputs, rng)
    return UnitChallenge(t_ct, (), ell), UnitState(mu, ell, lam)


def unit_answer(activation: str, sk_client: SecretKey, pk_server: PublicKey | None,
                challenge: UnitChallenge, rng: random.Random | None = None,
                b: int | None = None) -> UnitResponse:
    """Client step. A core challenge, which carries mask bits, is answered
    with the comparison under a random flip b (``b`` forces it, a test hook);
    a heuristic one with b = [lam * t + mu < 0], which lam's sign flips
    against [t < 0]. Relu's pair is rerandomized so the server cannot match its live
    entry against what it sent."""
    rng = rng or SYSTEM_RNG
    pk = sk_client.public_key
    comparison = None
    if challenge.mask_bits:
        if b is None:
            b = rng.randrange(2)
        comparison = evaluator_step(sk_client, pk_server, challenge, b, rng)
    else:
        b = int(sk_client.decrypt(challenge.masked_inner) < 0)
    if activation == "sign":
        return UnitResponse(pk.encrypt(1 - 2 * b, rng), (), comparison)
    zero = pk.encrypt(0, rng)
    fresh = pk.rerandomize(challenge.masked_inner, rng)
    pair = (zero, fresh) if b == 0 else (fresh, zero)
    return UnitResponse(pk.encrypt(b, rng), pair, comparison)


def unit_finish(activation: str, sk_server: SecretKey | None, state: UnitState,
                response: UnitResponse) -> Ciphertext:
    """Server step: the select bit s = [t >= 0] XOR b gives sign(t) as
    (2s - 1) * (-1)**b, and relu(t) as pair[s] - pad * [b XOR s], which
    strips the pad from the live entry and leaves the zero entry zero."""
    if state.lam is None:
        s = owner_step(sk_server, state.pad, state.ell, response.comparison)
    else:
        s = int(state.lam > 0)
    if activation == "sign":
        return (2 * s - 1) * response.bit
    if len(response.pair) != 2:
        raise ProtocolViolationError("pair must have exactly two entries")
    # [b xor s]: reuse the bit ciphertext for 0, flip it for 1.
    b_xor_s = response.bit if s == 0 else (-response.bit).add_plain(1)
    live = response.pair[s] - state.pad * b_xor_s
    if state.lam is None:
        return live
    n = response.bit.public_key.n
    return invert(state.lam % n, n) * live


# The relu unit's steps by variant, for callers that run one kind of unit.

def relu_core_challenge(theta, enc_inputs, pk_server, ell, kappa=DEFAULT_KAPPA, rng=None):
    return unit_challenge("core", theta, enc_inputs, pk_server, ell, kappa, rng)


def relu_core_answer(sk_client, pk_server, challenge, rng=None, b=None):
    return unit_answer("relu", sk_client, pk_server, challenge, rng, b)


def relu_core_finish(sk_server, state, response):
    return unit_finish("relu", sk_server, state, response)


def relu_heur_challenge(theta, enc_inputs, ell, kappa=DEFAULT_KAPPA, rng=None):
    return unit_challenge("heuristic", theta, enc_inputs, None, ell, kappa, rng)


def relu_heur_answer(sk_client, challenge, rng=None):
    return unit_answer("relu", sk_client, None, challenge, rng)


def relu_heur_finish(state, response):
    return unit_finish("relu", None, state, response)


# ---------------------------------------------------------------------------
# the layer message and its wire layout
#
# Whether a layer's units run the comparison decides its message in both
# directions; ``compares`` is the one place that says so.

@dataclass(frozen=True)
class LayerMessage:
    """One layer's message in either direction: per unit a ciphertext, or a
    challenge or response if the layer compares. ``layer`` is None on the
    output message of an activated network."""

    layer: int | None
    units: tuple


def compares(meta: NetworkMeta, index: int | None) -> bool:
    """Whether the units of layer ``index`` run the comparison: every layer
    of an encrypted network except a raw output layer, and never the output
    message (``index`` None)."""
    return index is not None and meta.mode == "encrypted" and (
        index < len(meta.layers) - 1 or meta.output_mode == "activated")


def compared_activations(meta: NetworkMeta) -> set[str]:
    """The activations of the layers that run the comparison; a protocol
    that compares one activation refuses a network where this holds another."""
    return {layer.activation for i, layer in enumerate(meta.layers) if compares(meta, i)}


def layout(meta: NetworkMeta, index: int | None, up: bool) -> str:
    """Key of each ciphertext of layer ``index``'s message, in wire order:
    'c' for the client key, 's' for the server key."""
    layer = meta.layers[-1 if index is None else index]
    unit = "c"
    if compares(meta, index):
        if up and layer.activation != "sign":
            unit = "ccc"
        if meta.variant == "core":
            unit += "s" * (layer.ell + up)
    return unit * layer.units


def flatten(message) -> tuple[Ciphertext, ...]:
    """A layer message's ciphertexts in wire order, which is the field order
    of its unit classes; ``unflatten`` inverts it."""
    if isinstance(message, Ciphertext):
        return (message,)
    if isinstance(message, tuple):
        return tuple(ct for item in message for ct in flatten(item))
    if is_dataclass(message):
        return flatten(tuple(getattr(message, f.name) for f in fields(message)))
    return ()  # layer index, bound length


def unflatten(meta: NetworkMeta, index: int | None, up: bool, cts) -> LayerMessage:
    """Rebuild layer ``index``'s message from its ciphertexts in wire order;
    their number must match ``layout``."""
    cts = tuple(cts)
    if not cts or not compares(meta, index):  # not cts: a layer of no units
        return LayerMessage(index, cts)
    layer = meta.layers[index]
    size = len(cts) // layer.units
    # A unit's client-key ciphertexts come first, then its server-key ones.
    k = layout(meta, index, up)[:size].count("c")
    chunks = [cts[i:i + size] for i in range(0, len(cts), size)]
    if not up:
        units = (UnitChallenge(u[0], u[k:], layer.ell) for u in chunks)
    else:
        units = (UnitResponse(u[0], u[1:k], ComparisonResponse(u[k:]) if u[k:] else None)
                 for u in chunks)
    return LayerMessage(index, tuple(units))


# ---------------------------------------------------------------------------
# party sessions

@dataclass
class InferenceResult:
    """The client's prediction, for every protocol: ``labels`` holds the
    classes of sign outputs, and ``raw`` the output pre-activations when the
    client sees them (raw output mode), for exactness checks."""

    values: tuple[float, ...]
    labels: tuple[int, ...] | None = None
    raw: tuple[int, ...] | None = None

    @property
    def value(self) -> float:
        return self.values[0]


class NetworkServerSession:
    """Server side of one network evaluation.

    Holds the model and, for the core variant, the server key pair. Never
    holds the client's secret key; everything it sees under the client key
    stays encrypted.
    """

    def __init__(self, spec: NetworkSpec, *, mode: str,
                 server_keys: tuple[PublicKey, SecretKey] | None = None,
                 kappa: int = DEFAULT_KAPPA, variant: str | None = "core",
                 rng: random.Random | None = None):
        self.spec = spec
        self.meta = spec.meta(mode, variant)
        if self.meta.variant == "core" and server_keys is None:
            raise ParameterError("core variant needs a server key pair")
        self.kappa = kappa
        self.server_keys = server_keys or (None, None)
        self.rng = rng or SYSTEM_RNG
        self._state: tuple | None = None
        self._enc: tuple[Ciphertext, ...] | None = None
        self._layer = 0
        self.done = False

    def start(self, request: FeatureRequest):
        """Consume the encrypted input layer; returns the first down message."""
        if request.d != self.spec.d_in:
            raise DimensionMismatchError(
                f"network expects {self.spec.d_in} inputs, got {request.d}")
        if self.meta.mode == "encrypted":
            self.spec.check_keys(request.public_key.n, self.kappa, self.meta.variant)
        self._enc = request.ciphertexts
        self._layer = 0
        return self._down()

    def advance(self, reply: LayerMessage) -> LayerMessage:
        """Consume a client reply for the current layer; returns the next down message."""
        if self.done or self._enc is None:
            raise ProtocolViolationError("session is not expecting a reply")
        layer = self.spec.layers[self._layer]
        if reply.layer != self._layer or len(reply.units) != layer.units:
            raise ProtocolViolationError("reply does not fit the current layer")
        if compares(self.meta, self._layer):
            self._enc = tuple(self._finish_unit(layer, state, resp)
                              for state, resp in zip(self._state, reply.units))
        else:
            self._enc = reply.units
        self._layer += 1
        return self._down()

    def _down(self) -> LayerMessage:
        if self._layer == self.spec.depth:
            # Activated output: the unit round already produced the values.
            self.done = True
            fresh = tuple(ct.public_key.rerandomize(ct, self.rng) for ct in self._enc)
            return LayerMessage(None, fresh)
        layer = self.spec.layers[self._layer]
        if not compares(self.meta, self._layer):
            self.done = self._layer == self.spec.depth - 1
            return LayerMessage(self._layer, self._layer_inners(layer))
        challenges, self._state = zip(*(self._challenge_unit(layer, theta)
                                        for theta in layer.weights))
        return LayerMessage(self._layer, challenges)

    def _layer_inners(self, layer: LayerSpec) -> tuple[Ciphertext, ...]:
        pk = self._enc[0].public_key
        return tuple(encrypted_dot(pk, theta[0], theta[1:], self._enc, self.rng)
                     for theta in layer.weights)

    def _challenge_unit(self, layer: LayerSpec, theta):
        return unit_challenge(self.meta.variant, theta, self._enc, self.server_keys[0],
                              layer.ell, self.kappa, self.rng)

    def _finish_unit(self, layer: LayerSpec, state, response) -> Ciphertext:
        return unit_finish(layer.activation, self.server_keys[1], state, response)


class NetworkClientSession:
    """Client side of one network evaluation; sees only the layer metadata."""

    def __init__(self, meta: NetworkMeta,
                 client_keys: tuple[PublicKey, SecretKey],
                 server_public_key: PublicKey | None = None,
                 rng: random.Random | None = None):
        if meta.variant == "core" and server_public_key is None:
            raise ParameterError("core variant needs the server public key")
        self.meta = meta
        self.pk, self.sk = client_keys
        self.server_pk = server_public_key
        self.rng = rng or SYSTEM_RNG
        self.result: InferenceResult | None = None
        #: The layer of the next down message; the layer count for the output.
        self._next_layer = 0

    def request(self, x: FeatureVector) -> FeatureRequest:
        if x.d != self.meta.d_in:
            raise DimensionMismatchError(
                f"network expects {self.meta.d_in} inputs, got {x.d}")
        if x.precision != self.meta.precision:
            raise ParameterError("feature precision differs from the model")
        if self.meta.mode == "encrypted":
            x.require_scaled()
        return FeatureRequest.encrypt(self.pk, x, self.rng)

    def handle(self, message: LayerMessage) -> LayerMessage | None:
        """Process a down message; returns the reply, or None when finished.

        Messages must come in layer order, the output message after the
        last layer. In generic mode and with raw output the last layer's
        inner products give the result, so an output message is in order
        only after the challenges of an activated last layer.

        Raises:
            ProtocolViolationError: a message out of order, or after the result.
        """
        index, depth = message.layer, len(self.meta.layers)
        position = depth if index is None else index
        if self.result is not None or position != self._next_layer:
            raise ProtocolViolationError("message out of layer order")
        self._next_layer = position + 1
        if index is None:
            self._finish_activated(message)
            return None
        layer = self.meta.layers[index]
        if len(message.units) != layer.units:
            raise ProtocolViolationError("unit count mismatch")
        if compares(self.meta, index):
            return LayerMessage(index, tuple(self._answer_unit(layer, ch)
                                             for ch in message.units))
        values = self.sk.decrypt_all(message.units)
        if index == depth - 1:
            self._finish_raw(layer, values)
            return None
        outs = [activations.apply_fixed(layer.activation, t, layer.t_scale, self.meta.precision)
                for t in values]
        return LayerMessage(index, tuple(self.pk.encrypt_all(outs, self.rng)))

    def _answer_unit(self, layer: LayerMeta, challenge) -> UnitResponse:
        if not isinstance(challenge, UnitChallenge) or challenge.ell != layer.ell:
            raise ProtocolViolationError("challenge does not match the layer bound")
        return unit_answer(layer.activation, self.sk, self.server_pk, challenge, self.rng)

    def _finish_raw(self, layer: LayerMeta, values) -> None:
        act = activations.get(layer.activation)
        outputs = tuple(act.fn(decode(t, layer.t_scale)) for t in values)
        labels = tuple(activations.sign_value(t) for t in values) \
            if layer.activation == "sign" else None
        self.result = InferenceResult(outputs, labels, tuple(values))

    def _finish_activated(self, message: LayerMessage) -> None:
        layer = self.meta.layers[-1]
        values = self.sk.decrypt_all(message.units)
        if layer.activation == "sign":
            self.result = InferenceResult(tuple(float(v) for v in values), tuple(values))
        else:
            self.result = InferenceResult(tuple(decode(v, layer.t_scale) for v in values))


def evaluate_network(spec: NetworkSpec, mode: str, x: FeatureVector,
                     client_keys: tuple[PublicKey, SecretKey],
                     server_keys: tuple[PublicKey, SecretKey] | None = None,
                     kappa: int = DEFAULT_KAPPA, variant: str = "core",
                     rng: random.Random | None = None,
                     transcript=None) -> InferenceResult:
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


def _step_of(message: LayerMessage) -> int:
    return 0 if message.layer is None else message.layer + 1


def _record(transcript, direction: str, step: int, cts) -> None:
    if transcript is None:
        return
    n_bytes = sum(wire.ciphertext_width(ct.public_key) for ct in cts)
    transcript.record(direction, step, n_bytes, len(cts))
