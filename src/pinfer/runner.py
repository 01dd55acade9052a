"""Wire-level protocol drivers: frames over a byte channel.

``run_inference`` is the client side of every protocol; ``serve_connection``
answers frames for one connection, where it holds one live network session
at most: a new ``STEP_REQUEST`` ends it. Both speak the frame format of the
wire module over one Channel (send/recv of whole frames): a stream socket,
either a TCP connection or the socket pair of the in-process loopback that
tests and the bench command use. The server encrypts a published model once,
at set-up; the client of regr-dual and svm-core fetches it at the start of
every query, in a separate exchange recorded on its own transcript.

The codec is written once per message shape. A feature request (regr-core,
svm-heur and the network ``STEP_REQUEST``) is the client key followed by one
ciphertext per feature; svm-core's response is the comparison's blinded
values. A ``network.LayerMessage`` travels as its ciphertexts alone, in the
order ``network.flatten`` gives, each under the key ``network.layout`` names
for its place in its unit. ``_decode_layer`` inverts ``_encode_layer``: the
receiving session supplies the layer index, the step gives the direction,
and these are all ``network.layout`` and ``network.unflatten`` need besides
the META, whose mode and variant the protocol id fixes. Every decoder checks
a frame's part count before it reads a part, so a short or overlong frame is
refused with an error frame.
"""

from __future__ import annotations

import dataclasses
import json
import random
import socket
import struct
import threading
from dataclasses import dataclass

from . import activations, network, wire
from .errors import (MessageFormatError, ParameterError, PinferError,
                     ProtocolViolationError)
from .linear import (DEFAULT_KAPPA, FeatureRequest, FeatureVector,
                     PublishedLinearModel, check_core_sizing, check_mask_bits,
                     regr_core_finish, regr_core_request, regr_core_respond,
                     regr_dual_finish, regr_dual_publish, regr_dual_request,
                     regr_dual_respond, svm_core_finish, svm_core_request,
                     svm_core_respond, svm_heur_finish, svm_heur_request,
                     svm_heur_respond)
from .comparison import UnitChallenge
from .modelfile import LoadedModel
from .network import (InferenceResult, LayerMessage, LayerMeta,
                      NetworkClientSession, NetworkMeta, NetworkServerSession)
from .numutil import SYSTEM_RNG
from .paillier import PublicKey, SecretKey


class ChannelClosed(PinferError):
    """The connection is over: the peer closed it or sent an oversized frame."""


#: Largest frame ``SocketChannel.recv`` accepts. A 3072-bit ciphertext is
#: 768 bytes, so this is over 87,000 ciphertexts in one message.
MAX_FRAME_BYTES = 64 << 20

#: Connections ``pinfer serve`` answers at once; one more waits, accepted but
#: unread, until one of them closes. Parsing one hostile frame of
#: ``MAX_FRAME_BYTES`` can take 620 MiB or 6.6 s of CPU (2 cores, libgmp), so
#: eight such connections stay near 5 GiB, and on two cores eight busy ones
#: already share each core four ways.
MAX_CONNECTIONS = 8

#: Seconds ``pinfer serve`` and ``pinfer infer`` wait on a silent peer before
#: they drop the connection. They set it on their sockets; ``SocketChannel``
#: does not, so in-process channels wait as long as they need. On a 2-core
#: Xeon a full-width power mod N**2 at 3072 bits takes 0.38 s under ``pow``
#: and 53 ms under libgmp, so only a step of over about 1,500 such powers
#: (about 20,000 under libgmp, on both cores) outlasts it.
PEER_TIMEOUT_S = 600


class SocketChannel:
    """Length-prefixed frames over a stream socket.

    A length prefix above ``MAX_FRAME_BYTES`` ends the connection
    (``ChannelClosed``) before any of the frame's body is read, and so does
    a socket error, such as a reset or a broken pipe.
    """

    def __init__(self, sock: socket.socket):
        self._sock = sock

    def send(self, data: bytes) -> None:
        try:
            self._sock.sendall(struct.pack(">I", len(data)) + data)
        except OSError as exc:
            raise ChannelClosed(f"send failed: {exc}") from None

    def recv(self) -> bytes:
        header = self._read_exactly(4)
        (length,) = struct.unpack(">I", header)
        if length > MAX_FRAME_BYTES:
            raise ChannelClosed(f"frame of {length} bytes exceeds the "
                                f"{MAX_FRAME_BYTES}-byte limit")
        return self._read_exactly(length)

    def _read_exactly(self, count: int) -> bytes:
        chunks = []
        while count:
            try:
                chunk = self._sock.recv(count)
            except OSError as exc:
                raise ChannelClosed(f"receive failed: {exc}") from None
            if not chunk:
                raise ChannelClosed("peer closed the socket")
            chunks.append(chunk)
            count -= len(chunk)
        return b"".join(chunks)

    def close(self) -> None:
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()


# ---------------------------------------------------------------------------
# client side

class _ClientIO:
    def __init__(self, channel, protocol: str, rng, transcript):
        self.channel = channel
        self.protocol = wire.get_protocol(protocol)
        self.session_id = rng.randbytes(wire.SESSION_ID_BYTES)
        self.transcript = transcript

    def send(self, step: int, parts, n_cts: int = 0) -> None:
        data = wire.frame(self.protocol.wire_id, step, self.session_id, parts)
        if self.transcript is not None:
            self.transcript.record("up", step, len(data), n_cts)
        self.channel.send(data)

    def recv(self, expected_step: int, n_cts=None) -> wire.Frame:
        data = self.channel.recv()
        frame = wire.unframe(data)
        if frame.step_id == wire.STEP_ERROR:
            message = frame.parts[0].decode("utf-8", "replace") if frame.parts else "?"
            raise ProtocolViolationError(f"server reported: {message}")
        if frame.protocol_id != self.protocol.wire_id:
            raise ProtocolViolationError(f"unexpected protocol {frame.protocol_id}")
        if frame.session_id != self.session_id:
            raise ProtocolViolationError("reply belongs to another session")
        if frame.step_id != expected_step:
            raise ProtocolViolationError(f"unexpected step {frame.step_id}")
        if self.transcript is not None:
            count = n_cts(frame) if callable(n_cts) else (n_cts or 0)
            self.transcript.record("down", frame.step_id, len(data), count)
        return frame


def fetch_published(channel, protocol: str, rng=None,
                    transcript: wire.Transcript | None = None
                    ) -> tuple[PublishedLinearModel, str]:
    """Fetch the server's encrypted model (regr-dual and svm-core)."""
    rng = rng or SYSTEM_RNG
    io = _ClientIO(channel, protocol, rng, transcript)
    io.send(wire.STEP_PUBLISH_REQUEST, ())
    frame = io.recv(wire.STEP_PUBLISH, n_cts=lambda f: len(f.parts) - 4)
    key, precision, ell, activation, *body = _parts(frame, 4, at_least=True)
    pk_server = wire.deserialize_public_key(key)
    precision, ell = wire.unpack_u32(precision), wire.unpack_u32(ell)
    activation = _activation(activation, protocol)
    cts = tuple(wire.deserialize_ciphertext(p, pk_server) for p in body)
    return PublishedLinearModel(pk_server, cts, ell, precision), activation


def run_inference(channel, protocol: str, x: FeatureVector,
                  client_keys: tuple[PublicKey, SecretKey],
                  kappa: int = DEFAULT_KAPPA,
                  rng: random.Random | None = None,
                  transcript: wire.Transcript | None = None,
                  publish_transcript: wire.Transcript | None = None
                  ) -> InferenceResult:
    """Drive one inference as the client; returns the prediction."""
    rng = rng or SYSTEM_RNG
    pk_c, sk_c = client_keys
    io = _ClientIO(channel, protocol, rng, transcript)

    if protocol == "regr-core":
        request, precision = regr_core_request(pk_c, x, rng)
        io.send(wire.STEP_REQUEST, _feature_parts(request), n_cts=request.d)
        frame = io.recv(wire.STEP_RESPONSE, n_cts=1)
        reply, activation, model_precision = _parts(frame, 3)
        t_ct = wire.deserialize_ciphertext(reply, pk_c)
        activation = _activation(activation, protocol)
        x.require_fits(wire.unpack_u32(model_precision))
        value = regr_core_finish(sk_c, t_ct, precision, activation)
        return InferenceResult((value,), raw=(sk_c.decrypt(t_ct),))

    if protocol == "regr-dual":
        published, activation = fetch_published(channel, protocol, rng,
                                                publish_transcript)
        request, session = regr_dual_request(published, x, rng)
        io.send(wire.STEP_REQUEST,
                (wire.serialize_ciphertext(request, published.public_key),),
                n_cts=1)
        frame = io.recv(wire.STEP_RESPONSE, n_cts=0)
        (reply,) = _parts(frame, 1)
        masked = wire.deserialize_scalar(reply, published.public_key)
        value = regr_dual_finish(session, masked, activation)
        return InferenceResult((value,))

    if protocol == "svm-core":
        published, _ = fetch_published(channel, protocol, rng, publish_transcript)
        request, session = svm_core_request(published, pk_c, x, kappa, rng)
        io.send(wire.STEP_REQUEST,
                (wire.serialize_public_key(pk_c),
                 wire.serialize_ciphertext(request.masked_inner, published.public_key),
                 *(wire.serialize_ciphertext(c, pk_c) for c in request.mask_bits)),
                n_cts=1 + len(request.mask_bits))
        frame = io.recv(wire.STEP_RESPONSE, n_cts=lambda f: len(f.parts))
        response = tuple(wire.deserialize_ciphertext(p, pk_c)
                         for p in _parts(frame, published.ell + 1))
        label = svm_core_finish(sk_c, response, session)
        return InferenceResult((float(label),), labels=(label,))

    if protocol == "svm-heur":
        request = svm_heur_request(pk_c, x, rng)
        io.send(wire.STEP_REQUEST, _feature_parts(request), n_cts=request.d)
        frame = io.recv(wire.STEP_RESPONSE, n_cts=1)
        reply, model_precision = _parts(frame, 2)
        x.require_fits(wire.unpack_u32(model_precision))
        label = svm_heur_finish(sk_c, wire.deserialize_ciphertext(reply, pk_c))
        return InferenceResult((float(label),), labels=(label,))

    return _run_network_client(io, x, client_keys, rng)


def _meta_to_json(meta: NetworkMeta, pk_server: PublicKey | None) -> bytes:
    """META: the network's shape and the server key, without the mode and
    variant that the protocol id already fixes."""
    doc = dataclasses.asdict(meta)
    del doc["mode"], doc["variant"]
    doc["server_key"] = wire.serialize_public_key(pk_server).hex() if pk_server else None
    return json.dumps(doc).encode("utf-8")


def _meta_from_json(data: bytes, protocol: wire.Protocol
                    ) -> tuple[NetworkMeta, PublicKey | None]:
    """Inverse of ``_meta_to_json``; mode and variant come from ``protocol``.
    A META the client cannot run is refused: one that ``NetworkMeta``
    refuses, or one that set-up would refuse for ``protocol`` (see
    ``_check_activations``)."""
    try:
        doc = json.loads(data.decode("utf-8"))
        key = doc.pop("server_key")
        meta = NetworkMeta(tuple(LayerMeta(**layer) for layer in doc.pop("layers")),
                           mode=protocol.mode, variant=protocol.variant, **doc)
        _check_activations(meta, protocol)
        pk = wire.deserialize_public_key(bytes.fromhex(key)) if key else None
    except (AttributeError, KeyError, ValueError, TypeError, ParameterError) as exc:
        raise MessageFormatError(f"malformed network meta: {exc}") from None
    return meta, pk


def _check_activations(meta: NetworkMeta, protocol: wire.Protocol) -> None:
    """The rule set-up and the client share: every layer that compares has
    the activation the protocol compares."""
    if network.compared_activations(meta) - {protocol.activation}:
        raise ParameterError(f"protocol {wire.PROTOCOL_NAMES[protocol.wire_id]} "
                             f"serves {protocol.activation} layers only")


def _run_network_client(io: _ClientIO, x: FeatureVector, client_keys,
                        rng) -> InferenceResult:
    if io.protocol.variant:
        x.require_scaled()
    request = FeatureRequest.encrypt(client_keys[0], x, rng)
    io.send(wire.STEP_REQUEST, _feature_parts(request), n_cts=request.d)
    frame = io.recv(wire.STEP_META, n_cts=0)
    meta, pk_server = _meta_from_json(_parts(frame, 1)[0], io.protocol)
    session = NetworkClientSession(meta, client_keys, pk_server, rng)
    session.check_input(x)
    while True:
        index = session.next_layer
        frame = io.recv(wire.STEP_OUTPUT if index is None else wire.STEP_LAYER_DOWN,
                        n_cts=lambda f: len(f.parts))
        reply = session.handle(_decode_layer(frame, session.meta, session.keys, index))
        if reply is None:
            break
        io.send(*_encode_layer(reply, session.meta, session.keys, up=True),
                n_cts=len(network.flatten(reply)))
    return session.result


# ---------------------------------------------------------------------------
# codec

def _parts(frame: wire.Frame, count: int, at_least: bool = False) -> tuple[bytes, ...]:
    """The frame's parts, once their number is checked."""
    n = len(frame.parts)
    if n < count or (n > count and not at_least):
        bound = "at least " if at_least else ""
        raise ProtocolViolationError(
            f"step {frame.step_id} frame has {n} parts, expected {bound}{count}")
    return frame.parts


def _activation(part: bytes, protocol: str) -> str:
    """The activation of a regression reply or a publication: a registered
    one, and injective except for svm-core's sign."""
    try:
        act = activations.get(part.decode("utf-8"))
    except UnicodeDecodeError:
        raise MessageFormatError("text field is not UTF-8") from None
    except ParameterError as exc:
        raise MessageFormatError(str(exc)) from None
    if not act.injective and protocol != "svm-core":
        raise MessageFormatError(f"activation {act.name!r} is not injective")
    return act.name


def _feature_parts(request: FeatureRequest) -> tuple[bytes, ...]:
    """A feature request: the client key, then one ciphertext per feature."""
    pk = request.public_key
    return (wire.serialize_public_key(pk),
            *(wire.serialize_ciphertext(c, pk) for c in request.ciphertexts))


def _feature_request(frame: wire.Frame, model) -> FeatureRequest:
    """A feature request; one of another width than ``model``'s is refused
    before any part is parsed."""
    key, *body = _parts(frame, 1, at_least=True)
    model.check_inputs(len(body))
    pk = wire.deserialize_public_key(key)
    return FeatureRequest(tuple(wire.deserialize_ciphertext(p, pk) for p in body), pk)


def _encode_layer(message: LayerMessage, meta: NetworkMeta, keys,
                  up: bool) -> tuple[int, tuple[bytes, ...]]:
    """Step and parts of a layer message; ``keys`` maps 'c' and 's' to keys."""
    step = (wire.STEP_OUTPUT if message.layer is None else
            wire.STEP_LAYER_UP if up else wire.STEP_LAYER_DOWN)
    unit, units = network.layout(meta, message.layer, up)
    return step, tuple(wire.serialize_ciphertext(c, keys[k]) for c, k
                       in zip(network.flatten(message), unit * units, strict=True))


def _decode_layer(frame: wire.Frame, meta: NetworkMeta, keys,
                  index: int | None) -> LayerMessage:
    """Inverse of ``_encode_layer`` for a layer-down, layer-up or output frame
    of layer ``index``, which the receiving session supplies."""
    up = frame.step_id == wire.STEP_LAYER_UP
    unit, units = network.layout(meta, index, up)
    # Counted before anything is built per ciphertext: META declares units.
    body = _parts(frame, len(unit) * units)
    cts = (wire.deserialize_ciphertext(p, keys[k]) for p, k in zip(body, unit * units))
    return network.unflatten(meta, index, up, cts)


# ---------------------------------------------------------------------------
# server side

@dataclass
class ServedModel:
    """Everything the server needs to answer one protocol."""

    protocol: str
    loaded: LoadedModel
    server_keys: tuple[PublicKey, SecretKey] | None
    kappa: int
    rng: random.Random
    published: PublishedLinearModel | None = None


def prepare_served(protocol: str, loaded: LoadedModel,
                   server_keys: tuple[PublicKey, SecretKey] | None,
                   kappa: int | None = None,
                   rng: random.Random | None = None) -> ServedModel:
    """Validate protocol/model/key compatibility; refuses insecure set-ups."""
    info = wire.get_protocol(protocol)
    rng = rng or SYSTEM_RNG
    kappa = loaded.kappa if kappa is None else kappa
    if loaded.model_type not in info.model_types:
        raise ParameterError(
            f"protocol {protocol} cannot serve a {loaded.model_type} model")
    if info.mode:
        _check_activations(loaded.model.meta(info.mode, info.variant), info)
    if info.needs_server_keys and server_keys is None:
        raise ParameterError(f"protocol {protocol} needs a server key pair")

    served = ServedModel(protocol, loaded, server_keys, kappa, rng)
    if info.needs_server_keys:
        # Sessions check the client key; the server key is checked here, so
        # an undersized one is refused at startup rather than per query.
        # regr-dual compares nothing, so its key need only hold t: kappa 0.
        kappa_s = kappa if info.variant == "core" else 0
        if info.mode:
            loaded.model.check_keys(server_keys[0].n, kappa_s)
        else:
            check_core_sizing(server_keys[0].n, loaded.model.ell, kappa_s)
    if info.publishes:
        served.published = regr_dual_publish(loaded.model, server_keys[0], rng)
    return served


def _publish_frame_parts(served: ServedModel) -> tuple:
    published = served.published
    return (wire.serialize_public_key(published.public_key),
            wire.pack_u32(published.precision),
            wire.pack_u32(published.ell),
            served.loaded.activation.encode("utf-8"),
            *(wire.serialize_ciphertext(c, published.public_key)
              for c in published.ciphertexts))


def serve_connection(channel, served: ServedModel) -> None:
    """Answer frames on one connection until the peer closes it."""
    protocol_id = wire.PROTOCOL_IDS[served.protocol]
    network_sessions: dict[bytes, NetworkServerSession] = {}
    try:
        while True:
            data = channel.recv()
            session_id = bytes(wire.SESSION_ID_BYTES)
            try:
                frame = wire.unframe(data)
                session_id = frame.session_id
                if frame.protocol_id != protocol_id:
                    raise ProtocolViolationError(
                        f"server is running {served.protocol}, not protocol "
                        f"{frame.protocol_id}")
                for step, parts in _handle_frame(served, frame, network_sessions):
                    channel.send(wire.frame(protocol_id, step, session_id, parts))
            except ChannelClosed:
                raise
            except PinferError as exc:
                channel.send(wire.frame(protocol_id, wire.STEP_ERROR, session_id,
                                        (str(exc).encode("utf-8"),)))
    except ChannelClosed:
        return


def _handle_frame(served: ServedModel, frame: wire.Frame, sessions):
    """Yield (step, parts) responses for one incoming frame."""
    protocol = served.protocol
    if frame.step_id == wire.STEP_PUBLISH_REQUEST:
        if served.published is None:
            raise ProtocolViolationError(f"{protocol} does not publish a model")
        yield wire.STEP_PUBLISH, _publish_frame_parts(served)
        return
    if wire.PROTOCOLS[protocol].mode is None:
        yield wire.STEP_RESPONSE, _handle_linear_request(served, frame)
        return
    yield from _handle_network_frame(served, frame, sessions)


def _handle_linear_request(served: ServedModel, frame: wire.Frame) -> tuple:
    if frame.step_id != wire.STEP_REQUEST:
        raise ProtocolViolationError(f"unexpected step {frame.step_id}")
    protocol, model = served.protocol, served.loaded.model
    if protocol == "regr-dual":
        pk_s, sk_s = served.server_keys
        (request,) = _parts(frame, 1)
        masked = regr_dual_respond(sk_s, wire.deserialize_ciphertext(request, pk_s))
        return (wire.serialize_scalar(masked, pk_s),)
    if protocol == "svm-core":
        pk_s, sk_s = served.server_keys
        key, inner, *body = _parts(frame, 2, at_least=True)
        check_mask_bits(model.ell, len(body))
        pk_c = wire.deserialize_public_key(key)
        masked_inner = wire.deserialize_ciphertext(inner, pk_s)
        bits = tuple(wire.deserialize_ciphertext(p, pk_c) for p in body)
        request = UnitChallenge(masked_inner, bits)
        response = svm_core_respond(sk_s, request, model.ell, served.rng)
        return tuple(wire.serialize_ciphertext(c, pk_c) for c in response)
    request = _feature_request(frame, model)
    pk_c = request.public_key
    # Both replies end with the model's precision, which the client checks.
    if protocol == "svm-heur":
        response = svm_heur_respond(model, request, served.kappa, served.rng)
        return (wire.serialize_ciphertext(response, pk_c), wire.pack_u32(model.precision))
    response = regr_core_respond(model, request, served.rng)
    return (wire.serialize_ciphertext(response, pk_c),
            served.loaded.activation.encode("utf-8"),
            wire.pack_u32(model.precision))


def _handle_network_frame(served: ServedModel, frame: wire.Frame, sessions):
    info = wire.PROTOCOLS[served.protocol]
    if frame.step_id == wire.STEP_REQUEST:
        if frame.session_id in sessions:
            raise ProtocolViolationError("session already active")
        # One live session per connection: a new request ends the last one.
        sessions.clear()
        session = NetworkServerSession(served.loaded.model, mode=info.mode,
                                       server_keys=served.server_keys, kappa=served.kappa,
                                       variant=info.variant, rng=served.rng)
        message = session.start(_feature_request(frame, served.loaded.model))
        yield wire.STEP_META, (_meta_to_json(session.meta, session.keys["s"]),)
    elif frame.step_id == wire.STEP_LAYER_UP:
        # A refused layer-up ends its session: it is back in the table only
        # after a successful step that leaves it unfinished.
        session = sessions.pop(frame.session_id, None)
        if session is None:
            raise ProtocolViolationError("unknown session")
        message = session.advance(_decode_layer(frame, session.meta, session.keys,
                                                session.layer))
    else:
        raise ProtocolViolationError(f"unexpected step {frame.step_id}")
    if not session.done:
        sessions[frame.session_id] = session
    yield _encode_layer(message, session.meta, session.keys, up=False)


def serve_loopback(served: ServedModel):
    """Spawn a server thread on one end of a socket pair; returns the client
    channel and a join handle. Used by tests and the bench command."""
    client, server = map(SocketChannel, socket.socketpair())

    def serve() -> None:
        try:
            serve_connection(server, served)
        finally:
            server.close()

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    return client, thread
