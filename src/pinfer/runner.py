"""Wire-level protocol drivers: frames over a byte channel.

``run_inference`` is the client side of every protocol; ``serve_connection``
answers frames for one connection. Both speak the frame format of the wire
module over a minimal Channel (send/recv of whole frames), implemented for
TCP sockets and for an in-process loopback used by tests and the bench
command. Published encrypted models are fetched in a separate exchange and
recorded on their own transcript: publication happens once per model, not
per query.

The codec is written once per message shape. A feature request (regr-core,
svm-heur and the network ``STEP_REQUEST``) is the client key followed by one
ciphertext per feature. A network layer message is a short header (the layer
index, and an output flag going down) followed by its ciphertexts in the
order ``network.flatten`` gives, each serialized under the key that
``network.unit_layout`` names for its position; ``_decode_layer`` inverts
``_encode_layer``. Every decoder checks a frame's part count before it reads
a part, so a short or overlong frame is refused with an error frame.
"""

from __future__ import annotations

import json
import queue
import random
import socket
import struct
import threading
from dataclasses import dataclass

from . import network, wire
from .errors import (MessageFormatError, ParameterError, PinferError,
                     ProtocolViolationError)
from .linear import (DEFAULT_KAPPA, FeatureRequest, FeatureVector,
                     PublishedLinearModel, SvmCoreRequest, check_core_sizing,
                     regr_core_finish, regr_core_request, regr_core_respond,
                     regr_dual_finish, regr_dual_publish, regr_dual_request,
                     regr_dual_respond, svm_core_finish, svm_core_request,
                     svm_core_respond, svm_heur_finish, svm_heur_request,
                     svm_heur_respond)
from .comparison import ComparisonResponse
from .modelfile import LoadedModel
from .network import (LayerActivations, LayerChallenges, LayerInners,
                      LayerOutputs, LayerMeta, LayerResponses,
                      NetworkClientSession, NetworkMeta, NetworkServerSession)
from .numutil import SYSTEM_RNG
from .paillier import PublicKey, SecretKey

LINEAR_PROTOCOLS = ("regr-core", "regr-dual", "svm-core", "svm-heur")
NETWORK_PROTOCOLS = ("ffnn-generic", "ffnn-sign", "ffnn-sign-heur",
                     "ffnn-relu", "ffnn-relu-heur")
HEURISTIC_PROTOCOLS = ("svm-heur", "ffnn-sign-heur", "ffnn-relu-heur")

_COMPATIBLE = {
    "regr-core": ("linear", "logistic"),
    "regr-dual": ("linear", "logistic"),
    "svm-core": ("svm",),
    "svm-heur": ("svm",),
}


class ChannelClosed(PinferError):
    """The peer closed the connection."""


class QueueChannel:
    """In-process loopback endpoint."""

    def __init__(self, inbox: queue.Queue, outbox: queue.Queue):
        self._inbox = inbox
        self._outbox = outbox

    def send(self, data: bytes) -> None:
        self._outbox.put(data)

    def recv(self) -> bytes:
        data = self._inbox.get()
        if data is None:
            raise ChannelClosed("peer closed the loopback")
        return data

    def close(self) -> None:
        self._outbox.put(None)


def loopback_pair() -> tuple[QueueChannel, QueueChannel]:
    a_to_b, b_to_a = queue.Queue(), queue.Queue()
    return QueueChannel(b_to_a, a_to_b), QueueChannel(a_to_b, b_to_a)


class SocketChannel:
    """Length-prefixed frames over a stream socket."""

    def __init__(self, sock: socket.socket):
        self._sock = sock

    def send(self, data: bytes) -> None:
        self._sock.sendall(struct.pack(">I", len(data)) + data)

    def recv(self) -> bytes:
        header = self._read_exactly(4)
        (length,) = struct.unpack(">I", header)
        return self._read_exactly(length)

    def _read_exactly(self, count: int) -> bytes:
        chunks = []
        while count:
            chunk = self._sock.recv(count)
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


@dataclass
class InferenceResult:
    values: tuple[float, ...]
    labels: tuple[int, ...] | None = None
    raw: tuple[int, ...] | None = None

    @property
    def value(self) -> float:
        return self.values[0]


# ---------------------------------------------------------------------------
# client side

class _ClientIO:
    def __init__(self, channel, protocol: str, rng, transcript):
        self.channel = channel
        self.protocol_id = wire.PROTOCOL_IDS[protocol]
        self.session_id = rng.randbytes(wire.SESSION_ID_BYTES)
        self.transcript = transcript

    def send(self, step: int, parts, n_cts: int = 0,
             transcript: wire.Transcript | None = None) -> None:
        data = wire.frame(self.protocol_id, step, self.session_id, parts)
        track = self.transcript if transcript is None else transcript
        if track is not None:
            track.record("up", step, len(data), n_cts)
        self.channel.send(data)

    def recv_raw(self) -> tuple[wire.Frame, int]:
        """Receive and parse one frame; the caller records it."""
        data = self.channel.recv()
        frame = wire.unframe(data)
        if frame.step_id == wire.STEP_ERROR:
            message = frame.parts[0].decode("utf-8", "replace") if frame.parts else "?"
            raise ProtocolViolationError(f"server reported: {message}")
        if frame.protocol_id != self.protocol_id:
            raise ProtocolViolationError(f"unexpected protocol {frame.protocol_id}")
        if frame.session_id != self.session_id:
            raise ProtocolViolationError("reply belongs to another session")
        return frame, len(data)

    def recv(self, expected_step: int, n_cts=None,
             transcript: wire.Transcript | None = None) -> wire.Frame:
        frame, size = self.recv_raw()
        if frame.step_id != expected_step:
            raise ProtocolViolationError(f"unexpected step {frame.step_id}")
        track = self.transcript if transcript is None else transcript
        if track is not None:
            count = n_cts(frame) if callable(n_cts) else (n_cts or 0)
            track.record("down", frame.step_id, size, count)
        return frame


def fetch_published(channel, protocol: str, client_keys, rng=None,
                    transcript: wire.Transcript | None = None
                    ) -> tuple[PublishedLinearModel, str]:
    """One-time fetch of the server's encrypted model (dual and svm-core)."""
    rng = rng or SYSTEM_RNG
    io = _ClientIO(channel, protocol, rng, None)
    io.send(wire.STEP_PUBLISH_REQUEST, (), transcript=transcript)
    frame = io.recv(wire.STEP_PUBLISH, n_cts=lambda f: len(f.parts) - 5,
                    transcript=transcript)
    key, d, precision, ell, activation, *body = _parts(frame, 5, at_least=True)
    pk_server = wire.deserialize_public_key(key)
    d, precision, ell = (wire.unpack_u32(p) for p in (d, precision, ell))
    activation = _text(activation)
    cts = tuple(wire.deserialize_ciphertext(p, pk_server) for p in body)
    if len(cts) != d + 1:
        raise ProtocolViolationError("published model has the wrong dimension")
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
        request, session = regr_core_request(pk_c, x, rng)
        io.send(wire.STEP_REQUEST, _feature_parts(request), n_cts=request.d)
        frame = io.recv(wire.STEP_RESPONSE, n_cts=1)
        reply, activation, precision = _parts(frame, 3)
        t_ct = wire.deserialize_ciphertext(reply, pk_c)
        activation = _text(activation)
        if wire.unpack_u32(precision) != x.precision:
            raise ProtocolViolationError("server model precision differs from the input")
        value = regr_core_finish(sk_c, t_ct, session, activation)
        return InferenceResult((value,), raw=(sk_c.decrypt(t_ct),))

    if protocol == "regr-dual":
        published, activation = fetch_published(channel, protocol, client_keys,
                                                rng, publish_transcript)
        if x.precision != published.precision:
            raise ParameterError("input precision differs from the published model")
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
        published, _ = fetch_published(channel, protocol, client_keys,
                                       rng, publish_transcript)
        if x.precision != published.precision:
            raise ParameterError("input precision differs from the published model")
        request, session = svm_core_request(published, pk_c, x, kappa, rng)
        io.send(wire.STEP_REQUEST,
                (wire.serialize_public_key(pk_c),
                 wire.serialize_ciphertext(request.masked_inner, published.public_key),
                 wire.pack_u32(published.ell),
                 *(wire.serialize_ciphertext(c, pk_c) for c in request.mask_bits)),
                n_cts=1 + len(request.mask_bits))
        frame = io.recv(wire.STEP_RESPONSE, n_cts=lambda f: len(f.parts))
        response = ComparisonResponse(tuple(
            wire.deserialize_ciphertext(p, pk_c) for p in _parts(frame, published.ell + 1)))
        label = svm_core_finish(sk_c, response, session)
        return InferenceResult((float(label),), labels=(label,))

    if protocol == "svm-heur":
        request = svm_heur_request(pk_c, x, rng)
        io.send(wire.STEP_REQUEST, _feature_parts(request), n_cts=request.d)
        frame = io.recv(wire.STEP_RESPONSE, n_cts=1)
        (reply,) = _parts(frame, 1)
        label = svm_heur_finish(sk_c, wire.deserialize_ciphertext(reply, pk_c))
        return InferenceResult((float(label),), labels=(label,))

    if protocol in NETWORK_PROTOCOLS:
        return _run_network_client(io, protocol, x, client_keys, rng)
    raise ParameterError(f"unknown protocol {protocol!r}")


def _meta_to_json(meta: NetworkMeta, pk_server: PublicKey | None) -> bytes:
    doc = {
        "layers": [{"units": l.units, "activation": l.activation, "ell": l.ell,
                    "t_scale": l.t_scale} for l in meta.layers],
        "d_in": meta.d_in, "precision": meta.precision, "mode": meta.mode,
        "variant": meta.variant, "output_mode": meta.output_mode,
        "server_key": pk_server.to_bytes().hex() if pk_server else None,
    }
    return json.dumps(doc).encode("utf-8")


def _meta_from_json(data: bytes) -> tuple[NetworkMeta, PublicKey | None]:
    try:
        doc = json.loads(data.decode("utf-8"))
        layers = tuple(LayerMeta(l["units"], l["activation"], l["ell"], l["t_scale"])
                       for l in doc["layers"])
        meta = NetworkMeta(layers, doc["d_in"], doc["precision"], doc["mode"],
                           doc["variant"], doc["output_mode"])
        pk = PublicKey.from_bytes(bytes.fromhex(doc["server_key"])) \
            if doc.get("server_key") else None
    except (KeyError, ValueError, TypeError) as exc:
        raise MessageFormatError(f"malformed network meta: {exc}") from None
    return meta, pk


def _run_network_client(io: _ClientIO, protocol: str, x: FeatureVector,
                        client_keys, rng) -> InferenceResult:
    pk_c, sk_c = client_keys
    request = FeatureRequest(tuple(pk_c.encrypt(v, rng) for v in x.values[1:]), pk_c)
    io.send(wire.STEP_REQUEST, _feature_parts(request), n_cts=request.d)
    frame = io.recv(wire.STEP_META, n_cts=0)
    meta, pk_server = _meta_from_json(_parts(frame, 1)[0])
    if x.d != meta.d_in or x.precision != meta.precision:
        raise ParameterError("input does not match the served network")
    session = NetworkClientSession(meta, client_keys, pk_server, rng)
    keys = {"c": pk_c, "s": pk_server}
    while True:
        frame, size = io.recv_raw()
        if frame.step_id not in (wire.STEP_LAYER_DOWN, wire.STEP_OUTPUT):
            raise ProtocolViolationError(f"unexpected step {frame.step_id}")
        message = _decode_layer(frame, meta, keys)
        if io.transcript is not None:
            io.transcript.record("down", frame.step_id, size, len(network.flatten(message)))
        reply = session.handle(message)
        if reply is None:
            break
        io.send(*_encode_layer(reply, meta, keys), n_cts=len(network.flatten(reply)))
    run = session.result
    return InferenceResult(run.outputs, labels=run.class_labels, raw=run.raw)


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


def _text(part: bytes) -> str:
    try:
        return part.decode("utf-8")
    except UnicodeDecodeError:
        raise MessageFormatError("text field is not UTF-8") from None


def _feature_parts(request: FeatureRequest) -> tuple[bytes, ...]:
    """A feature request: the client key, then one ciphertext per feature."""
    pk = request.public_key
    return (wire.serialize_public_key(pk),
            *(wire.serialize_ciphertext(c, pk) for c in request.ciphertexts))


def _feature_request(frame: wire.Frame) -> FeatureRequest:
    key, *body = _parts(frame, 1, at_least=True)
    pk = wire.deserialize_public_key(key)
    return FeatureRequest(tuple(wire.deserialize_ciphertext(p, pk) for p in body), pk)


def _encode_layer(message, meta: NetworkMeta, keys) -> tuple[int, tuple[bytes, ...]]:
    """Step and parts of a layer message; ``keys`` maps 'c' and 's' to keys."""
    kind = type(message)
    if kind is LayerOutputs:
        step, head, layer = wire.STEP_OUTPUT, (), meta.layers[-1]
    else:
        layer = meta.layers[message.layer]
        head = (wire.pack_u32(message.layer),)
        if kind in (LayerActivations, LayerResponses):
            step = wire.STEP_LAYER_UP
        else:
            step = wire.STEP_LAYER_DOWN
            head += (b"\x01" if kind is LayerInners and message.is_output else b"\x00",)
    layout = network.unit_layout(kind, meta, layer) * layer.units
    return step, head + tuple(wire.serialize_ciphertext(c, keys[k]) for c, k
                              in zip(network.flatten(message), layout, strict=True))


def _decode_layer(frame: wire.Frame, meta: NetworkMeta, keys):
    """Inverse of ``_encode_layer`` for a layer-down, layer-up or output frame."""
    index, is_output = len(meta.layers) - 1, False
    if frame.step_id == wire.STEP_OUTPUT:
        kind, body = LayerOutputs, frame.parts
    else:
        up = frame.step_id == wire.STEP_LAYER_UP
        parts = _parts(frame, 1 if up else 2, at_least=True)
        index = wire.unpack_u32(parts[0])
        if not 0 <= index < len(meta.layers):
            raise ProtocolViolationError("layer index out of range")
        body = parts[1 if up else 2:]
        generic = meta.mode == "generic"
        if up:
            kind = LayerActivations if generic else LayerResponses
        else:
            is_output = parts[1] == b"\x01"
            raw = generic or (is_output and meta.output_mode == "raw")
            kind = LayerInners if raw else LayerChallenges
    layer = meta.layers[index]
    layout = network.unit_layout(kind, meta, layer) * layer.units
    if len(body) != len(layout):
        raise ProtocolViolationError(
            f"layer message has {len(body)} ciphertexts, expected {len(layout)}")
    cts = (wire.deserialize_ciphertext(p, keys[k]) for p, k in zip(body, layout))
    return network.unflatten(kind, meta, index, cts, is_output)


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
    rng = rng or SYSTEM_RNG
    kappa = loaded.kappa if kappa is None else kappa
    if protocol in LINEAR_PROTOCOLS:
        if loaded.model_type not in _COMPATIBLE[protocol]:
            raise ParameterError(
                f"protocol {protocol} cannot serve a {loaded.model_type} model")
    elif protocol in NETWORK_PROTOCOLS:
        if loaded.model_type != "ffnn":
            raise ParameterError(f"protocol {protocol} needs an ffnn model")
        spec = loaded.model
        if protocol != "ffnn-generic":
            spec.check_encryptable()
            wanted = "sign" if "sign" in protocol else "relu"
            gated = list(spec.layers[:-1])
            if spec.output_mode == "activated":
                gated.append(spec.layers[-1])
            if any(layer.activation != wanted for layer in gated):
                raise ParameterError(
                    f"protocol {protocol} serves {wanted} layers only")
    else:
        raise ParameterError(f"unknown protocol {protocol!r}")

    needs_server_keys = protocol in ("regr-dual", "svm-core", "ffnn-sign", "ffnn-relu")
    if needs_server_keys and server_keys is None:
        raise ParameterError(f"protocol {protocol} needs a server key pair")

    served = ServedModel(protocol, loaded, server_keys, kappa, rng)
    if protocol in ("regr-dual", "svm-core"):
        if protocol == "svm-core":
            check_core_sizing(server_keys[0].n, loaded.model.ell, kappa)
        served.published = regr_dual_publish(loaded.model, server_keys[0], rng)
    if protocol in ("ffnn-sign", "ffnn-relu"):
        # The per-session check runs against the client key; gate the server
        # key here so an undersized configuration is refused at startup.
        loaded.model.check_keys(server_keys[0].n, kappa)
    return served


def _publish_frame_parts(served: ServedModel) -> tuple:
    published = served.published
    return (wire.serialize_public_key(published.public_key),
            wire.pack_u32(published.d),
            wire.pack_u32(published.precision),
            wire.pack_u32(published.ell),
            served.loaded.activation.encode("utf-8"),
            *(wire.serialize_ciphertext(c, published.public_key)
              for c in published.ciphertexts))


def serve_connection(channel, served: ServedModel) -> None:
    """Answer frames on one connection until the peer closes it."""
    protocol_id = wire.PROTOCOL_IDS[served.protocol]
    network_sessions: dict[bytes, tuple] = {}
    while True:
        try:
            data = channel.recv()
        except ChannelClosed:
            return
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
            return
        except PinferError as exc:
            try:
                channel.send(wire.frame(protocol_id, wire.STEP_ERROR, session_id,
                                        (str(exc).encode("utf-8"),)))
            except Exception:
                return


def _handle_frame(served: ServedModel, frame: wire.Frame, sessions):
    """Yield (step, parts) responses for one incoming frame."""
    protocol = served.protocol
    if frame.step_id == wire.STEP_PUBLISH_REQUEST:
        if served.published is None:
            raise ProtocolViolationError(f"{protocol} does not publish a model")
        yield wire.STEP_PUBLISH, _publish_frame_parts(served)
        return
    if protocol in LINEAR_PROTOCOLS:
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
        key, inner, ell, *body = _parts(frame, 3, at_least=True)
        pk_c = wire.deserialize_public_key(key)
        masked_inner = wire.deserialize_ciphertext(inner, pk_s)
        if wire.unpack_u32(ell) != model.ell:
            raise ProtocolViolationError("client assumed a different bound length")
        bits = tuple(wire.deserialize_ciphertext(p, pk_c) for p in body)
        request = SvmCoreRequest(masked_inner, bits, pk_c)
        response = svm_core_respond(sk_s, request, model.ell, served.rng)
        return tuple(wire.serialize_ciphertext(c, pk_c)
                     for c in response.blinded_values)
    request = _feature_request(frame)
    pk_c = request.public_key
    if protocol == "svm-heur":
        response = svm_heur_respond(model, request, served.kappa, served.rng)
        return (wire.serialize_ciphertext(response, pk_c),)
    response = regr_core_respond(model, request, served.rng)
    return (wire.serialize_ciphertext(response, pk_c),
            served.loaded.activation.encode("utf-8"),
            wire.pack_u32(model.precision))


def _network_mode_variant(protocol: str) -> tuple[str, str]:
    if protocol == "ffnn-generic":
        return "generic", "core"
    return "encrypted", ("heuristic" if protocol.endswith("-heur") else "core")


def _handle_network_frame(served: ServedModel, frame: wire.Frame, sessions):
    spec = served.loaded.model
    mode, variant = _network_mode_variant(served.protocol)
    pk_s = served.server_keys[0] if served.server_keys else None
    if frame.step_id == wire.STEP_REQUEST:
        if frame.session_id in sessions:
            raise ProtocolViolationError("session already active")
        request = _feature_request(frame)
        session = NetworkServerSession(spec, mode=mode, server_keys=served.server_keys,
                                       kappa=served.kappa, variant=variant,
                                       rng=served.rng)
        message = session.start(request)
        meta, keys = spec.meta(mode, variant), {"c": request.public_key, "s": pk_s}
        sessions[frame.session_id] = (session, meta, keys)
        yield wire.STEP_META, (_meta_to_json(meta, pk_s),)
        yield _encode_layer(message, meta, keys)
        if session.done:
            del sessions[frame.session_id]
        return
    if frame.step_id != wire.STEP_LAYER_UP:
        raise ProtocolViolationError(f"unexpected step {frame.step_id}")
    if frame.session_id not in sessions:
        raise ProtocolViolationError("unknown session")
    session, meta, keys = sessions[frame.session_id]
    message = session.advance(_decode_layer(frame, meta, keys))
    yield _encode_layer(message, meta, keys)
    if session.done:
        del sessions[frame.session_id]


def serve_loopback(served: ServedModel):
    """Spawn a server thread on a loopback channel; returns the client channel
    and a join handle. Used by tests and the bench command."""
    client_channel, server_channel = loopback_pair()
    thread = threading.Thread(target=serve_connection,
                              args=(server_channel, served), daemon=True)
    thread.start()
    return client_channel, thread
