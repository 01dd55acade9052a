"""Wire-level protocol drivers: frames over a byte channel.

``run_inference`` is the client side of every protocol; ``serve_connection``
answers frames for one connection. Both speak the frame format of the wire
module over a minimal Channel (send/recv of whole frames), implemented for
TCP sockets and for an in-process loopback used by tests and the bench
command. Published encrypted models are fetched in a separate exchange and
recorded on their own transcript: publication happens once per model, not
per query.
"""

from __future__ import annotations

import json
import queue
import random
import socket
import struct
import threading
from dataclasses import dataclass

from . import wire
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
from .network import (HeurChallenge, LayerActivations, LayerChallenges,
                      LayerInners, LayerOutputs, LayerMeta, LayerResponses,
                      NetworkClientSession, NetworkMeta, NetworkServerSession,
                      ReluHeurResponse, ReluUnitResponse, SignUnitResponse,
                      UnitChallenge)
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
    pk_server = wire.deserialize_public_key(frame.parts[0])
    d = wire.unpack_u32(frame.parts[1])
    precision = wire.unpack_u32(frame.parts[2])
    ell = wire.unpack_u32(frame.parts[3])
    activation = frame.parts[4].decode("utf-8")
    cts = tuple(wire.deserialize_ciphertext(p, pk_server) for p in frame.parts[5:])
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
        io.send(wire.STEP_REQUEST,
                (wire.serialize_public_key(pk_c),
                 *(wire.serialize_ciphertext(c, pk_c) for c in request.ciphertexts)),
                n_cts=len(request.ciphertexts))
        frame = io.recv(wire.STEP_RESPONSE, n_cts=1)
        t_ct = wire.deserialize_ciphertext(frame.parts[0], pk_c)
        activation = frame.parts[1].decode("utf-8")
        if wire.unpack_u32(frame.parts[2]) != x.precision:
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
        masked = wire.deserialize_scalar(frame.parts[0], published.public_key)
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
        response = ComparisonResponse(
            tuple(wire.deserialize_ciphertext(p, pk_c) for p in frame.parts))
        label = svm_core_finish(sk_c, response, session)
        return InferenceResult((float(label),), labels=(label,))

    if protocol == "svm-heur":
        request = svm_heur_request(pk_c, x, rng)
        io.send(wire.STEP_REQUEST,
                (wire.serialize_public_key(pk_c),
                 *(wire.serialize_ciphertext(c, pk_c) for c in request.ciphertexts)),
                n_cts=len(request.ciphertexts))
        frame = io.recv(wire.STEP_RESPONSE, n_cts=1)
        label = svm_heur_finish(sk_c, wire.deserialize_ciphertext(frame.parts[0], pk_c))
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
    request_cts = tuple(pk_c.encrypt(v, rng) for v in x.values[1:])
    io.send(wire.STEP_REQUEST,
            (wire.serialize_public_key(pk_c),
             *(wire.serialize_ciphertext(c, pk_c) for c in request_cts)),
            n_cts=len(request_cts))
    frame = io.recv(wire.STEP_META, n_cts=0)
    meta, pk_server = _meta_from_json(frame.parts[0])
    if x.d != meta.d_in or x.precision != meta.precision:
        raise ParameterError("input does not match the served network")
    session = NetworkClientSession(meta, client_keys, pk_server, rng)
    while True:
        frame, size = io.recv_raw()
        message, n_cts = _down_from_frame(frame, meta, pk_c, pk_server)
        if io.transcript is not None:
            io.transcript.record("down", frame.step_id, size, n_cts)
        reply = session.handle(message)
        if reply is None:
            break
        parts, up_cts = _up_to_parts(reply, meta, pk_c, pk_server)
        io.send(wire.STEP_LAYER_UP, parts, n_cts=up_cts)
    run = session.result
    return InferenceResult(run.outputs, labels=run.class_labels, raw=run.raw)


def _down_from_frame(frame: wire.Frame, meta: NetworkMeta, pk_c: PublicKey,
                     pk_s: PublicKey | None):
    if frame.step_id == wire.STEP_OUTPUT:
        cts = tuple(wire.deserialize_ciphertext(p, pk_c) for p in frame.parts)
        return LayerOutputs(cts), len(cts)
    if frame.step_id != wire.STEP_LAYER_DOWN:
        raise ProtocolViolationError(f"unexpected step {frame.step_id}")
    layer_index = wire.unpack_u32(frame.parts[0])
    if not 0 <= layer_index < len(meta.layers):
        raise ProtocolViolationError("layer index out of range")
    layer = meta.layers[layer_index]
    is_output = frame.parts[1] == b"\x01"
    body = frame.parts[2:]
    if meta.mode == "generic" or (is_output and meta.output_mode == "raw"):
        cts = tuple(wire.deserialize_ciphertext(p, pk_c) for p in body)
        return LayerInners(layer_index, cts, is_output=is_output), len(cts)
    if meta.variant == "core":
        per_unit = 1 + layer.ell
        if len(body) != layer.units * per_unit:
            raise ProtocolViolationError("challenge payload has the wrong size")
        challenges = []
        for u in range(layer.units):
            chunk = body[u * per_unit:(u + 1) * per_unit]
            inner = wire.deserialize_ciphertext(chunk[0], pk_c)
            bits = tuple(wire.deserialize_ciphertext(p, pk_s) for p in chunk[1:])
            challenges.append(UnitChallenge(inner, bits, layer.ell))
        return LayerChallenges(layer_index, tuple(challenges)), len(body)
    if len(body) != layer.units:
        raise ProtocolViolationError("challenge payload has the wrong size")
    challenges = tuple(HeurChallenge(wire.deserialize_ciphertext(p, pk_c))
                       for p in body)
    return LayerChallenges(layer_index, challenges), len(body)


def _up_to_parts(reply, meta: NetworkMeta, pk_c: PublicKey,
                 pk_s: PublicKey | None) -> tuple[tuple, int]:
    if isinstance(reply, LayerActivations):
        parts = [wire.pack_u32(reply.layer)]
        parts += [wire.serialize_ciphertext(c, pk_c) for c in reply.ciphertexts]
        return tuple(parts), len(reply.ciphertexts)
    if not isinstance(reply, LayerResponses):
        raise ProtocolViolationError(f"unexpected reply {type(reply).__name__}")
    parts = [wire.pack_u32(reply.layer)]
    count = 0
    for resp in reply.responses:
        if isinstance(resp, SignUnitResponse):
            parts.append(wire.serialize_ciphertext(resp.masked_sign, pk_c))
            parts += [wire.serialize_ciphertext(c, pk_s)
                      for c in resp.comparison.blinded_values]
            count += 1 + len(resp.comparison.blinded_values)
        elif isinstance(resp, ReluUnitResponse):
            parts.append(wire.serialize_ciphertext(resp.masked_bit, pk_c))
            parts += [wire.serialize_ciphertext(c, pk_c) for c in resp.pair]
            parts += [wire.serialize_ciphertext(c, pk_s)
                      for c in resp.comparison.blinded_values]
            count += 3 + len(resp.comparison.blinded_values)
        elif isinstance(resp, ReluHeurResponse):
            parts.append(wire.serialize_ciphertext(resp.masked_bit, pk_c))
            parts += [wire.serialize_ciphertext(c, pk_c) for c in resp.pair]
            count += 3
        else:  # sign heuristic: bare ciphertext
            parts.append(wire.serialize_ciphertext(resp, pk_c))
            count += 1
    return tuple(parts), count


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
    if protocol == "regr-core":
        pk_c = wire.deserialize_public_key(frame.parts[0])
        cts = tuple(wire.deserialize_ciphertext(p, pk_c) for p in frame.parts[1:])
        response = regr_core_respond(model, FeatureRequest(cts, pk_c), served.rng)
        return (wire.serialize_ciphertext(response, pk_c),
                served.loaded.activation.encode("utf-8"),
                wire.pack_u32(model.precision))
    if protocol == "regr-dual":
        pk_s, sk_s = served.server_keys
        masked = regr_dual_respond(sk_s, wire.deserialize_ciphertext(frame.parts[0], pk_s))
        return (wire.serialize_scalar(masked, pk_s),)
    if protocol == "svm-core":
        pk_s, sk_s = served.server_keys
        pk_c = wire.deserialize_public_key(frame.parts[0])
        masked_inner = wire.deserialize_ciphertext(frame.parts[1], pk_s)
        if wire.unpack_u32(frame.parts[2]) != model.ell:
            raise ProtocolViolationError("client assumed a different bound length")
        bits = tuple(wire.deserialize_ciphertext(p, pk_c) for p in frame.parts[3:])
        request = SvmCoreRequest(masked_inner, bits, pk_c)
        response = svm_core_respond(sk_s, request, model.ell, served.rng)
        return tuple(wire.serialize_ciphertext(c, pk_c)
                     for c in response.blinded_values)
    # svm-heur
    pk_c = wire.deserialize_public_key(frame.parts[0])
    cts = tuple(wire.deserialize_ciphertext(p, pk_c) for p in frame.parts[1:])
    response = svm_heur_respond(model, FeatureRequest(cts, pk_c), served.kappa, served.rng)
    return (wire.serialize_ciphertext(response, pk_c),)


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
        pk_c = wire.deserialize_public_key(frame.parts[0])
        cts = tuple(wire.deserialize_ciphertext(p, pk_c) for p in frame.parts[1:])
        session = NetworkServerSession(spec, mode=mode, server_keys=served.server_keys,
                                       kappa=served.kappa, variant=variant,
                                       rng=served.rng)
        message = session.start(FeatureRequest(cts, pk_c))
        sessions[frame.session_id] = (session, pk_c)
        yield wire.STEP_META, (_meta_to_json(spec.meta(mode, variant), pk_s),)
        yield _down_to_frame(message, pk_c, pk_s)
        if session.done:
            del sessions[frame.session_id]
        return
    if frame.step_id != wire.STEP_LAYER_UP:
        raise ProtocolViolationError(f"unexpected step {frame.step_id}")
    if frame.session_id not in sessions:
        raise ProtocolViolationError("unknown session")
    session, pk_c = sessions[frame.session_id]
    reply = _up_from_frame(frame, spec, mode, variant, pk_c, pk_s)
    message = session.advance(reply)
    yield _down_to_frame(message, pk_c, pk_s)
    if session.done:
        del sessions[frame.session_id]


def _down_to_frame(message, pk_c: PublicKey, pk_s: PublicKey | None):
    if isinstance(message, LayerOutputs):
        return wire.STEP_OUTPUT, tuple(wire.serialize_ciphertext(c, pk_c)
                                       for c in message.ciphertexts)
    if isinstance(message, LayerInners):
        head = (wire.pack_u32(message.layer),
                b"\x01" if message.is_output else b"\x00")
        return wire.STEP_LAYER_DOWN, head + tuple(
            wire.serialize_ciphertext(c, pk_c) for c in message.ciphertexts)
    parts = [wire.pack_u32(message.layer), b"\x00"]
    for challenge in message.challenges:
        parts.append(wire.serialize_ciphertext(challenge.masked_inner, pk_c))
        if isinstance(challenge, UnitChallenge):
            parts += [wire.serialize_ciphertext(c, pk_s) for c in challenge.mask_bits]
    return wire.STEP_LAYER_DOWN, tuple(parts)


def _up_from_frame(frame: wire.Frame, spec, mode: str, variant: str,
                   pk_c: PublicKey, pk_s: PublicKey | None):
    layer_index = wire.unpack_u32(frame.parts[0])
    if not 0 <= layer_index < spec.depth:
        raise ProtocolViolationError("layer index out of range")
    layer = spec.layers[layer_index]
    body = frame.parts[1:]
    if mode == "generic":
        cts = tuple(wire.deserialize_ciphertext(p, pk_c) for p in body)
        return LayerActivations(layer_index, cts)
    ell = layer.ell
    responses = []
    if variant == "core" and layer.activation == "sign":
        per_unit = 1 + (ell + 1)
        _expect_parts(body, layer.units * per_unit)
        for u in range(layer.units):
            chunk = body[u * per_unit:(u + 1) * per_unit]
            responses.append(SignUnitResponse(
                wire.deserialize_ciphertext(chunk[0], pk_c),
                ComparisonResponse(tuple(wire.deserialize_ciphertext(p, pk_s)
                                         for p in chunk[1:]))))
    elif variant == "core":
        per_unit = 3 + (ell + 1)
        _expect_parts(body, layer.units * per_unit)
        for u in range(layer.units):
            chunk = body[u * per_unit:(u + 1) * per_unit]
            responses.append(ReluUnitResponse(
                wire.deserialize_ciphertext(chunk[0], pk_c),
                (wire.deserialize_ciphertext(chunk[1], pk_c),
                 wire.deserialize_ciphertext(chunk[2], pk_c)),
                ComparisonResponse(tuple(wire.deserialize_ciphertext(p, pk_s)
                                         for p in chunk[3:]))))
    elif layer.activation == "sign":
        _expect_parts(body, layer.units)
        responses = [wire.deserialize_ciphertext(p, pk_c) for p in body]
    else:
        per_unit = 3
        _expect_parts(body, layer.units * per_unit)
        for u in range(layer.units):
            chunk = body[u * per_unit:(u + 1) * per_unit]
            responses.append(ReluHeurResponse(
                wire.deserialize_ciphertext(chunk[0], pk_c),
                (wire.deserialize_ciphertext(chunk[1], pk_c),
                 wire.deserialize_ciphertext(chunk[2], pk_c))))
    return LayerResponses(layer_index, tuple(responses))


def _expect_parts(body, count: int) -> None:
    if len(body) != count:
        raise ProtocolViolationError(
            f"layer reply has {len(body)} parts, expected {count}")


def serve_loopback(served: ServedModel):
    """Spawn a server thread on a loopback channel; returns the client channel
    and a join handle. Used by tests and the bench command."""
    client_channel, server_channel = loopback_pair()
    thread = threading.Thread(target=serve_connection,
                              args=(server_channel, served), daemon=True)
    thread.start()
    return client_channel, thread
