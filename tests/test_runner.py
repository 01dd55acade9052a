import dataclasses
import json
import math
import random
import socket
import struct
import subprocess
import sys
import threading
import tracemalloc

import pytest
from hypothesis import assume, given, settings, strategies as st

from pinfer import keygen, numutil, wire
from pinfer.errors import MessageFormatError, ParameterError, ProtocolViolationError
from pinfer.linear import FeatureRequest, FeatureVector, LinearModel
from pinfer.modelfile import LoadedModel
from pinfer.network import (LayerMessage, LayerMeta, NetworkClientSession,
                            NetworkMeta, NetworkSpec, UnitChallenge, UnitResponse,
                            compares, evaluate_network, layout)
from pinfer.numutil import insecure_rng
from pinfer.paillier import PublicKey
from pinfer.reference import (eval_ffnn, eval_linear, eval_logistic, eval_svm)
from pinfer.runner import (ChannelClosed, SocketChannel,
                           _decode_layer, _encode_layer, _feature_parts,
                           _meta_from_json, _meta_to_json,
                           prepare_served, run_inference, serve_connection,
                           serve_loopback)
from pinfer.wire import Transcript

KAPPA = 40


def linear_loaded(model_type="logistic", d=4, precision=12, rng=None):
    weights = [rng.uniform(-1, 1) for _ in range(d)]
    model = LinearModel.from_real(weights, rng.uniform(-1, 1), precision)
    return LoadedModel(model_type, model, KAPPA)


def random_x(d, precision, rng):
    return FeatureVector.from_real([rng.uniform(-1, 1) for _ in range(d)], precision)


def run_protocol(protocol, loaded, x, client_keys, server_keys, rng,
                 transcript=None, publish_transcript=None):
    served = prepare_served(protocol, loaded, server_keys, KAPPA, rng)
    channel, _ = serve_loopback(served)
    try:
        return run_inference(channel, protocol, x, client_keys, kappa=KAPPA,
                             rng=rng, transcript=transcript,
                             publish_transcript=publish_transcript)
    finally:
        channel.close()


def test_regr_core_over_wire(client_keys, server_keys, rng):
    loaded = linear_loaded("logistic", rng=rng)
    x = random_x(4, 12, rng)
    transcript = Transcript()
    result = run_protocol("regr-core", loaded, x, client_keys, None, rng, transcript)
    assert result.value == eval_logistic(loaded.model, x).value
    assert result.raw == (eval_linear(loaded.model, x).raw,)
    assert transcript.round_trips == 1
    assert transcript.ciphertexts("up") == 4 and transcript.ciphertexts("down") == 1


def test_regr_dual_over_wire(client_keys, server_keys, rng):
    loaded = linear_loaded("linear", rng=rng)
    x = random_x(4, 12, rng)
    transcript, publish = Transcript(), Transcript()
    result = run_protocol("regr-dual", loaded, x, client_keys, server_keys, rng,
                          transcript, publish)
    assert result.value == eval_linear(loaded.model, x).value
    # one round trip for the query; the publish exchange is its own transcript
    assert transcript.round_trips == 1
    assert transcript.ciphertexts("up") == 1 and transcript.ciphertexts("down") == 0
    assert publish.ciphertexts("down") == 5


def test_svm_core_over_wire(client_keys, server_keys, rng):
    loaded = linear_loaded("svm", rng=rng)
    x = random_x(4, 12, rng)
    transcript, publish = Transcript(), Transcript()
    result = run_protocol("svm-core", loaded, x, client_keys, server_keys, rng,
                          transcript, publish)
    assert result.labels == (eval_svm(loaded.model, x).class_label,)
    ell = loaded.model.ell
    assert transcript.ciphertexts("up") == ell + 1
    assert transcript.ciphertexts("down") == ell + 1
    assert transcript.round_trips == 1
    # The publish endpoint hands out the server key and d+1 model ciphertexts.
    assert publish.ciphertexts("down") == loaded.model.d + 1


def test_svm_heur_over_wire(client_keys, server_keys, rng):
    loaded = linear_loaded("svm", rng=rng)
    x = random_x(4, 12, rng)
    transcript = Transcript()
    result = run_protocol("svm-heur", loaded, x, client_keys, None, rng, transcript)
    assert result.labels == (eval_svm(loaded.model, x).class_label,)
    assert transcript.ciphertexts("up") == 4 and transcript.ciphertexts("down") == 1
    assert transcript.round_trips == 1


def test_import_and_keygen_leave_only_the_main_thread(checkout_env):
    # Key generation's prime tests are batches whose helpers end with them.
    code = """
import os, threading
from pinfer import keygen
from pinfer.numutil import insecure_rng
assert threading.enumerate() == [threading.main_thread()]
keygen(256, insecure_rng(3))
assert threading.enumerate() == [threading.main_thread()]
try:
    os.waitpid(-1, os.WNOHANG)
except ChildProcessError:
    pass
else:
    raise AssertionError("a child process is left")
"""
    result = subprocess.run([sys.executable, "-c", code], env=checkout_env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr


@pytest.mark.parametrize("protocol", list(wire.PROTOCOLS))
def test_every_protocol_batches_its_powers(client_keys, server_keys, rng, protocol,
                                            monkeypatch):
    # Every protocol batches encryptions: the client's features, or for
    # regr-dual and svm-core the fresh term of its masked inner product.
    sizes, original = [], numutil.powers_while

    def recording(items, work=None):
        sizes.append(len(items))
        return original(items, work)

    monkeypatch.setattr(numutil, "powers_while", recording)
    run_protocol(protocol, *_model_and_input(protocol, rng), client_keys, server_keys, rng)
    assert max(sizes) >= 2


def _model_and_input(protocol, rng):
    info = wire.PROTOCOLS[protocol]
    if info.mode:
        return ffnn_loaded(info.activation or "sign"), pm_one(rng)
    return linear_loaded(info.model_types[0], rng=rng), random_x(4, 12, rng)


def _within(seconds, fn):
    """fn() in a daemon thread, so a server that never answers fails the
    test instead of hanging it."""
    outcome = []

    def target():
        try:
            outcome.append((fn(), None))
        except Exception as exc:
            outcome.append((None, exc))

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(seconds)
    assert outcome, f"no answer within {seconds} s"
    result, error = outcome[0]
    if error is not None:
        raise error
    return result


def _query_after(first, protocol, loaded, x, client_keys, server_keys, rng):
    """Run ``first(channel)`` on a new connection, then one query on the same
    connection; returns the query's result."""
    served = prepare_served(protocol, loaded, server_keys, KAPPA, rng)
    channel, thread = serve_loopback(served)
    try:
        _within(60, lambda: first(channel))
        result = _within(60, lambda: run_inference(channel, protocol, x, client_keys,
                                                   kappa=KAPPA, rng=rng))
    finally:
        channel.close()
    thread.join(timeout=10)
    assert not thread.is_alive()
    return result


def _error_reply(protocol, parts, fragment, step=wire.STEP_REQUEST):
    """A step that sends a ``step`` frame of ``parts`` and expects an error
    frame naming ``fragment``."""
    def send(channel):
        reply = _send(channel, protocol, step, parts, bytes(wire.SESSION_ID_BYTES))
        assert reply.step_id == wire.STEP_ERROR and fragment in reply.parts[0]
    return send


def _request_parts(client_keys, x, rng):
    """A feature request's frame parts."""
    return _feature_parts(FeatureRequest.encrypt(client_keys[0], x, rng))


@pytest.mark.parametrize("protocol,step,fragment", [
    ("regr-core", wire.STEP_PUBLISH_REQUEST, b"regr-core does not publish a model"),
    ("svm-heur", wire.STEP_LAYER_UP, b"unexpected step"),
    ("ffnn-relu", wire.STEP_LAYER_UP, b"frame has 19 parts, expected 18"),
    ("ffnn-relu", wire.STEP_LAYER_UP, b"frame has 1 parts, expected 18"),
    ("ffnn-generic", wire.STEP_RESPONSE, b"unexpected step"),
    ("ffnn-sign", wire.STEP_REQUEST, b"network expects"),
], ids=["publish-to-regr-core", "layer-up-to-svm-heur", "layer-up-one-part-long",
        "layer-up-for-the-next-layer", "response-to-ffnn-generic",
        "request-one-feature-short"])
def test_refused_steps_get_an_error_reply(client_keys, server_keys, rng, protocol, step,
                                          fragment):
    loaded, x = _model_and_input(protocol, rng)
    if protocol == "ffnn-relu":
        # A live session first, so the layer-up frame reaches the decoder,
        # with layer 0's reply layout and one ciphertext more, or the next
        # layer's reply layout. Layer 0 has three relu units of ell 2, so its
        # reply is 3 * (3 + 2 + 1) = 18 ciphertexts; the raw last layer's
        # layout is one per unit.
        def refuse(channel):
            reply = _send(channel, protocol, wire.STEP_REQUEST,
                          _request_parts(client_keys, x, rng), bytes(wire.SESSION_ID_BYTES))
            assert reply.step_id == wire.STEP_META
            assert wire.unframe(channel.recv()).step_id == wire.STEP_LAYER_DOWN
            meta, pk_s = _meta_from_json(reply.parts[0], wire.PROTOCOLS[protocol])
            keys = {"c": client_keys[0], "s": pk_s}
            index, extra = (0, "c") if b"19" in fragment else (1, "")
            unit, units = layout(meta, index, up=True)
            body = tuple(wire.serialize_ciphertext(keys[k].encrypt(0), keys[k])
                         for k in unit * units + extra)
            _error_reply(protocol, body, fragment, step)(channel)
    elif step == wire.STEP_REQUEST:
        # One ciphertext short of the network's inputs.
        refuse = _error_reply(protocol, _request_parts(client_keys, x, rng)[:-1], fragment)
    else:
        refuse = _error_reply(protocol, (), fragment, step)

    result = _query_after(refuse, protocol, loaded, x, client_keys, server_keys, rng)
    if protocol == "regr-core":
        assert result.value == eval_linear(loaded.model, x).value
    elif protocol == "svm-heur":
        assert result.labels == (eval_svm(loaded.model, x).class_label,)
    else:
        assert result.raw == tuple(p.raw for p in eval_ffnn(loaded.model, x))


def test_oversized_client_key_gets_an_error_reply(client_keys, rng):
    # A 4,096-bit key is refused by its length, before any work under it.
    loaded, x = linear_loaded("logistic", rng=rng), random_x(4, 12, rng)
    key = ((1 << 4095) | 1).to_bytes(512, "big")
    parts = (key, *_request_parts(client_keys, x, rng)[1:])
    result = _query_after(_error_reply("regr-core", parts, b"384-byte limit"), "regr-core",
                          loaded, x, client_keys, None, rng)
    assert result.value == eval_logistic(loaded.model, x).value


#: A 512-bit modulus with the factors 3, 5, 7, 11 and 13.
SMALL_FACTOR_N = 3 * 5 * 7 * 11 * 13 * ((1 << 498) + 1)


class _UnitDraws(random.Random):
    """A seeded stream that draws only values coprime to ``SMALL_FACTOR_N``,
    so that every ciphertext under that key is a unit and passes decoding."""

    def randrange(self, *args):
        while math.gcd(value := super().randrange(*args), SMALL_FACTOR_N) != 1:
            pass
        return value


def test_small_factor_client_key_gets_an_error_reply(client_keys, server_keys, rng):
    loaded, x = linear_loaded("svm", rng=rng), random_x(4, 12, rng)
    bad_keys = (PublicKey(SMALL_FACTOR_N), client_keys[1])
    with pytest.raises(ProtocolViolationError, match="server reported: .*small factor"):
        run_protocol("svm-core", loaded, x, bad_keys, server_keys, _UnitDraws(24))


def test_small_factor_server_key_in_meta_is_refused(client_keys, rng):
    loaded, x = ffnn_loaded("sign"), pm_one(rng)
    bad_keys = (PublicKey(SMALL_FACTOR_N), None)
    with pytest.raises(ProtocolViolationError, match="^the bit owner's modulus has a small"):
        run_protocol("ffnn-sign", loaded, x, client_keys, bad_keys, _UnitDraws(25))


def test_oversized_frame_header_ends_the_connection(rng):
    served = prepare_served("regr-core", linear_loaded(rng=rng), None, KAPPA, rng)
    client_sock, server_sock = socket.socketpair()
    try:
        client_sock.sendall(b"\xff\xff\xff\xff" + b"body")
        thread = threading.Thread(target=serve_connection,
                                  args=(SocketChannel(server_sock), served), daemon=True)
        tracemalloc.start()
        try:
            thread.start()
            thread.join(timeout=10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not thread.is_alive()
        assert peak < 1 << 20
        # Nothing after the length prefix was read.
        server_sock.setblocking(False)
        assert server_sock.recv(16) == b"body"
    finally:
        client_sock.close()
        server_sock.close()


def test_reset_mid_frame_ends_the_connection_cleanly(rng, monkeypatch):
    served = prepare_served("regr-core", linear_loaded(rng=rng), None, KAPPA, rng)
    uncaught = []
    monkeypatch.setattr(threading, "excepthook", uncaught.append)
    with socket.create_server(("127.0.0.1", 0)) as listener:
        client_sock = socket.create_connection(listener.getsockname())
        server_sock, _ = listener.accept()
    thread = threading.Thread(target=serve_connection,
                              args=(SocketChannel(server_sock), served), daemon=True)
    try:
        thread.start()
        # Ten bytes of a 100-byte frame, then a reset rather than a close.
        client_sock.sendall(struct.pack(">I", 100) + bytes(10))
        client_sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
        client_sock.close()
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert uncaught == []
    finally:
        server_sock.close()


def test_send_to_a_closed_peer_closes_the_channel():
    sock, peer = socket.socketpair()
    peer.close()
    try:
        with pytest.raises(ChannelClosed):
            SocketChannel(sock).send(b"frame")
    finally:
        sock.close()


class _Frames:
    """Server channel that delivers ``frames`` in order, then closes. It
    keeps what is sent, and a send fails if ``send_fails``."""

    def __init__(self, *frames, send_fails=False):
        self.frames, self.sent, self.send_fails = list(frames), [], send_fails

    def recv(self):
        if not self.frames:
            raise ChannelClosed("no more frames")
        return self.frames.pop(0)

    def send(self, data):
        self.sent.append(data)
        if self.send_fails:
            raise ChannelClosed("send failed")


def test_a_reply_that_cannot_be_sent_ends_the_connection(client_keys, rng):
    loaded, x = linear_loaded(rng=rng), random_x(4, 12, rng)
    served = prepare_served("regr-core", loaded, None, KAPPA, rng)
    request = wire.frame(wire.PROTOCOL_IDS["regr-core"], wire.STEP_REQUEST,
                         bytes(wire.SESSION_ID_BYTES), _request_parts(client_keys, x, rng))
    channel = _Frames(request, request, send_fails=True)
    serve_connection(channel, served)
    # The reply was tried once, with no error frame after it, and the
    # second request was never read.
    assert [wire.unframe(data).step_id for data in channel.sent] == [wire.STEP_RESPONSE]
    assert channel.frames == [request]


@pytest.mark.parametrize("protocol", ["regr-core", "svm-core", "ffnn-relu"])
def test_overlong_request_is_refused_before_parsing(client_keys, server_keys, rng,
                                                    monkeypatch, protocol):
    # Ten times the served model's number of ciphertexts: features, or
    # svm-core's mask bits after its masked inner product.
    loaded, _ = _model_and_input(protocol, rng)
    served = prepare_served(protocol, loaded, server_keys, KAPPA, rng)
    (pk_c, _), (pk_s, _) = client_keys, server_keys
    head = (wire.serialize_public_key(pk_c),)
    if protocol == "svm-core":
        count = loaded.model.ell
        head += (wire.serialize_ciphertext(pk_s.encrypt(1, rng), pk_s),)
        message = f"expected {count} mask bits, got {10 * count}"
    elif protocol == "regr-core":
        count = loaded.model.d
        message = f"model has d={count}, request has d={10 * count}"
    else:
        count = loaded.model.d_in
        message = f"network expects {count} inputs, got {10 * count}"
    ct = wire.serialize_ciphertext(pk_c.encrypt(1, rng), pk_c)
    channel = _Frames(wire.frame(wire.PROTOCOL_IDS[protocol], wire.STEP_REQUEST,
                                 bytes(wire.SESSION_ID_BYTES), head + (ct,) * (10 * count)))
    parsed = []
    monkeypatch.setattr(wire, "deserialize_ciphertext", lambda *args: parsed.append(args))
    tracemalloc.start()
    try:
        serve_connection(channel, served)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    (reply,) = map(wire.unframe, channel.sent)
    assert reply.step_id == wire.STEP_ERROR and reply.parts == (message.encode(),)
    assert parsed == []
    assert peak < 1 << 20


def test_unknown_protocol_is_a_parameter_error(client_keys, rng):
    sock, peer = socket.socketpair()
    try:
        with pytest.raises(ParameterError, match="unknown protocol"):
            run_inference(SocketChannel(sock), "nope", random_x(4, 12, rng), client_keys,
                          kappa=KAPPA, rng=rng)
        with pytest.raises(ParameterError, match="unknown protocol"):
            prepare_served("nope", linear_loaded(rng=rng), None, KAPPA, rng)
    finally:
        sock.close()
        peer.close()


def ffnn_loaded(activation="sign", output_mode="raw"):
    spec = NetworkSpec.from_integer(
        [([(0, 1, 1), (-1, 1, -1), (1, -1, 0)], activation),
         ([(0, 1, -2, 1)], activation)], output_mode=output_mode)
    return LoadedModel("ffnn", spec, KAPPA)


def pm_one(rng, d=2):
    return FeatureVector((1, *(rng.choice((-1, 1)) for _ in range(d))), 0)


@pytest.mark.parametrize("protocol,activation", [
    ("ffnn-generic", "sign"), ("ffnn-sign", "sign"), ("ffnn-sign-heur", "sign"),
    ("ffnn-relu", "relu"), ("ffnn-relu-heur", "relu")])
def test_networks_over_wire(client_keys, server_keys, rng, protocol, activation):
    loaded = ffnn_loaded(activation)
    for _ in range(3):
        x = pm_one(rng)
        oracle = eval_ffnn(loaded.model, x)
        result = run_protocol(protocol, loaded, x, client_keys, server_keys, rng)
        assert result.raw == tuple(p.raw for p in oracle)
        assert result.values == tuple(p.value for p in oracle)


def test_network_wire_counts(client_keys, server_keys, rng):
    loaded = ffnn_loaded("sign")
    transcript = Transcript()
    run_protocol("ffnn-sign", loaded, pm_one(rng), client_keys, server_keys, rng,
                 transcript)
    ell = loaded.model.layers[0].ell
    assert transcript.ciphertexts("down") == 3 * (ell + 1) + 1  # units + output
    assert transcript.ciphertexts("up") == 2 + 3 * (ell + 2)    # input + units


def test_prepare_served_compatibility(client_keys, server_keys, rng):
    loaded = linear_loaded("svm", rng=rng)
    with pytest.raises(ParameterError):
        prepare_served("regr-core", loaded, None, KAPPA, rng)
    with pytest.raises(ParameterError):
        prepare_served("svm-core", loaded, None, KAPPA, rng)  # needs server keys
    net = ffnn_loaded("sign")
    with pytest.raises(ParameterError):
        prepare_served("ffnn-relu", net, server_keys, KAPPA, rng)  # sign layers
    mixed = LoadedModel("ffnn", NetworkSpec.from_integer(
        [([(0, 1)], "sigmoid"), ([(0, 1)], "identity")]), KAPPA)
    with pytest.raises(ParameterError):
        prepare_served("ffnn-sign", mixed, server_keys, KAPPA, rng)
    prepare_served("ffnn-generic", mixed, None, KAPPA, rng)


def test_undersized_keys_refused_at_startup(server_keys, rng):
    # ell = 111 at kappa = 95 exceeds what a 128-bit modulus can mask.
    from pinfer import keygen
    from pinfer.numutil import insecure_rng
    tiny_keys = keygen(128, insecure_rng(7))
    loaded = LoadedModel(
        "svm", LinearModel.from_real([0.5] * 30, 0.1, precision=53), kappa=95)
    assert loaded.model.ell == 111
    with pytest.raises(ParameterError):
        prepare_served("svm-core", loaded, tiny_keys, 95, rng)
    # The same model hosts fine on an adequately sized modulus.
    prepare_served("svm-core", loaded, server_keys, 95, rng)
    # regr-dual masks no comparison, but its key must still hold t: ell = 133.
    wide = LoadedModel("linear", LinearModel.from_real([0.5] * 30, 0.1, precision=64), 95)
    with pytest.raises(ParameterError, match="kappa=0"):
        prepare_served("regr-dual", wide, tiny_keys, 95, rng)
    prepare_served("regr-dual", wide, server_keys, 95, rng)


def test_regr_core_refuses_a_client_key_it_would_wrap(rng):
    # ell = 133 under a 128-bit client key: the inner product would decrypt
    # to another integer, so the server answers with an error frame.
    tiny_keys = keygen(128, insecure_rng(7))
    loaded = LoadedModel("linear", LinearModel.from_real([0.5] * 30, 0.1, precision=64), KAPPA)
    assert loaded.model.ell >= tiny_keys[0].bit_length
    with pytest.raises(ProtocolViolationError, match="128 bits is too small for ell=133"):
        run_protocol("regr-core", loaded, random_x(30, 64, rng), tiny_keys, None, rng)


@pytest.mark.parametrize("depth", [8, 10])
def test_generic_network_refuses_a_client_key_it_would_wrap(client_keys, depth):
    # 2-unit relu layers and an identity output at P = 53 grow ell by about
    # 53 bits a layer: 8 layers stay below the 512-bit client key and are
    # exact; 10 pass it and would decrypt to other integers, so the server
    # answers with an error frame.
    rng = insecure_rng(0x5CA1E)

    def rows(units):
        return [[rng.uniform(-1, 1) for _ in range(3)] for _ in range(units)]
    spec = NetworkSpec.from_real([(rows(2), "relu")] * (depth - 1) + [(rows(1), "identity")], 53)
    x = random_x(2, 53, rng)
    loaded = LoadedModel("ffnn", spec, KAPPA)
    assert (max(layer.ell for layer in spec.layers) < 512) == (depth == 8)
    if depth == 8:
        result = run_protocol("ffnn-generic", loaded, x, client_keys, None, rng)
        assert result.raw == tuple(p.raw for p in eval_ffnn(spec, x))
    else:
        with pytest.raises(ProtocolViolationError, match="512 bits is too small .* kappa=0"):
            run_protocol("ffnn-generic", loaded, x, client_keys, None, rng)


def test_server_reports_errors_as_frames(client_keys, server_keys, rng):
    # regr-core clients do not know the model dimension up front, so a
    # wrong-size request reaches the server and must come back as an error.
    loaded = linear_loaded("logistic", rng=rng)
    served = prepare_served("regr-core", loaded, None, KAPPA, rng)
    channel, _ = serve_loopback(served)
    try:
        bad_x = random_x(7, 12, rng)
        with pytest.raises(ProtocolViolationError, match="d=4"):
            run_inference(channel, "regr-core", bad_x, client_keys, kappa=KAPPA, rng=rng)
    finally:
        channel.close()


def test_wrong_protocol_rejected(client_keys, server_keys, rng):
    loaded = linear_loaded("logistic", rng=rng)
    served = prepare_served("regr-core", loaded, None, KAPPA, rng)
    channel, _ = serve_loopback(served)
    try:
        with pytest.raises(ProtocolViolationError):
            run_inference(channel, "svm-heur", random_x(4, 12, rng), client_keys,
                          kappa=KAPPA, rng=rng)
    finally:
        channel.close()


class _DuplicateFirstSend:
    """Client channel that sends its first frame twice and sets aside error
    frames, so the client keeps driving the original session."""

    def __init__(self, channel):
        self.channel = channel
        self.errors = []
        self._sent = False

    def send(self, data):
        self.channel.send(data)
        if not self._sent:
            self._sent = True
            self.channel.send(data)

    def recv(self):
        while True:
            data = self.channel.recv()
            frame = wire.unframe(data)
            if frame.step_id != wire.STEP_ERROR:
                return data
            self.errors.append(frame)


def test_reused_session_id_rejected(client_keys, server_keys, rng):
    loaded = ffnn_loaded("sign")
    x = pm_one(rng)
    served = prepare_served("ffnn-sign", loaded, server_keys, KAPPA, rng)
    inner, _ = serve_loopback(served)
    channel = _DuplicateFirstSend(inner)
    try:
        result = run_inference(channel, "ffnn-sign", x, client_keys, kappa=KAPPA, rng=rng)
    finally:
        inner.close()
    oracle = eval_ffnn(loaded.model, x)
    assert result.raw == tuple(p.raw for p in oracle)
    assert result.values == tuple(p.value for p in oracle)
    [error] = channel.errors
    assert error.parts[0] == b"session already active"


def _send(channel, protocol, step, parts, session_id):
    """Send one raw frame and read the server's reply."""
    channel.send(wire.frame(wire.PROTOCOL_IDS[protocol], step, session_id, parts))
    return wire.unframe(channel.recv())


SHORT = b"parts, expected"


def _short_frames(protocol, client_keys, served):
    """(step, parts, error) for frames short of parts or of ciphertexts, with
    ``error`` a fragment of the server's error message, or None on the valid
    set-up frames."""
    pk_c = client_keys[0]
    if protocol == "svm-core":
        pk_s = served.server_keys[0]
        # Key and masked inner product, but no mask bits.
        no_bits = (wire.serialize_public_key(pk_c),
                   wire.serialize_ciphertext(pk_s.encrypt(1), pk_s))
        return [(wire.STEP_REQUEST, (wire.serialize_public_key(pk_c),), SHORT),
                (wire.STEP_REQUEST, no_bits, b"mask bits")]
    if protocol != "ffnn-sign":
        return [(wire.STEP_REQUEST, (), SHORT)]
    # A live session first, so the layer-up frame reaches the decoder. The
    # refused layer-up ends that session, so a second one finds none.
    request = (wire.serialize_public_key(pk_c),
               *(wire.serialize_ciphertext(pk_c.encrypt(1), pk_c) for _ in range(2)))
    return [(wire.STEP_REQUEST, (), SHORT), (wire.STEP_REQUEST, request, None),
            (wire.STEP_LAYER_UP, (), SHORT), (wire.STEP_LAYER_UP, (), b"unknown session")]


@pytest.mark.parametrize("protocol", ["regr-core", "regr-dual", "svm-core", "ffnn-sign"])
def test_short_frames_get_error_replies(client_keys, server_keys, rng, protocol):
    if protocol == "ffnn-sign":
        loaded, x = ffnn_loaded("sign"), pm_one(rng)
    else:
        loaded = linear_loaded("svm" if protocol == "svm-core" else "logistic", rng=rng)
        x = random_x(4, 12, rng)
    served = prepare_served(protocol, loaded, server_keys, KAPPA, rng)
    channel, thread = serve_loopback(served)
    # A server thread that hangs on a frame fails the test instead of hanging it.
    channel._sock.settimeout(60)
    session_id = rng.randbytes(wire.SESSION_ID_BYTES)
    try:
        for step, parts, error in _short_frames(protocol, client_keys, served):
            reply = _send(channel, protocol, step, parts, session_id)
            if error is None:
                assert reply.step_id == wire.STEP_META
                assert wire.unframe(channel.recv()).step_id == wire.STEP_LAYER_DOWN
                continue
            assert reply.step_id == wire.STEP_ERROR
            assert error in reply.parts[0]
        # The connection survives: a valid query still gets the oracle's answer.
        result = run_inference(channel, protocol, x, client_keys, kappa=KAPPA, rng=rng)
    finally:
        channel.close()
    thread.join(timeout=10)
    assert not thread.is_alive()
    if protocol == "ffnn-sign":
        assert result.raw == tuple(p.raw for p in eval_ffnn(loaded.model, x))
    elif protocol == "svm-core":
        assert result.labels == (eval_svm(loaded.model, x).class_label,)
    else:
        assert result.value == eval_logistic(loaded.model, x).value


def test_a_new_request_ends_the_live_session(client_keys, rng):
    loaded, x = ffnn_loaded("sign"), pm_one(rng)
    served = prepare_served("ffnn-generic", loaded, None, KAPPA, rng)
    channel, thread = serve_loopback(served)
    channel._sock.settimeout(60)
    request = _feature_parts(FeatureRequest.encrypt(client_keys[0], x, rng))
    first, second = (bytes([i]) * wire.SESSION_ID_BYTES for i in (1, 2))
    keys = {"c": client_keys[0], "s": None}
    try:
        downs = {}
        for session_id in (first, second):
            meta_frame = _send(channel, "ffnn-generic", wire.STEP_REQUEST, request, session_id)
            assert meta_frame.step_id == wire.STEP_META
            downs[session_id] = wire.unframe(channel.recv())
        meta, _ = _meta_from_json(meta_frame.parts[0], wire.PROTOCOLS["ffnn-generic"])
        # The second request ended the first session.
        client = NetworkClientSession(meta, client_keys, None, rng)
        reply = client.handle(_decode_layer(downs[first], meta, keys, client.next_layer))
        refused = _send(channel, "ffnn-generic", *_encode_layer(reply, meta, keys, up=True),
                        first)
        assert refused.step_id == wire.STEP_ERROR
        assert refused.parts[0] == b"unknown session"
        # The second session runs to the oracle's answer, and so does a new query.
        client = NetworkClientSession(meta, client_keys, None, rng)
        message = _decode_layer(downs[second], meta, keys, client.next_layer)
        while (reply := client.handle(message)) is not None:
            down = _send(channel, "ffnn-generic", *_encode_layer(reply, meta, keys, up=True),
                         second)
            message = _decode_layer(down, meta, keys, client.next_layer)
        result = run_inference(channel, "ffnn-generic", x, client_keys, kappa=KAPPA, rng=rng)
    finally:
        channel.close()
    thread.join(timeout=10)
    assert not thread.is_alive()
    oracle = tuple(p.raw for p in eval_ffnn(loaded.model, x))
    assert client.result.raw == result.raw == oracle


class _CannedServer:
    """Client channel answered by canned (step, parts) replies, each sent
    under the session id of the client's last frame (or another one)."""

    def __init__(self, protocol, replies, other_session=False):
        self.protocol_id = wire.PROTOCOL_IDS[protocol]
        self.replies = list(replies)
        self.other_session = other_session
        self.session_id = None

    def send(self, data):
        self.session_id = wire.unframe(data).session_id

    def recv(self):
        step, parts = self.replies.pop(0)
        session_id = self.session_id
        if self.other_session:
            session_id = bytes([session_id[0] ^ 1]) + session_id[1:]
        return wire.frame(self.protocol_id, step, session_id, parts)

    def close(self):
        pass


def _canned_replies(case, client_keys, server_keys):
    pk_c, pk_s = client_keys[0], server_keys[0]
    ct = wire.serialize_ciphertext(pk_c.encrypt(1), pk_c)
    publish = [wire.serialize_public_key(pk_s), wire.pack_u32(12), wire.pack_u32(30),
               b"identity",
               *(wire.serialize_ciphertext(pk_s.encrypt(1), pk_s) for _ in range(2))]
    meta = _meta_to_json(ffnn_loaded("sign").model.meta("encrypted", "core"), pk_s)
    generic_meta = _meta_to_json(ffnn_loaded("sign").model.meta("generic"), None)
    doc = json.loads(generic_meta)
    no_layers = json.dumps({**doc, "layers": []}).encode("utf-8")
    doc["layers"][0]["units"] = "1"
    string_units = json.dumps(doc).encode("utf-8")
    doc = json.loads(meta)
    doc["layers"][0]["ell"] = 0
    zero_ell = json.dumps(doc).encode("utf-8")
    return {
        "regr-core response": ("regr-core", [(wire.STEP_RESPONSE, (ct,))]),
        "regr-core activation": ("regr-core", [(wire.STEP_RESPONSE,
                                                (ct, b"\xff\xfe", wire.pack_u32(12)))]),
        "regr-core unknown activation": ("regr-core", [(wire.STEP_RESPONSE,
                                                        (ct, b"bogus", wire.pack_u32(12)))]),
        "svm-heur response": ("svm-heur", [(wire.STEP_RESPONSE, ())]),
        "regr-dual publish": ("regr-dual", [(wire.STEP_PUBLISH, tuple(publish[:3]))]),
        "regr-dual activation": ("regr-dual", [(wire.STEP_PUBLISH, (
            *publish[:3], b"\xc3", *publish[4:]))]),
        "regr-dual sign activation": ("regr-dual", [(wire.STEP_PUBLISH, (
            *publish[:3], b"sign", *publish[4:]))]),
        "regr-dual response": ("regr-dual", [(wire.STEP_PUBLISH, tuple(publish)),
                                             (wire.STEP_RESPONSE, ())]),
        "svm-core response": ("svm-core", [(wire.STEP_PUBLISH, tuple(publish)),
                                           (wire.STEP_RESPONSE, (ct,))]),
        "ffnn meta": ("ffnn-sign", [(wire.STEP_META, ())]),
        "ffnn layer": ("ffnn-sign", [(wire.STEP_META, (meta,)), (wire.STEP_LAYER_DOWN, ())]),
        # A hidden layer's inner products after a version 1 output flag.
        "ffnn flag": ("ffnn-generic", [(wire.STEP_META, (generic_meta,)),
                                       (wire.STEP_LAYER_DOWN, (b"\x00", ct, ct, ct))]),
        # A META the client cannot run: without the check, an output frame
        # raised IndexError, and a layer frame TypeError (string units) or
        # AttributeError (a comparison of no bits).
        "ffnn no layers": ("ffnn-generic", [(wire.STEP_META, (no_layers,)),
                                            (wire.STEP_OUTPUT, ())]),
        "ffnn string units": ("ffnn-generic", [(wire.STEP_META, (string_units,)),
                                               (wire.STEP_LAYER_DOWN, ())]),
        "ffnn zero ell": ("ffnn-sign", [(wire.STEP_META, (zero_ell,)),
                                        (wire.STEP_LAYER_DOWN, (ct, ct, ct))]),
    }[case]


@pytest.mark.parametrize("case,error", [
    ("regr-core response", ProtocolViolationError),
    ("regr-core activation", MessageFormatError),
    ("regr-core unknown activation", MessageFormatError),
    ("svm-heur response", ProtocolViolationError),
    ("regr-dual publish", ProtocolViolationError),
    ("regr-dual activation", MessageFormatError),
    ("regr-dual sign activation", MessageFormatError),
    ("regr-dual response", ProtocolViolationError),
    ("svm-core response", ProtocolViolationError),
    ("ffnn meta", ProtocolViolationError),
    ("ffnn layer", ProtocolViolationError),
    ("ffnn flag", ProtocolViolationError),
    ("ffnn no layers", MessageFormatError),
    ("ffnn string units", MessageFormatError),
    ("ffnn zero ell", MessageFormatError)])
def test_client_rejects_short_frames(client_keys, server_keys, rng, case, error):
    protocol, replies = _canned_replies(case, client_keys, server_keys)
    x = pm_one(rng) if protocol.startswith("ffnn") else FeatureVector((1, 1), 12)
    channel = _CannedServer(protocol, replies)
    with pytest.raises(error):
        run_inference(channel, protocol, x, client_keys, kappa=KAPPA, rng=rng)


@pytest.mark.parametrize("units,ell,error", [
    (100_000, 1_000, MessageFormatError), (1, 1 << 31, MessageFormatError),
    (1_000_000, 10, ProtocolViolationError)],
    ids=["many units of a wide ell", "one unit of a huge ell", "many units"])
def test_hostile_meta_costs_no_memory(client_keys, server_keys, rng, units, ell, error):
    # An ffnn-relu META whose first layer declares ``units`` relu units of
    # ``ell`` bits, then a layer frame of no ciphertexts. An ell at or above
    # the client key's bit length is refused before the layer frame is read;
    # the rest are refused by the frame's part count, before a layout of one
    # key per declared ciphertext is built.
    doc = json.loads(_meta_to_json(ffnn_loaded("relu").model.meta("encrypted", "core"),
                                   server_keys[0]))
    doc["layers"][0].update(units=units, ell=ell)
    channel = _CannedServer("ffnn-relu", [(wire.STEP_META, (json.dumps(doc).encode(),)),
                                          (wire.STEP_LAYER_DOWN, ())])
    tracemalloc.start()
    try:
        with pytest.raises(error):
            run_inference(channel, "ffnn-relu", pm_one(rng), client_keys, kappa=KAPPA, rng=rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert len(channel.replies) == (error is MessageFormatError)


def test_meta_of_the_other_format_age_is_refused(client_keys, rng):
    # A META of the earlier format also sent each layer's inner-product
    # scale, "t_scale", which the client now derives. It is refused before
    # any scale is used: a scale of 2**30 bits cost that format's client
    # over 100 MiB and returned 0.0.
    doc = json.loads(_meta_to_json(ffnn_loaded("relu").model.meta("generic"), None))
    earlier = {**doc, "layers": [{**layer, "t_scale": 1 << 30} for layer in doc["layers"]]}
    channel = _CannedServer("ffnn-generic", [(wire.STEP_META, (json.dumps(earlier).encode(),))])
    tracemalloc.start()
    try:
        with pytest.raises(MessageFormatError, match="t_scale"):
            run_inference(channel, "ffnn-generic", pm_one(rng), client_keys, rng=rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    # The earlier client built each layer as LayerMeta(**layer) with a
    # required t_scale, and refused the TypeError as a malformed META.
    earlier_layer = dataclasses.make_dataclass(
        "LayerMeta", [*(f.name for f in dataclasses.fields(LayerMeta)), "t_scale"])
    for layer in doc["layers"]:
        with pytest.raises(TypeError, match="t_scale"):
            earlier_layer(**layer)


def test_hostile_publish_ell_costs_no_memory(client_keys, server_keys, rng):
    # An svm-core PUBLISH of ell = 2**32 - 1: the client's sizing check
    # compares bit lengths before it computes 2**ell.
    pk_s = server_keys[0]
    publish = (wire.serialize_public_key(pk_s), wire.pack_u32(12), wire.pack_u32(2**32 - 1),
               b"identity", *(wire.serialize_ciphertext(pk_s.encrypt(1), pk_s) for _ in range(2)))
    channel = _CannedServer("svm-core", [(wire.STEP_PUBLISH, publish)])
    tracemalloc.start()
    try:
        with pytest.raises(ParameterError, match="512 bits is too small"):
            run_inference(channel, "svm-core", FeatureVector((1, 1), 12), client_keys,
                          kappa=KAPPA, rng=rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def _misordered_replies(case, client_keys, server_keys):
    pk_c = client_keys[0]
    ct123 = wire.serialize_ciphertext(pk_c.encrypt(123), pk_c)
    generic = _meta_to_json(ffnn_loaded("sign").model.meta("generic"), None)
    activated = _meta_to_json(ffnn_loaded("sign", "activated").model.meta(
        "encrypted", "core"), server_keys[0])
    return {
        "generic output": ("ffnn-generic", [(wire.STEP_META, (generic,)),
                                            (wire.STEP_OUTPUT, (ct123,))]),
        "activated output first": ("ffnn-sign", [(wire.STEP_META, (activated,)),
                                                 (wire.STEP_OUTPUT, (ct123,))]),
    }[case]


@pytest.mark.parametrize("case", ["generic output", "activated output first"])
def test_client_rejects_messages_out_of_order(client_keys, server_keys, rng, case):
    # A layer frame does not name its layer, so the client, which knows the
    # step that comes next, refuses an output frame in the place of layer 0.
    protocol, replies = _misordered_replies(case, client_keys, server_keys)
    channel = _CannedServer(protocol, replies)
    with pytest.raises(ProtocolViolationError, match="unexpected step 8"):
        run_inference(channel, protocol, pm_one(rng), client_keys, kappa=KAPPA, rng=rng)


class _EarlyOutput:
    """Client channel that replaces the server's second layer-down frame
    with an output frame of one ciphertext of 123."""

    def __init__(self, channel, pk):
        self.channel = channel
        self.pk = pk
        self.layer_downs = 0

    def send(self, data):
        self.channel.send(data)

    def recv(self):
        data = self.channel.recv()
        frame = wire.unframe(data)
        self.layer_downs += frame.step_id == wire.STEP_LAYER_DOWN
        if frame.step_id == wire.STEP_LAYER_DOWN and self.layer_downs == 2:
            output = wire.serialize_ciphertext(self.pk.encrypt(123), self.pk)
            return wire.frame(frame.protocol_id, wire.STEP_OUTPUT, frame.session_id,
                              (output,))
        return data


def test_activated_output_before_the_last_layer_is_refused(client_keys, server_keys, rng):
    loaded = ffnn_loaded("sign", "activated")
    served = prepare_served("ffnn-sign", loaded, server_keys, KAPPA, rng)
    inner, thread = serve_loopback(served)
    try:
        with pytest.raises(ProtocolViolationError, match="unexpected step 8"):
            _within(60, lambda: run_inference(_EarlyOutput(inner, client_keys[0]), "ffnn-sign",
                                              pm_one(rng), client_keys, kappa=KAPPA, rng=rng))
    finally:
        inner.close()
    thread.join(timeout=10)
    assert not thread.is_alive()


def test_client_rejects_reply_for_another_session(client_keys, rng):
    pk_c = client_keys[0]
    reply = (wire.serialize_ciphertext(pk_c.encrypt(5), pk_c), b"identity",
             wire.pack_u32(12))
    x = FeatureVector((1, 1), 12)
    result = run_inference(_CannedServer("regr-core", [(wire.STEP_RESPONSE, reply)]),
                           "regr-core", x, client_keys, rng=rng)
    assert result.raw == (5,)
    channel = _CannedServer("regr-core", [(wire.STEP_RESPONSE, reply)], other_session=True)
    with pytest.raises(ProtocolViolationError, match="another session"):
        run_inference(channel, "regr-core", x, client_keys, rng=rng)


def _stray_replies(case, client_keys):
    pk_c = client_keys[0]
    regr = (wire.serialize_ciphertext(pk_c.encrypt(5), pk_c), b"identity", wire.pack_u32(12))
    generic = _meta_to_json(ffnn_loaded("sign").model.meta("generic"), None)
    return {
        "reply under another protocol": ("regr-core", _CannedServer(
            "svm-heur", [(wire.STEP_RESPONSE, regr)])),
        "META for regr-core": ("regr-core", _CannedServer(
            "regr-core", [(wire.STEP_META, (generic,))])),
        "response after META": ("ffnn-generic", _CannedServer(
            "ffnn-generic", [(wire.STEP_META, (generic,)), (wire.STEP_RESPONSE, ())])),
    }[case]


@pytest.mark.parametrize("case,fragment", [
    ("reply under another protocol", "unexpected protocol"),
    ("META for regr-core", "unexpected step"),
    ("response after META", "unexpected step")])
def test_client_refuses_a_reply_of_another_kind(client_keys, rng, case, fragment):
    # The second case is refused where a reply's step is expected, the third
    # in the network loop.
    protocol, channel = _stray_replies(case, client_keys)
    x = pm_one(rng) if protocol.startswith("ffnn") else FeatureVector((1, 1), 12)
    with pytest.raises(ProtocolViolationError, match=fragment):
        run_inference(channel, protocol, x, client_keys, kappa=KAPPA, rng=rng)


@pytest.mark.parametrize("protocol", list(wire.PROTOCOLS))
def test_input_at_another_precision_is_refused(client_keys, server_keys, rng, protocol):
    loaded, x = _model_and_input(protocol, rng)
    x = FeatureVector(x.values, x.precision + 1)
    with pytest.raises(ParameterError) as refused:
        run_protocol(protocol, loaded, x, client_keys, server_keys, rng)
    model_d = "" if protocol in ("regr-core", "svm-heur") else f"d={x.d} at "
    assert str(refused.value) == (f"input does not fit the model: the model takes {model_d}"
                                  f"precision {x.precision - 1}, the input is d={x.d} at "
                                  f"precision {x.precision}")


@pytest.mark.parametrize("activation", ["sigmoid", "tanh", "softplus", "leaky_relu"])
def test_smooth_hidden_layers_in_generic_mode(client_keys, rng, activation):
    # The client re-encodes a smooth activation at the model precision.
    precision = 12

    def rows(units, fan_in):
        return [[rng.uniform(-1, 1) for _ in range(fan_in + 1)] for _ in range(units)]
    spec = NetworkSpec.from_real([(rows(3, 2), activation), (rows(2, 3), "identity")],
                                 precision)
    x = FeatureVector.from_real([rng.uniform(-1, 1), rng.uniform(-1, 1)], precision)
    oracle = tuple(p.raw for p in eval_ffnn(spec, x))
    result = run_protocol("ffnn-generic", LoadedModel("ffnn", spec, KAPPA), x, client_keys,
                          None, rng)
    assert result.raw == oracle
    assert evaluate_network(spec, "generic", x, client_keys, rng=rng).raw == oracle


_LAYOUT_KEYS = (keygen(128, insecure_rng(0x1A40)), keygen(128, insecure_rng(0x1A41)))


def _unit(up, activation, variant, ell, c, s):
    """One comparing unit's share of a message, built field by field."""
    core = variant == "core"
    if not up:
        return UnitChallenge(c(), tuple(s() for _ in range(ell if core else 0)))
    bit = c()
    pair = () if activation == "sign" else (c(), c())
    return UnitResponse(bit, pair, tuple(s() for _ in range(ell + 1)) if core else ())


@settings(max_examples=80, deadline=None)
@given(activation=st.sampled_from(["sign", "relu"]),
       variant=st.sampled_from([None, "core", "heuristic"]),
       output_mode=st.sampled_from(["raw", "activated"]),
       index=st.sampled_from([0, 1, None]), up=st.booleans(),
       ell=st.integers(1, 12), units=st.integers(1, 4),
       seed=st.integers(0, 2**32 - 1))
def test_layer_codec_round_trip_matches_plan(activation, variant, output_mode, index, up,
                                             ell, units, seed):
    # Layer 0 is hidden, layer 1 the last layer and None the output message;
    # variant None is a generic network. Only messages the protocol sends:
    # the output message follows an activated last layer's responses, and
    # only a comparing last layer is answered.
    comparing = variant is not None and (index == 0 or
                                         (index == 1 and output_mode == "activated"))
    if index is None:
        assume(variant is not None and output_mode == "activated" and not up)
    elif index == 1 and up:
        assume(comparing)
    (pk_c, _), (pk_s, _) = _LAYOUT_KEYS
    rng = insecure_rng(seed)
    meta = NetworkMeta((LayerMeta(units, activation, ell),) * 2, d_in=2, precision=0,
                       mode="encrypted" if variant else "generic", variant=variant,
                       output_mode=output_mode)
    assert compares(meta, index) == comparing
    c = lambda: pk_c.encrypt(rng.randrange(-9, 10), rng)  # noqa: E731
    s = lambda: pk_s.encrypt(rng.randrange(2), rng)  # noqa: E731
    unit = (lambda: _unit(up, activation, variant, ell, c, s)) if comparing else c
    message = LayerMessage(index, tuple(unit() for _ in range(units)))
    keys = {"c": pk_c, "s": pk_s}
    step, parts = _encode_layer(message, meta, keys, up)
    protocol = ("ffnn-generic" if variant is None else
                f"ffnn-{activation}" + ("-heur" if variant == "heuristic" else ""))
    frame = wire.unframe(wire.frame(wire.PROTOCOL_IDS[protocol], step,
                                    bytes(wire.SESSION_ID_BYTES), parts))
    assert _decode_layer(frame, meta, keys, index) == message
    # A hidden or comparing layer's message is a row of the plan; a raw last
    # layer and the output message carry one ciphertext per unit.
    down_row, up_row = wire.message_plan(protocol, ell=ell, layers=1, units=units)
    expected = (up_row if up else down_row).ciphertexts if index == 0 or comparing else units
    unit, units = layout(meta, index, up)
    assert len(parts) == len(unit) * units == expected


@pytest.mark.parametrize("index,up", [(0, False), (0, True), (1, False), (None, False)])
def test_layer_frame_of_one_part_more_or_less_is_refused_unparsed(monkeypatch, index, up):
    # Two comparing relu layers of ell 3 and two units, and the output message.
    (pk_c, _), (pk_s, _) = _LAYOUT_KEYS
    meta = NetworkMeta((LayerMeta(2, "relu", 3),) * 2, d_in=2, precision=0, mode="encrypted",
                       variant="core", output_mode="activated")
    keys = {"c": pk_c, "s": pk_s}
    unit, units = layout(meta, index, up)
    parts = [wire.serialize_ciphertext(keys[k].encrypt(0), keys[k]) for k in unit * units]
    step = (wire.STEP_OUTPUT if index is None else
            wire.STEP_LAYER_UP if up else wire.STEP_LAYER_DOWN)

    def parsed(data, pk):
        raise AssertionError("a ciphertext was parsed")
    monkeypatch.setattr(wire, "deserialize_ciphertext", parsed)
    for body in (parts[:-1], parts + parts[:1]):
        frame = wire.Frame(wire.PROTOCOL_IDS["ffnn-relu"], step, bytes(16), tuple(body))
        with pytest.raises(ProtocolViolationError,
                           match=f"has {len(body)} parts, expected {len(parts)}$"):
            _decode_layer(frame, meta, keys, index)


def _drop(key):
    return lambda doc: {k: v for k, v in doc.items() if k != key}


def _layer(change, index=0):
    def mutate(doc):
        change(doc["layers"][index])
        return doc
    return mutate


@pytest.mark.parametrize("mutate", [
    _drop("d_in"), _drop("layers"), _drop("server_key"),
    lambda doc: {**doc, "depth": 2},
    _layer(lambda layer: layer.pop("ell")),
    _layer(lambda layer: layer.update(width=3)),
    lambda doc: {**doc, "layers": [[3, "sign", 4], *doc["layers"][1:]]},
    lambda doc: {**doc, "layers": 2},
    lambda doc: {**doc, "server_key": "not hex"},
    lambda doc: {**doc, "server_key": 7},
    # The protocol id fixes both; a META that restates one is refused.
    lambda doc: {**doc, "mode": "encrypted"},
    lambda doc: {**doc, "variant": "core"},
    lambda doc: list(doc.values()),
    lambda doc: "meta", lambda doc: 5, lambda doc: None,
    # A META the client cannot run.
    lambda doc: {**doc, "layers": []},
    lambda doc: {**doc, "output_mode": "soft"},
    _layer(lambda layer: layer.update(units="1")),
    _layer(lambda layer: layer.update(ell=-1)),
    _layer(lambda layer: layer.update(ell=0)),
    _layer(lambda layer: layer.update(ell=True)),
    lambda doc: {**doc, "d_in": 2.0},
    lambda doc: {**doc, "precision": None},
    # A network that ffnn-sign set-up would refuse to serve.
    _layer(lambda layer: layer.update(activation="relu")),
    _layer(lambda layer: layer.update(activation="tanh")),
    _layer(lambda layer: layer.update(activation="nonsense"), -1),
    lambda doc: _layer(lambda layer: layer.update(activation="identity"), -1)(
        {**doc, "output_mode": "activated"}),
], ids=["no d_in", "no layers", "no server_key", "extra field", "layer without ell",
        "layer extra field", "list for a layer", "number for layers", "bad key hex",
        "number for key", "mode field", "variant field", "list", "string", "number",
        "null", "empty layers", "unknown output mode", "string units", "negative ell", "zero ell",
        "bool ell", "float d_in", "null precision", "relu layer", "tanh layer",
        "unknown activation", "activated identity output"])
def test_malformed_meta_is_a_format_error(mutate):
    doc = json.loads(_meta_to_json(ffnn_loaded("sign").model.meta("encrypted", "core"), None))
    with pytest.raises(MessageFormatError):
        _meta_from_json(json.dumps(mutate(doc)).encode("utf-8"), wire.PROTOCOLS["ffnn-sign"])


@pytest.mark.parametrize("activations,output_mode", [
    (("sign", "identity"), "raw"), (("relu", "identity"), "raw"),
    (("sign", "relu", "identity"), "raw"), (("relu", "sign", "sign"), "raw"),
    (("sign", "sign"), "activated"), (("relu", "relu"), "activated"),
    (("sign", "identity"), "activated"), (("relu", "identity"), "activated"),
], ids=["sign hidden", "relu hidden", "mixed", "mixed, sign output", "activated sign",
        "activated relu", "activated identity", "relu, activated identity"])
@pytest.mark.parametrize("protocol", [name for name, p in wire.PROTOCOLS.items() if p.mode])
def test_set_up_and_client_refuse_the_same_networks(server_keys, rng, protocol, activations,
                                                    output_mode):
    hidden = [(0, 1, 1), (-1, 1, -1)]
    layers = [(hidden, a) for a in activations[:-1]] + [([(0, 1, -2)], activations[-1])]
    try:
        spec = NetworkSpec.from_integer(layers, output_mode=output_mode)
        prepare_served(protocol, LoadedModel("ffnn", spec, KAPPA), server_keys, KAPPA, rng)
        served = True
    except ParameterError:
        served = False
    # The same network's META, built with raw output (an activated identity
    # output has no spec) and given the output mode in the JSON.
    doc = json.loads(_meta_to_json(NetworkSpec.from_integer(layers).meta("generic"),
                                   server_keys[0]))
    doc["output_mode"] = output_mode
    try:
        _meta_from_json(json.dumps(doc).encode("utf-8"), wire.PROTOCOLS[protocol])
        accepted = True
    except MessageFormatError:
        accepted = False
    assert served == accepted


@pytest.mark.parametrize("data", [b"\xff\xfe", b"{", b""])
def test_undecodable_meta_is_a_format_error(data):
    with pytest.raises(MessageFormatError):
        _meta_from_json(data, wire.PROTOCOLS["ffnn-sign"])


class _Relabel:
    """Client channel that rewrites protocol id ``sent`` to ``seen`` on the
    way out, and back on the way in."""

    def __init__(self, channel, sent, seen):
        self.channel, self.sent, self.seen = channel, sent, seen

    @staticmethod
    def _swap(data, old, new):
        assert data[1] == old
        return data[:1] + bytes([new]) + data[2:]

    def send(self, data):
        self.channel.send(self._swap(data, self.sent, self.seen))

    def recv(self):
        return self._swap(self.channel.recv(), self.seen, self.sent)


@pytest.mark.parametrize("with_server_keys", [False, True])
def test_client_runs_its_own_protocol_not_the_servers(client_keys, server_keys, rng,
                                                      with_server_keys):
    # An ffnn-relu client relabelled to an ffnn-generic server must not fall
    # back to generic mode, which shows it every pre-activation.
    served = prepare_served("ffnn-generic", ffnn_loaded("relu"),
                            server_keys if with_server_keys else None, KAPPA, rng)
    inner, thread = serve_loopback(served)
    channel = _Relabel(inner, wire.PROTOCOL_IDS["ffnn-relu"],
                       wire.PROTOCOL_IDS["ffnn-generic"])
    try:
        with pytest.raises(ProtocolViolationError):
            _within(60, lambda: run_inference(channel, "ffnn-relu", pm_one(rng),
                                              client_keys, kappa=KAPPA, rng=rng))
    finally:
        inner.close()
    thread.join(timeout=10)
    assert not thread.is_alive()


def test_loopback_leaves_no_socket_or_warning_at_exit(checkout_env):
    # Under -X dev, a socket left for the collector warns on stderr.
    code = """
from pinfer import keygen
from pinfer.linear import FeatureVector, LinearModel
from pinfer.modelfile import LoadedModel
from pinfer.numutil import insecure_rng
from pinfer.reference import eval_linear
from pinfer.runner import prepare_served, run_inference, serve_loopback
rng = insecure_rng(3)
model = LinearModel.from_real([0.5, -0.25], 0.125, precision=8)
served = prepare_served("regr-core", LoadedModel("linear", model, 40), None, 40, rng)
channel, thread = serve_loopback(served)
x = FeatureVector.from_real([0.75, -1.0], 8)
result = run_inference(channel, "regr-core", x, keygen(256, rng), rng=rng)
channel.close()
thread.join(timeout=60)
assert not thread.is_alive()
assert result.raw == (eval_linear(model, x).raw,)
"""
    result = subprocess.run([sys.executable, "-X", "dev", "-W", "error", "-c", code],
                            env=checkout_env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0 and result.stderr == "", result.stderr


def test_a_query_runs_without_fcntl(checkout_env):
    # As on a platform whose Python has no fcntl module.
    code = """
import sys
sys.modules["fcntl"] = None
from pinfer import keygen
from pinfer.linear import FeatureVector, LinearModel
from pinfer.modelfile import LoadedModel
from pinfer.numutil import insecure_rng
from pinfer.reference import eval_svm
from pinfer.runner import prepare_served, run_inference, serve_loopback
rng = insecure_rng(4)
client_keys, server_keys = keygen(256, rng), keygen(256, rng)
model = LinearModel.from_real([0.5, -0.25, 0.75], 0.125, precision=8)
served = prepare_served("svm-core", LoadedModel("svm", model, 40), server_keys, 40, rng)
channel, _ = serve_loopback(served)
x = FeatureVector.from_real([0.75, -1.0, 0.5], 8)
result = run_inference(channel, "svm-core", x, client_keys, kappa=40, rng=rng)
channel.close()
assert result.labels == (eval_svm(model, x).class_label,)
"""
    result = subprocess.run([sys.executable, "-c", code], env=checkout_env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr


UNSCALED = {"linear": FeatureVector.from_real([1.5, -2.0, 0.25, 3.0], 12, allow_unscaled=True),
            "ffnn": FeatureVector((1, 3, -1), 0, unscaled=True)}


@pytest.mark.parametrize("protocol", ["svm-core", "svm-heur", "ffnn-sign", "ffnn-relu-heur"])
def test_unscaled_input_refused_where_ell_decides(client_keys, server_keys, rng, protocol):
    if protocol.startswith("ffnn"):
        loaded, x = ffnn_loaded("sign" if "sign" in protocol else "relu"), UNSCALED["ffnn"]
    else:
        loaded, x = linear_loaded("svm", rng=rng), UNSCALED["linear"]
    with pytest.raises(ParameterError, match="allow-unscaled"):
        run_protocol(protocol, loaded, x, client_keys, server_keys, rng)


def test_unscaled_input_stays_exact(client_keys, rng):
    loaded, x = linear_loaded("logistic", rng=rng), UNSCALED["linear"]
    result = run_protocol("regr-core", loaded, x, client_keys, None, rng)
    assert result.raw == (eval_linear(loaded.model, x).raw,)
    loaded, x = ffnn_loaded("sign"), UNSCALED["ffnn"]
    result = run_protocol("ffnn-generic", loaded, x, client_keys, None, rng)
    assert result.raw == tuple(p.raw for p in eval_ffnn(loaded.model, x))


@pytest.mark.parametrize("protocol", ["regr-dual", "ffnn-generic"])
def test_unscaled_input_that_could_wrap_is_refused(client_keys, server_keys, rng, protocol):
    # At P = 12, 1e150 lies 499 bits beyond 2**12, so theta . x wraps the
    # 512-bit message space: both protocols returned a value that differs
    # from the oracle's. 1e100, 333 bits beyond, still fits and stays exact.
    if protocol == "regr-dual":
        loaded = LoadedModel("linear", LinearModel.from_real([0.5, -0.25], 0.1, 12), KAPPA)
    else:
        loaded = LoadedModel("ffnn", NetworkSpec.from_real(
            [([(0.1, 0.5, -0.25)], "identity")], 12), KAPPA)
    x = FeatureVector.from_real([1e150, 0.3], 12, allow_unscaled=True)
    assert x.excess_bits == 499
    with pytest.raises(ParameterError, match="499 bits beyond"):
        run_protocol(protocol, loaded, x, client_keys, server_keys, rng)
    x = FeatureVector.from_real([1e100, 0.3], 12, allow_unscaled=True)
    result = run_protocol(protocol, loaded, x, client_keys, server_keys, rng)
    assert result.values[0] == (eval_linear(loaded.model, x).value if protocol == "regr-dual"
                                else eval_ffnn(loaded.model, x)[0].value)


@pytest.mark.parametrize("first,refused", [("identity", True), ("sign", False)])
def test_unscaled_excess_carries_until_a_sign_layer(client_keys, first, refused):
    # 479 bits beyond 2**12 fit layer 0 (ell 24) under a 512-bit key, but
    # not layer 1 (ell 36) unless layer 0's sign outputs reset the excess.
    spec = NetworkSpec.from_integer([([(0, 1, 1)], first), ([(0, 1)], "identity")], 12,
                                    ells=[24, 36])
    x = FeatureVector.from_real([1e144, 0.3], 12, allow_unscaled=True)
    assert x.excess_bits == 479
    session = NetworkClientSession(spec.meta("generic"), client_keys)
    if refused:
        with pytest.raises(ParameterError, match="ell=515"):
            session.check_input(x)
    else:
        session.check_input(x)
