import queue
import threading

import pytest
from hypothesis import given, settings, strategies as st

from pinfer import keygen, wire
from pinfer.comparison import ComparisonResponse
from pinfer.errors import MessageFormatError, ParameterError, ProtocolViolationError
from pinfer.linear import FeatureVector, LinearModel
from pinfer.modelfile import LoadedModel
from pinfer.network import (HeurChallenge, LayerChallenges, LayerMeta,
                            LayerResponses, NetworkMeta, NetworkSpec,
                            ReluHeurResponse, ReluUnitResponse, SignUnitResponse,
                            UnitChallenge, unit_layout)
from pinfer.numutil import insecure_rng
from pinfer.reference import (eval_ffnn, eval_linear, eval_logistic, eval_svm)
from pinfer.runner import (QueueChannel, _decode_layer, _encode_layer, _meta_to_json,
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


def _send(channel, inbox, protocol, step, parts, session_id):
    """Send one raw frame and wait for the server's reply; a server thread
    that died on the frame fails the test instead of hanging it."""
    channel.send(wire.frame(wire.PROTOCOL_IDS[protocol], step, session_id, parts))
    return wire.unframe(inbox.get(timeout=60))


def _short_frames(protocol, client_keys):
    """(step, parts, short) for frames whose handling used to index past the
    end of frame.parts, with ``short`` False on the valid set-up frames."""
    pk_c = client_keys[0]
    if protocol == "svm-core":
        return [(wire.STEP_REQUEST, (wire.serialize_public_key(pk_c),), True)]
    if protocol != "ffnn-sign":
        return [(wire.STEP_REQUEST, (), True)]
    # A live session first, so the layer-up frame reaches the decoder.
    request = (wire.serialize_public_key(pk_c),
               *(wire.serialize_ciphertext(pk_c.encrypt(1), pk_c) for _ in range(2)))
    return [(wire.STEP_REQUEST, (), True), (wire.STEP_REQUEST, request, False),
            (wire.STEP_LAYER_UP, (), True)]


@pytest.mark.parametrize("protocol", ["regr-core", "regr-dual", "svm-core", "ffnn-sign"])
def test_short_frames_get_error_replies(client_keys, server_keys, rng, protocol):
    if protocol == "ffnn-sign":
        loaded, x = ffnn_loaded("sign"), pm_one(rng)
    else:
        loaded = linear_loaded("svm" if protocol == "svm-core" else "logistic", rng=rng)
        x = random_x(4, 12, rng)
    served = prepare_served(protocol, loaded, server_keys, KAPPA, rng)
    up, down = queue.Queue(), queue.Queue()
    channel = QueueChannel(down, up)
    thread = threading.Thread(target=serve_connection,
                              args=(QueueChannel(up, down), served), daemon=True)
    thread.start()
    session_id = rng.randbytes(wire.SESSION_ID_BYTES)
    try:
        for step, parts, short in _short_frames(protocol, client_keys):
            reply = _send(channel, down, protocol, step, parts, session_id)
            if not short:
                assert reply.step_id == wire.STEP_META
                assert wire.unframe(down.get(timeout=60)).step_id == wire.STEP_LAYER_DOWN
                continue
            assert reply.step_id == wire.STEP_ERROR
            assert b"parts, expected" in reply.parts[0]
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
    publish = [wire.serialize_public_key(pk_s), wire.pack_u32(1), wire.pack_u32(12),
               wire.pack_u32(30), b"identity",
               *(wire.serialize_ciphertext(pk_s.encrypt(1), pk_s) for _ in range(2))]
    meta = _meta_to_json(ffnn_loaded("sign").model.meta("encrypted", "core"), pk_s)
    return {
        "regr-core response": ("regr-core", [(wire.STEP_RESPONSE, (ct,))]),
        "regr-core activation": ("regr-core", [(wire.STEP_RESPONSE,
                                                (ct, b"\xff\xfe", wire.pack_u32(12)))]),
        "svm-heur response": ("svm-heur", [(wire.STEP_RESPONSE, ())]),
        "regr-dual publish": ("regr-dual", [(wire.STEP_PUBLISH, tuple(publish[:3]))]),
        "regr-dual activation": ("regr-dual", [(wire.STEP_PUBLISH, (
            *publish[:4], b"\xc3", *publish[5:]))]),
        "regr-dual response": ("regr-dual", [(wire.STEP_PUBLISH, tuple(publish)),
                                             (wire.STEP_RESPONSE, ())]),
        "svm-core response": ("svm-core", [(wire.STEP_PUBLISH, tuple(publish)),
                                           (wire.STEP_RESPONSE, (ct,))]),
        "ffnn meta": ("ffnn-sign", [(wire.STEP_META, ())]),
        "ffnn layer": ("ffnn-sign", [(wire.STEP_META, (meta,)),
                                     (wire.STEP_LAYER_DOWN, (wire.pack_u32(0),))]),
    }[case]


@pytest.mark.parametrize("case,error", [
    ("regr-core response", ProtocolViolationError),
    ("regr-core activation", MessageFormatError),
    ("svm-heur response", ProtocolViolationError),
    ("regr-dual publish", ProtocolViolationError),
    ("regr-dual activation", MessageFormatError),
    ("regr-dual response", ProtocolViolationError),
    ("svm-core response", ProtocolViolationError),
    ("ffnn meta", ProtocolViolationError),
    ("ffnn layer", ProtocolViolationError)])
def test_client_rejects_short_frames(client_keys, server_keys, rng, case, error):
    protocol, replies = _canned_replies(case, client_keys, server_keys)
    x = pm_one(rng) if protocol.startswith("ffnn") else FeatureVector((1, 1), 12)
    channel = _CannedServer(protocol, replies)
    with pytest.raises(error):
        run_inference(channel, protocol, x, client_keys, kappa=KAPPA, rng=rng)


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


_LAYOUT_KEYS = (keygen(128, insecure_rng(0x1A40)), keygen(128, insecure_rng(0x1A41)))


def _unit(kind, activation, variant, ell, c, s):
    """One unit's share of a message, built field by field."""
    if kind is LayerChallenges:
        if variant == "heuristic":
            return HeurChallenge(c())
        return UnitChallenge(c(), tuple(s() for _ in range(ell)), ell)
    comparison = ComparisonResponse(tuple(s() for _ in range(ell + 1)))
    if activation == "sign":
        return c() if variant == "heuristic" else SignUnitResponse(c(), comparison)
    if variant == "heuristic":
        return ReluHeurResponse(c(), (c(), c()))
    return ReluUnitResponse(c(), (c(), c()), comparison)


@settings(max_examples=60, deadline=None)
@given(activation=st.sampled_from(["sign", "relu"]),
       variant=st.sampled_from(["core", "heuristic"]),
       down=st.booleans(), ell=st.integers(1, 12), units=st.integers(1, 4),
       seed=st.integers(0, 2**32 - 1))
def test_layer_codec_round_trip_matches_plan(activation, variant, down, ell, units, seed):
    (pk_c, _), (pk_s, _) = _LAYOUT_KEYS
    rng = insecure_rng(seed)
    meta = NetworkMeta((LayerMeta(units, activation, ell, 0), LayerMeta(1, "identity", 1, 0)),
                       d_in=2, precision=0, mode="encrypted", variant=variant,
                       output_mode="raw")
    kind = LayerChallenges if down else LayerResponses
    c = lambda: pk_c.encrypt(rng.randrange(-9, 10), rng)  # noqa: E731
    s = lambda: pk_s.encrypt(rng.randrange(2), rng)  # noqa: E731
    message = kind(0, tuple(_unit(kind, activation, variant, ell, c, s)
                            for _ in range(units)))
    keys = {"c": pk_c, "s": pk_s}
    step, parts = _encode_layer(message, meta, keys)
    protocol = f"ffnn-{activation}" + ("-heur" if variant == "heuristic" else "")
    frame = wire.unframe(wire.frame(wire.PROTOCOL_IDS[protocol], step,
                                    bytes(wire.SESSION_ID_BYTES), parts))
    assert _decode_layer(frame, meta, keys) == message
    down_row, up_row = wire.message_plan(protocol, ell=ell, layers=1, units=units)
    row = down_row if down else up_row
    assert units * len(unit_layout(kind, meta, meta.layers[0])) == row.ciphertexts
