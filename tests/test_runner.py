import pytest

from pinfer import wire
from pinfer.errors import ParameterError, ProtocolViolationError
from pinfer.linear import FeatureVector, LinearModel
from pinfer.modelfile import LoadedModel
from pinfer.network import NetworkSpec
from pinfer.reference import (eval_ffnn, eval_linear, eval_logistic, eval_svm)
from pinfer.runner import prepare_served, run_inference, serve_loopback
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
