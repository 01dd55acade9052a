import math
import random

import pytest

from pinfer.activations import sign_value
from pinfer.errors import ParameterError, ProtocolViolationError
from pinfer.linear import FeatureVector, heuristic_interval
from pinfer.network import (LayerSpec, NetworkClientSession, NetworkServerSession,
                            NetworkSpec, UnitResponse, evaluate_network,
                            unit_answer, unit_challenge, unit_finish)
from pinfer.numutil import insecure_rng
from pinfer.paillier import SecretKey
from pinfer.reference import eval_ffnn, eval_linear
from pinfer.wire import Transcript

KAPPA = 40  # test-scale masking margin; production default is 95


def test_relu_sign_identity():
    for t in range(-1024, 1025):
        sign = 1 if t >= 0 else -1
        assert (1 + sign) * t // 2 == max(0, t)


# ---------------------------------------------------------------------------
# the comparing unit

UNIT_KINDS = [("sign", "core"), ("sign", "heuristic"),
              ("relu", "core"), ("relu", "heuristic")]


def unit_inputs(pk_client, value, rng):
    # theta = (value, 0) against input 0 gives an inner product of exactly value.
    return (value, 0), [pk_client.encrypt(0, rng)]


def run_unit(activation, variant, client_keys, server_keys, t_value, ell, rng, b=None):
    pk_c, sk_c = client_keys
    pk_s, sk_s = server_keys
    theta, enc = unit_inputs(pk_c, t_value, rng)
    challenge, state = unit_challenge(variant, theta, enc, pk_s, ell, KAPPA, rng)
    response = unit_answer(activation, sk_c, pk_s, challenge, rng, b)
    return sk_c.decrypt(unit_finish(activation, sk_s, state, response))


def expected_unit(activation, t):
    return (1 if t >= 0 else -1) if activation == "sign" else max(0, t)


@pytest.mark.parametrize("activation,variant", UNIT_KINDS)
def test_unit_basic(client_keys, server_keys, rng, activation, variant):
    points = {"sign": (3, 0, -3, -2, 9), "relu": (7, -7, 0, 5, -5)}[activation]
    for t in points:
        assert run_unit(activation, variant, client_keys, server_keys, t, 5, rng) == \
            expected_unit(activation, t), t


@pytest.mark.parametrize("activation,variant,ell,flips", [
    ("sign", "core", 5, [None] * 20), ("relu", "core", 4, [0, 1]),
    ("sign", "heuristic", 4, [None] * 34), ("relu", "heuristic", 4, [None] * 34)],
    ids=["sign-core", "relu-core", "sign-heuristic", "relu-heuristic"])
def test_unit_sweep(client_keys, server_keys, rng, activation, variant, ell, flips):
    # Exhaustive over |t| < 2**ell. Each run draws a fresh core mask, and a
    # fresh flip bit where b is None, or a fresh heuristic (lam, mu).
    for t in range(1 - (1 << ell), 1 << ell):
        for b in flips:
            assert run_unit(activation, variant, client_keys, server_keys, t, ell, rng,
                            b=b) == expected_unit(activation, t), (t, b)


class _ScriptedRng(random.Random):
    """A seeded stream whose first ``randrange`` calls return ``script``."""

    def __init__(self, script):
        super().__init__(22)
        self.script = list(script)

    def randrange(self, *args):
        return self.script.pop(0) if self.script else super().randrange(*args)


def test_sign_heuristic_unit_at_zero_for_every_mask_the_draw_permits():
    # Toy key N = 11 * 13 with ell = 1 and kappa = 3: lam ranges over
    # [-36, 36]. The unit's real steps run at t = 0 for every unit lam and
    # every mu of its range; a pair the draw refuses is drawn again from the
    # seeded stream, so the state then holds another pair.
    sk = SecretKey(11, 13)
    pk = sk.public_key
    enc = [pk.encrypt(0, insecure_rng(23))]
    lo, hi = heuristic_interval(pk.n, 1)
    refused = set()
    for lam in range(lo, hi + 1):
        if math.gcd(lam, pk.n) != 1:
            continue
        for mu in range(0, lam) if lam > 0 else range(lam + 1, 1):
            rng = _ScriptedRng([lam, mu])
            challenge, state = unit_challenge("heuristic", (0, 1), enc, None, 1, 3, rng)
            if (state.lam, state.pad) != (lam, mu):
                refused.add((lam, mu))
                continue
            response = unit_answer("sign", sk, None, challenge, rng)
            got = sk.decrypt(unit_finish("sign", None, state, response))
            assert got == sign_value(0), (lam, mu)
    assert refused == {(lam, 0) for lam in range(lo, 0) if math.gcd(lam, pk.n) == 1}


def test_sign_core_mixed_keys(client_keys, server_keys, rng):
    pk_c, _ = client_keys
    pk_s, _ = server_keys
    theta, enc = unit_inputs(pk_c, 3, rng)
    challenge, _ = unit_challenge("core", theta, enc, pk_s, 4, KAPPA, rng)
    assert challenge.masked_inner.key_id == pk_c.key_id
    assert all(ct.key_id == pk_s.key_id for ct in challenge.mask_bits)


def test_relu_core_pair_length_violation(client_keys, server_keys, rng):
    pk_c, sk_c = client_keys
    pk_s, sk_s = server_keys
    theta, enc = unit_inputs(pk_c, 3, rng)
    challenge, state = unit_challenge("core", theta, enc, pk_s, 4, KAPPA, rng)
    response = unit_answer("relu", sk_c, pk_s, challenge, rng)
    forged = UnitResponse(response.bit, response.pair + (response.pair[0],),
                          response.comparison)
    with pytest.raises(ProtocolViolationError):
        unit_finish("relu", sk_s, state, forged)


def test_masked_sign_is_balanced(client_keys, server_keys, rng):
    # With the flip bit uniform, the value the server sees from the client is
    # (-1)**b regardless of the true sign.
    pk_c, sk_c = client_keys
    pk_s, sk_s = server_keys
    theta, enc = unit_inputs(pk_c, 3, rng)
    challenge, _ = unit_challenge("core", theta, enc, pk_s, 2, KAPPA, rng)
    plus = 0
    for _ in range(1000):
        response = unit_answer("sign", sk_c, pk_s, challenge, rng)
        plus += sk_c.decrypt(response.bit) == 1
    sigma = (1000 * 0.25) ** 0.5
    assert abs(plus - 500) <= 5 * sigma


# ---------------------------------------------------------------------------
# network specs

def sign_net():
    return NetworkSpec.from_integer(
        [([(0, 1, 1), (-1, 1, -1), (1, -1, 0)], "sign"),
         ([(0, 1, -2, 1)], "sign")])


def relu_net():
    return NetworkSpec.from_integer(
        [([(1, 2, -1), (0, 1, 1), (-2, -1, 2)], "relu"),
         ([(1, 1, -1, 2)], "relu")])


def pm_one_inputs(rng, d):
    return FeatureVector((1, *(rng.choice((-1, 1)) for _ in range(d))), 0)


def test_spec_validation():
    with pytest.raises(ParameterError):
        NetworkSpec.from_integer([([(0, 1)], "nope")])
    with pytest.raises(ParameterError):
        NetworkSpec.from_integer([([(0, 1)], "sigmoid")], output_mode="activated")
    spec = NetworkSpec.from_integer([([(0, 1)], "sigmoid"), ([(0, 1)], "identity")])
    with pytest.raises(ParameterError):
        spec.meta("encrypted")  # sigmoid hidden layer has no encrypted protocol


@pytest.mark.parametrize("build,index", [
    (lambda: NetworkSpec.from_integer([([], "relu")]), 0),
    (lambda: NetworkSpec.from_integer([([(0, 1)], "relu"), ([], "identity")]), 1),
    (lambda: NetworkSpec.from_real([([], "relu")], 8), 0),
    (lambda: NetworkSpec.from_real([([[0.5, 0.5]], "relu"), ([], "identity")], 8), 1),
    (lambda: NetworkSpec((LayerSpec((), "relu", 1, 0, 0),), 0), 0),
], ids=["integer-first", "integer-last", "real-first", "real-last", "direct"])
def test_layer_of_no_units_is_refused(build, index):
    with pytest.raises(ParameterError, match=f"layer {index} has no units"):
        build()


def test_spec_ell_chain():
    spec = relu_net()
    # layer 1: |t| <= 2 + 3*1 = 5 at most over the three units -> ell = 3
    assert spec.layers[0].ell == 3
    # layer 2 inputs bounded by 2**3 - 1 = 7: |t| <= 1 + 4*7 = 29 -> ell = 5
    assert spec.layers[1].ell == 5


def test_relu_scale_law():
    precision = 8
    rows1 = [[0.25, 0.5, -0.5], [0.0, -1.0, 1.0], [0.125, 0.25, 0.25]]
    rows2 = [[0.5, 0.25, -0.25, 1.0]]
    spec = NetworkSpec.from_real([(rows1, "relu"), (rows2, "relu")], precision)
    log_terms = 0
    for index, layer in enumerate(spec.layers):
        width = layer.fan_in + 1
        log_terms += (width - 1).bit_length() if width > 1 else 0
        assert layer.in_scale == (index + 1) * precision
        assert layer.out_scale == (index + 2) * precision
        assert layer.ell <= (index + 2) * precision + log_terms


def test_generic_hidden_state(client_keys, rng):
    # Two identity layers; after the first exchange the server-held state
    # decrypts to the first layer's inner product.
    pk_c, sk_c = client_keys
    spec = NetworkSpec.from_integer([([(0, 1)], "identity"), ([(0, 1)], "identity")])
    server = NetworkServerSession(spec, mode="generic", rng=rng)
    client = NetworkClientSession(spec.meta("generic"), (pk_c, sk_c), rng=rng)
    x = FeatureVector((1, 3), 0, bound_bits=2)
    message = server.start(client.request(x))
    reply = client.handle(message)
    message = server.advance(reply)
    assert [sk_c.decrypt(ct) for ct in server._enc] == [3]
    assert client.handle(message) is None
    assert client.result.raw == (3,)


@pytest.mark.parametrize("variant", ["core", "heuristic"])
def test_sign_network_modes_agree(client_keys, server_keys, rng, variant):
    spec = sign_net()
    for _ in range(10):
        x = pm_one_inputs(rng, 2)
        oracle = eval_ffnn(spec, x)
        generic = evaluate_network(spec, "generic", x, client_keys,
                                   server_keys, KAPPA, rng=rng)
        encrypted = evaluate_network(spec, "encrypted", x, client_keys,
                                     server_keys, KAPPA, variant=variant, rng=rng)
        assert generic.raw == tuple(p.raw for p in oracle)
        assert encrypted.raw == generic.raw
        assert encrypted.values == tuple(p.value for p in oracle)
        assert encrypted.labels == tuple(p.class_label for p in oracle)


@pytest.mark.parametrize("variant", ["core", "heuristic"])
def test_relu_network_modes_agree(client_keys, server_keys, rng, variant):
    spec = relu_net()
    for _ in range(10):
        x = pm_one_inputs(rng, 2)
        oracle = eval_ffnn(spec, x)
        generic = evaluate_network(spec, "generic", x, client_keys,
                                   server_keys, KAPPA, rng=rng)
        encrypted = evaluate_network(spec, "encrypted", x, client_keys,
                                     server_keys, KAPPA, variant=variant, rng=rng)
        assert generic.raw == tuple(p.raw for p in oracle)
        assert encrypted.raw == generic.raw
        assert encrypted.values == tuple(p.value for p in oracle)


def test_transcript_round_per_hidden_layer(client_keys, server_keys, rng):
    spec = sign_net()
    x = pm_one_inputs(rng, 2)
    transcript = Transcript()
    evaluate_network(spec, "encrypted", x, client_keys, server_keys, KAPPA,
                     rng=rng, transcript=transcript)
    # input up, one challenge/response pair for the hidden layer, output down
    assert [e.direction for e in transcript.entries] == ["up", "down", "up", "down"]
    assert transcript.round_trips == 2
    ell = spec.layers[0].ell
    assert transcript.entries[1].ciphertext_count == 3 * (ell + 1)
    assert transcript.entries[2].ciphertext_count == 3 * (ell + 2)


def test_generic_transcript_message_count(client_keys, server_keys, rng):
    spec = sign_net()
    x = pm_one_inputs(rng, 2)
    transcript = Transcript()
    evaluate_network(spec, "generic", x, client_keys, server_keys, KAPPA,
                     rng=rng, transcript=transcript)
    # 2*(L-1) + 2 messages for an L-layer run
    assert len(transcript.entries) == 2 * (spec.depth - 1) + 2
    assert all(e.ciphertext_count in (2, 3, 1) for e in transcript.entries)


def test_activated_output_mode(client_keys, server_keys, rng):
    spec = NetworkSpec.from_integer(
        [([(0, 1, 1), (-1, 1, -1), (1, -1, 0)], "sign"),
         ([(0, 1, -2, 1)], "sign")], output_mode="activated")
    for _ in range(5):
        x = pm_one_inputs(rng, 2)
        oracle = eval_ffnn(spec, x)
        run = evaluate_network(spec, "encrypted", x, client_keys, server_keys,
                               KAPPA, rng=rng)
        assert run.raw is None  # the pre-activation never reaches the client
        assert run.labels == tuple(p.class_label for p in oracle)


def test_single_identity_layer_reduces_to_regression(client_keys, server_keys, rng):
    from pinfer.linear import LinearModel
    model = LinearModel.from_real([0.5, -0.25], bias=0.125, precision=10)
    spec = NetworkSpec.from_integer([([model.theta], "identity")], precision=10)
    x = FeatureVector.from_real([0.5, -0.5], precision=10)
    run = evaluate_network(spec, "generic", x, client_keys, server_keys, KAPPA, rng=rng)
    assert run.raw == (eval_linear(model, x).raw,)
    assert run.values == (eval_linear(model, x).value,)


def test_encrypted_mode_needs_supported_activation(client_keys, server_keys, rng):
    spec = NetworkSpec.from_integer([([(0, 1)], "sigmoid"), ([(0, 1)], "identity")])
    with pytest.raises(ParameterError):
        evaluate_network(spec, "encrypted", FeatureVector((1, 1), 0),
                         client_keys, server_keys, KAPPA, rng=rng)


def test_sizing_gate_on_start(client_keys, server_keys, rng):
    spec = sign_net()
    with pytest.raises(ParameterError):
        evaluate_network(spec, "encrypted", pm_one_inputs(rng, 2),
                         client_keys, server_keys, kappa=600, rng=rng)


def test_server_session_never_holds_client_secret(client_keys, server_keys):
    _, sk_c = client_keys
    server = NetworkServerSession(sign_net(), mode="encrypted",
                                  server_keys=server_keys, kappa=KAPPA)
    seen, todo = set(), [server]
    while todo:
        obj = todo.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, SecretKey):
            assert obj.public_key.key_id != sk_c.public_key.key_id
        if hasattr(obj, "__dict__"):
            todo.extend(vars(obj).values())
        elif isinstance(obj, (list, tuple, set)):
            todo.extend(obj)


def test_meta_carries_no_weights():
    spec = sign_net()
    meta = spec.meta("encrypted", "core")
    assert not hasattr(meta, "weights")
    assert all(not hasattr(layer, "weights") for layer in meta.layers)


@pytest.mark.parametrize("activation,variant", [
    ("sign", "core"), ("sign", "heuristic"),
    ("relu", "core"), ("relu", "heuristic")])
def test_fractional_weight_networks(client_keys, server_keys, rng, activation, variant):
    # Real-valued weights at precision 6: the per-layer scales and bound
    # lengths differ between layers, unlike the integer toy nets.
    precision = 6
    def rows(units, fan_in):
        return [[rng.uniform(-1, 1) for _ in range(fan_in + 1)] for _ in range(units)]
    spec = NetworkSpec.from_real([(rows(3, 2), activation), (rows(1, 3), activation)],
                                 precision)
    assert spec.layers[0].ell != spec.layers[1].ell or activation == "sign"
    for _ in range(3):
        x = FeatureVector.from_real([rng.uniform(-1, 1), rng.uniform(-1, 1)],
                                    precision)
        oracle = tuple(p.raw for p in eval_ffnn(spec, x))
        run = evaluate_network(spec, "encrypted", x, client_keys, server_keys,
                               KAPPA, variant=variant, rng=rng)
        assert run.raw == oracle
        assert run.values == tuple(p.value for p in eval_ffnn(spec, x))


def test_clip_composed_from_relu_units(client_keys, server_keys, rng):
    # Piece-wise linear functions compose from rectifier units: two relu
    # units and a difference head give relu(t+1) - relu(t-1) = 2*clip(t)
    # with clip(t) = max(0, min(1, (t+1)/2)).
    # precision=2 declares inputs bounded by 2**2, so the layer bound covers
    # every t in the sweep; the raw integers are unaffected by the scale.
    spec = NetworkSpec.from_integer(
        [([(1, 1), (-1, 1)], "relu"), ([(0, 1, -1)], "identity")], precision=2)
    for t in range(-3, 4):
        x = FeatureVector((1, t), 2)
        run = evaluate_network(spec, "encrypted", x, client_keys, server_keys,
                               KAPPA, rng=rng)
        assert run.raw == (max(0, min(2, t + 1)),), t


@pytest.mark.parametrize("variant", ["core", "heuristic"])
def test_encrypted_network_refuses_unscaled_input(client_keys, server_keys, rng, variant):
    spec = NetworkSpec.from_integer([([(0, 1, 1), (0, 1, -1)], "relu"),
                                     ([(0, 1, 1)], "identity")])
    x = FeatureVector((1, 3, -1), 0, bound_bits=2)
    with pytest.raises(ParameterError, match="allow-unscaled"):
        evaluate_network(spec, "encrypted", x, client_keys, server_keys, KAPPA, variant,
                         rng=rng)
    run = evaluate_network(spec, "generic", x, client_keys, rng=rng)
    assert run.raw == tuple(p.raw for p in eval_ffnn(spec, x))
