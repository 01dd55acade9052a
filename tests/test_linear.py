import pytest

from pinfer import wire
from pinfer.errors import (DimensionMismatchError, ParameterError,
                           ProtocolViolationError)
from pinfer.linear import (FeatureRequest, FeatureVector, LinearModel,
                           check_core_sizing, draw_heuristic_mask,
                           encrypted_dot, heuristic_interval,
                           masked_sign_value, max_core_ell, regr_core_finish,
                           regr_core_request, regr_core_respond,
                           regr_dual_finish, regr_dual_publish,
                           regr_dual_request, regr_dual_respond,
                           svm_core_finish, svm_core_request, svm_core_respond,
                           svm_heur_finish, svm_heur_request, svm_heur_respond)
from pinfer.numutil import insecure_rng
from pinfer.paillier import PublicKey
from pinfer.reference import eval_linear, eval_logistic, eval_svm


# --------------------------------------------------------------------------
# model and feature types

def test_model_bound_enforced_at_load():
    LinearModel((3, 2, 2), ell=3, precision=0)  # bound 7 == 2**3 - 1
    with pytest.raises(ParameterError):
        LinearModel((4, 2, 2), ell=3, precision=0)  # bound 8


def test_model_from_real_ell():
    model = LinearModel.from_real([0.5] * 30, bias=0.1, precision=53)
    assert model.ell == 2 * 53 + 5  # ceil(log2(31)) = 5
    assert model.d == 30


def test_feature_vector_invariants():
    with pytest.raises(ParameterError):
        FeatureVector((2, 0), 0)  # x_0 must be 1
    with pytest.raises(ParameterError):
        FeatureVector((1, 3), 0)  # |x_1| > 2**0
    unscaled = FeatureVector.from_real([1.5, -2.0], precision=4, allow_unscaled=True)
    assert unscaled.values == (1, 24, -32)
    with pytest.raises(ParameterError):
        FeatureVector.from_real([1.5], precision=4)


def test_unscaled_input_message_names_the_table_protocols_that_compare_nothing():
    unscaled = FeatureVector.from_real([1.5, -2.0], precision=4, allow_unscaled=True)
    with pytest.raises(ParameterError, match="allow-unscaled") as refused:
        unscaled.require_scaled()
    named = str(refused.value).split("suit only ")[1].split(", ")
    assert named == [name for name, protocol in wire.PROTOCOLS.items()
                     if protocol.variant is None]
    assert named == ["regr-core", "regr-dual", "ffnn-generic"]


# --------------------------------------------------------------------------
# regression, core mode

def test_regr_core_known_inner_product(client_keys, rng):
    pk, sk = client_keys
    model = LinearModel((1, 2, 3), ell=5, precision=0)
    x = FeatureVector((1, 4, 5), 0, unscaled=True)
    request, session = regr_core_request(pk, x, rng)
    assert len(request.ciphertexts) == 2  # x_0 not transmitted
    response = regr_core_respond(model, request, rng)
    assert sk.decrypt(response) == 24
    assert regr_core_finish(sk, response, session) == 24.0  # scale 2**0


def test_regr_core_zero_model(client_keys, rng):
    pk, sk = client_keys
    model = LinearModel((0, 0, 0), ell=1, precision=0)
    request, _ = regr_core_request(pk, FeatureVector((1, 0, 0), 0), rng)
    assert sk.decrypt(regr_core_respond(model, request, rng)) == 0


def test_regr_core_matches_oracle(client_keys, rng):
    pk, sk = client_keys
    for _ in range(20):
        model = LinearModel.from_real([rng.uniform(-1, 1) for _ in range(10)],
                                      bias=rng.uniform(-1, 1), precision=24)
        x = FeatureVector.from_real([rng.uniform(-1, 1) for _ in range(10)], 24)
        request, session = regr_core_request(pk, x, rng)
        response = regr_core_respond(model, request, rng)
        assert sk.decrypt(response) == eval_linear(model, x).raw
        got = regr_core_finish(sk, response, session, "sigmoid")
        assert abs(got - eval_logistic(model, x).value) <= 1e-12


def test_regr_core_finish_sigmoid_at_zero(client_keys, rng):
    pk, sk = client_keys
    model = LinearModel((0, 1), ell=26, precision=12)
    x = FeatureVector((1, 0), 12)
    request, session = regr_core_request(pk, x, rng)
    response = regr_core_respond(model, request, rng)
    assert regr_core_finish(sk, response, session, "sigmoid") == 0.5


def test_regr_core_rejects_bad_activation(client_keys, rng):
    pk, sk = client_keys
    model = LinearModel((0, 1), ell=2, precision=0)
    request, session = regr_core_request(pk, FeatureVector((1, 1), 0), rng)
    response = regr_core_respond(model, request, rng)
    with pytest.raises(ParameterError):
        regr_core_finish(sk, response, session, "sign")
    with pytest.raises(ParameterError):
        regr_core_finish(sk, response, session, "does-not-exist")


def test_regr_core_dimension_mismatch(client_keys, rng):
    pk, _ = client_keys
    model = LinearModel((1, 2, 3), ell=5, precision=0)
    request, _ = regr_core_request(pk, FeatureVector((1, 1), 0), rng)
    with pytest.raises(DimensionMismatchError):
        regr_core_respond(model, request, rng)


@pytest.mark.parametrize("holder", [False, True], ids=["rebuilt-key", "key-holder"])
def test_encrypted_dot_matches_encrypt_then_products(client_keys, holder):
    pk, sk = client_keys
    key = pk if holder else PublicKey(pk.n)
    cts = [key.encrypt(m, insecure_rng(i)) for i, m in enumerate((3, -1, 0))]
    coeffs = (5, -7, 1 << 40)
    dot_rng, serial_rng = insecure_rng(20), insecure_rng(20)
    got = encrypted_dot(key, -9, coeffs, cts, dot_rng)
    want = key.encrypt(-9, serial_rng)
    for coeff, ct in zip(coeffs, cts):
        want = want + coeff * ct
    assert got.value == want.value and got.public_key is key
    assert dot_rng.random() == serial_rng.random()
    assert sk.decrypt(got) == -9 + 15 + 7
    with pytest.raises(DimensionMismatchError):
        encrypted_dot(key, 0, coeffs[:2], cts, dot_rng)


def test_feature_request_matches_the_encrypt_loop(client_keys):
    pk, _ = client_keys
    x = FeatureVector((1, 4, -5, 0, 4096), 12)
    batch_rng, serial_rng = insecure_rng(21), insecure_rng(21)
    request = FeatureRequest.encrypt(pk, x, batch_rng)
    serial = [pk.encrypt(v, serial_rng) for v in x.values[1:]]
    assert [c.value for c in request.ciphertexts] == [c.value for c in serial]
    assert batch_rng.random() == serial_rng.random()
    assert request.public_key is pk and request.d == 4


# --------------------------------------------------------------------------
# regression, dual mode

def test_regr_dual_simple(server_keys, rng):
    pk_s, sk_s = server_keys
    model = LinearModel((1, 1), ell=2, precision=0)
    published = regr_dual_publish(model, pk_s, rng)
    x = FeatureVector((1, 1), 0)
    request, session = regr_dual_request(published, x, rng)
    t_star = regr_dual_respond(sk_s, request)
    assert regr_dual_finish(session, t_star) == 2.0


def test_regr_dual_forced_zero_mask(server_keys, rng):
    pk_s, sk_s = server_keys
    model = LinearModel((1, 1), ell=2, precision=0)
    published = regr_dual_publish(model, pk_s, rng)
    request, session = regr_dual_request(published, FeatureVector((1, 1), 0), rng, mask=0)
    assert regr_dual_respond(sk_s, request) == 2  # t* is theta.x directly
    assert regr_dual_finish(session, 2) == 2.0


def test_regr_dual_matches_oracle(server_keys, rng):
    pk_s, sk_s = server_keys
    for _ in range(100):
        model = LinearModel.from_real([rng.uniform(-1, 1) for _ in range(5)],
                                      bias=rng.uniform(-1, 1), precision=16)
        published = regr_dual_publish(model, pk_s, rng)
        x = FeatureVector.from_real([rng.uniform(-1, 1) for _ in range(5)], 16)
        request, session = regr_dual_request(published, x, rng)
        t_star = regr_dual_respond(sk_s, request)
        assert regr_dual_finish(session, t_star) == eval_linear(model, x).value


def test_regr_dual_mask_single_use(server_keys, rng):
    pk_s, sk_s = server_keys
    model = LinearModel((1, 1), ell=2, precision=0)
    published = regr_dual_publish(model, pk_s, rng)
    request, session = regr_dual_request(published, FeatureVector((1, 1), 0), rng)
    t_star = regr_dual_respond(sk_s, request)
    regr_dual_finish(session, t_star)
    with pytest.raises(ProtocolViolationError):
        regr_dual_finish(session, t_star)


def test_dual_mask_uniformity_chi_square(rng):
    # Toy-modulus harness: (t + mask) mod M with a uniform mask is uniform.
    toy_m, draws = 512, 100_000
    t = 12345
    counts = [0] * toy_m
    for _ in range(draws):
        counts[(t + rng.randrange(toy_m)) % toy_m] += 1
    expected = draws / toy_m
    statistic = sum((c - expected) ** 2 / expected for c in counts)
    # Wilson-Hilferty chi-square quantile, df = 511, alpha = 0.001.
    df, z = toy_m - 1, 3.0902
    critical = df * (1 - 2 / (9 * df) + z * (2 / (9 * df)) ** 0.5) ** 3
    assert statistic < critical


# --------------------------------------------------------------------------
# SVM, core mode

def core_svm_run(server_keys, client_keys, t_value, ell, kappa, rng, mask=None):
    pk_s, sk_s = server_keys
    pk_c, sk_c = client_keys
    model = LinearModel((t_value, 0), ell=ell, precision=0)
    published = regr_dual_publish(model, pk_s, rng)
    x = FeatureVector((1, 0), 0)
    request, session = svm_core_request(published, pk_c, x, kappa, rng, mask=mask)
    response = svm_core_respond(sk_s, request, ell, rng)
    return svm_core_finish(sk_c, response, session), request


@pytest.mark.parametrize("t_value,expected", [(1, 1), (-1, -1), (0, 1)])
def test_svm_core_signs(server_keys, client_keys, rng, t_value, expected):
    label, _ = core_svm_run(server_keys, client_keys, t_value, ell=5, kappa=40, rng=rng)
    assert label == expected


def test_svm_core_no_wrap_whitebox(server_keys, client_keys, rng):
    pk_s, sk_s = server_keys
    for t_value in (-31, -1, 0, 17, 31):
        label, request = core_svm_run(server_keys, client_keys, t_value,
                                      ell=5, kappa=40, rng=rng)
        t_star = sk_s.decrypt_unsigned(request.masked_inner)
        assert 0 <= t_star < pk_s.n
        assert (1 << 5) - 1 - 31 <= t_star - t_value  # mask lower bound held
        assert label == (1 if t_value >= 0 else -1)


def test_svm_core_sizing_gate(server_keys, client_keys, rng):
    pk_s, _ = server_keys
    pk_c, _ = client_keys
    model = LinearModel((1, 0), ell=5, precision=0)
    published = regr_dual_publish(model, pk_s, rng)
    with pytest.raises(ParameterError):
        svm_core_request(published, pk_c, FeatureVector((1, 0), 0), kappa=600, rng=rng)


def test_svm_core_sizing_formula():
    kappa = 95
    for bits in (512, 2048):
        modulus = (1 << bits) - 1
        ell = max_core_ell(modulus, kappa)
        check_core_sizing(modulus, ell, kappa)
        with pytest.raises(ParameterError):
            check_core_sizing(modulus, ell + 1, kappa)
    assert max_core_ell((1 << 2048) - 1, 95) == 2048 - 95 - 1


def test_svm_core_bit_count_mismatch(server_keys, client_keys, rng):
    pk_s, sk_s = server_keys
    pk_c, _ = client_keys
    model = LinearModel((1, 0), ell=5, precision=0)
    published = regr_dual_publish(model, pk_s, rng)
    request, _ = svm_core_request(published, pk_c, FeatureVector((1, 0), 0), 40, rng)
    with pytest.raises(ProtocolViolationError):
        svm_core_respond(sk_s, request, ell=6, rng=rng)


def test_svm_core_session_single_use(server_keys, client_keys, rng):
    pk_s, sk_s = server_keys
    pk_c, sk_c = client_keys
    model = LinearModel((3, 0), ell=5, precision=0)
    published = regr_dual_publish(model, pk_s, rng)
    request, session = svm_core_request(published, pk_c, FeatureVector((1, 0), 0), 40, rng)
    response = svm_core_respond(sk_s, request, 5, rng)
    svm_core_finish(sk_c, response, session)
    with pytest.raises(ProtocolViolationError):
        svm_core_finish(sk_c, response, session)


# --------------------------------------------------------------------------
# SVM, heuristic mode

def test_heuristic_interval_and_masks(rng):
    modulus = 4099  # odd toy modulus
    lo, hi = heuristic_interval(modulus, 4)
    assert lo == -(2050 // 16) and hi == 2050 // 16
    # Every admissible (lam, mu) keeps |lam*t + mu| inside the signed range.
    assert hi * 16 - 1 <= (modulus - 1) // 2
    for _ in range(200):
        lam, mu = draw_heuristic_mask(modulus, 4, kappa=5, rng=rng)
        assert lo <= lam <= hi and lam != 0
        assert abs(mu) < abs(lam)
        assert mu == 0 or (mu > 0) == (lam > 0)
    # lam is always a unit: at the composite 4097 = 17 * 241, never a multiple of 17.
    assert all(draw_heuristic_mask(17 * 241, 4, kappa=5, rng=rng)[0] % 17 != 0
               for _ in range(200))


def test_heuristic_sizing_gate(rng):
    with pytest.raises(ParameterError):
        draw_heuristic_mask(4099, 4, kappa=12, rng=rng)  # interval ~ 2**8


def test_masked_sign_toy_sweep_exhaustive():
    # Full interval at a toy modulus: bound B = 3, every admissible (lam, mu, t).
    toy_m, ell = 257, 2
    lo, hi = heuristic_interval(toy_m, ell)
    for lam in range(lo, hi + 1):
        if lam == 0:
            continue
        mus = range(0, lam) if lam > 0 else range(lam + 1, 1)
        for mu in mus:
            for t in range(-3, 4):
                got = masked_sign_value(t, lam, mu, toy_m)
                if t != 0:
                    assert (got > 0) == (t > 0), (lam, mu, t)
                else:
                    assert got >= 0


def test_svm_heur_protocol(client_keys, rng):
    pk_c, sk_c = client_keys
    for t_value, expected in ((0, 1), (-5, -1), (5, 1)):
        model = LinearModel((t_value, 0), ell=4, precision=0)
        request = svm_heur_request(pk_c, FeatureVector((1, 0), 0), rng)
        response = svm_heur_respond(model, request, kappa=40, rng=rng)
        assert svm_heur_finish(sk_c, response) == expected


def test_svm_heur_matches_oracle(client_keys, rng):
    pk_c, sk_c = client_keys
    for _ in range(1000):
        model = LinearModel.from_real([rng.uniform(-1, 1) for _ in range(3)],
                                      bias=rng.uniform(-1, 1), precision=10)
        x = FeatureVector.from_real([rng.uniform(-1, 1) for _ in range(3)], 10)
        request = svm_heur_request(pk_c, x, rng)
        response = svm_heur_respond(model, request, kappa=40, rng=rng)
        assert svm_heur_finish(sk_c, response) == eval_svm(model, x).class_label


def test_svm_heur_forced_mask_validation(client_keys, rng):
    pk_c, _ = client_keys
    model = LinearModel((1, 0), ell=4, precision=0)
    request = svm_heur_request(pk_c, FeatureVector((1, 0), 0), rng)
    for lam, mu in ((0, 0), (5, 7), (5, -2), (-5, 2)):
        with pytest.raises(ParameterError):
            svm_heur_respond(model, request, kappa=40, rng=rng, mask=(lam, mu))


def test_regr_dual_finish_refuses_a_value_outside_the_message_space(server_keys, rng):
    # Over the wire, deserialize_scalar refuses such a value first.
    pk_s, _ = server_keys
    published = regr_dual_publish(LinearModel((1, 1), ell=2, precision=0), pk_s, rng)
    for value in (-1, pk_s.n):
        _, session = regr_dual_request(published, FeatureVector((1, 1), 0), rng)
        with pytest.raises(ProtocolViolationError, match="masked value outside the message space"):
            regr_dual_finish(session, value)
