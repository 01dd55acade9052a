import dataclasses
import itertools
import math

import pytest

from pinfer import activations, network, numutil
from pinfer.comparison import (bit_owner_finish, bit_owner_request, draw_mask,
                               evaluator_respond)
from pinfer.errors import ParameterError, ProtocolViolationError
from pinfer.linear import (FeatureVector, LinearModel, check_core_sizing,
                           check_heuristic_sizing, encrypted_dot, heuristic_interval,
                           masked_challenge, regr_dual_publish, svm_core_finish,
                           svm_core_request, svm_core_respond, svm_heur_finish,
                           svm_heur_request, svm_heur_respond)
from pinfer.network import UnitState, unit_answer, unit_challenge, unit_finish
from pinfer.numutil import insecure_rng
from pinfer.paillier import PublicKey, SecretKey
from pinfer.reference import eval_svm


def plain_test_values(mu: int, eta: int, delta_eval: int, ell: int) -> list[int]:
    """Independent oracle: the l+1 unblinded test values in plaintext."""
    s = 1 - 2 * delta_eval
    mu_bits = [(mu >> i) & 1 for i in range(ell)]
    eta_bits = [(eta >> i) & 1 for i in range(ell)]
    xors = [m ^ e for m, e in zip(mu_bits, eta_bits)]
    values = [s * (mu_bits[i] - eta_bits[i]) + 1 + sum(xors[i + 1:]) for i in range(ell)]
    values.append(delta_eval + sum(xors))
    return values


def run(sk_owner, pk_owner, mu, eta, delta_eval, ell, rng):
    request = bit_owner_request(pk_owner, mu, ell, rng)
    response = evaluator_respond(pk_owner, request, eta, delta_eval, rng)
    return bit_owner_finish(sk_owner, response)


def test_request_shape(client_keys, rng):
    pk, sk = client_keys
    request = bit_owner_request(pk, 5, 3, rng)
    assert [sk.decrypt(c) for c in request] == [1, 0, 1]
    request = bit_owner_request(pk, 0, 4, rng)
    assert [sk.decrypt(c) for c in request] == [0, 0, 0, 0]


def test_request_rejects_out_of_range(client_keys):
    pk, _ = client_keys
    with pytest.raises(ParameterError):
        bit_owner_request(pk, 8, 3)
    with pytest.raises(ParameterError):
        bit_owner_request(pk, -1, 3)


@pytest.mark.parametrize("mu,eta,zeros", [(3, 5, 1), (7, 0, 0), (4, 4, 1)])
def test_zero_counts_match_plain_evaluation(client_keys, rng, mu, eta, zeros):
    pk, sk = client_keys
    assert plain_test_values(mu, eta, 0, 3).count(0) == zeros
    request = bit_owner_request(pk, mu, 3, rng)
    response = evaluator_respond(pk, request, eta, 0, rng)
    decrypted = [sk.decrypt(c) for c in response]
    assert decrypted.count(0) == zeros


def test_end_to_end_share(client_keys, rng):
    pk, sk = client_keys
    delta_own = run(sk, pk, 3, 5, 0, 3, rng)
    assert delta_own ^ 0 == 1  # 3 <= 5


def test_exhaustive_small(client_keys, rng):
    pk, sk = client_keys
    ell = 3
    for mu in range(1 << ell):
        for eta in range(1 << ell):
            for delta_eval in (0, 1):
                delta_own = run(sk, pk, mu, eta, delta_eval, ell, rng)
                assert delta_own ^ delta_eval == (1 if mu <= eta else 0), (mu, eta, delta_eval)


def test_at_most_one_zero_exhaustive(client_keys, rng):
    pk, sk = client_keys
    ell = 2
    for mu in range(4):
        for eta in range(4):
            for delta_eval in (0, 1):
                request = bit_owner_request(pk, mu, ell, rng)
                response = evaluator_respond(pk, request, eta, delta_eval, rng)
                zeros = sum(1 for c in response if sk.decrypt(c) == 0)
                assert zeros <= 1


def test_blinding_varies_across_runs(client_keys, rng):
    pk, sk = client_keys
    request = bit_owner_request(pk, 5, 4, rng)
    seen = set()
    for _ in range(20):
        response = evaluator_respond(pk, request, 9, 0, rng)
        values = tuple(sorted(sk.decrypt_unsigned(c) for c in response))
        seen.add(values)
    assert len(seen) > 1


def test_respond_validates_inputs(client_keys, rng):
    pk, _ = client_keys
    request = bit_owner_request(pk, 5, 3, rng)
    with pytest.raises(ParameterError):
        evaluator_respond(pk, request, 8, 0, rng)
    with pytest.raises(ParameterError):
        evaluator_respond(pk, request, 3, 2, rng)
    with pytest.raises(ParameterError):
        evaluator_respond(pk, (), 0, 0, rng)


def test_two_zeros_is_a_protocol_violation(client_keys, rng):
    pk, sk = client_keys
    forged = (pk.encrypt(0, rng), pk.encrypt(0, rng), pk.encrypt(3, rng))
    with pytest.raises(ProtocolViolationError):
        bit_owner_finish(sk, forged)


# Floor identities underpinning the masked comparison (checked exhaustively).

def test_floor_difference_identity():
    for n in (2, 4, 8):
        for a in range(64):
            for b in range(64):
                assert (a - b) // n == a // n - b // n + ((a % n) - (b % n)) // n


def test_floor_comparison_identity():
    n = 16
    for a in range(n):
        for b in range(n):
            assert (1 if b <= a else 0) == 1 + (a - b) // n


# ---------------------------------------------------------------------------
# the challenge batch

def _record_batches(monkeypatch):
    """Replace ``numutil.powers_while`` with a stand-in that keeps the items
    of every batch and computes them here; returns the list of batches."""
    batches = []

    def powers_while(items, work=None):
        batches.append(list(items))
        return work() if work else None, [pow(b, e, m) for b, e, m in items]

    monkeypatch.setattr(numutil, "powers_while", powers_while)
    return batches


def _owner_items(sk, count):
    return [(sk.p, sk.p * sk.p), (sk.q, sk.q * sk.q)] * count


def test_unit_challenge_is_one_batch(client_keys, server_keys, monkeypatch):
    pk_c = PublicKey(client_keys[0].n)
    pk_s, sk_s = server_keys
    theta, ell = (5, -3, 2), 6
    enc = [pk_c.encrypt(m, insecure_rng(20 + m)) for m in (1, 7)]
    # The same draws in two batches: the masked inner product, then the bits.
    rng = insecure_rng(21)
    mask = draw_mask(ell, 40, rng)
    t_ct = encrypted_dot(pk_c, theta[0] + mask, theta[1:], enc, rng)
    bits = bit_owner_request(pk_s, mask % (1 << ell), ell, rng)
    after = rng.random()

    batches = _record_batches(monkeypatch)
    rng = insecure_rng(21)
    challenge, state = unit_challenge("core", theta, enc, pk_s, ell, 40, rng)
    assert [[(e, m) for _, e, m in batch] for batch in batches] == \
        [[(pk_c.n, pk_c.n_squared)] + _owner_items(sk_s, ell)]
    assert state.pad == mask
    assert challenge.masked_inner.value == t_ct.value
    assert [c.value for c in challenge.mask_bits] == [c.value for c in bits]
    assert rng.random() == after


def test_svm_core_request_is_one_batch(client_keys, server_keys, monkeypatch):
    pk_c, sk_c = client_keys
    pk_s = PublicKey(server_keys[0].n)
    published = regr_dual_publish(LinearModel((3, -2, 1), ell=5, precision=0), pk_s,
                                  insecure_rng(22))
    x = FeatureVector((1, 1, -1), 0)
    rng = insecure_rng(23)
    mask = draw_mask(5, 40, rng)
    theta_0, *theta = published.ciphertexts
    acc = encrypted_dot(pk_s, mask, x.values[1:], theta, rng) + theta_0
    bits = bit_owner_request(pk_c, mask % (1 << 5), 5, rng)
    after = rng.random()

    batches = _record_batches(monkeypatch)
    rng = insecure_rng(23)
    challenge, session = svm_core_request(published, pk_c, x, 40, rng)
    assert [[(e, m) for _, e, m in batch] for batch in batches] == \
        [[(pk_s.n, pk_s.n_squared)] + _owner_items(sk_c, 5)]
    assert session.mask == mask
    assert challenge.masked_inner.value == acc.value
    assert [c.value for c in challenge.mask_bits] == [c.value for c in bits]
    assert rng.random() == after


def test_svm_core_request_refuses_a_published_model_without_bits(client_keys, server_keys,
                                                                monkeypatch):
    # ell arrives in the publish frame; ell = 0 would make a challenge with
    # no mask bits.
    pk_s = PublicKey(server_keys[0].n)
    published = regr_dual_publish(LinearModel((3, -2, 1), ell=5, precision=0), pk_s,
                                  insecure_rng(22))
    batches = _record_batches(monkeypatch)
    with pytest.raises(ParameterError):
        svm_core_request(dataclasses.replace(published, ell=0), client_keys[0],
                         FeatureVector((1, 1, -1), 0), 40, insecure_rng(23))
    assert batches == []


# ---------------------------------------------------------------------------
# every mask at a toy key
#
# The core comparing steps over every |t| < 2**ell, every mask the draw
# permits (forced through ``masked_challenge``) and both flips, against the
# oracle. Neither toy modulus has a prime factor below 2**12, so
# ``evaluator_step`` accepts either as the owner's.

TOY_ELL, TOY_KAPPA = 2, 3
TOY_TS = range(1 - (1 << TOY_ELL), 1 << TOY_ELL)
TOY_MASKS = range((1 << TOY_ELL) - 1, 1 << (TOY_ELL + TOY_KAPPA))


@pytest.fixture(scope="module")
def toy_keys():
    """The client's and the server's toy secret keys, then each one's public
    key as the peer holds it, with no secret linked."""
    sk_c, sk_s = SecretKey(4099, 4111), SecretKey(4127, 4129)
    return sk_c, sk_s, PublicKey(sk_c.public_key.n), PublicKey(sk_s.public_key.n)


def _toy_theta(t):
    """(theta_0, theta_1) with theta . (1, 1) = t and bound |t| < 2**ell."""
    return t - t // 2, t // 2


def test_svm_core_is_exact_at_every_mask_of_a_toy_key(toy_keys):
    sk_c, sk_s, pk_c, pk_s = toy_keys
    x = FeatureVector((1, 1), 0)
    rng = insecure_rng(0x70C1)
    for t in TOY_TS:
        model = LinearModel(_toy_theta(t), TOY_ELL, 0)
        published = regr_dual_publish(model, pk_s, rng)
        expected = eval_svm(model, x).class_label
        for mask in TOY_MASKS:
            challenge, session = svm_core_request(published, pk_c, x, TOY_KAPPA, rng, mask)
            response = svm_core_respond(sk_s, challenge, TOY_ELL, rng)
            assert svm_core_finish(sk_c, response, session) == expected, (t, mask)


@pytest.mark.parametrize("activation", ["sign", "relu"])
def test_core_unit_is_exact_at_every_mask_and_flip_of_a_toy_key(toy_keys, activation):
    sk_c, sk_s, pk_c, pk_s = toy_keys
    rng = insecure_rng(0x70C2)
    for t in TOY_TS:
        theta = _toy_theta(t)
        enc = [pk_c.encrypt(1, rng)]
        expected = activations.apply_fixed(activation, t, 0, 0)
        for mask in TOY_MASKS:
            challenge, pad = masked_challenge(pk_c, theta[0], theta[1:], enc, pk_s, TOY_ELL,
                                              TOY_KAPPA, rng, mask)
            assert pad == mask
            for b in (0, 1):
                response = unit_answer(activation, sk_c, pk_s, challenge, rng, b)
                out = unit_finish(activation, sk_s, UnitState(mask, TOY_ELL), response)
                assert sk_c.decrypt(out) == expected, (t, mask, b)


@pytest.mark.parametrize("mask", [TOY_MASKS.start - 1, TOY_MASKS.stop])
def test_forced_mask_outside_the_draw_is_refused(toy_keys, mask):
    _, _, pk_c, pk_s = toy_keys
    rng = insecure_rng(0x70C3)
    with pytest.raises(ParameterError, match="mask outside"):
        masked_challenge(pk_c, 0, (1,), [pk_c.encrypt(1, rng)], pk_s, TOY_ELL, TOY_KAPPA, rng,
                         mask)


# ---------------------------------------------------------------------------
# at the edges of the sizing rules
#
# The same sweeps at the smallest Paillier modulus each sizing check admits,
# as the key that holds the masked value: the core rule's bound itself at
# ell = 2, kappa = 3 (35), and the heuristic interval's at (2, 3) and
# (3, 3) (33 and 65), where every admissible (lam, mu) is forced. A check
# that admitted a smaller modulus, or an interval one wider, lets a masked
# value wrap here.

def _paillier_keys():
    """The secret key of each Paillier modulus p * q, p < q, in increasing order."""
    for n in itertools.count(15, 2):
        p = next(p for p in range(3, n + 1, 2) if n % p == 0)
        if p < n // p:
            try:
                yield SecretKey(p, n // p)
            except ParameterError:  # q not prime, or gcd(n, phi) > 1
                pass


def _smallest_admitted(check, ell, kappa):
    for sk in _paillier_keys():
        try:
            check(sk.public_key.n, ell, kappa)
            return sk
        except ParameterError:
            pass


def _heuristic_masks(n, ell):
    """Every (lam, mu) that ``draw_heuristic_mask`` can return."""
    lo, hi = heuristic_interval(n, ell)
    for lam in range(lo, hi + 1):
        if lam and math.gcd(abs(lam), n) == 1:
            yield from ((lam, mu) for mu in (range(lam) if lam > 0 else range(lam + 1, 0)))


def test_core_is_exact_at_the_smallest_admitted_key(toy_keys):
    sk_c, sk_s, pk_c, pk_s = toy_keys
    sk_edge = _smallest_admitted(check_core_sizing, TOY_ELL, TOY_KAPPA)
    pk_edge = PublicKey(sk_edge.public_key.n)
    rng = insecure_rng(0x70C4)
    x = FeatureVector((1, 1), 0)
    for t in TOY_TS:
        # svm-core: the server, which holds the masked value, is the evaluator.
        model = LinearModel(_toy_theta(t), TOY_ELL, 0)
        published = regr_dual_publish(model, pk_edge, rng)
        expected = eval_svm(model, x).class_label
        for mask in TOY_MASKS:
            challenge, session = svm_core_request(published, pk_c, x, TOY_KAPPA, rng, mask)
            response = svm_core_respond(sk_edge, challenge, TOY_ELL, rng)
            assert svm_core_finish(sk_c, response, session) == expected, (t, mask)
        # The core units: the client, which holds it there, is the evaluator.
        theta, enc = _toy_theta(t), [pk_edge.encrypt(1, rng)]
        for activation in ("sign", "relu"):
            expected = activations.apply_fixed(activation, t, 0, 0)
            for mask in TOY_MASKS:
                challenge, _ = masked_challenge(pk_edge, theta[0], theta[1:], enc, pk_s,
                                                TOY_ELL, TOY_KAPPA, rng, mask)
                for b in (0, 1):
                    response = unit_answer(activation, sk_edge, pk_s, challenge, rng, b)
                    out = unit_finish(activation, sk_s, UnitState(mask, TOY_ELL), response)
                    assert sk_edge.decrypt(out) == expected, (activation, t, mask, b)


@pytest.mark.parametrize("ell", [2, 3])
def test_heuristic_is_exact_at_the_smallest_admitted_key(monkeypatch, ell):
    sk = _smallest_admitted(check_heuristic_sizing, ell, TOY_KAPPA)
    pk = sk.public_key
    rng = insecure_rng(0x70C5)
    x = FeatureVector((1, 1), 0)
    request = svm_heur_request(pk, x, rng)
    for t in range(1 - (1 << ell), 1 << ell):
        model, theta = LinearModel(_toy_theta(t), ell, 0), _toy_theta(t)
        for lam, mu in _heuristic_masks(pk.n, ell):
            response = svm_heur_respond(model, request, TOY_KAPPA, rng, (lam, mu))
            assert svm_heur_finish(sk, response) == eval_svm(model, x).class_label, (t, lam, mu)
            monkeypatch.setattr(network, "draw_heuristic_mask", lambda *args: (lam, mu))
            for activation in ("sign", "relu"):
                challenge, state = unit_challenge("heuristic", theta, request.ciphertexts,
                                                  None, ell, TOY_KAPPA, rng)
                out = unit_finish(activation, None, state,
                                  unit_answer(activation, sk, None, challenge, rng))
                assert sk.decrypt(out) == activations.apply_fixed(activation, t, 0, 0), \
                    (activation, t, lam, mu)


@pytest.mark.parametrize("ell,kappa", [(ell, kappa) for ell in range(1, 5)
                                       for kappa in range(1, 5)])
def test_sizing_checks_refuse_every_modulus_below_their_bound(ell, kappa):
    for check, bound in ((check_core_sizing, (1 << ell) * ((1 << kappa) + 1) - 1),
                         (check_heuristic_sizing, (1 << (ell + kappa)) - 1)):
        for modulus in range(1, bound):
            with pytest.raises(ParameterError):
                check(modulus, ell, kappa)
        check(bound, ell, kappa)


def test_the_smallest_admitted_keys_of_the_sweeps():
    # The core sweep runs at its bound itself; 33 and 65 are the smallest
    # Paillier moduli above the heuristic bounds of 31 and 63.
    assert [_smallest_admitted(check, ell, TOY_KAPPA).public_key.n for check, ell in (
        (check_core_sizing, 2), (check_heuristic_sizing, 2), (check_heuristic_sizing, 3))
    ] == [35, 33, 65]
