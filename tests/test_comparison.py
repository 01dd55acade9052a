import threading

import pytest

from pinfer import numutil
from pinfer.comparison import (ComparisonRequest, ComparisonResponse,
                               bit_owner_finish, bit_owner_request,
                               evaluator_respond)
from pinfer.errors import ParameterError, ProtocolViolationError, WorkerError
from pinfer.paillier import PublicKey


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
    assert [sk.decrypt(c) for c in request.encrypted_bits] == [1, 0, 1]
    request = bit_owner_request(pk, 0, 4, rng)
    assert [sk.decrypt(c) for c in request.encrypted_bits] == [0, 0, 0, 0]


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
    decrypted = [sk.decrypt(c) for c in response.blinded_values]
    assert decrypted.count(0) == zeros


def test_end_to_end_share(client_keys, rng):
    pk, sk = client_keys
    delta_own = run(sk, pk, 3, 5, 0, 3, rng)
    assert delta_own ^ 0 == 1  # 3 <= 5


def test_comparison_after_the_worker_is_killed(client_keys, rng):
    pk, sk = client_keys
    rebuilt = PublicKey(pk.n)  # blinds through the worker
    assert run(sk, rebuilt, 3, 5, 0, 3, rng) == 1
    numutil._POWERS._proc.kill()
    outcome = []

    def compare():
        try:
            outcome.append(run(sk, rebuilt, 6, 2, 0, 3, rng))
        except WorkerError as exc:
            outcome.append(exc)

    thread = threading.Thread(target=compare, daemon=True)
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive() and outcome
    # Either the dead worker was seen and replaced, or the comparison failed
    # with WorkerError; the next one then runs on a new worker.
    if isinstance(outcome[0], WorkerError):
        outcome[0] = run(sk, rebuilt, 6, 2, 0, 3, rng)
    assert outcome[0] == 0  # 6 > 2
    assert run(sk, rebuilt, 4, 4, 1, 3, rng) ^ 1 == 1


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
                zeros = sum(1 for c in response.blinded_values if sk.decrypt(c) == 0)
                assert zeros <= 1


def test_blinding_varies_across_runs(client_keys, rng):
    pk, sk = client_keys
    request = bit_owner_request(pk, 5, 4, rng)
    seen = set()
    for _ in range(20):
        response = evaluator_respond(pk, request, 9, 0, rng)
        values = tuple(sorted(sk.decrypt_unsigned(c) for c in response.blinded_values))
        seen.add(values)
    assert len(seen) > 1


def test_respond_validates_inputs(client_keys, rng):
    pk, _ = client_keys
    request = bit_owner_request(pk, 5, 3, rng)
    with pytest.raises(ParameterError):
        evaluator_respond(pk, request, 8, 0, rng)
    with pytest.raises(ParameterError):
        evaluator_respond(pk, request, 3, 2, rng)
    bad = ComparisonRequest(request.encrypted_bits, 4)
    with pytest.raises(ProtocolViolationError):
        evaluator_respond(pk, bad, 3, 0, rng)


def test_two_zeros_is_a_protocol_violation(client_keys, rng):
    pk, sk = client_keys
    forged = ComparisonResponse((pk.encrypt(0, rng), pk.encrypt(0, rng), pk.encrypt(3, rng)))
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
