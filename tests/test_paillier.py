import math
import random
import subprocess
import sys
import threading

import pytest

from pinfer import comparison, keygen, numutil, paillier
from pinfer.errors import (DecryptionError, KeyMismatchError, MessageFormatError,
                           ParameterError, WorkerError)
from pinfer.numutil import (SIEVE_BITS, insecure_rng, is_probable_prime, prime_candidate,
                            random_unit)
from pinfer.paillier import Ciphertext, PublicKey, SecretKey
from pinfer.wire import deserialize_public_key, serialize_public_key


def test_keygen_sizes_and_round_trip(client_keys, rng):
    pk, sk = client_keys
    assert pk.bit_length == 512
    for _ in range(100):
        m = rng.randrange(pk.min_signed, pk.max_signed + 1)
        assert sk.decrypt(pk.encrypt(m, rng)) == m


def test_keygen_rejects_tiny_keys():
    with pytest.raises(ParameterError):
        keygen(32)


def test_keygen_explicit_2048_preset():
    pk, sk = keygen(2048, insecure_rng(2048))
    assert pk.bit_length == 2048
    assert sk.decrypt(pk.encrypt(-12345)) == -12345


def test_signed_boundaries(client_keys, rng):
    pk, sk = client_keys
    for m in (0, 1, -1, pk.max_signed, pk.min_signed):
        assert sk.decrypt(pk.encrypt(m, rng)) == m
    # Negative values live as their residues: -1 is stored as N - 1.
    assert sk.decrypt_unsigned(pk.encrypt(-1, rng)) == pk.n - 1


def test_decrypt_agrees_with_naive_formula(client_keys, rng):
    # Independent check of the CRT decryption: recover the plaintext the
    # slow way as L(c**phi mod N**2) * phi**-1 mod N with L(u) = (u-1)/N.
    pk, sk = client_keys
    n, nsq = pk.n, pk.n_squared
    phi = (sk.p - 1) * (sk.q - 1)
    phi_inv = pow(phi, -1, n)
    for _ in range(50):
        m = rng.randrange(pk.min_signed, pk.max_signed + 1)
        c = pk.encrypt(m, rng)
        naive = ((pow(c.value, phi, nsq) - 1) // n) * phi_inv % n
        assert naive == m % n
        assert sk.decrypt_unsigned(c) == naive


def test_encrypt_rejects_out_of_range(client_keys):
    pk, _ = client_keys
    for m in (pk.max_signed + 1, pk.min_signed - 1, pk.n):
        with pytest.raises(ParameterError):
            pk.encrypt(m)


def test_probabilistic_encryption(client_keys, rng):
    pk, _ = client_keys
    seen = {pk.encrypt(0, rng).value for _ in range(1000)}
    assert len(seen) == 1000


def test_homomorphic_congruences(client_keys, rng):
    pk, sk = client_keys
    n = pk.n
    for _ in range(200):
        m1 = rng.randrange(pk.min_signed, pk.max_signed + 1)
        m2 = rng.randrange(pk.min_signed, pk.max_signed + 1)
        a = rng.randrange(-(2 ** 64), 2 ** 64)
        c1, c2 = pk.encrypt(m1, rng), pk.encrypt(m2, rng)
        add, sub, scale = sk.decrypt(c1 + c2), sk.decrypt(c1 - c2), sk.decrypt(a * c1)
        assert (add - (m1 + m2)) % n == 0 and pk.contains(add)
        assert (sub - (m1 - m2)) % n == 0 and pk.contains(sub)
        assert (scale - a * m1) % n == 0 and pk.contains(scale)


def test_wraparound_into_signed_set(client_keys, rng):
    pk, sk = client_keys
    c = pk.encrypt(pk.max_signed, rng) + pk.encrypt(1, rng)
    assert sk.decrypt(c) == pk.min_signed


def test_scalar_matches_repeated_addition(client_keys, rng):
    pk, sk = client_keys
    m = rng.randrange(-1000, 1000)
    c = pk.encrypt(m, rng)
    acc = pk.encrypt(0, rng)
    for a in range(9):
        assert sk.decrypt(a * c) == a * m
        if a:
            acc = acc + c
            assert sk.decrypt(acc) == a * m


def test_rerandomize_preserves_plaintext(client_keys, rng):
    pk, sk = client_keys
    c = pk.encrypt(5, rng)
    fresh = pk.rerandomize(c, rng)
    assert fresh.value != c.value
    assert sk.decrypt(fresh) == 5
    assert sk.decrypt(pk.rerandomize(fresh, rng)) == 5
    # Indistinguishable by equality from a fresh encryption of the same value.
    zero = pk.encrypt(0, rng)
    assert pk.rerandomize(zero, rng).value not in (zero.value, pk.encrypt(0, rng).value)


def test_add_plain(client_keys, rng):
    pk, sk = client_keys
    c = pk.encrypt(10, rng)
    assert sk.decrypt(c.add_plain(-3)) == 7


def test_key_mismatch_fails_fast(client_keys, server_keys, rng):
    (pk_c, sk_c), (pk_s, _) = client_keys, server_keys
    c1, c2 = pk_c.encrypt(1, rng), pk_s.encrypt(2, rng)
    with pytest.raises(KeyMismatchError):
        c1 + c2
    with pytest.raises(KeyMismatchError):
        sk_c.decrypt(c2)


def test_decryption_failure_on_non_unit(client_keys):
    pk, sk = client_keys
    with pytest.raises(DecryptionError):
        sk.decrypt(Ciphertext(sk.p, pk))  # shares the factor p with N


def test_key_serialization_round_trip(client_keys):
    pk, sk = client_keys
    data = serialize_public_key(pk)
    assert len(data) == (pk.bit_length + 7) // 8
    assert deserialize_public_key(data) == pk
    sk2 = SecretKey(sk.p, sk.q)
    assert sk2.public_key == pk
    with pytest.raises(MessageFormatError):
        deserialize_public_key(b"")


def test_key_holder_and_rebuilt_key_ciphertexts_mix(client_keys, rng):
    pk, sk = client_keys
    rebuilt = PublicKey(pk.n)
    values = [0, 1, -1, pk.max_signed, pk.min_signed] + \
        [rng.randrange(pk.min_signed, pk.max_signed + 1) for _ in range(20)]
    for m1, m2 in zip(values, reversed(values)):
        a = rng.randrange(-(2 ** 64), 2 ** 64)
        c1, c2 = pk.encrypt(m1, rng), rebuilt.encrypt(m2, rng)
        assert sk.decrypt(c1) == m1 and sk.decrypt(c2) == m2
        for got, want in ((c1 + c2, m1 + m2), (c2 + c1, m1 + m2),
                          (c1 - c2, m1 - m2), (c2 - c1, m2 - m1),
                          (a * c1, a * m1), (a * c2, a * m2)):
            assert (sk.decrypt(got) - want) % pk.n == 0
        assert sk.decrypt(pk.rerandomize(c2, rng)) == m2
        assert sk.decrypt(rebuilt.rerandomize(c1, rng)) == m1


def test_key_holder_fresh_factor_encrypts_zero(client_keys, rng):
    pk, sk = client_keys
    for _ in range(20):
        factor = pk._fresh_factor(rng)
        assert 0 < factor < pk.n_squared
        assert sk.decrypt(Ciphertext(factor, pk)) == 0


def test_key_holder_never_exponentiates_mod_n_squared(client_keys, rng, monkeypatch):
    pk, sk = client_keys
    moduli = []
    original = paillier.powmod

    def counting_powmod(base, exp, mod):
        moduli.append(mod)
        return original(base, exp, mod)

    monkeypatch.setattr(paillier, "powmod", counting_powmod)
    c = pk.encrypt(-42, rng)
    c = pk.rerandomize(c, rng)
    assert sk.decrypt(c) == -42
    assert moduli and pk.n_squared not in moduli

    moduli.clear()
    rebuilt = PublicKey(pk.n)
    rebuilt.encrypt(-42, rng)
    assert moduli == [pk.n_squared]


PLAIN = [0, 1, -1, 5, -123456789]


def _serial_blinds(key, values, rng):
    """The one-at-a-time blind loop that ``blind_all`` must reproduce."""
    return [key.rerandomize(random_unit(key.n, rng) * c, rng) for c in values]


@pytest.mark.parametrize("holder", [False, True], ids=["rebuilt-key", "key-holder"])
def test_blind_all_matches_one_at_a_time(client_keys, holder):
    pk, sk = client_keys
    key = pk if holder else PublicKey(pk.n)
    plain = [0, 1, -5, 7, 0]
    values = [key.encrypt(m, insecure_rng(i)) for i, m in enumerate(plain)]
    batch = key.blind_all(values, insecure_rng(7))
    serial = _serial_blinds(key, values, insecure_rng(7))
    assert [c.value for c in batch] == [c.value for c in serial]
    assert all(c.public_key is key for c in batch)
    assert [sk.decrypt(c) == 0 for c in batch] == [m == 0 for m in plain]


def _rebuilt_values(pk, rng):
    key = PublicKey(pk.n)
    return key, [key.encrypt(m, rng) for m in (0, 3, -2)]


@pytest.mark.parametrize("fault", ["scale", "key"])
def test_blind_all_stays_in_step_after_a_failed_batch(client_keys, server_keys, rng, fault):
    pk, sk = client_keys
    key, values = _rebuilt_values(pk, rng)
    if fault == "scale":
        # r * None raises between the request to the worker and its reply.
        bad, error = [values[0], None], TypeError
    else:
        bad, error = [values[0], server_keys[0].encrypt(1, rng)], KeyMismatchError
    with pytest.raises(error):
        key.blind_all(bad, insecure_rng(8))
    # A stale reply would give other factors: the values would differ.
    batch = key.blind_all(values, insecure_rng(9))
    serial = _serial_blinds(key, values, insecure_rng(9))
    assert [c.value for c in batch] == [c.value for c in serial]
    assert [sk.decrypt(c) == 0 for c in batch] == [True, False, False]


def test_concurrent_batches_stay_in_step(client_keys):
    # More threads than cores share the one worker: blinds under a rebuilt
    # key, the key holder's encryptions and decryptions, and key generation.
    # A reply read by the wrong batch would carry other powers, so the
    # values would differ.
    pk, sk = client_keys
    key = PublicKey(pk.n)
    values = [key.encrypt(m, insecure_rng(m)) for m in range(4)]

    def batch(seed, serial=False):
        rng = insecure_rng(seed)
        if seed % 4 == 0:
            cts = _serial_blinds(key, values, rng) if serial else key.blind_all(values, rng)
        elif seed % 4 == 1:
            cts = [pk.encrypt(m, rng) for m in PLAIN] if serial else pk.encrypt_all(PLAIN, rng)
        elif seed % 4 == 2:
            return [sk.decrypt(c) for c in values] if serial else sk.decrypt_all(values)
        elif serial:
            return _serial_keygen(128, rng)
        else:
            _, made = keygen(128, rng)
            return made.p, made.q
        return [c.value for c in cts]

    expected = {seed: batch(seed, serial=True) for seed in range(8)}
    got = {seed: [] for seed in expected}

    def run(seed):
        for _ in range(5):
            got[seed].append(batch(seed))

    threads = [threading.Thread(target=run, args=(seed,), daemon=True) for seed in expected]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert got == {seed: [want] * 5 for seed, want in expected.items()}


def test_worker_that_dies_mid_batch_raises_worker_error(client_keys, rng, monkeypatch):
    pk, sk = client_keys
    key, values = _rebuilt_values(pk, rng)
    numutil._POWERS.close()
    monkeypatch.setattr(numutil, "_WORKER_SRC", "import sys; sys.stdin.buffer.read(4)")
    with pytest.raises(WorkerError):
        key.blind_all(values, rng)
    assert numutil._POWERS._proc is None
    monkeypatch.undo()
    assert [sk.decrypt(c) == 0 for c in key.blind_all(values, rng)] == [True, False, False]


#: A worker that answers its first request wrongly, as ``REPLY`` builds it
#: from the right hex words, and then exits.
_BAD_WORKER = """
import sys
words = []
for group in sys.stdin.readline().split(","):
    exponent, modulus, *bases = (int(w, 16) for w in group.split())
    words += [format(pow(b, exponent, modulus), "x") for b in bases]
sys.stdout.write(REPLY)
sys.stdout.flush()
"""


@pytest.mark.parametrize("reply", [
    '" ".join(words)[:-1]',
    '" ".join(["xyz"] + words[1:]) + "\\n"',
    '" ".join(words[:-1]) + "\\n"',
], ids=["cut-short-without-newline", "non-hex-word", "too-few-words"])
def test_worker_with_a_malformed_reply_raises_worker_error(client_keys, rng, monkeypatch,
                                                           reply):
    pk, _ = client_keys
    key, values = _rebuilt_values(pk, rng)
    numutil._POWERS.close()
    monkeypatch.setattr(numutil, "_WORKER_SRC", _BAD_WORKER.replace("REPLY", reply))
    raised = []

    def blind():
        try:
            key.blind_all(values, insecure_rng(10))
        except Exception as exc:
            raised.append(exc)

    thread = threading.Thread(target=blind, daemon=True)
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive()
    assert [type(exc) for exc in raised] == [WorkerError]
    assert numutil._POWERS._proc is None
    monkeypatch.undo()
    batch = key.blind_all(values, insecure_rng(11))
    serial = _serial_blinds(key, values, insecure_rng(11))
    assert [c.value for c in batch] == [c.value for c in serial]


def _boundary_values(pk):
    return PLAIN + [pk.max_signed, pk.min_signed]


class _CountingWorker:
    """Stands in for the power worker: computes each batch here and keeps
    the exponent and modulus of each of its items."""

    def __init__(self):
        self.batches = []

    def powers_while(self, items, work):
        self.batches.append([(exponent, modulus) for _, exponent, modulus in items])
        return work(), [pow(b, exponent, modulus) for b, exponent, modulus in items]


@pytest.mark.parametrize("holder", [False, True], ids=["rebuilt-key", "key-holder"])
def test_encrypt_all_matches_the_encrypt_loop(client_keys, holder):
    pk, sk = client_keys
    key = pk if holder else PublicKey(pk.n)
    values = _boundary_values(pk)
    batch_rng, serial_rng = insecure_rng(12), insecure_rng(12)
    batch = key.encrypt_all(values, batch_rng)
    serial = [key.encrypt(m, serial_rng) for m in values]
    assert [c.value for c in batch] == [c.value for c in serial]
    assert batch_rng.random() == serial_rng.random()
    assert all(c.public_key is key for c in batch)
    assert [sk.decrypt(c) for c in batch] == values


@pytest.mark.parametrize("size", [0, 1, 2, 5])
@pytest.mark.parametrize("holder", [False, True], ids=["rebuilt-key", "key-holder"])
def test_batches_draw_as_the_serial_loops(client_keys, monkeypatch, holder, size):
    pk, sk = client_keys
    key = pk if holder else PublicKey(pk.n)
    plain = _boundary_values(pk)[:size]
    values = [key.encrypt(m, insecure_rng(i)) for i, m in enumerate(plain)]
    worker = _CountingWorker()
    monkeypatch.setattr(numutil, "_POWERS", worker)
    cases = ((lambda rng: key.encrypt_all(plain, rng),
              lambda rng: [key.encrypt(m, rng) for m in plain]),
             (lambda rng: key.blind_all(values, rng),
              lambda rng: _serial_blinds(key, values, rng)))
    for batch, serial in cases:
        batch_rng, serial_rng = insecure_rng(16), insecure_rng(16)
        assert [c.value for c in batch(batch_rng)] == [c.value for c in serial(serial_rng)]
        assert batch_rng.random() == serial_rng.random()
    # A key holder's worker takes the q**2 half of every factor. Under a
    # rebuilt key it takes the last half of the encryptions' bases, and all
    # of the blinds' bases while this thread scales.
    if holder:
        assert worker.batches == [[(sk.q, sk.q * sk.q)] * size] * 2
    else:
        assert worker.batches == [[(pk.n, pk.n_squared)] * ((size + 1) // 2),
                                  [(pk.n, pk.n_squared)] * size]


def test_encrypt_all_refuses_a_message_out_of_range_first(client_keys, monkeypatch):
    pk, _ = client_keys
    worker = _CountingWorker()
    monkeypatch.setattr(numutil, "_POWERS", worker)
    rng = insecure_rng(13)
    with pytest.raises(ParameterError):
        pk.encrypt_all([1, pk.max_signed + 1], rng)
    assert worker.batches == []
    assert rng.random() == insecure_rng(13).random()


def test_decrypt_all_matches_decrypt(client_keys, rng):
    pk, sk = client_keys
    rebuilt = PublicKey(pk.n)
    values = _boundary_values(pk)
    cts = [key.encrypt(m, rng) for m in values for key in (pk, rebuilt)]
    assert sk.decrypt_all(cts) == [sk.decrypt(c) for c in cts] == \
        [m for m in values for _ in (pk, rebuilt)]
    assert sk.decrypt_all([]) == []


def test_decrypt_all_refuses_a_foreign_ciphertext_first(client_keys, server_keys, rng,
                                                        monkeypatch):
    pk, sk = client_keys
    worker = _CountingWorker()
    monkeypatch.setattr(numutil, "_POWERS", worker)
    with pytest.raises(KeyMismatchError):
        sk.decrypt_all([pk.encrypt(1, rng), server_keys[0].encrypt(1, rng)])
    assert worker.batches == []


@pytest.mark.parametrize("bad", ["p", "q", "zero"])
def test_decrypt_all_fails_as_decrypt_on_a_non_unit(client_keys, rng, bad):
    pk, sk = client_keys
    value = {"p": sk.p * 7, "q": sk.q * sk.q, "zero": 0}[bad]
    cts = [pk.encrypt(m, rng) for m in PLAIN]
    broken = cts[:2] + [Ciphertext(value, pk)] + cts[2:]
    with pytest.raises(DecryptionError) as serial:
        [sk.decrypt(c) for c in broken]
    with pytest.raises(DecryptionError) as batch:
        sk.decrypt_all(broken)
    assert str(batch.value) == str(serial.value)
    # The worker's reply to the failed batch was read: the next one is in step.
    assert sk.decrypt_all(cts) == PLAIN


@pytest.mark.parametrize("worker", [
    "import sys; sys.stdin.buffer.read(4)",
    _BAD_WORKER.replace("REPLY", '" ".join(words[:-1]) + "\\n"'),
    _BAD_WORKER.replace("REPLY", '" ".join(words)[:-1]'),
], ids=["dies", "too-few-words", "cut-short-without-newline"])
@pytest.mark.parametrize("batch", ["encrypt_all", "decrypt_all"])
def test_owner_batch_with_a_failing_worker_raises_worker_error(client_keys, rng, monkeypatch,
                                                               batch, worker):
    pk, sk = client_keys
    cts = [pk.encrypt(m, rng) for m in PLAIN]

    def run_batch():
        if batch == "encrypt_all":
            return [c.value for c in pk.encrypt_all(PLAIN, insecure_rng(14))]
        return sk.decrypt_all(cts)

    numutil._POWERS.close()
    monkeypatch.setattr(numutil, "_WORKER_SRC", worker)
    raised = []

    def run():
        try:
            run_batch()
        except Exception as exc:
            raised.append(exc)

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive()
    assert [type(exc) for exc in raised] == [WorkerError]
    assert numutil._POWERS._proc is None
    monkeypatch.undo()
    serial_rng = insecure_rng(14)
    serial = ([pk.encrypt(m, serial_rng).value for m in PLAIN] if batch == "encrypt_all"
              else [sk.decrypt(c) for c in cts])
    assert run_batch() == serial


def test_bit_owner_makes_one_worker_batch_per_step(client_keys, rng, monkeypatch):
    pk, sk = client_keys
    worker = _CountingWorker()
    monkeypatch.setattr(numutil, "_POWERS", worker)
    request = comparison.bit_owner_request(pk, 0b1011, 6, insecure_rng(15))
    assert worker.batches == [[(sk.q, sk.q * sk.q)] * 6]
    serial_rng = insecure_rng(15)
    assert [c.value for c in request.encrypted_bits] == \
        [pk.encrypt(bit, serial_rng).value for bit in (1, 1, 0, 1, 0, 0)]
    rebuilt = PublicKey(pk.n)
    response = comparison.evaluator_respond(rebuilt, request, 0b1011, 0, rng)
    worker.batches.clear()
    assert comparison.bit_owner_finish(sk, response) == 1
    assert worker.batches == [[(sk.q - 1, sk.q * sk.q)] * 7]


def test_blind_leaves_no_process_or_warning_at_exit(checkout_env):
    # Registered before pinfer is imported, so it runs after pinfer's own
    # exit handler: by then the worker must be reaped.
    code = """
import atexit, os
def reaped():
    from pinfer import numutil
    assert numutil._POWERS._proc is None
    try:
        os.waitpid(PID, os.WNOHANG)
    except ChildProcessError:
        return
    raise AssertionError("the worker was not reaped")
atexit.register(reaped)
from pinfer.numutil import insecure_rng
from pinfer.paillier import PublicKey, keygen
rng = insecure_rng(5)
pk, sk = keygen(256, rng)
key = PublicKey(pk.n)
blinded = key.blind_all([key.encrypt(0, rng), key.encrypt(4, rng)], rng)
assert [sk.decrypt(c) == 0 for c in blinded] == [True, False]
from pinfer import numutil
PID = numutil._POWERS._proc.pid
"""
    result = subprocess.run([sys.executable, "-W", "error", "-c", code], env=checkout_env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0 and result.stderr == "", result.stderr


def test_rebuilt_public_keys_hold_no_secret(client_keys):
    pk, sk = client_keys
    assert pk._secret is sk
    for rebuilt in (PublicKey(pk.n),
                    deserialize_public_key(serialize_public_key(pk))):
        assert rebuilt._secret is None
        assert rebuilt == pk
        assert serialize_public_key(rebuilt) == serialize_public_key(pk)
        assert repr(rebuilt) == repr(pk)


def test_secret_key_requires_primes():
    with pytest.raises(ParameterError):
        SecretKey(15, 17)


def _sieve(limit):
    """Primes below limit; independent of pinfer.numutil."""
    primes, composite = [], set()
    for n in range(2, limit):
        if n not in composite:
            primes.append(n)
            composite.update(range(n * n, limit, n))
    return primes


@pytest.mark.parametrize("bits", [64, 65, 127, 128, 257, 512])
def test_keygen_exact_size_with_top_two_bits(bits):
    for seed in range(20):
        pk, sk = keygen(bits, insecure_rng(seed))
        assert pk.bit_length == bits
        for prime, size in ((sk.p, bits // 2), (sk.q, bits - bits // 2)):
            assert prime >> (size - 2) == 0b11


def _serial_keygen(bits, rng):
    """The primes of a one-at-a-time search, written out: draw until a
    candidate has no odd factor below 2**SIEVE_BITS and passes base 2, for
    p then q, until the pair makes a key."""
    odd_primes = _sieve(1 << SIEVE_BITS)[1:]

    def candidate(size):
        while True:
            c = rng.getrandbits(size) | (3 << (size - 2)) | 1
            if all(c % f for f in odd_primes) and pow(2, c - 1, c) == 1:
                return c

    def prime(n):  # Miller-Rabin on the first 20 odd primes as bases
        d, s = n - 1, 0
        while d % 2 == 0:
            d, s = d // 2, s + 1
        for a in odd_primes[:20]:
            x = pow(a, d, n)
            if x in (1, n - 1):
                continue
            for _ in range(s - 1):
                x = x * x % n
                if x == n - 1:
                    break
            else:
                return False
        return True

    while True:
        p, q = candidate(bits // 2), candidate(bits - bits // 2)
        if p != q and prime(p) and prime(q) and math.gcd(p * q, (p - 1) * (q - 1)) == 1:
            return p, q


@pytest.mark.parametrize("bits", [64, 65, 128, 257, 512])
def test_keygen_matches_a_serial_search(bits):
    # The candidates are tested in batches across the worker, and the rng
    # is rewound to just after the winner: same primes, same state after.
    for seed in range(20):
        rng, serial_rng = insecure_rng(seed), insecure_rng(seed)
        _, sk = keygen(bits, rng)
        assert (sk.p, sk.q) == _serial_keygen(bits, serial_rng)
        assert rng.random() == serial_rng.random()


@pytest.mark.parametrize("bits", [64, 65, 512])
def test_keygen_from_system_random_has_the_exact_size(bits):
    for rng in (None, random.SystemRandom()):
        pk, sk = keygen(bits, rng)
        assert pk.bit_length == bits and sk.p * sk.q == pk.n
        assert sk.decrypt(pk.encrypt(-3)) == -3


def test_worker_that_dies_during_keygen_raises_worker_error(monkeypatch):
    _, expected = keygen(512, insecure_rng(17))
    numutil._POWERS.close()
    monkeypatch.setattr(numutil, "_WORKER_SRC", "import sys; sys.stdin.buffer.read(4)")
    with pytest.raises(WorkerError):
        keygen(512, insecure_rng(17))
    assert numutil._POWERS._proc is None
    with pytest.raises(WorkerError):
        SecretKey(expected.p, expected.q)
    assert numutil._POWERS._proc is None
    monkeypatch.undo()
    _, sk = keygen(512, insecure_rng(17))
    assert (sk.p, sk.q) == (expected.p, expected.q)


def test_keygen_tests_each_returned_prime_once(monkeypatch):
    tested = []
    original = paillier.is_probable_prime

    def counting_is_probable_prime(n):
        tested.append(n)
        return original(n)

    monkeypatch.setattr(paillier, "is_probable_prime", counting_is_probable_prime)
    pk, sk = keygen(512, insecure_rng(512))
    assert sorted(tested) == sorted((sk.p, sk.q))


def test_prime_candidate_has_no_small_factor():
    odd_primes = _sieve(1 << SIEVE_BITS)[1:]
    rng = insecure_rng(7)
    for bits in (13, 16, 24, 64, 256):
        for _ in range(50):
            c = prime_candidate(bits, rng)
            assert c.bit_length() == bits and c >> (bits - 2) == 0b11
            assert all(c % p for p in odd_primes)


def test_secret_key_rejects_base_2_pseudoprimes():
    # Each passes the base-2 Fermat test of prime_candidate: 341 = 11 * 31,
    # the Carmichael number 561 = 3 * 11 * 17, and the Carmichael number
    # 4261 * 8521 * 12781, which also has no prime factor below 2**12, so
    # only Miller-Rabin can refuse it.
    for pseudoprime in (341, 561, 4261 * 8521 * 12781):
        assert pow(2, pseudoprime - 1, pseudoprime) == 1
        with pytest.raises(ParameterError):
            SecretKey(pseudoprime, 65537)


def test_is_probable_prime_matches_sieve():
    limit = 1 << (SIEVE_BITS + 1)
    assert [n for n in range(-2, limit) if is_probable_prime(n)] == _sieve(limit)


def test_pure_python_fallback(checkout_env):
    # Same behavior without gmpy2; isolated in a subprocess so the reload
    # cannot leak into other tests.
    code = """
import sys
sys.modules["gmpy2"] = None  # forces the ImportError branch
import pinfer.numutil as nu
assert not nu.HAVE_GMPY2
from pinfer.numutil import insecure_rng
from pinfer.paillier import keygen
rng = insecure_rng(99)
pk, sk = keygen(256, rng)
for m in (0, 5, -7, pk.max_signed, pk.min_signed):
    assert sk.decrypt(pk.encrypt(m, rng)) == m
c = pk.encrypt(3, rng) + pk.encrypt(4, rng)
assert sk.decrypt(-2 * c) == -14
assert sk.decrypt(pk.rerandomize(c, rng)) == 7
assert sk.decrypt(5 * pk.encrypt(-2, rng) - pk.encrypt(1, rng)) == -11
"""
    result = subprocess.run([sys.executable, "-c", code], env=checkout_env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
