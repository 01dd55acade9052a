import collections
import math
import os
import random
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from pinfer import comparison, keygen, network, numutil, paillier, runner, wire
from pinfer.errors import (DecryptionError, KeyMismatchError, MessageFormatError,
                           ParameterError)
from pinfer.linear import FeatureVector
from pinfer.modelfile import LoadedModel
from pinfer.numutil import (SIEVE_BITS, insecure_rng, is_probable_prime, prime_candidate,
                            random_unit)
from pinfer.paillier import Ciphertext, PublicKey, SecretKey
from pinfer.wire import deserialize_public_key, serialize_ciphertext, serialize_public_key


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


def test_public_key_draws_a_unit_factor():
    # A factor sharing a prime with N makes a ciphertext no key holder can
    # decrypt; at N = 11 * 13 a plain draw from [1, N) hits one in 22 of 142.
    pk, sk = PublicKey(11 * 13), SecretKey(11, 13)
    rng = insecure_rng(0xD4A)
    for _ in range(200):
        assert sk.decrypt(pk.encrypt(1, rng)) == 1


def test_add_plain(client_keys, rng):
    pk, sk = client_keys
    c = pk.encrypt(10, rng)
    assert sk.decrypt(c.add_plain(-3)) == 7


def test_key_mismatch_fails_fast(client_keys, server_keys, rng):
    # The server's key, and a modulus two above the client's.
    (pk, sk), (pk_s, _) = client_keys, server_keys
    mine = pk.encrypt(1, rng)
    for other in (pk_s, PublicKey(pk.n + 2)):
        theirs = other.encrypt(2, rng)
        for combine in (lambda: mine + theirs, lambda: theirs + mine,
                        lambda: mine - theirs, lambda: theirs - mine,
                        lambda: sk.decrypt(theirs), lambda: sk.decrypt_all([mine, theirs]),
                        lambda: pk.rerandomize(theirs, rng),
                        lambda: other.rerandomize(mine, rng)):
            with pytest.raises(KeyMismatchError):
                combine()
        for c, key in ((theirs, pk), (mine, other)):
            with pytest.raises(ParameterError, match="does not belong to the given key"):
                serialize_ciphertext(c, key)


def test_keys_of_different_moduli_read_differently(client_keys, server_keys):
    (pk_c, sk_c), (pk_s, _) = client_keys, server_keys
    assert repr(pk_c) != repr(pk_s)
    assert repr(pk_c) == f"<PublicKey 512 bits n=...{pk_c.n % 2**32:08x}>"
    assert repr(sk_c) == f"<SecretKey for {pk_c!r}>"


def test_decryption_failure_on_non_unit(client_keys):
    pk, sk = client_keys
    with pytest.raises(DecryptionError):
        sk.decrypt(Ciphertext(sk.p, pk))  # shares the factor p with N


def test_every_unit_decrypts_at_a_toy_key():
    # Every unit c mod N**2 decrypts, c**(p-1) being 1 mod p by Fermat, and
    # decryption maps the N * phi(N) units onto the N residues, phi(N) each.
    sk = SecretKey(11, 13)
    pk = sk.public_key
    phi = 10 * 12
    units = [Ciphertext(c, pk) for c in range(pk.n_squared) if math.gcd(c, pk.n) == 1]
    assert len(units) == pk.n * phi
    plaintexts = [sk.decrypt(c) for c in units]
    assert sk.decrypt_all(units) == plaintexts
    assert collections.Counter(m % pk.n for m in plaintexts) == {m: phi for m in range(pk.n)}


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
        for c in (c1, c2):
            assert serialize_ciphertext(c, pk) == serialize_ciphertext(c, rebuilt)


def test_key_holder_fresh_factor_encrypts_zero(client_keys, rng):
    pk, sk = client_keys
    for _ in range(20):
        factor = pk._fresh_factor(rng)
        assert 0 < factor < pk.n_squared
        assert sk.decrypt(Ciphertext(factor, pk)) == 0


def test_key_holder_never_exponentiates_mod_n_squared(client_keys, rng, monkeypatch):
    pk, sk = client_keys
    here = []
    original = paillier.powmod

    def counting_powmod(base, exp, mod):
        here.append(mod)
        return original(base, exp, mod)

    # Every power is either computed in paillier or an item of a batch,
    # which the stand-in for ``powers_while`` records.
    monkeypatch.setattr(paillier, "powmod", counting_powmod)
    batches = _count_batches(monkeypatch)

    def moduli():
        return here + [modulus for batch in batches for _, modulus in batch]

    c = pk.encrypt(-42, rng)
    c = pk.rerandomize(c, rng)
    assert sk.decrypt(c) == -42
    assert moduli() and pk.n_squared not in moduli()

    here.clear()
    batches.clear()
    rebuilt = PublicKey(pk.n)
    rebuilt.encrypt(-42, rng)
    assert moduli() == [pk.n_squared]


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
        # r * None raises in the work beside the batch's powers.
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
    # More threads than cores, each batch with its own helper: blinds under
    # a rebuilt key, the key holder's encryptions and decryptions, and key
    # generation. A power stored in another batch would change the values.
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


def _mixed_items(client_keys, server_keys, count):
    """``count`` items with distinct bases over two moduli, alternating, with
    short and full-width exponents."""
    rng = insecure_rng(30)
    keys = (client_keys[0], server_keys[0])
    return [(rng.randrange(2, key.n_squared), key.n if i % 3 else rng.getrandbits(20),
             key.n_squared) for i, key in ((i, keys[i % 2]) for i in range(count))]


def _slow_work(client_keys, count=20):
    """Caller work that takes a while: ``count`` full-width powers."""
    n, n_sq = client_keys[0].n, client_keys[0].n_squared
    return lambda: sum(pow(3 + i, n, n_sq) for i in range(count)) % 1000


@pytest.mark.parametrize("with_work", [False, True], ids=["items", "items-and-work"])
@pytest.mark.parametrize("count", [0, 1, 2, 41])
def test_powers_while_computes_each_item_once_in_order(client_keys, server_keys, monkeypatch,
                                                       count, with_work):
    items = _mixed_items(client_keys, server_keys, count)
    work = _slow_work(client_keys, 300) if with_work else None
    # Which thread computes each item, and which threads the batch starts.
    computed, started, original = [], [], numutil.powmod

    class Thread(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(numutil, "powmod",
                        lambda *item: computed.append((threading.current_thread(), item))
                        or original(*item))
    monkeypatch.setattr(threading, "Thread", Thread)
    threads = threading.active_count()
    result, powers = numutil.powers_while(items, work)
    assert threading.active_count() == threads
    here = [item for thread, item in computed if thread is threading.current_thread()]
    there = [item for thread, item in computed if thread is not threading.current_thread()]
    assert powers == [pow(b, e, m) for b, e, m in items]
    assert result == (work() if with_work else None)
    # The helper took a prefix from the front, this thread the rest from the back.
    assert there == items[:len(there)] and here == items[len(there):][::-1]
    # One item without work, or work alone, starts no helper.
    assert len(started) == (count + with_work >= 2)
    assert {thread for thread, _ in computed} <= {threading.current_thread(), *started}
    if count and with_work:
        assert there


def test_powers_while_stays_in_step_after_work_raises(client_keys, server_keys):
    items = _mixed_items(client_keys, server_keys, 41)
    slow = _slow_work(client_keys)

    def failing():
        slow()
        raise ArithmeticError("work failed")

    threads = threading.active_count()
    for work in (failing, lambda: 1 / 0):
        with pytest.raises(ArithmeticError):
            numutil.powers_while(items, work)
        assert threading.active_count() == threads
        assert numutil.powers_while(items, slow) == (slow(), [pow(*item) for item in items])


def test_a_power_that_fails_on_the_helper_raises_in_the_caller(client_keys, server_keys,
                                                              monkeypatch):
    # A batch that ignored the helper's failure would return a slot the
    # helper never filled.
    items = _mixed_items(client_keys, server_keys, 41)
    caller, original = threading.current_thread(), numutil.powmod

    def failing_on_the_helper(*item):
        if threading.current_thread() is not caller:
            raise ArithmeticError("power failed on the helper")
        return original(*item)

    monkeypatch.setattr(numutil, "powmod", failing_on_the_helper)
    threads = threading.active_count()
    with pytest.raises(ArithmeticError, match="on the helper"):
        numutil.powers_while(items, _slow_work(client_keys, 300))
    assert threading.active_count() == threads
    monkeypatch.undo()
    assert numutil.powers_while(items) == (None, [pow(*item) for item in items])


def _boundary_values(pk):
    return PLAIN + [pk.max_signed, pk.min_signed]


def _count_batches(monkeypatch):
    """Replace ``numutil.powers_while`` with a stand-in that computes each
    batch on this thread and keeps the exponent and modulus of each of its
    items; returns the list of batches it keeps."""
    batches = []

    def powers_while(items, work=None):
        batches.append([(exponent, modulus) for _, exponent, modulus in items])
        return work() if work else None, [pow(b, e, m) for b, e, m in items]

    monkeypatch.setattr(numutil, "powers_while", powers_while)
    return batches


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


def test_encrypt_batch_matches_a_serial_loop_under_mixed_keys(client_keys, monkeypatch):
    # The key holder's key draws a CRT pair per factor, the rebuilt key one
    # unit mod N; the batch draws each in its turn, as the loop does.
    pk, sk = client_keys
    rebuilt = PublicKey(pk.n)
    plain = [(pk, 5), (rebuilt, 0), (rebuilt, pk.n - 1), (pk, 1), (rebuilt, 1), (pk, 0)]
    batch_rng, serial_rng = insecure_rng(21), insecure_rng(21)
    made = _count_batches(monkeypatch)
    work, cts = paillier.encrypt_batch(plain, batch_rng, lambda: "work")
    assert work == "work" and len(made) == 1
    serial = [key.encrypt_unsigned(m, serial_rng) for key, m in plain]
    assert [c.value for c in cts] == [c.value for c in serial]
    assert batch_rng.getstate() == serial_rng.getstate()
    assert all(c.public_key is key for c, (key, _) in zip(cts, plain))
    assert [sk.decrypt_unsigned(c) for c in cts] == [m for _, m in plain]
    assert paillier.encrypt_batch([], batch_rng) == (None, [])


def test_activated_output_refreshes_each_value(client_keys, server_keys, monkeypatch):
    # The output frame carries each value of the last unit round plus Enc(0):
    # the same plaintext under a fresh factor.
    produced, finish = [], network.unit_finish
    monkeypatch.setattr(network, "unit_finish",
                        lambda *args: produced.append(finish(*args)) or produced[-1])
    spec = network.NetworkSpec.from_integer(
        [([(0, 1, 1), (-1, 1, -1)], "relu"), ([(0, 1, -2), (1, -1, 1)], "relu")],
        output_mode="activated")
    served = runner.prepare_served("ffnn-relu", LoadedModel("ffnn", spec, 40), server_keys,
                                   40, insecure_rng(3))
    channel, _ = runner.serve_loopback(served)
    frames, recv = [], channel.recv
    channel.recv = lambda: frames.append(recv()) or frames[-1]
    try:
        runner.run_inference(channel, "ffnn-relu", FeatureVector((1, 1, -1), 0), client_keys,
                             kappa=40, rng=insecure_rng(4))
    finally:
        channel.close()
    output = wire.unframe(frames[-1])
    assert output.step_id == wire.STEP_OUTPUT
    pk, sk = client_keys
    cts = [wire.deserialize_ciphertext(part, pk) for part in output.parts]
    values = produced[-len(cts):]
    assert len(cts) == 2 and len(produced) == 4
    assert [sk.decrypt(c) for c in cts] == [sk.decrypt(v) for v in values] == [0, 2]
    assert all(c.value != v.value for c, v in zip(cts, values))


@pytest.mark.parametrize("size", [0, 1, 2, 5])
@pytest.mark.parametrize("holder", [False, True], ids=["rebuilt-key", "key-holder"])
def test_batches_draw_as_the_serial_loops(client_keys, monkeypatch, holder, size):
    pk, sk = client_keys
    key = pk if holder else PublicKey(pk.n)
    plain = _boundary_values(pk)[:size]
    values = [key.encrypt(m, insecure_rng(i)) for i, m in enumerate(plain)]
    made = _count_batches(monkeypatch)
    cases = ((lambda rng: key.encrypt_all(plain, rng),
              lambda rng: [key.encrypt(m, rng) for m in plain]),
             (lambda rng: key.blind_all(values, rng),
              lambda rng: _serial_blinds(key, values, rng)))
    batches = []
    for batch, serial in cases:
        batch_rng, serial_rng = insecure_rng(16), insecure_rng(16)
        made.clear()
        got = [c.value for c in batch(batch_rng)]
        batches += made
        assert got == [c.value for c in serial(serial_rng)]
        assert batch_rng.random() == serial_rng.random()
    # Each is one batch of every factor's items: both half-size powers of a
    # key holder's factor, or s**N under a rebuilt key.
    items = [(sk.p, sk.p * sk.p), (sk.q, sk.q * sk.q)] if holder else [(pk.n, pk.n_squared)]
    assert batches == [items * size] * 2


def test_encrypt_all_refuses_a_message_out_of_range_first(client_keys, monkeypatch):
    pk, _ = client_keys
    batches = _count_batches(monkeypatch)
    rng = insecure_rng(13)
    with pytest.raises(ParameterError):
        pk.encrypt_all([1, pk.max_signed + 1], rng)
    assert batches == []
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
    cts = [pk.encrypt(1, rng), server_keys[0].encrypt(1, rng)]
    batches = _count_batches(monkeypatch)
    with pytest.raises(KeyMismatchError):
        sk.decrypt_all(cts)
    assert batches == []


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
    assert sk.decrypt_all(cts) == PLAIN


def test_bit_owner_makes_one_batch_per_step(client_keys, rng, monkeypatch):
    pk, sk = client_keys
    batches = _count_batches(monkeypatch)
    request = comparison.bit_owner_request(pk, 0b1011, 6, insecure_rng(15))
    assert batches == [[(sk.p, sk.p * sk.p), (sk.q, sk.q * sk.q)] * 6]
    serial_rng = insecure_rng(15)
    assert [c.value for c in request] == \
        [pk.encrypt(bit, serial_rng).value for bit in (1, 1, 0, 1, 0, 0)]
    rebuilt = PublicKey(pk.n)
    response = comparison.evaluator_respond(rebuilt, request, 0b1011, 0, rng)
    batches.clear()
    assert comparison.bit_owner_finish(sk, response) == 1
    assert batches == [[(sk.p - 1, sk.p * sk.p), (sk.q - 1, sk.q * sk.q)] * 7]


def test_blind_leaves_no_process_or_warning_at_exit(checkout_env):
    code = """
import atexit, os, threading
def alone():
    assert threading.enumerate() == [threading.main_thread()], threading.enumerate()
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    raise AssertionError("a child process is left")
atexit.register(alone)
from pinfer.numutil import insecure_rng
from pinfer.paillier import PublicKey, keygen
rng = insecure_rng(5)
pk, sk = keygen(256, rng)
key = PublicKey(pk.n)
blinded = key.blind_all([key.encrypt(0, rng), key.encrypt(4, rng)], rng)
assert [sk.decrypt(c) == 0 for c in blinded] == [True, False]
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
    # The candidates are tested in batches, and the rng is rewound to just
    # after the winner: same primes, same state after.
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


def test_miller_rabin_bases_come_from_the_system_rng(monkeypatch):
    rng = insecure_rng(1024)
    n = prime_candidate(1024, rng)
    while not is_probable_prime(n):
        n = prime_candidate(1024, rng)
    ranges, draws, batches = [], [], []

    class RecordingSystemRandom(random.SystemRandom):
        def randrange(self, *args):
            ranges.append(args)
            draws.append(super().randrange(*args))
            return draws[-1]

    original = numutil.powers_while

    def recording_powers_while(items, work=None):
        batches.append(items)
        return original(items, work)

    monkeypatch.setattr(numutil, "SYSTEM_RNG", RecordingSystemRandom())
    monkeypatch.setattr(numutil, "powers_while", recording_powers_while)
    assert is_probable_prime(n)
    assert ranges == [(2, n - 1)] * numutil.MR_ROUNDS
    assert all(2 <= a <= n - 2 for a in draws)
    assert [[(a, m) for a, _, m in items] for items in batches] == [[(a, n) for a in draws]]


def test_is_probable_prime_matches_sieve():
    limit = 1 << (SIEVE_BITS + 1)
    assert [n for n in range(-2, limit) if is_probable_prime(n)] == _sieve(limit)


#: Blocks libgmp, which ``numutil`` chooses first when it loads.
_NO_LIBGMP = """
import ctypes
def no_library(*args, **kwargs):
    raise OSError("libgmp is blocked")
ctypes.CDLL = no_library
"""

#: Run before ``pinfer`` is imported: each makes ``numutil`` choose one
#: backend.
_BACKENDS = {"python": _NO_LIBGMP, "libgmp": ""}


def test_pure_python_fallback(checkout_env):
    # Same behavior without libgmp; isolated in a subprocess so the reload
    # cannot leak into other tests.
    code = _BACKENDS["python"] + """
import pinfer.numutil as nu
assert nu.BACKEND == "python" and not nu.HAVE_GMPY2
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


def test_an_importable_gmpy2_is_not_used(checkout_env):
    # A gmpy2 module whose every call fails, present before import, changes
    # neither the choice of backend nor any power or inverse: with libgmp
    # loading as it does here, then with libgmp blocked.
    code = f"""
import importlib, sys, types
sys.modules["gmpy2"] = gmpy2 = types.ModuleType("gmpy2")
gmpy2.powmod = gmpy2.invert = gmpy2.mpz = None
from pinfer import numutil
assert numutil.BACKEND == {numutil.BACKEND!r}
assert numutil.invert(3, 7) == 5 and numutil.powmod(3, 5, 7) == 5
{_NO_LIBGMP}
numutil = importlib.reload(numutil)
assert numutil.BACKEND == "python", numutil.BACKEND
assert numutil.invert(3, 7) == 5 and numutil.powmod(3, 5, 7) == 5
"""
    result = subprocess.run([sys.executable, "-c", code], env=checkout_env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr


@pytest.mark.parametrize("backend", [
    "python", pytest.param("libgmp", marks=pytest.mark.skipif(
        numutil.BACKEND != "libgmp", reason="libgmp does not load"))])
def test_every_backend_reproduces_the_digests(checkout_env, backend):
    code = _BACKENDS[backend] + f"""
from pinfer import keygen, numutil
from pinfer.numutil import insecure_rng
assert numutil.BACKEND == {backend!r}
assert numutil.invert(3, 7) == 5 and numutil.powmod(3, 5, 7) == 5
import test_frame_digests as digests
keys = keygen(512, insecure_rng(1)), keygen(512, insecure_rng(2))
for protocol in ("svm-core", "ffnn-relu"):
    assert digests._query_digest(keys, protocol, False) == digests.DIGESTS[protocol], protocol
"""
    env = dict(checkout_env, PYTHONPATH=os.pathsep.join(
        [str(Path(__file__).resolve().parent), checkout_env["PYTHONPATH"]]))
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr

