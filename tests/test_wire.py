import pytest

from pinfer.cli import KEY_BIT_CHOICES
from pinfer.errors import MessageFormatError, ParameterError
from pinfer.paillier import PublicKey
from pinfer.wire import (Frame, Transcript, ciphertext_width,
                         deserialize_ciphertext, deserialize_public_key,
                         deserialize_scalar, frame, message_plan, plan_bits,
                         scalar_width, serialize_ciphertext, serialize_public_key,
                         serialize_scalar, unframe, unpack_u32, MAX_KEY_BYTES,
                         PROTOCOL_IDS)

SESSION = bytes(range(16))


def test_ciphertext_width_at_2048_bits():
    pk = PublicKey((1 << 2047) | 1)  # bit length 2048; primality irrelevant here
    assert ciphertext_width(pk) == 512


def test_ciphertext_round_trip(client_keys, rng):
    pk, _ = client_keys
    for _ in range(100):
        ct = pk.encrypt(rng.randrange(-1000, 1000), rng)
        data = serialize_ciphertext(ct, pk)
        assert len(data) == ciphertext_width(pk)
        assert deserialize_ciphertext(data, pk) == ct


def test_ciphertext_width_and_range_errors(client_keys):
    pk, _ = client_keys
    with pytest.raises(MessageFormatError):
        deserialize_ciphertext(bytes(ciphertext_width(pk) - 1), pk)
    too_big = (pk.n_squared).to_bytes(ciphertext_width(pk), "big")
    with pytest.raises(MessageFormatError):
        deserialize_ciphertext(too_big, pk)


def test_ciphertext_non_units_rejected(client_keys):
    pk, sk = client_keys
    width = ciphertext_width(pk)
    for value in (0, sk.p, sk.q, 5 * sk.q, pk.n, pk.n_squared - sk.p):
        with pytest.raises(MessageFormatError):
            deserialize_ciphertext(value.to_bytes(width, "big"), pk)
    for value in (1, pk.n + 1, pk.n_squared - 1):
        assert deserialize_ciphertext(value.to_bytes(width, "big"), pk).value == value


def test_scalar_and_key_round_trip(client_keys):
    pk, _ = client_keys
    assert deserialize_scalar(serialize_scalar(12345, pk), pk) == 12345
    with pytest.raises(ParameterError):
        serialize_scalar(pk.n, pk)
    assert deserialize_public_key(serialize_public_key(pk)) == pk


def test_field_refusals_name_the_fault(client_keys):
    pk, _ = client_keys
    width = scalar_width(pk)
    with pytest.raises(MessageFormatError, match=f"scalar must be {width} bytes, got {width - 1}"):
        deserialize_scalar(bytes(width - 1), pk)
    with pytest.raises(MessageFormatError, match="scalar outside the message space"):
        deserialize_scalar(pk.n.to_bytes(width, "big"), pk)
    for n in (pk.n + 1, 2, 1):
        with pytest.raises(MessageFormatError, match="modulus must be odd and greater than 2"):
            deserialize_public_key(n.to_bytes(width, "big"))
    assert unpack_u32(bytes([0, 0, 1, 2])) == 258
    with pytest.raises(MessageFormatError, match="u32 field must be 4 bytes"):
        unpack_u32(bytes(5))


def test_public_key_field_is_bounded_by_the_largest_key_size():
    assert MAX_KEY_BYTES * 8 == max(KEY_BIT_CHOICES)
    largest = PublicKey((1 << (8 * MAX_KEY_BYTES - 1)) | 1)
    assert deserialize_public_key(serialize_public_key(largest)) == largest
    with pytest.raises(MessageFormatError, match="384-byte limit"):
        deserialize_public_key(b"\x01" + serialize_public_key(largest))


def test_frame_round_trips():
    for parts in ((), (b"",), (b"a", b"bb", b"ccc")):
        data = frame(1, 3, SESSION, parts)
        parsed = unframe(data)
        assert parsed == Frame(1, 3, SESSION, tuple(parts))


def test_frame_rejects_corruption():
    data = bytearray(frame(1, 3, SESSION, (b"abc", b"d")))
    with pytest.raises(MessageFormatError):
        unframe(bytes(data[:-1]))  # truncated
    with pytest.raises(MessageFormatError):
        unframe(bytes(data) + b"\x00")  # trailing junk
    bad_len = bytearray(data)
    bad_len[3 + 16 + 4 + 3] = 0xFF  # corrupt first part's length prefix
    with pytest.raises(MessageFormatError):
        unframe(bytes(bad_len))
    bad_proto = bytearray(data)
    bad_proto[1] = 0xEE
    with pytest.raises(MessageFormatError):
        unframe(bytes(bad_proto))
    bad_version = bytearray(data)
    bad_version[0] = 9
    with pytest.raises(MessageFormatError):
        unframe(bytes(bad_version))


def test_frame_of_version_2_is_refused():
    # Version 2 began each layer frame with its layer index; no reader of it is kept.
    data = bytearray(frame(1, 6, SESSION, (b"\x00\x00\x00\x00", b"abc")))
    assert data[0] == 3
    data[0] = 2
    with pytest.raises(MessageFormatError, match="^unsupported frame version 2$"):
        unframe(bytes(data))


def test_frame_refuses_an_unknown_protocol_or_a_short_session_id():
    with pytest.raises(ParameterError, match="unknown protocol id 0"):
        frame(0, 3, SESSION, ())
    with pytest.raises(ParameterError, match="session id must be 16 bytes"):
        frame(1, 3, SESSION[:-1], ())


def test_ciphertext_of_another_key_is_not_serialized(client_keys, server_keys):
    ct = client_keys[0].encrypt(1)
    with pytest.raises(ParameterError, match="does not belong to the given key"):
        serialize_ciphertext(ct, server_keys[0])


def test_short_frames_are_refused_by_message():
    data = frame(1, 3, SESSION, (b"abc",))
    header = 3 + len(SESSION) + 4
    with pytest.raises(MessageFormatError, match="frame too short"):
        unframe(data[:header - 1])
    # The part count promises one part, but its length field is cut short.
    with pytest.raises(MessageFormatError, match="truncated frame: missing part length"):
        unframe(data[:header + 3])


def test_frame_fuzz_round_trip(rng):
    ids = list(PROTOCOL_IDS.values())
    for _ in range(10_000):
        protocol_id = rng.choice(ids)
        step = rng.randrange(256)
        session = rng.randbytes(16)
        parts = tuple(rng.randbytes(rng.randrange(0, 40))
                      for _ in range(rng.randrange(0, 6)))
        assert unframe(frame(protocol_id, step, session, parts)) == \
            Frame(protocol_id, step, session, parts)


def test_transcript_stats_and_round_trips():
    t = Transcript()
    assert t.stats() == {"bytes_up": 0, "bytes_down": 0, "round_trips": 0}
    t.record("up", 3, 100, 2)
    t.record("down", 4, 50, 1)
    t.record("down", 4, 25, 0)
    t.record("up", 3, 10, 1)
    t.record("down", 4, 5, 1)
    assert t.stats() == {"bytes_up": 110, "bytes_down": 80, "round_trips": 2}
    assert t.ciphertexts("up") == 3 and t.ciphertexts("down") == 2
    with pytest.raises(ParameterError):
        t.record("sideways", 0, 0)


def test_message_plan_counts():
    rows = {r.label: r for r in message_plan("regr-core", d=30)}
    assert rows["request"].ciphertexts == 30 and rows["request"].direction == "up"
    assert rows["response"].ciphertexts == 1
    rows = {r.label: r for r in message_plan("svm-core", d=30, ell=111)}
    assert rows["publish"].ciphertexts == 31
    assert rows["request"].ciphertexts == 112
    assert rows["response"].ciphertexts == 112
    rows = {r.label: r for r in message_plan("ffnn-generic", layers=3, units=30)}
    assert rows["inner products"].ciphertexts == 90
    rows = {r.label: r for r in message_plan("ffnn-relu", ell=111, layers=3, units=30)}
    assert rows["unit challenges"].ciphertexts == 3 * 30 * 112
    assert rows["unit responses"].ciphertexts == 3 * 30 * 115
    with pytest.raises(ParameterError):
        message_plan("nope")


@pytest.mark.parametrize("protocol,shape", [
    ("svm-core", {"d": 30}), ("ffnn-sign", {"layers": 1, "units": 2}),
    ("ffnn-relu", {"layers": 1, "units": 2}),
    ("regr-core", {"d": None}), ("svm-heur", {"d": None}), ("regr-dual", {"d": None}),
    ("svm-core", {"d": None, "ell": 10}), ("ffnn-generic", {"layers": None, "units": 2}),
    ("ffnn-sign", {"layers": 1, "units": None, "ell": 10}),
    ("ffnn-relu-heur", {"layers": None, "units": 2})])
def test_message_plan_refuses_a_missing_ell(protocol, shape):
    # A shape names the size it lacks as None; the first three lack ell.
    missing = next((name for name, value in shape.items() if value is None), "ell")
    with pytest.raises(ParameterError, match=f"^{protocol} needs {missing}$"):
        message_plan(protocol, **shape)
    # The heuristic units carry no mask bits, so they need none.
    if missing == "ell" and protocol.startswith("ffnn"):
        assert message_plan(protocol + "-heur", **shape)


def test_plan_bits_reproduce_published_sizes():
    ell_m = 2048
    kib = 1024 * 8  # bits per KiB
    bits = plan_bits("regr-core", ell_m, d=30)
    assert abs(bits["up"] / kib - 15) / 15 < 0.1
    assert bits["down"] / kib < 1
    bits = plan_bits("svm-core", ell_m, d=30, ell=111)
    assert abs(bits["up"] / kib - 56) / 56 < 0.1
    assert abs(bits["down"] / kib - 56) / 56 < 0.1
    assert abs(bits["publish"] / kib - 16) / 16 < 0.1
    bits = plan_bits("ffnn-generic", ell_m, layers=3, units=30)
    assert abs(bits["down"] / (3 * kib) - 15) / 15 < 0.1  # 15 per layer per direction
    assert abs(bits["up"] / (3 * kib) - 15) / 15 < 0.1
    bits = plan_bits("ffnn-sign", ell_m, ell=111, layers=3, units=30)
    assert abs(bits["down"] / kib - 5040) / 5040 < 0.1
    assert abs(bits["up"] / kib - 5085) / 5085 < 0.1
    bits = plan_bits("ffnn-relu", ell_m, ell=111, layers=3, units=30)
    assert abs(bits["down"] / kib - 5040) / 5040 < 0.1
    assert abs(bits["up"] / kib - 5175) / 5175 < 0.1
    bits = plan_bits("ffnn-relu-heur", ell_m, layers=3, units=30)
    assert abs(bits["up"] / kib - 135) / 135 < 0.1
