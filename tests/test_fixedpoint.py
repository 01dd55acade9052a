import pytest

from pinfer.errors import ParameterError
from pinfer.fixedpoint import decode, encode


def exact_encode(x: float, precision: int) -> int:
    """Independent oracle: floor via the float's exact integer ratio."""
    num, den = float(x).as_integer_ratio()
    return (num << precision) // den  # Python // floors toward -inf


def test_encode_half():
    assert encode(0.5, 3) == 4


def test_encode_minus_one_full_precision():
    assert encode(-1.0, 53) == -(2 ** 53)


def test_encode_point_three():
    # 0.3 is not a dyadic rational; floor(0.3 * 1024) computed exactly.
    assert exact_encode(0.3, 10) == 307
    assert encode(0.3, 10) == 307


def test_encode_matches_exact_rational_oracle(rng):
    for _ in range(2000):
        x = rng.uniform(-1, 1)
        p = rng.randrange(0, 54)
        assert encode(x, p) == exact_encode(x, p)


def test_encode_rejects_non_finite():
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError):
            encode(bad, 10)
    with pytest.raises(ValueError):
        encode(0.5, -1)


def test_decode_trivials():
    assert decode(4, 3) == 0.5
    assert decode(0, 53) == 0.0


def test_round_trip_error_below_ulp(rng):
    for _ in range(1000):
        x = rng.uniform(-1, 1)
        p = rng.randrange(0, 54)
        assert abs(decode(encode(x, p), p) - x) < 2 ** -p


def test_encode_monotone(rng):
    xs = sorted(rng.uniform(-1, 1) for _ in range(500))
    for p in (0, 7, 24, 53):
        encoded = [encode(x, p) for x in xs]
        assert encoded == sorted(encoded)


def test_decode_refuses_a_value_beyond_the_float_range():
    with pytest.raises(ParameterError, match="1101 bits at precision 0 lies beyond the float"):
        decode(-(1 << 1100), 0)
    assert decode(1 << 1100, 100) == 2.0 ** 1000
    assert decode(1, 5000) == 0.0
