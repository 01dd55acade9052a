"""Fixed-point codec between real-valued data and the signed integers the
cryptosystem operates on.

A real x with at most P fractional bits corresponds to the signed integer
z = floor(x * 2**P); P is the bit-precision. Addition is plain integer
addition of equal-precision values; a product of two carries scale 2**(2P).
"""

from __future__ import annotations

import math

from .errors import ParameterError

#: Default bit-precision, the significand width of an IEEE-754 double.
DEFAULT_PRECISION = 53


def encode(x: float, precision: int = DEFAULT_PRECISION) -> int:
    """Scaled-integer representation floor(x * 2**precision).

    The floor is taken toward minus infinity, also for negative x, and is
    computed on x's exact integer ratio so no double rounding occurs.

    Raises:
        ValueError: if x is not finite or precision is negative.
    """
    if precision < 0:
        raise ValueError("precision must be non-negative")
    if isinstance(x, float) and not math.isfinite(x):
        raise ValueError(f"cannot encode non-finite value {x!r}")
    num, den = x.as_integer_ratio()
    return (num << precision) // den


def decode(z: int, precision: int = DEFAULT_PRECISION) -> float:
    """Real value z / 2**precision; ``ParameterError`` if it lies beyond the
    float range (about 2**1024), where no real-valued result can carry it."""
    if precision < 0:
        raise ValueError("precision must be non-negative")
    try:
        return z / (1 << precision)
    except OverflowError:
        raise ParameterError(f"value of {z.bit_length()} bits at precision {precision} "
                             "lies beyond the float range") from None
