"""The premise under every derived layer bound: each registered activation's
fixed-point law ``apply_fixed`` is non-decreasing in t, so its largest output
over |t| <= B is taken at t = +-B (``NetworkSpec._build``)."""

import math

import pytest

from pinfer import activations

#: (t_scale, precision) pairs: integers as they are, and two fractional scales.
SCALES = [(0, 0), (8, 4), (24, 12)]
SWEEP = range(-(1 << 12), (1 << 12) + 1)


def first_descent(name: str, t_scale: int, precision: int) -> int | None:
    """The first t of the sweep at which ``apply_fixed`` falls, if any."""
    previous = None
    for t in SWEEP:
        out = activations.apply_fixed(name, t, t_scale, precision)
        if previous is not None and out < previous:
            return t
        previous = out
    return None


@pytest.mark.parametrize("t_scale, precision", SCALES)
@pytest.mark.parametrize("name", sorted(activations._REGISTRY))
def test_every_activation_is_non_decreasing(name, t_scale, precision):
    assert first_descent(name, t_scale, precision) is None


def test_the_sweep_finds_a_non_monotone_activation(monkeypatch):
    swish = activations.Activation("swish", lambda t: t / (1.0 + math.exp(-t)),
                                   injective=False, integer_exact=False)
    monkeypatch.setitem(activations._REGISTRY, "swish", swish)
    assert first_descent("swish", 8, 4) is not None
