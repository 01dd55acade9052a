"""Activation functions and their fixed-point law, shared by the protocols
and the plaintext oracle.

Two kinds matter here. ``sign``, ``relu`` and ``identity`` act exactly on
fixed-point integers, so evaluating them never loses precision. The smooth
ones (sigmoid, tanh, ...) are computed on the decoded real value and, when
they feed another layer, re-encoded at the model precision. ``apply_fixed``
is that law and ``t_scales`` the scale it leaves each layer at.

Every registered activation is non-decreasing, so its largest output over
|t| <= B is taken at t = +-B; ``NetworkSpec`` bounds each layer so. A
non-monotone one (swish, GELU) would need a bound of its own.

``sign(0) = +1`` throughout: every sign is the predicate [t >= 0].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .errors import ParameterError
from .fixedpoint import decode, encode


def sign_value(t: int | float) -> int:
    """+1 if t >= 0 else -1."""
    return 1 if t >= 0 else -1


def _sigmoid(t: float) -> float:
    if t >= 0:
        return 1.0 / (1.0 + math.exp(-t))
    e = math.exp(t)
    return e / (1.0 + e)


def _softplus(t: float) -> float:
    if t > 0:
        return t + math.log1p(math.exp(-t))
    return math.log1p(math.exp(t))


@dataclass(frozen=True)
class Activation:
    name: str
    fn: Callable[[float], float]
    injective: bool
    integer_exact: bool


_REGISTRY = {
    a.name: a
    for a in (
        Activation("identity", lambda t: t, injective=True, integer_exact=True),
        Activation("sigmoid", _sigmoid, injective=True, integer_exact=False),
        Activation("tanh", math.tanh, injective=True, integer_exact=False),
        Activation("arctan", math.atan, injective=True, integer_exact=False),
        Activation("softsign", lambda t: t / (1.0 + abs(t)), injective=True, integer_exact=False),
        Activation("softplus", _softplus, injective=True, integer_exact=False),
        Activation("leaky_relu", lambda t: 0.01 * t if t < 0 else t, injective=True, integer_exact=False),
        Activation("sign", lambda t: float(sign_value(t)), injective=False, integer_exact=True),
        Activation("relu", lambda t: t if t > 0 else 0.0, injective=False, integer_exact=True),
    )
}


def get(name: str) -> Activation:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ParameterError(f"unknown activation id {name!r}") from None


def apply_fixed(name: str, t: int, t_scale: int, precision: int) -> int:
    """Activation output as a fixed-point integer, given t at scale 2**t_scale.

    Exact for sign (a bare +-1), relu and identity (which keep t's scale);
    the smooth functions decode, evaluate and re-encode at ``precision``.
    """
    act = get(name)
    if act.name == "sign":
        return sign_value(t)
    if act.name == "relu":
        return t if t > 0 else 0
    if act.name == "identity":
        return t
    return encode(act.fn(decode(t, t_scale)), precision)


def t_scales(precision: int, layer_activations) -> tuple[int, ...]:
    """Each layer's inner-product scale: its inputs' scale plus ``precision``.
    The input is at ``precision`` and a sign output at 0 (a bare +-1); relu and
    identity keep their scale, and smooth activations re-encode at ``precision``."""
    scales, in_scale = [], precision
    for activation in layer_activations:
        scales.append(in_scale + precision)
        exact = get(activation).integer_exact
        in_scale = 0 if activation == "sign" else scales[-1] if exact else precision
    return tuple(scales)
