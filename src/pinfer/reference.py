"""Plaintext oracle: evaluates every model exactly as the protocols must.

The oracle works on the same fixed-point integers as the protocol modules
(same precisions, same floor rules, same sign(0) = +1), so protocol-vs-oracle
assertions are exact integer equalities rather than float tolerances. The
decoded real value is carried alongside for reporting.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import activations
from .errors import DimensionMismatchError
from .fixedpoint import decode
from .linear import FeatureVector, LinearModel
from .network import NetworkSpec


@dataclass(frozen=True)
class Prediction:
    """raw: fixed-point pre-activation; value: real post-activation."""

    raw: int
    value: float
    class_label: int | None = None


def inner_product(theta, x) -> int:
    """Integer inner product theta . x including the fixed coordinate x_0."""
    if len(theta) != len(x):
        raise DimensionMismatchError(f"theta has {len(theta)} entries, x has {len(x)}")
    return sum(t * v for t, v in zip(theta, x))


def eval_linear(model: LinearModel, x: FeatureVector) -> Prediction:
    t = inner_product(model.theta, x.values)
    return Prediction(t, decode(t, model.output_scale))


def eval_logistic(model: LinearModel, x: FeatureVector) -> Prediction:
    t = inner_product(model.theta, x.values)
    return Prediction(t, activations.get("sigmoid").fn(decode(t, model.output_scale)))


def eval_svm(model: LinearModel, x: FeatureVector) -> Prediction:
    t = inner_product(model.theta, x.values)
    label = activations.sign_value(t)
    return Prediction(t, float(label), label)


def eval_ffnn(spec: NetworkSpec, x: FeatureVector) -> list[Prediction]:
    """Fixed-point forward pass, one Prediction per output unit."""
    if x.d != spec.d_in:
        raise DimensionMismatchError(f"network expects {spec.d_in} inputs, got {x.d}")
    state = list(x.values[1:])
    scales = activations.t_scales(spec.precision, [layer.activation for layer in spec.layers])
    for layer, t_scale in zip(spec.layers[:-1], scales):
        pre = [inner_product(theta, [1, *state]) for theta in layer.weights]
        state = [activations.apply_fixed(layer.activation, t, t_scale, spec.precision)
                 for t in pre]
    out, t_scale = spec.layers[-1], scales[-1]
    act = activations.get(out.activation)
    preds = []
    for theta in out.weights:
        t = inner_product(theta, [1, *state])
        label = activations.sign_value(t) if out.activation == "sign" else None
        preds.append(Prediction(t, act.fn(decode(t, t_scale)), label))
    return preds
