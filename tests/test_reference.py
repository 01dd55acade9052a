import math

import pytest

from pinfer.errors import DimensionMismatchError
from pinfer.fixedpoint import decode
from pinfer.linear import FeatureVector, LinearModel
from pinfer.network import NetworkSpec
from pinfer.reference import (eval_ffnn, eval_linear, eval_logistic, eval_svm,
                              inner_product)


def int_model(theta, ell, precision=0):
    return LinearModel(tuple(theta), ell, precision)


def test_logistic_zero_is_half():
    model = int_model((0, 1), ell=2)
    x = FeatureVector((1, 0), 0)
    assert eval_logistic(model, x).value == 0.5


def test_svm_sign():
    model = int_model((0, 1), ell=2)
    x = FeatureVector((1, -3), 0, unscaled=True)
    pred = eval_svm(model, x)
    assert pred.class_label == -1 and pred.raw == -3


def test_linear_matches_decode():
    model = LinearModel.from_real([0.5, -0.25], bias=0.125, precision=10)
    x = FeatureVector.from_real([0.5, 0.5], precision=10)
    pred = eval_linear(model, x)
    assert pred.value == decode(pred.raw, 20)
    assert pred.raw == inner_product(model.theta, x.values)


def test_hand_evaluated_sign_net():
    # 2-2-1 sign network, hand evaluated: x=(1,1,-1) gives hidden (+1, +1)
    # (sign(0) = +1 on the first unit) and output t = 1 - 2 = -1.
    spec = NetworkSpec.from_integer(
        [([(0, 1, 1), (-1, 1, -1)], "sign"), ([(0, 1, -2)], "sign")])
    x = FeatureVector((1, 1, -1), 0)
    (pred,) = eval_ffnn(spec, x)
    assert pred.raw == -1
    assert pred.class_label == -1


def test_ffnn_single_identity_layer_equals_linear():
    model = LinearModel.from_real([0.25, -0.5, 0.75], bias=0.1, precision=12)
    spec = NetworkSpec.from_integer([([model.theta], "identity")], precision=12)
    x = FeatureVector.from_real([0.3, -0.2, 0.9], precision=12)
    (pred,) = eval_ffnn(spec, x)
    linear = eval_linear(model, x)
    assert (pred.raw, pred.value) == (linear.raw, linear.value)


def test_dimension_mismatch():
    model = int_model((0, 1), ell=2)
    with pytest.raises(DimensionMismatchError):
        eval_linear(model, FeatureVector((1, 0, 0), 0))


def test_sigmoid_strictly_monotone():
    from pinfer.activations import get
    sigmoid = get("sigmoid").fn
    previous = None
    for i in range(10_000):
        t = -25 + i * 0.005
        value = sigmoid(t)
        if previous is not None:
            assert value > previous
        previous = value


def test_sigmoid_inverse():
    # ln(y / (1-y)) recovers t; the complement is computed as sigmoid(-t) so
    # the check is well conditioned out to the ends of the range.
    from pinfer.activations import get
    sigmoid = get("sigmoid").fn
    for i in range(-20, 21):
        t = float(i)
        recovered = math.log(sigmoid(t)) - math.log(sigmoid(-t))
        assert abs(recovered - t) < 1e-9
