"""Differential runs: random small integer models through each of the nine
protocols over the loopback, every result against the plaintext oracle."""

import pytest
from hypothesis import given, settings, strategies as st

from pinfer import wire
from pinfer.linear import FeatureVector, LinearModel, inner_product_bound
from pinfer.modelfile import LoadedModel
from pinfer.network import NetworkSpec
from pinfer.numutil import insecure_rng
from pinfer.reference import eval_ffnn, eval_linear, eval_logistic, eval_svm
from pinfer.runner import prepare_served, run_inference, serve_loopback

KAPPA = 40


def _inputs(draw, d, precision):
    bound = 1 << precision
    return FeatureVector((1, *draw(st.lists(st.integers(-bound, bound), min_size=d,
                                            max_size=d))), precision)


@st.composite
def linear_cases(draw, info):
    """A linear model of d <= 4 and an input it takes."""
    precision, d = draw(st.integers(0, 4)), draw(st.integers(1, 4))
    theta = tuple(draw(st.lists(st.integers(-9, 9), min_size=d + 1, max_size=d + 1)))
    ell = max(inner_product_bound(theta, 1 << precision).bit_length(), 1)
    model = LinearModel(theta, ell, precision)
    return LoadedModel(draw(st.sampled_from(info.model_types)), model, KAPPA), \
        _inputs(draw, d, precision)


@st.composite
def network_cases(draw, info):
    """A network of up to 3 layers of up to 3 units and an input it takes.
    Generic mode mixes sign, relu and identity in every layer; an encrypted
    network compares its protocol's activation in every layer but a raw
    output layer, which is any of the three."""
    precision, d = draw(st.integers(0, 2)), draw(st.integers(1, 3))
    depth = draw(st.integers(1, 3))
    output_mode = "raw"
    if info.mode == "encrypted":
        output_mode = draw(st.sampled_from(["raw", "activated"]))
    any_activation = st.sampled_from(["sign", "relu", "identity"])
    layers, fan_in = [], d
    for index in range(depth):
        activation = draw(any_activation)
        if info.mode == "encrypted" and (index < depth - 1 or output_mode == "activated"):
            activation = info.activation
        units = draw(st.integers(1, 3))
        rows = draw(st.lists(st.lists(st.integers(-3, 3), min_size=fan_in + 1,
                                      max_size=fan_in + 1), min_size=units, max_size=units))
        layers.append((rows, activation))
        fan_in = units
    spec = NetworkSpec.from_integer(layers, precision, output_mode)
    return LoadedModel("ffnn", spec, KAPPA), _inputs(draw, d, precision)


def _oracle(loaded, x):
    """(values, labels, raw) as the protocol's result must give them."""
    if loaded.model_type == "ffnn":
        preds = eval_ffnn(loaded.model, x)
        labels = tuple(p.class_label for p in preds)
        raw = tuple(p.raw for p in preds) if loaded.model.output_mode == "raw" else None
        return (tuple(p.value for p in preds),
                None if labels[0] is None else labels, raw)
    if loaded.model_type == "svm":
        pred = eval_svm(loaded.model, x)
        return (pred.value,), (pred.class_label,), None
    pred = (eval_linear if loaded.model_type == "linear" else eval_logistic)(loaded.model, x)
    return (pred.value,), None, (eval_linear(loaded.model, x).raw,)


@pytest.mark.parametrize("protocol", list(wire.PROTOCOLS))
@settings(derandomize=True, max_examples=50, deadline=None)
@given(data=st.data())
def test_random_models_match_the_oracle(client_keys, server_keys, protocol, data):
    info = wire.PROTOCOLS[protocol]
    loaded, x = data.draw(network_cases(info) if info.mode else linear_cases(info))
    rng = insecure_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    served = prepare_served(protocol, loaded, server_keys if info.needs_server_keys else None,
                            KAPPA, rng)
    channel, thread = serve_loopback(served)
    try:
        result = run_inference(channel, protocol, x, client_keys, kappa=KAPPA, rng=rng)
    finally:
        channel.close()
    thread.join(timeout=10)
    assert not thread.is_alive()
    values, labels, raw = _oracle(loaded, x)
    assert result.values == values and result.labels == labels
    # Only regr-core and a raw network output show the client the inner product.
    if protocol == "regr-core" or info.mode:
        assert result.raw == raw
