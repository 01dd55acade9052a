"""The benchmark workloads: model, inputs, oracle and message plan per seed.

Every workload runs at kappa = 95 over the production key size. The model
and the input stream come from the workload seed; the protocols themselves
keep their default secure RNG, so masks and blinding take the production
path. Shapes are fixed so that every seed does the same amount of
cryptographic work: for ffnn-relu the weights are redrawn until the hidden
layers have the bound lengths ``FFNN_ELLS``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from pinfer import reference, wire
from pinfer.linear import DEFAULT_KAPPA, FeatureVector, LinearModel
from pinfer.modelfile import LoadedModel
from pinfer.network import NetworkSpec
from pinfer.runner import InferenceResult

#: ffnn-relu hidden layers: units per layer, and the bound length each must have.
FFNN_HIDDEN = (2, 2)
FFNN_ELLS = (10, 15)


@dataclass(frozen=True)
class Workload:
    """One protocol at fixed parameters.

    ``expected`` gives the oracle's integer for an input, ``observed`` the
    same integer read from the client's result; ``plan`` lists the
    ciphertext count of every message of one query in transcript order,
    publication first. ``client_decrypts`` is how many decryptions the
    protocol needs from the client per query, the base of the waste count.
    """

    name: str
    protocol: str
    d: int
    precision: int
    build: Callable[[random.Random], LoadedModel]
    expected: Callable[[LoadedModel, FeatureVector], int]
    observed: Callable[[InferenceResult], int]
    plan: Callable[[LoadedModel], list[tuple[str, int]]]
    client_decrypts: Callable[[LoadedModel], int]
    kappa: int = DEFAULT_KAPPA

    def draw_input(self, rng: random.Random) -> FeatureVector:
        return FeatureVector.from_real([rng.uniform(-1, 1) for _ in range(self.d)],
                                       self.precision)

    def ells(self, loaded: LoadedModel) -> list[int]:
        model = loaded.model
        if isinstance(model, NetworkSpec):
            return [layer.ell for layer in model.layers]
        return [model.ell]


def _linear(model_type: str, d: int, precision: int):
    def build(rng: random.Random) -> LoadedModel:
        weights = [rng.uniform(-1, 1) for _ in range(d)]
        model = LinearModel.from_real(weights, rng.uniform(-1, 1), precision)
        return LoadedModel(model_type, model, DEFAULT_KAPPA)
    return build


def _ffnn(d: int, precision: int):
    def rows(rng, units, fan_in):
        return [[rng.uniform(-1, 1) for _ in range(fan_in + 1)] for _ in range(units)]

    def build(rng: random.Random) -> LoadedModel:
        while True:
            defs, fan_in = [], d
            for units in FFNN_HIDDEN:
                defs.append((rows(rng, units, fan_in), "relu"))
                fan_in = units
            defs.append((rows(rng, 1, fan_in), "identity"))
            spec = NetworkSpec.from_real(defs, precision, output_mode="raw")
            if tuple(layer.ell for layer in spec.layers[:-1]) == FFNN_ELLS:
                return LoadedModel("ffnn", spec, DEFAULT_KAPPA)
    return build


def _linear_plan(protocol: str, d: int):
    def plan(loaded: LoadedModel) -> list[tuple[str, int]]:
        rows = wire.message_plan(protocol, d=d, ell=loaded.model.ell)
        out = []
        for row in rows:
            if row.label == "publish":
                out.append(("up", 0))  # the publish request carries no ciphertext
            out.append((row.direction, row.ciphertexts))
        return out
    return plan


def _ffnn_plan(loaded: LoadedModel) -> list[tuple[str, int]]:
    spec = loaded.model
    out = [("up", spec.d_in), ("down", 0)]  # encrypted input, then the meta frame
    for layer in spec.layers[:-1]:
        down, up = wire.message_plan("ffnn-relu", ell=layer.ell, layers=1,
                                     units=layer.units)
        out += [(down.direction, down.ciphertexts), (up.direction, up.ciphertexts)]
    out.append(("down", spec.d_out))  # raw output inner products
    return out


WORKLOADS = {
    "regr-core": Workload(
        "regr-core", "regr-core", d=30, precision=53,
        build=_linear("logistic", 30, 53),
        expected=lambda loaded, x: reference.eval_logistic(loaded.model, x).raw,
        observed=lambda result: result.raw[0],
        plan=_linear_plan("regr-core", 30),
        client_decrypts=lambda loaded: 1),
    "svm-core": Workload(
        "svm-core", "svm-core", d=30, precision=16,
        build=_linear("svm", 30, 16),
        expected=lambda loaded, x: reference.eval_svm(loaded.model, x).class_label,
        observed=lambda result: result.labels[0],
        plan=_linear_plan("svm-core", 30),
        client_decrypts=lambda loaded: loaded.model.ell + 1),
    "ffnn-relu": Workload(
        "ffnn-relu", "ffnn-relu", d=4, precision=4,
        build=_ffnn(4, 4),
        expected=lambda loaded, x: reference.eval_ffnn(loaded.model, x)[0].raw,
        observed=lambda result: result.raw[0],
        plan=_ffnn_plan,
        client_decrypts=lambda loaded: sum(layer.units for layer in loaded.model.layers)),
}
