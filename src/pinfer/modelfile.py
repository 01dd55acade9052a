"""Versioned JSON file formats for models, keys and inputs.

Model weights are stored as decimal strings so arbitrarily large fixed-point
integers survive the JSON round trip exactly. The declared inner-product
bound length is recomputed from the weights at load time and rejected when it
understates what the weights can produce. Key files hold, in hex, N as a
frame carries it (``wire.serialize_public_key``), or p and q.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from . import wire
from .errors import DimensionMismatchError, MessageFormatError, ParameterError
from .linear import DEFAULT_KAPPA, FeatureVector, LinearModel
from .network import NetworkSpec
from .paillier import PublicKey, SecretKey

FORMAT_VERSION = 1
#: Key files; version 1 is no longer read.
KEY_FORMAT_VERSION = 2
MODEL_TYPES = ("linear", "logistic", "svm", "ffnn")

#: Link function applied client-side per model type.
MODEL_ACTIVATIONS = {"linear": "identity", "logistic": "sigmoid", "svm": "sign"}


@dataclass(frozen=True)
class LoadedModel:
    model_type: str
    model: LinearModel | NetworkSpec
    kappa: int

    @property
    def precision(self) -> int:
        return self.model.precision

    @property
    def activation(self) -> str:
        return MODEL_ACTIVATIONS.get(self.model_type, "identity")


def save_model(path: str, model: LinearModel | NetworkSpec, model_type: str,
               kappa: int = DEFAULT_KAPPA) -> None:
    if model_type not in MODEL_TYPES:
        raise ParameterError(f"unknown model type {model_type!r}")
    doc: dict = {"format_version": FORMAT_VERSION, "model_type": model_type,
                 "kappa": kappa, "precision": model.precision}
    if model_type == "ffnn":
        if not isinstance(model, NetworkSpec):
            raise ParameterError("ffnn model file needs a NetworkSpec")
        doc["output_mode"] = model.output_mode
        doc["ell"] = [layer.ell for layer in model.layers]
        doc["layers"] = [
            {"activation": layer.activation,
             "weights": [[str(w) for w in row] for row in layer.weights]}
            for layer in model.layers]
    else:
        if not isinstance(model, LinearModel):
            raise ParameterError(f"{model_type} model file needs a LinearModel")
        doc["ell"] = model.ell
        doc["weights"] = [str(w) for w in model.theta]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def _read_document(path: str) -> dict:
    """The JSON object a model or key file holds; anything else is refused."""
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParameterError(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(doc, dict):
        raise ParameterError(f"{path}: not a JSON object")
    return doc


def _integers(values) -> tuple[int, ...]:
    """A JSON list of integers or decimal strings; a string in its place
    would otherwise be read digit by digit."""
    if not isinstance(values, list):
        raise TypeError(f"expected a list, got {type(values).__name__}")
    return tuple(int(v) for v in values)


def load_model(path: str) -> LoadedModel:
    doc = _read_document(path)
    if doc.get("format_version") != FORMAT_VERSION:
        raise ParameterError(f"{path}: unsupported format version")
    model_type = doc.get("model_type")
    if model_type not in MODEL_TYPES:
        raise ParameterError(f"{path}: unknown model type {model_type!r}")
    try:
        precision = int(doc["precision"])
        kappa = int(doc.get("kappa", DEFAULT_KAPPA))
        if model_type == "ffnn":
            layer_defs = [([_integers(row) for row in layer["weights"]],
                           layer["activation"])
                          for layer in doc["layers"]]
            ells = list(_integers(doc["ell"]))
            model = NetworkSpec.from_integer(layer_defs, precision,
                                             output_mode=doc.get("output_mode", "raw"),
                                             ells=ells)
        else:
            theta = _integers(doc["weights"])
            model = LinearModel(theta, int(doc["ell"]), precision)
    except (KeyError, IndexError, ValueError, TypeError, DimensionMismatchError) as exc:
        raise ParameterError(f"{path}: malformed model ({exc})") from None
    return LoadedModel(model_type, model, kappa)


# ---------------------------------------------------------------------------
# key files

def _save_key(path: str, kind: str, **fields: str) -> None:
    doc = {"format_version": KEY_FORMAT_VERSION, "kind": kind, **fields}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def save_public_key(path: str, pk: PublicKey) -> None:
    _save_key(path, "paillier-public", n=wire.serialize_public_key(pk).hex())


def save_secret_key(path: str, sk: SecretKey) -> None:
    _save_key(path, "paillier-secret", p=format(sk.p, "x"), q=format(sk.q, "x"))


def load_key(path: str) -> PublicKey | SecretKey:
    doc = _read_document(path)
    version = doc.get("format_version")
    if version != KEY_FORMAT_VERSION:
        raise ParameterError(f"{path}: key file format {version} is not read; "
                             "make a new key pair with pinfer keygen")
    kind = doc.get("kind")
    try:
        if kind == "paillier-public":
            return wire.deserialize_public_key(bytes.fromhex(doc["n"]))
        if kind == "paillier-secret":
            return SecretKey(int(doc["p"], 16), int(doc["q"], 16))
    except (KeyError, ValueError, TypeError, MessageFormatError) as exc:
        raise ParameterError(f"{path}: malformed key ({exc})") from None
    raise ParameterError(f"{path}: unknown key kind {kind!r}")


# ---------------------------------------------------------------------------
# input files

def load_input_vector(path: str, precision: int,
                      allow_unscaled: bool = False) -> FeatureVector:
    """One decimal real per line; ``FeatureVector`` refuses one beyond
    2**precision as encoded unless ``allow_unscaled``."""
    features = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            try:
                value = float(text)
            except ValueError:
                raise ParameterError(f"{path}:{lineno}: not a decimal number: {text!r}") from None
            if not math.isfinite(value):
                raise ParameterError(f"{path}:{lineno}: not a finite number: {text!r}")
            features.append(value)
    if not features:
        raise ParameterError(f"{path}: no feature values found")
    return FeatureVector.from_real(features, precision, allow_unscaled=allow_unscaled)
