import json

import pytest

from pinfer.errors import ParameterError
from pinfer.linear import LinearModel
from pinfer.modelfile import (load_input_vector, load_key, load_model,
                              save_model, save_public_key, save_secret_key)
from pinfer.network import NetworkSpec
from pinfer.wire import serialize_public_key


def test_linear_model_round_trip(tmp_path):
    model = LinearModel.from_real([0.5, -0.25, 0.125], bias=0.1, precision=20)
    path = tmp_path / "model.json"
    save_model(path, model, "logistic", kappa=80)
    loaded = load_model(path)
    assert loaded.model_type == "logistic"
    assert loaded.kappa == 80
    assert loaded.activation == "sigmoid"
    assert loaded.model == model


def test_ffnn_model_round_trip(tmp_path):
    spec = NetworkSpec.from_integer(
        [([(0, 1, 1), (-1, 1, -1)], "sign"), ([(0, 1, -2)], "sign")])
    path = tmp_path / "net.json"
    save_model(path, spec, "ffnn")
    loaded = load_model(path)
    assert loaded.model == spec


def test_weights_survive_as_decimal_strings(tmp_path):
    model = LinearModel.from_real([1.0] * 3, bias=-1.0, precision=53)
    path = tmp_path / "model.json"
    save_model(path, model, "linear")
    doc = json.loads(path.read_text())
    assert doc["weights"][0] == str(-(2 ** 106))
    assert all(isinstance(w, str) for w in doc["weights"])


def test_declared_ell_is_checked(tmp_path):
    model = LinearModel.from_real([0.5, 0.5], bias=0.0, precision=10)
    path = tmp_path / "model.json"
    save_model(path, model, "linear")
    doc = json.loads(path.read_text())
    doc["ell"] = 3  # far below what the weights can produce
    path.write_text(json.dumps(doc))
    with pytest.raises(ParameterError):
        load_model(path)


def test_model_file_error_paths(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ParameterError):
        load_model(path)
    path.write_text(json.dumps({"format_version": 99}))
    with pytest.raises(ParameterError):
        load_model(path)
    path.write_text(json.dumps({"format_version": 1, "model_type": "tree"}))
    with pytest.raises(ParameterError):
        load_model(path)


@pytest.mark.parametrize("model_type,change", [
    ("linear", lambda doc: doc.pop("precision")),
    ("linear", lambda doc: doc.update(precision="x")),
    ("linear", lambda doc: doc.update(kappa="x")),
    ("ffnn", lambda doc: doc.update(ell=doc["ell"][:1])),
    ("linear", lambda doc: doc.update(weights="123")),
    ("ffnn", lambda doc: doc["layers"][0].update(weights=["123"])),
], ids=["no precision", "precision not a number", "kappa not a number", "ell list too short",
        "weights as a string", "weight row as a string"])
def test_malformed_model_file_is_refused(tmp_path, model_type, change):
    model = (NetworkSpec.from_integer([([(0, 1, 1)], "sign"), ([(0, 1)], "sign")])
             if model_type == "ffnn" else LinearModel.from_real([0.5], bias=0.0, precision=10))
    path = tmp_path / "model.json"
    save_model(path, model, model_type)
    doc = json.loads(path.read_text())
    change(doc)
    path.write_text(json.dumps(doc))
    with pytest.raises(ParameterError, match="malformed model"):
        load_model(path)


def test_model_file_with_a_layer_of_no_units_is_refused(tmp_path):
    spec = NetworkSpec.from_integer([([(0, 1, 1)], "sign"), ([(0, 1)], "sign")])
    path = tmp_path / "net.json"
    save_model(path, spec, "ffnn")
    doc = json.loads(path.read_text())
    doc["layers"][1]["weights"] = []
    path.write_text(json.dumps(doc))
    with pytest.raises(ParameterError, match="layer 1 has no units"):
        load_model(path)


@pytest.mark.parametrize("load", [load_model, load_key])
def test_file_that_is_not_a_json_object_is_refused(tmp_path, load):
    path = tmp_path / "list.json"
    path.write_text("[]")
    with pytest.raises(ParameterError, match="not a JSON object"):
        load(path)


def test_key_files_round_trip(tmp_path, client_keys):
    pk, sk = client_keys
    save_public_key(tmp_path / "k.pub.json", pk)
    save_secret_key(tmp_path / "k.key.json", sk)
    # The public key file holds the frame's bytes of N, in hex.
    assert json.loads((tmp_path / "k.pub.json").read_text()) == {
        "format_version": 2, "kind": "paillier-public", "n": serialize_public_key(pk).hex()}
    assert json.loads((tmp_path / "k.key.json").read_text()) == {
        "format_version": 2, "kind": "paillier-secret",
        "p": format(sk.p, "x"), "q": format(sk.q, "x")}
    assert load_key(tmp_path / "k.pub.json") == pk
    sk2 = load_key(tmp_path / "k.key.json")
    assert (sk2.p, sk2.q, sk2.public_key) == (sk.p, sk.q, pk)
    (tmp_path / "odd.json").write_text(json.dumps({"format_version": 2, "kind": "other"}))
    with pytest.raises(ParameterError, match="unknown key kind"):
        load_key(tmp_path / "odd.json")


def test_public_key_file_above_3072_bits_is_refused(tmp_path):
    path = tmp_path / "big.pub.json"
    path.write_text(json.dumps({"format_version": 2, "kind": "paillier-public",
                                "n": format((1 << 4095) | 1, "x")}))
    with pytest.raises(ParameterError, match="384-byte limit"):
        load_key(path)


@pytest.mark.parametrize("kind", ["paillier-public", "paillier-secret"])
def test_version_1_key_file_is_refused(tmp_path, client_keys, kind):
    # Version 1 held length-prefixed big-endian integers: N, or p then q.
    sk = client_keys[1]
    ints = (sk.public_key.n,) if kind == "paillier-public" else (sk.p, sk.q)
    data = b"".join(len(raw).to_bytes(4, "big") + raw for raw in
                    (v.to_bytes((v.bit_length() + 7) // 8, "big") for v in ints))
    path = tmp_path / "old.json"
    path.write_text(json.dumps({"format_version": 1, "kind": kind, "data": data.hex()}))
    with pytest.raises(ParameterError, match="pinfer keygen"):
        load_key(path)


@pytest.mark.parametrize("fields", [{}, {"n": "not hex"}, {"n": ""}, {"n": 7},
                                    {"p": "b"}, {"p": "zz", "q": "b"}],
                         ids=["no n", "n not hex", "empty n", "number for n", "no q",
                              "p not hex"])
def test_malformed_version_2_key_file_is_refused(tmp_path, fields):
    kind = "paillier-public" if "n" in fields or not fields else "paillier-secret"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"format_version": 2, "kind": kind, **fields}))
    with pytest.raises(ParameterError, match="malformed key"):
        load_key(path)


def test_input_vector_parsing(tmp_path):
    path = tmp_path / "x.txt"
    path.write_text("# comment\n0.5\n-0.25\n\n1.0\n")
    x = load_input_vector(path, precision=4)
    assert x.values == (1, 8, -4, 16)


def test_input_vector_diagnostics(tmp_path):
    path = tmp_path / "x.txt"
    path.write_text("0.5\nbogus\n")
    with pytest.raises(ParameterError, match="x.txt:2"):
        load_input_vector(path, precision=4)
    path.write_text("1.5\n")
    with pytest.raises(ParameterError, match="allow-unscaled"):
        load_input_vector(path, precision=4)
    assert load_input_vector(path, 4, allow_unscaled=True).values == (1, 24)
    path.write_text("\n")
    with pytest.raises(ParameterError, match="no feature"):
        load_input_vector(path, precision=4)
