"""Byte identity of every protocol: one seeded query each, hashed frame by frame.

Each case runs one query over ``serve_loopback`` with fixed keys, models,
inputs and RNG streams, and hashes with sha256 every frame in both
directions, the ``InferenceResult`` and both transcripts. A refactor that
keeps the wire format and the order of every random draw keeps each digest;
a digest that moves means the bytes on the wire, the draw order or the
result changed.
"""

import hashlib

import pytest

from pinfer import keygen, wire
from pinfer.linear import FeatureVector, LinearModel
from pinfer.modelfile import LoadedModel
from pinfer.network import NetworkSpec
from pinfer.numutil import insecure_rng
from pinfer.runner import prepare_served, run_inference, serve_loopback
from pinfer.wire import Transcript

KAPPA = 40
PRECISION = 12

DIGESTS = {
    "regr-core":
        "ba4750e06fac07679a1fc357158c7c1198dc2b58837bb444ec016454b5ed8cf3",
    "regr-dual":
        "87bf4291abb6e6324651622b0b4381017df95f3f8206d0c4789d748c05749ef6",
    "svm-core":
        "d109c33497568fe2570950636ae97d17dc4fb416c6c8f2445e8f9345f13e42d6",
    "svm-heur":
        "6699228dc9fa0f57fc5176ebb93f41bed8024a8074bcd477653e5ea1da71f578",
    "ffnn-generic":
        "f3942d4b208a905e9347dc82456ce8251b48a46f27756e18c3915236ec4606dc",
    "ffnn-sign":
        "7fa6ce0d2a6510fd8ccd5c89d0f69fc6396f83759a179c99f9b0e89fcd5f42e7",
    "ffnn-sign-heur":
        "232f484b0847a737ab173917043df5be858de42d9b448568486f8b169cc25f78",
    "ffnn-relu":
        "be7ada82239e00f569bd537a908c5de965734112c5a8a27927aa28454056ad7c",
    "ffnn-relu-heur":
        "156092b8ce0aebc3f4dbc6046f15c2ecbe3c5a7f6b910fa75ad503f374a53e4a",
}

#: The output modes the table above misses: sign networks with activated
#: output and relu networks with raw output.
OTHER_OUTPUT_DIGESTS = {
    "ffnn-sign":
        "3b49044791db62c3dbfc7cc87b0e227e8d5afbe57717f26238e124846f456eda",
    "ffnn-sign-heur":
        "4ad2dbff9f30b71e3d78ba376a7ab50d8861a34d90386201702954a6c84627d4",
    "ffnn-relu":
        "007042bffbbd9d0d93f19d8bb84cff296ef73791fbecdc3a1eb0101c463a713d",
    "ffnn-relu-heur":
        "b6dc425fdf8e80a9bcc290457e9943c51b3d7044e272e79420bebae58782c623",
}

_LINEAR_TYPES = {"regr-core": "logistic", "regr-dual": "linear",
                 "svm-core": "svm", "svm-heur": "svm"}


class _Recorder:
    """Client channel that feeds every frame, tagged by direction, to a hash."""

    def __init__(self, channel, digest):
        self.channel = channel
        self.digest = digest

    def _record(self, direction: bytes, data: bytes) -> None:
        self.digest.update(direction + len(data).to_bytes(4, "big") + data)

    def send(self, data):
        self._record(b"up", data)
        self.channel.send(data)

    def recv(self):
        data = self.channel.recv()
        self._record(b"dn", data)
        return data


@pytest.fixture(scope="module")
def digest_keys():
    return keygen(512, insecure_rng(1)), keygen(512, insecure_rng(2))


def _loaded(protocol: str, other_output: bool = False) -> tuple[LoadedModel, FeatureVector]:
    if protocol in _LINEAR_TYPES:
        model = LinearModel.from_real([0.5, -0.25, 0.75, -1.0], 0.125, PRECISION)
        x = FeatureVector.from_real([0.3, -0.6, 0.9, 0.2], PRECISION)
        return LoadedModel(_LINEAR_TYPES[protocol], model, KAPPA), x
    activation = "relu" if "relu" in protocol else "sign"
    activated = (activation == "relu") != other_output
    spec = NetworkSpec.from_integer(
        [([(0, 1, 1), (-1, 1, -1), (1, -1, 0)], activation),
         ([(0, 1, -1, 1), (1, 1, 1, -1)], activation),
         ([(1, 1, -1)], activation)],
        output_mode="activated" if activated else "raw")
    return LoadedModel("ffnn", spec, KAPPA), FeatureVector((1, -1, -1), 0)


def test_every_protocol_has_a_digest():
    assert set(DIGESTS) == set(wire.PROTOCOLS)


def _query_digest(keys, protocol: str, other_output: bool) -> str:
    client_keys, server_keys = keys
    loaded, x = _loaded(protocol, other_output)
    served = prepare_served(protocol, loaded, server_keys, KAPPA, insecure_rng(100))
    inner, thread = serve_loopback(served)
    digest = hashlib.sha256()
    transcript, publish = Transcript(), Transcript()
    try:
        result = run_inference(_Recorder(inner, digest), protocol, x, client_keys,
                               kappa=KAPPA, rng=insecure_rng(200),
                               transcript=transcript, publish_transcript=publish)
    finally:
        inner.close()
    thread.join(timeout=10)
    assert not thread.is_alive()
    digest.update(repr((result, transcript, publish)).encode("utf-8"))
    return digest.hexdigest()


@pytest.mark.parametrize("protocol", list(DIGESTS))
def test_seeded_query_is_byte_identical(digest_keys, protocol):
    assert _query_digest(digest_keys, protocol, False) == DIGESTS[protocol]


@pytest.mark.parametrize("protocol", list(OTHER_OUTPUT_DIGESTS))
def test_seeded_query_in_the_other_output_mode_is_byte_identical(digest_keys, protocol):
    assert _query_digest(digest_keys, protocol, True) == OTHER_OUTPUT_DIGESTS[protocol]
