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
        "73cd88614556d03cb5728f725e74d0263abf011e438b1bc55a297cac15380e04",
    "regr-dual":
        "5d4f843c6f4b8e5e7946fc2de32c1bb62006dd9b564c4339499d48d1251e403b",
    "svm-core":
        "bfad461652fe9b3749f21c73b34502bc4a44e78b2a200e6ad8628a59adfbeccc",
    "svm-heur":
        "68401311f2979058c0323220e710c00d428112d78f4e23bf48d3cec33e541ea7",
    "ffnn-generic":
        "e2f93030bfde9a4c9636e80073387748599cd01e1d2222b45e34bc386f8b7d66",
    "ffnn-sign":
        "180c4c0500d8e8c6cc959dcb6118f687e59e8f80dce9e9bcbe4a27d23b61881d",
    "ffnn-sign-heur":
        "905e8008f72309b325368edc7b545bf88d1c4e5ee084749c88e423de5406a47e",
    "ffnn-relu":
        "bf8daf43ab1ba7f2ddea7fec271a9bc140ca71cda51a4577b1c96cad2f322eb4",
    "ffnn-relu-heur":
        "6161dd94e292c95fc18ee16f3263786b4ed496af67b5f342543d82b40803263b",
}

#: The output modes the table above misses: sign networks with activated
#: output and relu networks with raw output.
OTHER_OUTPUT_DIGESTS = {
    "ffnn-sign":
        "f113fb6b5571dbdd180b63a8bce39aafcb01852e15ddef9e70530b7e7aaac81a",
    "ffnn-sign-heur":
        "4dc1920593dea625f0b20bf824f975d7c25bc0fa864ba9cd0b7ec9747ddb66ef",
    "ffnn-relu":
        "efbd4341985b1813e3650d85faeee0315967bf781e0d51dda23922e988d59d77",
    "ffnn-relu-heur":
        "5781874a38763f6abd7ec4d86ad77d8470f544b876ddedbec1fbc9edf82c428e",
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
