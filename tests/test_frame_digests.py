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
        "b094d46272037564bec7f4600d8a3021832afbed6d363b1e10630d0f0539634f",
    "ffnn-generic":
        "e2f0d3c5cd7cbfde62c1a743a082c7fdfb4bbd47c202b996d1dcf8b74e482fc2",
    "ffnn-sign":
        "2415b81f7015b66de36bb27a9167d63727fcccd324d4ffd079e1af942b23c72d",
    "ffnn-sign-heur":
        "ad6651516b437f078b073c0ae9c3282ff1fb7bfa59a20353d1e337c49e108892",
    "ffnn-relu":
        "e472842226622d166245abf6dec331c6a58e38a22896bcbc03f7fdab01ee8627",
    "ffnn-relu-heur":
        "73d19aca973c7ee15bd92c8cb5aa235f67100959c118dcb6f32f8ebd009b159f",
}

#: The output modes the table above misses: sign networks with activated
#: output and relu networks with raw output.
OTHER_OUTPUT_DIGESTS = {
    "ffnn-sign":
        "58449410c5ee0d994fdbcdaa10c587bde6e234358b2fbefd3523ee8fdcd1126b",
    "ffnn-sign-heur":
        "cf56ff5077c48b0c49d33b776d7bbd27c1b189135a6027c4f55cbdd652900c56",
    "ffnn-relu":
        "27caba465a0ba199d959000237ff553561d71fa04529e865dcc49b754a689bb5",
    "ffnn-relu-heur":
        "261daa78a7725b02330bda689ef7cc89552bd127bf1482a831040d4eb253fa75",
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
