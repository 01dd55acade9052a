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

from pinfer import keygen
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
        "3b6833243fcc9cc7c222fc05b14665e58ab9a36f61a3ab86673e9fc4b6e3e0cb",
    "regr-dual":
        "72645e600c9733afa55288a4b88c97c461fe8a94572d85f05085ff74d4856919",
    "svm-core":
        "a7ecf1369f09e1ccfb6cf7b1044c0232640e35a81869052c62bb2b3d701fca91",
    "svm-heur":
        "87657b2e583ae09d015a505ee12633ce7846a36733c6223a035ca250bb14a5e2",
    "ffnn-generic":
        "eb45be10ebb3b48a62e6e275ea604a27cdf655054b3e88cfb499045dce547662",
    "ffnn-sign":
        "c9c6732213695ef75f40e95845d2e6541a4675321370b82de858d3993f7bbcc3",
    "ffnn-sign-heur":
        "78ba416ed051e18448c79a3c0fb50144ebd39d92be9adbaa565273de4f80a56c",
    "ffnn-relu":
        "698fd9fe9e7e3eb65184edf3fcd24c7251328bb27a8ac15ff3dcd98c569605ff",
    "ffnn-relu-heur":
        "1c0f2fe4cd7ee8dc73d9f4e0a58ceed31e156e8276eb40addd99581e7d661e90",
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


def _loaded(protocol: str) -> tuple[LoadedModel, FeatureVector]:
    if protocol in _LINEAR_TYPES:
        model = LinearModel.from_real([0.5, -0.25, 0.75, -1.0], 0.125, PRECISION)
        x = FeatureVector.from_real([0.3, -0.6, 0.9, 0.2], PRECISION)
        return LoadedModel(_LINEAR_TYPES[protocol], model, KAPPA), x
    activation = "relu" if "relu" in protocol else "sign"
    spec = NetworkSpec.from_integer(
        [([(0, 1, 1), (-1, 1, -1), (1, -1, 0)], activation),
         ([(0, 1, -1, 1), (1, 1, 1, -1)], activation),
         ([(1, 1, -1)], activation)],
        output_mode="activated" if activation == "relu" else "raw")
    return LoadedModel("ffnn", spec, KAPPA), FeatureVector((1, -1, -1), 0)


@pytest.mark.parametrize("protocol", list(DIGESTS))
def test_seeded_query_is_byte_identical(digest_keys, protocol):
    client_keys, server_keys = digest_keys
    loaded, x = _loaded(protocol)
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
    assert digest.hexdigest() == DIGESTS[protocol]
