"""Frame fuzz against ``serve_connection``: random, truncated, oversized and
wrong-step frames, mixed in with the valid frames of two sessions on one
connection. Every bad frame must get an error frame or a clean close, and
the server must keep one live session at most: a new request ends the last
one, and a refused layer-up ends its own."""

import socket
import struct
import threading

from hypothesis import given, settings, strategies as st

from pinfer import wire
from pinfer.errors import MessageFormatError
from pinfer.linear import FeatureRequest, FeatureVector
from pinfer.modelfile import LoadedModel
from pinfer.network import NetworkClientSession, NetworkSpec
from pinfer.numutil import insecure_rng
from pinfer.reference import eval_ffnn
from pinfer.runner import (MAX_FRAME_BYTES, SocketChannel, _decode_layer, _encode_layer,
                           _feature_parts, _meta_from_json, prepare_served, serve_connection)

KAPPA = 40
PROTOCOL = "ffnn-relu"
PROTOCOL_ID = wire.PROTOCOL_IDS[PROTOCOL]
#: Two compared relu layers and an activated output: a session is a request
#: and two layer-ups, answered by META and layer 0, layer 1, and the output.
SPEC = NetworkSpec.from_integer([([(0, 1, 1), (-1, 1, -1)], "relu"), ([(0, 1, -2)], "relu")],
                                output_mode="activated")
X = FeatureVector((1, 1, -1), 0)
RECV_TIMEOUT_S = 10


class _Connection:
    """One connection to a ``serve_connection`` thread, read with a timeout
    so that a server that never answers fails the test instead of hanging."""

    def __init__(self, served):
        self.sock, server = socket.socketpair()
        self.sock.settimeout(RECV_TIMEOUT_S)
        self.errors = []

        def serve():
            channel = SocketChannel(server)
            try:
                serve_connection(channel, served)
            except Exception as exc:  # recorded: the test fails on any
                self.errors.append(exc)
            finally:
                channel.close()

        self.thread = threading.Thread(target=serve, daemon=True)
        self.thread.start()

    def send(self, data: bytes) -> None:
        self.sock.sendall(struct.pack(">I", len(data)) + data)

    def recv(self):
        """The next frame, or None once the server has closed the connection."""
        header = self._exactly(4)
        if header is None:
            return None
        body = self._exactly(struct.unpack(">I", header)[0])
        assert body is not None, "the server closed the connection mid-frame"
        return wire.unframe(body)

    def _exactly(self, count):
        chunks = b""
        while len(chunks) < count:
            chunk = self.sock.recv(count - len(chunks))  # socket.timeout: a hang
            if not chunk:
                assert not chunks, "the server closed the connection mid-frame"
                return None
            chunks += chunk
        return chunks

    def close(self) -> None:
        self.sock.close()
        self.thread.join(timeout=RECV_TIMEOUT_S)
        assert not self.thread.is_alive()
        assert not self.errors, self.errors


class _Client:
    """One client's sessions: the next valid frame it sends, and how it
    takes the server's answer."""

    def __init__(self, tag: int, client_keys, rng):
        self.tag, self.keys, self.rng = tag, client_keys, rng
        self.count = 0
        self.session_id = self._fresh_id()
        self.session: NetworkClientSession | None = None
        self.reply = None  # the pending layer-up; None before a request

    def _fresh_id(self) -> bytes:
        self.count += 1
        return bytes([self.tag]) + self.count.to_bytes(wire.SESSION_ID_BYTES - 1, "big")

    def next_frame(self) -> bytes:
        if self.reply is None:
            step, parts = wire.STEP_REQUEST, _feature_parts(
                FeatureRequest.encrypt(self.keys[0], X, self.rng))
        else:
            step, parts = _encode_layer(self.reply, self.session.meta, self.session.keys,
                                        up=True)
        return wire.frame(PROTOCOL_ID, step, self.session_id, parts)

    def step(self, conn: _Connection, live: bytes | None) -> bytes | None:
        """Send the next valid frame and check the answer against the rule
        of one live session; returns the live session after it."""
        requesting = self.reply is None
        conn.send(self.next_frame())
        answer = conn.recv()
        assert answer is not None and answer.session_id == self.session_id
        if not requesting and live != self.session_id:
            assert answer.step_id == wire.STEP_ERROR, answer
            assert answer.parts == (b"unknown session",)
            self.end()
            return live
        if requesting:
            assert answer.step_id == wire.STEP_META, answer
            meta, pk_server = _meta_from_json(answer.parts[0], wire.PROTOCOLS[PROTOCOL])
            self.session = NetworkClientSession(meta, self.keys, pk_server, self.rng)
            answer = conn.recv()
        assert answer.step_id in (wire.STEP_LAYER_DOWN, wire.STEP_OUTPUT), answer
        self.reply = self.session.handle(_decode_layer(
            answer, self.session.meta, self.session.keys, self.session.next_layer))
        if self.reply is not None:
            return self.session_id
        assert self.session.result.values == tuple(p.value for p in eval_ffnn(SPEC, X))
        self.end()
        return None

    def end(self) -> None:
        self.session, self.reply = None, None
        self.session_id = self._fresh_id()


def _live_after_refusal(data: bytes, live: bytes | None) -> bytes | None:
    """The live session after the server refused ``data``: a request of
    another session id ends it, and so does its own refused layer-up."""
    try:
        frame = wire.unframe(data)
    except MessageFormatError:
        return live
    if frame.protocol_id != PROTOCOL_ID:
        return live
    if frame.step_id == wire.STEP_REQUEST and frame.session_id != live:
        return None
    if frame.step_id == wire.STEP_LAYER_UP and frame.session_id == live:
        return None
    return live


WRONG_STEPS = [wire.STEP_PUBLISH_REQUEST, wire.STEP_PUBLISH, wire.STEP_RESPONSE, wire.STEP_META,
               wire.STEP_LAYER_DOWN, wire.STEP_OUTPUT, wire.STEP_ERROR, 0, 200]
#: Valid steps of the two clients outnumber the bad frames.
OPS = ["a", "b"] * 4 + ["random", "truncated", "oversized", "wrong step", "wrong protocol",
                        "bad layer-up", "bad request"]


def _bad_frame(data, op, clients, live):
    """The bytes of one bad frame of kind ``op``."""
    draw = data.draw
    if op == "random":
        return draw(st.binary(max_size=80))
    if op == "truncated":
        whole = draw(st.sampled_from(clients)).next_frame()
        return whole[:draw(st.integers(0, len(whole) - 1))]
    session_id = draw(st.sampled_from([c.session_id for c in clients] + [live or bytes(16)]))
    junk = st.lists(st.binary(max_size=40), max_size=4)
    if op == "wrong step":
        return wire.frame(PROTOCOL_ID, draw(st.sampled_from(WRONG_STEPS)), session_id,
                          draw(junk))
    if op == "wrong protocol":
        other = draw(st.sampled_from(sorted(set(wire.PROTOCOL_NAMES) - {PROTOCOL_ID})))
        return wire.frame(other, draw(st.sampled_from([wire.STEP_REQUEST, wire.STEP_LAYER_UP])),
                          session_id, draw(junk))
    if op == "bad layer-up":
        return wire.frame(PROTOCOL_ID, wire.STEP_LAYER_UP, session_id, draw(junk))
    assert op == "bad request"
    return wire.frame(PROTOCOL_ID, wire.STEP_REQUEST, session_id, draw(junk))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(data=st.data())
def test_bad_frames_among_two_sessions(client_keys, server_keys, data):
    rng = insecure_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    served = prepare_served(PROTOCOL, LoadedModel("ffnn", SPEC, KAPPA), server_keys, KAPPA, rng)
    clients = [_Client(tag, client_keys, rng) for tag in (0xA, 0xB)]
    conn, live = _Connection(served), None
    try:
        for op in data.draw(st.lists(st.sampled_from(OPS), min_size=1, max_size=16), label="ops"):
            if op in ("a", "b"):
                live = clients["ab".index(op)].step(conn, live)
                continue
            if op == "oversized":
                conn.sock.sendall(struct.pack(">I", MAX_FRAME_BYTES + 1))
                assert conn.recv() is None  # a clean close
                conn.close()
                conn, live = _Connection(served), None
                for client in clients:
                    client.end()
                continue
            bad = _bad_frame(data, op, clients, live)
            conn.send(bad)
            answer = conn.recv()
            assert answer is not None and answer.step_id == wire.STEP_ERROR, (op, answer)
            live = _live_after_refusal(bad, live)
    finally:
        conn.close()
