"""Bit-exact message framing, ciphertext serialization and bandwidth accounting.

Every ciphertext serializes to exactly 2*ceil(l_M/8) bytes big-endian, where
l_M is the key's modulus bit length; plaintext scalars (masked values) take
ceil(l_M/8) bytes and public keys likewise (the same bytes, in hex, where the
container is JSON: the network META and key files). A frame of version 3 is

    version(1) | protocol_id(1) | step_id(1) | session_id(16) |
    part_count(u32) | { part_len(u32) | part_bytes } * part_count

Frames reject unknown protocol ids, truncation and trailing bytes; a
ciphertext must be a unit modulo N**2, so zero and other values sharing a
factor with N are refused here rather than deep inside a protocol. Version 3
sends nothing the receiver can derive: no layer index or output flag on layer
messages, no model dimension in the publish frame, no bound length in the
svm-core request and no network mode, variant or layer scale in META.
Transcripts record per-message byte and ciphertext counts; ``message_plan``
gives the closed-form per-message ciphertext counts each protocol must match.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field

from .errors import MessageFormatError, ParameterError
from .paillier import Ciphertext, PublicKey

FRAME_VERSION = 3


@dataclass(frozen=True)
class Protocol:
    """The facts of one protocol that set-up, the runner and the CLI read."""

    wire_id: int
    model_types: tuple[str, ...]
    needs_server_keys: bool
    #: It publishes the model encrypted under the server key.
    publishes: bool
    #: Network mode, "generic" or "encrypted"; None for the linear protocols.
    mode: str | None = None
    #: "core" (masked comparison) or "heuristic"; None if nothing is compared.
    variant: str | None = None
    #: Encrypted networks: the activation every compared layer must have.
    activation: str | None = None


PROTOCOLS = {
    "regr-core": Protocol(1, ("linear", "logistic"), False, False),
    "regr-dual": Protocol(2, ("linear", "logistic"), True, True),
    "svm-core": Protocol(3, ("svm",), True, True, variant="core"),
    "svm-heur": Protocol(4, ("svm",), False, False, variant="heuristic"),
    "ffnn-generic": Protocol(5, ("ffnn",), False, False, "generic"),
    "ffnn-sign": Protocol(6, ("ffnn",), True, False, "encrypted", "core", "sign"),
    "ffnn-sign-heur": Protocol(7, ("ffnn",), False, False, "encrypted", "heuristic", "sign"),
    "ffnn-relu": Protocol(8, ("ffnn",), True, False, "encrypted", "core", "relu"),
    "ffnn-relu-heur": Protocol(9, ("ffnn",), False, False, "encrypted", "heuristic", "relu"),
}
PROTOCOL_IDS = {name: p.wire_id for name, p in PROTOCOLS.items()}
PROTOCOL_NAMES = {v: k for k, v in PROTOCOL_IDS.items()}


def get_protocol(name: str) -> Protocol:
    """The table entry of protocol ``name``; ParameterError if there is none."""
    try:
        return PROTOCOLS[name]
    except KeyError:
        raise ParameterError(f"unknown protocol {name!r}") from None


STEP_PUBLISH_REQUEST = 1
STEP_PUBLISH = 2
STEP_REQUEST = 3
STEP_RESPONSE = 4
STEP_META = 5
STEP_LAYER_DOWN = 6
STEP_LAYER_UP = 7
STEP_OUTPUT = 8
STEP_ERROR = 15

SESSION_ID_BYTES = 16

#: Longest public key field accepted: 3,072 bits, the largest key ``pinfer
#: keygen`` makes. The peer that receives a key exponentiates under it, so
#: the length is checked before the field becomes an integer.
MAX_KEY_BYTES = 384


# ---------------------------------------------------------------------------
# fixed-width field codecs

def ciphertext_width(pk: PublicKey) -> int:
    """Serialized ciphertext size in bytes: 2 * ceil(l_M / 8)."""
    return 2 * ((pk.bit_length + 7) // 8)


def scalar_width(pk: PublicKey) -> int:
    """Serialized plaintext-scalar size in bytes: ceil(l_M / 8)."""
    return (pk.bit_length + 7) // 8


def serialize_ciphertext(c: Ciphertext, pk: PublicKey) -> bytes:
    if c.public_key != pk:
        raise ParameterError("ciphertext does not belong to the given key")
    return c.value.to_bytes(ciphertext_width(pk), "big")


def deserialize_ciphertext(data: bytes, pk: PublicKey) -> Ciphertext:
    if len(data) != ciphertext_width(pk):
        raise MessageFormatError(
            f"ciphertext must be {ciphertext_width(pk)} bytes, got {len(data)}")
    value = int.from_bytes(data, "big")
    if value >= pk.n_squared:
        raise MessageFormatError("ciphertext value outside the ciphertext space")
    if math.gcd(value, pk.n) != 1:
        raise MessageFormatError("ciphertext value is not a unit modulo N")
    return Ciphertext(value, pk)


def serialize_scalar(value: int, pk: PublicKey) -> bytes:
    if not 0 <= value < pk.n:
        raise ParameterError("scalar outside the message space")
    return value.to_bytes(scalar_width(pk), "big")


def deserialize_scalar(data: bytes, pk: PublicKey) -> int:
    if len(data) != scalar_width(pk):
        raise MessageFormatError(
            f"scalar must be {scalar_width(pk)} bytes, got {len(data)}")
    value = int.from_bytes(data, "big")
    if value >= pk.n:
        raise MessageFormatError("scalar outside the message space")
    return value


def serialize_public_key(pk: PublicKey) -> bytes:
    return pk.n.to_bytes(scalar_width(pk), "big")


def deserialize_public_key(data: bytes) -> PublicKey:
    if not data:
        raise MessageFormatError("empty public key field")
    if len(data) > MAX_KEY_BYTES:
        raise MessageFormatError(f"public key field of {len(data)} bytes exceeds "
                                 f"the {MAX_KEY_BYTES}-byte limit")
    try:
        return PublicKey(int.from_bytes(data, "big"))
    except ParameterError as exc:
        raise MessageFormatError(str(exc)) from None


def pack_u32(value: int) -> bytes:
    return struct.pack(">I", value)


def unpack_u32(data: bytes) -> int:
    if len(data) != 4:
        raise MessageFormatError("u32 field must be 4 bytes")
    return struct.unpack(">I", data)[0]


# ---------------------------------------------------------------------------
# frames

@dataclass(frozen=True)
class Frame:
    protocol_id: int
    step_id: int
    session_id: bytes
    parts: tuple[bytes, ...]


def frame(protocol_id: int, step_id: int, session_id: bytes, parts) -> bytes:
    """Serialize one protocol message; lossless and order-preserving."""
    if protocol_id not in PROTOCOL_NAMES:
        raise ParameterError(f"unknown protocol id {protocol_id}")
    if len(session_id) != SESSION_ID_BYTES:
        raise ParameterError(f"session id must be {SESSION_ID_BYTES} bytes")
    out = [bytes([FRAME_VERSION, protocol_id, step_id]), session_id,
           struct.pack(">I", len(parts))]
    for part in parts:
        out.append(struct.pack(">I", len(part)))
        out.append(part)
    return b"".join(out)


def unframe(data: bytes) -> Frame:
    """Parse a frame; rejects unknown ids, truncation and trailing bytes."""
    if len(data) < 3 + SESSION_ID_BYTES + 4:
        raise MessageFormatError("frame too short")
    if data[0] != FRAME_VERSION:
        raise MessageFormatError(f"unsupported frame version {data[0]}")
    protocol_id, step_id = data[1], data[2]
    if protocol_id not in PROTOCOL_NAMES:
        raise MessageFormatError(f"unknown protocol id {protocol_id}")
    session_id = data[3:3 + SESSION_ID_BYTES]
    offset = 3 + SESSION_ID_BYTES
    (count,) = struct.unpack_from(">I", data, offset)
    offset += 4
    parts = []
    for _ in range(count):
        if offset + 4 > len(data):
            raise MessageFormatError("truncated frame: missing part length")
        (length,) = struct.unpack_from(">I", data, offset)
        offset += 4
        if offset + length > len(data):
            raise MessageFormatError("truncated frame: part shorter than its length")
        parts.append(data[offset:offset + length])
        offset += length
    if offset != len(data):
        raise MessageFormatError("trailing bytes after frame")
    return Frame(protocol_id, step_id, session_id, tuple(parts))


# ---------------------------------------------------------------------------
# transcripts

@dataclass(frozen=True)
class TranscriptEntry:
    direction: str  # "up" = client to server, "down" = server to client
    step_id: int
    byte_count: int
    ciphertext_count: int = 0


@dataclass
class Transcript:
    """Ordered record of a protocol run's messages."""

    entries: list[TranscriptEntry] = field(default_factory=list)

    def record(self, direction: str, step_id: int, byte_count: int,
               ciphertext_count: int = 0) -> None:
        if direction not in ("up", "down"):
            raise ParameterError("direction must be 'up' or 'down'")
        self.entries.append(TranscriptEntry(direction, step_id, byte_count,
                                            ciphertext_count))

    @property
    def round_trips(self) -> int:
        """Number of direction changes from client->server to server->client."""
        count, previous = 0, None
        for entry in self.entries:
            if entry.direction == "down" and previous == "up":
                count += 1
            previous = entry.direction
        return count

    def stats(self) -> dict:
        return {
            "bytes_up": sum(e.byte_count for e in self.entries if e.direction == "up"),
            "bytes_down": sum(e.byte_count for e in self.entries if e.direction == "down"),
            "round_trips": self.round_trips,
        }

    def ciphertexts(self, direction: str) -> int:
        return sum(e.ciphertext_count for e in self.entries if e.direction == direction)


# ---------------------------------------------------------------------------
# closed-form message sizes

@dataclass(frozen=True)
class MessageRow:
    """One message group: ciphertext count plus plain l_M-bit scalars (keys,
    masked values)."""

    label: str
    direction: str
    ciphertexts: int
    plain_scalars: int = 0

    def bits(self, ell_m: int) -> int:
        return self.ciphertexts * 2 * ell_m + self.plain_scalars * ell_m


def message_plan(protocol: str, *, d: int | None = None, ell: int | None = None,
                 layers: int | None = None, units: int | None = None
                 ) -> tuple[MessageRow, ...]:
    """Per-direction ciphertext counts each protocol run must reproduce.

    Publication of an encrypted model is listed as its own row: the server
    encrypts the model once, and the client fetches it at the start of every
    query, in an exchange of its own. For the network protocols the rows
    aggregate over layers and units (the generic row counts the input
    message as the first up layer, which is what makes both directions
    symmetric).
    """
    info = get_protocol(protocol)
    shape = {"d": d} if info.mode is None else {"layers": layers, "units": units}
    if info.variant == "core":
        shape["ell"] = ell
    for name, value in shape.items():
        if value is None:
            raise ParameterError(f"{protocol} needs {name}")
    if protocol in ("regr-core", "svm-heur"):
        return (MessageRow("request", "up", d, plain_scalars=1),
                MessageRow("response", "down", 1))
    if protocol == "regr-dual":
        return (MessageRow("publish", "down", d + 1, plain_scalars=1),
                MessageRow("request", "up", 1),
                MessageRow("response", "down", 0, plain_scalars=1))
    if protocol == "svm-core":
        return (MessageRow("publish", "down", d + 1, plain_scalars=1),
                MessageRow("request", "up", ell + 1, plain_scalars=1),
                MessageRow("response", "down", ell + 1))
    if protocol == "ffnn-generic":
        return (MessageRow("inner products", "down", layers * units),
                MessageRow("activations", "up", layers * units))
    # Per unit: a heuristic unit's one ciphertext down and its one (sign) or
    # three (relu) up, to which a core unit adds its ell mask bits down and
    # the comparison's ell + 1 values up.
    down, up = 1, 3 if info.activation == "relu" else 1
    if info.variant == "core":
        down, up = down + ell, up + ell + 1
    total = layers * units
    return (MessageRow("unit challenges", "down", total * down),
            MessageRow("unit responses", "up", total * up))


def plan_bits(protocol: str, ell_m: int, **kwargs) -> dict:
    """Total predicted bits per direction, publication separate."""
    return rows_bits(message_plan(protocol, **kwargs), ell_m)


def rows_bits(rows, ell_m: int) -> dict:
    """Total bits of the given plan rows per direction, publication separate."""
    out = {"publish": 0, "up": 0, "down": 0}
    for row in rows:
        out["publish" if row.label == "publish" else row.direction] += row.bits(ell_m)
    return out
