"""Exception hierarchy shared by all pinfer modules."""


class PinferError(Exception):
    """Base class for all errors raised by pinfer."""


class ParameterError(PinferError):
    """A value violates a documented precondition (range, sizing, unknown id)."""


class KeyMismatchError(PinferError):
    """Operands were produced under different keys."""


class DecryptionError(PinferError):
    """Ciphertext cannot be decrypted under the supplied key."""


class DimensionMismatchError(PinferError):
    """Vector/model dimensions do not line up."""


class ProtocolViolationError(PinferError):
    """A peer message is inconsistent with the protocol (malformed, reused, impossible)."""


class MessageFormatError(PinferError):
    """Bytes on the wire do not decode to a valid frame or field."""
