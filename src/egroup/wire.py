"""Framed wire format for point-to-point messages.

Every frame is a 4-byte big-endian length prefix followed by a fixed header
(epoch u64, tag u32, src i32, dst i32, all big-endian) and the payload bytes.
Tag 0 is reserved for transport control messages (handshake and rejection
notices); tags 1-15 are reserved for the driver command protocol;
application traffic and collectives use tags from 16 upward, plus a few fixed
high tags for spawn/merge control.

Structured payloads (control messages, registrations, outcomes, driver
commands and replies) are dicts in one binary value codec,
``encode_payload``/``decode_payload``: each value is one type byte and its
body, all numbers big-endian. None, False and True are the type byte alone;
an int is a signed 64-bit integer, a float an IEEE double; a str is a u32
byte length and its UTF-8 bytes (``surrogatepass``, so every str
round-trips); a list (or tuple) is a u32 count and its items; a dict is a
u32 count and its pairs, each a key (a u32 length and UTF-8 bytes, no type
byte) and a value, keys sorted so equal dicts encode to identical bytes.
"""

from __future__ import annotations

import struct
import sys
import time

from .errors import ProtocolError, error_fields, error_from_fields

HEADER = struct.Struct(">QIii")
LENGTH_PREFIX = struct.Struct(">I")

# Frames larger than this are treated as corruption, not data.
MAX_FRAME_BYTES = 64 * 1024 * 1024

TAG_CONTROL = 0
# Driver command protocol (reserved range 1-15).
TAG_DRIVER_CMD = 1
TAG_DRIVER_REPLY = 2
DRIVER_TAG_MAX = 15
# First tag handed out by the per-epoch collective tag counters.
TAG_COLL_BASE = 16
# Fixed tags for spawn registration and inter-group merge; these live at the
# top of the tag space so the collective counters can never collide with them.
TAG_SPAWN_REGISTER = 0xFFFF0001
TAG_SPAWN_REPLY = 0xFFFF0002
TAG_MERGE_HELLO = 0xFFFF0003
TAG_MERGE_OUTCOME = 0xFFFF0004

# src/dst rank used by parties that are not members of the addressed group
# (the driver, or processes that have not joined yet).
NO_RANK = -1

# How long past its own deadline a member waits for a root's outcome, so a
# root that gives up at the same deadline still reaches it with the error.
OUTCOME_SLACK = 0.5


def parse_address(address: str) -> tuple:
    """Split ``host:port`` into a host string and an integer port from 0 to
    65535; anything else raises ValueError."""
    if not isinstance(address, str):
        raise ValueError(f"address must be a host:port string, got {address!r}")
    host, sep, port = address.rpartition(":")
    if not sep or not host:
        raise ValueError(f"address must look like host:port, got {address!r}")
    if not (port.isascii() and port.isdigit()):
        raise ValueError(f"port of {address!r} is not a decimal number")
    number = int(port)
    if number > 65535:
        raise ValueError(f"port of {address!r} is out of range 0-65535")
    return host, number


def sha256(data: bytes = b""):
    """A SHA-256 hash object from the interpreter's builtin module, so that
    computing a digest does not load OpenSSL; ``hashlib`` only where the
    interpreter was built without that module. The digests are the same."""
    try:
        if sys.version_info >= (3, 12):
            from _sha2 import sha256 as new
        else:
            from _sha256 import sha256 as new
    except ImportError:
        from hashlib import sha256 as new
    return new(data)


class Deadline:
    """One monotonic deadline shared by every wait of a call (``at`` None: never)."""

    __slots__ = ("at",)

    def __init__(self, at):
        self.at = at

    @classmethod
    def of(cls, timeout) -> "Deadline":
        """``timeout`` seconds from now (None: never); a Deadline passes as is."""
        if isinstance(timeout, Deadline):
            return timeout
        return cls(None if timeout is None else time.monotonic() + timeout)

    def remaining(self):
        return None if self.at is None else max(0.0, self.at - time.monotonic())

    def expired(self) -> bool:
        return self.at is not None and time.monotonic() >= self.at

    def for_outcome(self) -> "Deadline":
        """This deadline plus OUTCOME_SLACK, for waiting on a root's outcome."""
        return self if self.at is None else Deadline(self.at + OUTCOME_SLACK)


class Value:
    """Base of the small immutable value types a worker handles.

    A subclass names its fields in ``__slots__`` and takes them in that order
    in ``__init__``, which checks them and stores them with ``_init_fields``;
    any later assignment raises AttributeError. Two values are equal when they are of the same class and
    agree on every field in ``_compare`` (all of ``__slots__`` unless the
    subclass narrows it), and they hash the same way.
    """

    __slots__ = ()
    _compare = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if "_compare" not in vars(cls):
            cls._compare = cls.__slots__

    def _init_fields(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _key(self) -> tuple:
        return tuple([getattr(self, name) for name in self._compare])

    def __setattr__(self, name, value):
        raise AttributeError(
            f"cannot assign to field {name!r} of immutable "
            f"{type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(
            f"cannot delete field {name!r} of immutable {type(self).__name__}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __reduce__(self):
        # Every subclass takes its fields positionally in __slots__ order, so
        # copy and pickle rebuild a value through its checking __init__.
        return type(self), tuple([getattr(self, name) for name in self.__slots__])

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self._compare)
        return f"{type(self).__name__}({fields})"


class Envelope(Value):
    """One wire message: epoch, tag, source rank, destination rank, payload."""

    __slots__ = ("epoch", "tag", "src_rank", "dst_rank", "payload")

    def __init__(self, epoch: int, tag: int, src_rank: int, dst_rank: int,
                 payload: bytes = b""):
        if epoch < 0:
            raise ValueError(f"epoch must be non-negative, got {epoch}")
        if tag < 0:
            raise ValueError(f"tag must be non-negative, got {tag}")
        # Built for every frame received, so the fields are stored inline.
        _set = object.__setattr__
        _set(self, "epoch", epoch)
        _set(self, "tag", tag)
        _set(self, "src_rank", src_rank)
        _set(self, "dst_rank", dst_rank)
        _set(self, "payload", payload)


def pack(envelope: Envelope) -> bytes:
    """Serialize an envelope, length prefix included."""
    body = HEADER.pack(
        envelope.epoch, envelope.tag, envelope.src_rank, envelope.dst_rank
    )
    return LENGTH_PREFIX.pack(HEADER.size + len(envelope.payload)) + body + envelope.payload


def unpack(data: bytes) -> Envelope:
    """Parse one serialized envelope; the buffer must hold exactly one frame."""
    if len(data) < LENGTH_PREFIX.size:
        raise ProtocolError("truncated frame: missing length prefix")
    (length,) = LENGTH_PREFIX.unpack_from(data)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame of {length} bytes exceeds limit")
    if len(data) != LENGTH_PREFIX.size + length:
        raise ProtocolError(
            f"frame length mismatch: prefix says {length}, "
            f"buffer holds {len(data) - LENGTH_PREFIX.size}"
        )
    return unpack_body(data[LENGTH_PREFIX.size:])


def unpack_body(body: bytes) -> Envelope:
    """Parse a frame body (header plus payload, no length prefix)."""
    if len(body) < HEADER.size:
        raise ProtocolError("truncated frame: short header")
    epoch, tag, src, dst = HEADER.unpack_from(body)
    return Envelope(epoch, tag, src, dst, body[HEADER.size:])


def read_exact(sock, n: int) -> bytes:
    """Read exactly n bytes from a socket, or raise ConnectionError on EOF."""
    chunks = []
    remaining = n
    while remaining > 0:
        chunk = sock.recv(remaining)
        if not chunk:
            raise ConnectionError("connection closed while reading frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def _check_length(length: int) -> None:
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame of {length} bytes exceeds limit")
    if length < HEADER.size:
        raise ProtocolError("frame shorter than header")


def read_envelope(sock) -> Envelope:
    """Read one complete frame from a blocking socket."""
    (length,) = LENGTH_PREFIX.unpack(read_exact(sock, LENGTH_PREFIX.size))
    _check_length(length)
    return unpack_body(read_exact(sock, length))


def cut_frames(buf: bytearray):
    """Yield every complete frame at the front of ``buf``, removing the bytes
    of each one yielded; a trailing partial frame stays for the next read."""
    start = 0
    try:
        while len(buf) - start >= LENGTH_PREFIX.size:
            (length,) = LENGTH_PREFIX.unpack_from(buf, start)
            _check_length(length)
            end = start + LENGTH_PREFIX.size + length
            if end > len(buf):
                return
            body = bytes(buf[start + LENGTH_PREFIX.size:end])
            start = end
            yield unpack_body(body)
    finally:
        del buf[:start]


# Type bytes of the payload codec.
_NONE, _FALSE, _TRUE, _INT, _FLOAT, _STR, _LIST, _DICT = range(8)
_U32 = struct.Struct(">I")
_I64 = struct.Struct(">q")
_F64 = struct.Struct(">d")
# A type byte and what follows it, packed in one call.
_SIZED = struct.Struct(">BI")
_TYPED_INT = struct.Struct(">Bq")
_TYPED_FLOAT = struct.Struct(">Bd")
# Deepest nesting of lists and dicts in a payload; the top-level dict is 1.
MAX_NESTING = 16


def encode_payload(obj) -> bytes:
    """Encode a value of None, bool, int, float, str, list, tuple and
    str-keyed dict; any other type raises TypeError, an int outside int64
    or nesting deeper than MAX_NESTING ValueError."""
    out = bytearray()
    _encode(obj, out, 0)
    return bytes(out)


def _encode(obj, out: bytearray, depth: int) -> None:
    kind = type(obj)
    if kind is str:
        data = obj.encode("utf-8", "surrogatepass")
        out += _SIZED.pack(_STR, len(data))
        out += data
    elif kind is int:
        try:
            out += _TYPED_INT.pack(_INT, obj)
        except struct.error:
            raise ValueError(f"int {obj} does not fit in 64 bits") from None
    elif kind is bool:
        out.append(_TRUE if obj else _FALSE)
    elif obj is None:
        out.append(_NONE)
    elif kind is float:
        out += _TYPED_FLOAT.pack(_FLOAT, obj)
    elif kind is dict or kind is list or kind is tuple:
        if depth == MAX_NESTING:
            raise ValueError(f"payload nests deeper than {MAX_NESTING}")
        out += _SIZED.pack(_DICT if kind is dict else _LIST, len(obj))
        depth += 1
        if kind is dict:
            for key in sorted(obj):
                if type(key) is not str:
                    raise TypeError(f"payload key {key!r} is not a str")
                data = key.encode("utf-8", "surrogatepass")
                out += _U32.pack(len(data))
                out += data
                _encode(obj[key], out, depth)
        else:
            for item in obj:
                _encode(item, out, depth)
    else:
        raise TypeError(f"cannot encode {kind.__name__} in a payload")


def decode_payload(data) -> dict:
    """Decode a payload that must hold one dict. Any other bytes raise
    ProtocolError: a truncated value, a length or count past the end of the
    data, bad UTF-8, an unknown type byte, nesting deeper than MAX_NESTING,
    trailing bytes or a top-level value that is not a dict."""
    # Slicing bytes and decoding the slice beats decoding a memoryview's.
    data = bytes(data)
    try:
        obj, end = _decode(data, 0, 0)
    except (IndexError, struct.error):
        raise ProtocolError("truncated payload") from None
    except UnicodeDecodeError as exc:
        raise ProtocolError(f"payload string is not UTF-8: {exc}") from None
    if end != len(data):
        raise ProtocolError(f"{len(data) - end} trailing bytes after payload")
    if type(obj) is not dict:
        raise ProtocolError(
            f"payload is a {type(obj).__name__}, not a dict")
    return obj


def _decode_str(data: bytes, pos: int) -> tuple:
    """The str whose u32 length is at ``pos``, and the offset after it."""
    start = pos + 4
    end = start + _U32.unpack_from(data, pos)[0]
    if end > len(data):
        raise ProtocolError(f"string of {end - start} bytes runs past the payload")
    return data[start:end].decode("utf-8", "surrogatepass"), end


def _decode(data: bytes, pos: int, depth: int) -> tuple:
    """The value at ``pos`` and the offset after it."""
    kind = data[pos]
    if kind == _STR:
        return _decode_str(data, pos + 1)
    if kind == _INT:
        return _I64.unpack_from(data, pos + 1)[0], pos + 9
    if kind <= _TRUE:
        return (None, False, True)[kind], pos + 1
    if kind == _FLOAT:
        return _F64.unpack_from(data, pos + 1)[0], pos + 9
    if kind > _DICT:
        raise ProtocolError(f"unknown payload type byte {kind}")
    if depth == MAX_NESTING:
        raise ProtocolError(f"payload nests deeper than {MAX_NESTING}")
    count = _U32.unpack_from(data, pos + 1)[0]
    pos += 5
    # Every item takes at least one byte, every dict entry five.
    if count * (5 if kind == _DICT else 1) > len(data) - pos:
        raise ProtocolError(f"count {count} runs past the payload")
    depth += 1
    if kind == _LIST:
        items = [None] * count
        for i in range(count):
            # A call less per string, as in a reply's list of ids.
            if data[pos] == _STR:
                items[i], pos = _decode_str(data, pos + 1)
            else:
                items[i], pos = _decode(data, pos, depth)
        return items, pos
    fields = {}
    for _ in range(count):
        key, pos = _decode_str(data, pos)
        fields[key], pos = _decode(data, pos, depth)
    return fields, pos


# An outcome is a status byte and then either the result or the error fields.
_OK = b"\x00"
_ERR = b"\x01"


def ok_outcome(payload: bytes) -> bytes:
    return _OK + payload


def error_outcome(exc: Exception) -> bytes:
    return _ERR + encode_payload(error_fields(exc))


def unwrap_outcome(payload: bytes) -> bytes:
    """Return the result of an ok outcome, or raise the error it carries."""
    if payload[:1] == _OK:
        return payload[1:]
    raise error_from_fields(decode_payload(payload[1:]))
