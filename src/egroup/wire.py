"""Framed wire format for point-to-point messages.

Every frame is a 4-byte big-endian length prefix followed by a fixed header
(epoch u64, tag u32, src i32, dst i32, all big-endian) and the payload bytes.
Tag 0 is reserved for transport control messages (handshake and rejection
notices); tags 1-15 are reserved for the driver command protocol;
application traffic and collectives use tags from 16 upward, plus a few fixed
high tags for spawn/merge control.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass

from .errors import ProtocolError

HEADER = struct.Struct(">QIii")
LENGTH_PREFIX = struct.Struct(">I")

# Frames larger than this are treated as corruption, not data.
MAX_FRAME_BYTES = 64 * 1024 * 1024

TAG_CONTROL = 0
# Driver command protocol (reserved range 1-15).
TAG_DRIVER_CMD = 1
TAG_DRIVER_REPLY = 2
TAG_DRIVER_REGISTER = 3
TAG_DRIVER_ROSTER = 4
TAG_DRIVER_HELLO = 5
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


@dataclass(frozen=True)
class Envelope:
    """One wire message: epoch, tag, source rank, destination rank, payload."""

    epoch: int
    tag: int
    src_rank: int
    dst_rank: int
    payload: bytes = b""

    def __post_init__(self):
        if self.epoch < 0:
            raise ValueError(f"epoch must be non-negative, got {self.epoch}")
        if self.tag < 0:
            raise ValueError(f"tag must be non-negative, got {self.tag}")


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
    return Envelope(epoch=epoch, tag=tag, src_rank=src, dst_rank=dst,
                    payload=body[HEADER.size:])


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


def control_payload(kind: str, **fields) -> bytes:
    """Build the JSON payload of a tag-0 control message."""
    fields["kind"] = kind
    return json.dumps(fields, sort_keys=True).encode()


def parse_control(payload: bytes) -> dict:
    try:
        obj = json.loads(payload.decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"malformed control payload: {exc}") from exc
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ProtocolError("control payload is not an object with a kind")
    return obj


def json_payload(obj) -> bytes:
    return json.dumps(obj, sort_keys=True).encode()


def parse_json_payload(payload: bytes):
    try:
        return json.loads(payload.decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"malformed JSON payload: {exc}") from exc
