"""Wire framing: bit-exact layout and serialization round-trips."""

import hashlib
import struct
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from egroup import errors, wire
from egroup.errors import ProtocolError
from egroup.wire import Envelope


def test_header_layout_is_pinned():
    assert wire.LENGTH_PREFIX.format == ">I"
    assert wire.HEADER.format == ">QIii"
    assert wire.HEADER.size == 20


def test_pack_bit_exact_oracle():
    # Hand-computed frame: epoch 3, tag 7, src 1, dst -1, payload b"ab".
    env = Envelope(epoch=3, tag=7, src_rank=1, dst_rank=-1, payload=b"ab")
    expected = (
        struct.pack(">I", 20 + 2)
        + struct.pack(">Q", 3)
        + struct.pack(">I", 7)
        + struct.pack(">i", 1)
        + struct.pack(">i", -1)
        + b"ab"
    )
    assert wire.pack(env) == expected


def test_pack_empty_payload():
    env = Envelope(epoch=0, tag=0, src_rank=0, dst_rank=0)
    data = wire.pack(env)
    assert len(data) == 4 + 20
    assert wire.unpack(data) == env


@given(
    epoch=st.integers(min_value=0, max_value=2**64 - 1),
    tag=st.integers(min_value=0, max_value=2**32 - 1),
    src=st.integers(min_value=-(2**31), max_value=2**31 - 1),
    dst=st.integers(min_value=-(2**31), max_value=2**31 - 1),
    payload=st.binary(max_size=1024 * 1024),
)
@settings(max_examples=200, deadline=None)
def test_round_trip_identity(epoch, tag, src, dst, payload):
    env = Envelope(epoch=epoch, tag=tag, src_rank=src, dst_rank=dst,
                   payload=payload)
    assert wire.unpack(wire.pack(env)) == env


def test_unpack_rejects_truncation():
    env = Envelope(epoch=1, tag=2, src_rank=0, dst_rank=1, payload=b"xyz")
    data = wire.pack(env)
    with pytest.raises(ProtocolError):
        wire.unpack(data[:-1])
    with pytest.raises(ProtocolError):
        wire.unpack(data + b"extra")
    with pytest.raises(ProtocolError):
        wire.unpack(b"\x00\x00")


def test_unpack_rejects_oversized_frame():
    huge = struct.pack(">I", wire.MAX_FRAME_BYTES + 1) + b"\x00" * 24
    with pytest.raises(ProtocolError):
        wire.unpack(huge)


def test_cut_frames_yields_whole_frames_and_keeps_the_rest():
    envs = [Envelope(epoch=1, tag=2, src_rank=i, dst_rank=0, payload=b"p" * i)
            for i in range(3)]
    third = wire.pack(envs[2])
    buf = bytearray(wire.pack(envs[0]) + wire.pack(envs[1]) + third[:3])
    assert list(wire.cut_frames(buf)) == envs[:2]
    assert buf == third[:3]
    buf += third[3:]
    assert list(wire.cut_frames(buf)) == envs[2:]
    assert buf == b""


@pytest.mark.parametrize("length", [wire.MAX_FRAME_BYTES + 1,
                                    wire.HEADER.size - 1],
                         ids=["oversized", "shorter-than-header"])
def test_cut_frames_rejects_a_bad_length(length):
    buf = bytearray(struct.pack(">I", length) + b"\x00" * wire.HEADER.size)
    with pytest.raises(ProtocolError):
        list(wire.cut_frames(buf))


def test_envelope_validates_fields():
    with pytest.raises(ValueError):
        Envelope(epoch=-1, tag=0, src_rank=0, dst_rank=0)
    with pytest.raises(ValueError):
        Envelope(epoch=0, tag=-1, src_rank=0, dst_rank=0)


def test_control_payload_round_trip():
    fields = {"incarnation_id": "a.1", "epoch": 4}
    msg = wire.parse_json_payload(wire.json_payload({**fields, "kind": "hello"}))
    assert msg == {"kind": "hello", "incarnation_id": "a.1", "epoch": 4}


def test_parse_json_payload_rejects_garbage():
    # Only a JSON object is a payload; other JSON values are malformed too.
    for payload in (b"\xff\xfe", b"{", b"[1, 2]", b"3"):
        with pytest.raises(ProtocolError):
            wire.parse_json_payload(payload)


def test_error_fields_round_trip_every_class():
    for cls in errors._BY_NAME.values():
        back = errors.error_from_fields(errors.error_fields(cls("went wrong")))
        assert type(back) is cls
        assert str(back) == "went wrong"


def test_error_from_unknown_name_is_base_class():
    back = errors.error_from_fields({"error": "NoSuchError", "message": "m"})
    assert type(back) is errors.EGroupError
    assert str(back) == "m"


def test_outcome_round_trip():
    assert wire.unwrap_outcome(wire.ok_outcome(b"result")) == b"result"
    assert wire.unwrap_outcome(wire.ok_outcome(b"")) == b""
    with pytest.raises(errors.FencingError, match="too late"):
        wire.unwrap_outcome(wire.error_outcome(errors.FencingError("too late")))


def test_tag_ranges_do_not_overlap():
    driver_tags = {wire.TAG_DRIVER_CMD, wire.TAG_DRIVER_REPLY}
    assert len(driver_tags) == 2
    assert all(0 < t <= wire.DRIVER_TAG_MAX for t in driver_tags)
    assert wire.TAG_COLL_BASE > wire.DRIVER_TAG_MAX
    fixed = {wire.TAG_SPAWN_REGISTER, wire.TAG_SPAWN_REPLY,
             wire.TAG_MERGE_HELLO, wire.TAG_MERGE_OUTCOME}
    assert len(fixed) == 4
    assert min(fixed) > wire.TAG_COLL_BASE + 10**6


@pytest.mark.parametrize("blocked", [(), ("_sha2", "_sha256")],
                         ids=["builtin", "hashlib"])
def test_sha256_matches_hashlib(monkeypatch, blocked):
    # With the builtin modules blocked the helper falls back to hashlib.
    for name in blocked:
        monkeypatch.setitem(sys.modules, name, None)
    h = wire.sha256(b"abc")
    h.update(b"def")
    assert h.digest() == hashlib.sha256(b"abcdef").digest()
    assert wire.sha256().hexdigest() == hashlib.sha256().hexdigest()
    builtin = type(h).__module__ in ("_sha2", "_sha256")
    assert builtin is not bool(blocked)


def test_parse_address_splits_host_and_port():
    assert wire.parse_address("127.0.0.1:0") == ("127.0.0.1", 0)
    assert wire.parse_address("::1:65535") == ("::1", 65535)
