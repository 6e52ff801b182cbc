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
    msg = wire.decode_payload(wire.encode_payload({**fields, "kind": "hello"}))
    assert msg == {"kind": "hello", "incarnation_id": "a.1", "epoch": 4}


def test_decode_payload_rejects_garbage():
    # Only a dict is a payload; other values are malformed too.
    for payload in (b"\xff\xfe", wire.encode_payload({"a": "bc"})[:-1],
                    wire.encode_payload([1, 2]), wire.encode_payload(3)):
        with pytest.raises(ProtocolError):
            wire.decode_payload(payload)


# -- the payload codec ----------------------------------------------------------

def by_encoding(value):
    """``value`` with every scalar tagged by its type (True is not 1) and
    every float replaced by its IEEE bytes, so NaN compares equal to
    itself."""
    if type(value) is float:
        return "float", struct.pack(">d", value)
    if type(value) in (list, tuple):
        return [by_encoding(item) for item in value]
    if type(value) is dict:
        return {key: by_encoding(item) for key, item in value.items()}
    return type(value).__name__, value


def decodes_or_refuses(data):
    """Decoding ``data`` gives a dict or raises ProtocolError; any other
    exception fails the calling test."""
    try:
        assert type(wire.decode_payload(data)) is dict
    except ProtocolError:
        pass


def nested(depth):
    """The encoding of a dict that holds lists ``depth`` levels deep in
    all, the dict included, built by hand so no encoder bound applies."""
    return (b"\x07\x00\x00\x00\x01\x00\x00\x00\x01a"
            + b"\x06\x00\x00\x00\x01" * (depth - 1) + b"\x00")


TEXT = st.text(st.characters(exclude_categories=())
               | st.characters(min_codepoint=0xD800, max_codepoint=0xDFFF),
               max_size=12)
VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2 ** 63, 2 ** 63 - 1)
    | st.floats() | TEXT,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(TEXT, inner, max_size=4)),
    max_leaves=24)
# A registration-sized payload whose every part the mutation tests reach.
SAMPLE = wire.encode_payload({
    "children": [{"host_label": "node0", "incarnation_id": "node0.7.ab",
                  "listen_address": "127.0.0.1:4000"}],
    "elapsed_s": 0.25, "ok": True, "seq": -3, "seq_next": None,
    "flags": [False, 2 ** 40, "\u00e9\U0001f600"]})


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.binary(max_size=64))
def test_decode_payload_is_total_on_any_bytes(data):
    decodes_or_refuses(data)
    decodes_or_refuses(b"\x07" + data)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(VALUES)
def test_payload_round_trip(value):
    data = wire.encode_payload({"v": value})
    decoded = wire.decode_payload(data)
    assert by_encoding(decoded) == {"v": by_encoding(value)}
    assert wire.encode_payload(decoded) == data


def test_equal_dicts_encode_to_identical_bytes():
    assert (wire.encode_payload({"b": 1, "a": [2, {"d": 3, "c": 4}]})
            == wire.encode_payload({"a": (2, {"c": 4, "d": 3}), "b": 1}))


def test_truncation_at_every_offset_is_refused():
    for end in range(len(SAMPLE)):
        with pytest.raises(ProtocolError):
            wire.decode_payload(SAMPLE[:end])


def test_every_single_byte_mutation_decodes_or_refuses():
    for offset in range(len(SAMPLE)):
        for byte in (0, 1, 5, 6, 7, 8, 0x7F, 0x80, 0xFF):
            decodes_or_refuses(
                SAMPLE[:offset] + bytes([byte]) + SAMPLE[offset + 1:])


def test_inflated_lengths_and_counts_are_refused_before_allocating():
    for offset in range(len(SAMPLE) - 3):
        for size in (len(SAMPLE), 2 ** 31, 2 ** 32 - 1):
            decodes_or_refuses(SAMPLE[:offset] + struct.pack(">I", size)
                               + SAMPLE[offset + 4:])
    for kind in (b"\x05", b"\x06", b"\x07"):
        with pytest.raises(ProtocolError, match="past the payload"):
            wire.decode_payload(b"\x07\x00\x00\x00\x01\x00\x00\x00\x01a"
                                + kind + b"\xff\xff\xff\xff")


def test_invalid_utf8_is_refused():
    for raw in (b"\xff", b"\xc3\x28", b"\xe2\x82", b"\xf8\x88\x80\x80\x80"):
        string = struct.pack(">I", len(raw)) + raw
        for data in (b"\x07\x00\x00\x00\x01\x00\x00\x00\x01a\x05" + string,
                     b"\x07\x00\x00\x00\x01" + string + b"\x00"):
            with pytest.raises(ProtocolError, match="UTF-8"):
                wire.decode_payload(data)


def test_every_unused_type_byte_is_refused():
    for kind in range(8, 256):
        with pytest.raises(ProtocolError, match="type byte"):
            wire.decode_payload(b"\x07\x00\x00\x00\x01\x00\x00\x00\x01a"
                                + bytes([kind]))


def test_nesting_past_the_bound_is_refused():
    assert wire.encode_payload(wire.decode_payload(nested(wire.MAX_NESTING))) \
        == nested(wire.MAX_NESTING)
    with pytest.raises(ProtocolError, match="nests deeper"):
        wire.decode_payload(nested(wire.MAX_NESTING + 1))
    # Far past the bound it is the same error, never a RecursionError.
    with pytest.raises(ProtocolError, match="nests deeper"):
        wire.decode_payload(nested(sys.getrecursionlimit() + 10))
    too_deep = {}
    for _ in range(wire.MAX_NESTING):
        too_deep = {"a": too_deep}
    with pytest.raises(ValueError, match="nests deeper"):
        wire.encode_payload(too_deep)


def test_trailing_bytes_are_refused():
    with pytest.raises(ProtocolError, match="trailing"):
        wire.decode_payload(wire.encode_payload({"a": 1}) + b"\x00")


@pytest.mark.parametrize("value", [object(), b"bytes", {1: "int key"},
                                   {"a": {2.5}}, [1j]],
                         ids=["object", "bytes", "int-key", "set", "complex"])
def test_unsupported_values_fail_to_encode(value):
    with pytest.raises(TypeError):
        wire.encode_payload(value)


@pytest.mark.parametrize("number", [2 ** 63, -2 ** 63 - 1])
def test_ints_outside_int64_fail_to_encode(number):
    with pytest.raises(ValueError, match="64 bits"):
        wire.encode_payload({"n": number})
    assert wire.decode_payload(wire.encode_payload({"n": number // 2})) \
        == {"n": number // 2}


def test_type_byte_layout_is_pinned():
    assert wire.encode_payload({"k": [None, False, True, -2, 1.5, "\u00e9"]}) \
        == (b"\x07\x00\x00\x00\x01" + b"\x00\x00\x00\x01k"
            + b"\x06\x00\x00\x00\x06" + b"\x00" + b"\x01" + b"\x02"
            + b"\x03" + struct.pack(">q", -2) + b"\x04" + struct.pack(">d", 1.5)
            + b"\x05\x00\x00\x00\x02\xc3\xa9")


def wire_messages():
    """Every kind of structured payload that goes on the wire, built by the
    code that sends it."""
    from egroup import transport
    from egroup.groups import MemberDescriptor
    from egroup.spawner import SpawnSpec
    member = MemberDescriptor("node0", "127.0.0.1:4000", "node0.7.abcdef")
    spec = SpawnSpec(program=sys.executable, args=("-S", "-c", "pass"),
                     count=2, host_labels=("node0", "node1"))
    return {
        "hello": transport._control("hello", incarnation_id="a.1", epoch=2),
        "hello_ok": transport._control("hello_ok", incarnation_id="b.2",
                                       epoch=-1),
        "hello_reject": transport._control(
            "hello_reject", incarnation_id="b.2", epoch=5,
            reason="stale_epoch"),
        "reject_notice": transport._control(
            "reject_notice", envelope_epoch=1, receiver_epoch=2, tag=16),
        "registration": {"host_label": member.host_label,
                         "listen_address": member.listen_address,
                         "spawn_id": "0123456789abcdef"},
        "spawn_outcome": {"parents": [member.to_fields()],
                          "children": [member.to_fields()] * 2},
        "digest_body": {"program": spec.program, "args": list(spec.args),
                        "count": spec.count,
                        "host_labels": list(spec.host_labels)},
        "driver_command": {"op": "scale_out", "seq": 7, "timeout": 119.75,
                           "num_add": 2, "child_program": sys.executable,
                           "child_args": ["-S", "-c", "main()"],
                           "host_labels": ["node0", "node1"]},
        "scale_in_command": {"op": "scale_in", "seq": 8, "is_removing": True},
        "worker_reply": {"ok": True, "seq": 7, "ids": ["a.1", "b.2"]},
        "error_reply": {"ok": False, "seq": 9,
                        **errors.error_fields(errors.SpawnError("no"))},
    }


@pytest.mark.parametrize("kind", sorted(wire_messages()))
def test_every_wire_message_round_trips(kind):
    message = wire_messages()[kind]
    if isinstance(message, Envelope):
        message = wire.decode_payload(message.payload)
        assert message["kind"] == kind
    data = wire.encode_payload(message)
    assert by_encoding(wire.decode_payload(data)) == by_encoding(message)
    outcome = wire.unwrap_outcome(wire.ok_outcome(data))
    assert by_encoding(wire.decode_payload(outcome)) == by_encoding(message)


def test_error_outcome_round_trips_its_class():
    with pytest.raises(errors.SpawnError, match="^went wrong$"):
        wire.unwrap_outcome(wire.error_outcome(errors.SpawnError("went wrong")))


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
