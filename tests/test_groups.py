"""Group values: descriptors, rosters, epochs, retirement, digests."""

import hashlib

import pytest

from egroup import (
    Group,
    InterGroup,
    MemberDescriptor,
    Node,
    RetiredGroupError,
    Side,
    roster_digest,
)
from egroup.errors import DeadlineExceeded, ProtocolError
from egroup.groups import HOST_LABEL_WIDTH, new_incarnation_id
from egroup.wire import Envelope


def member(i, host="hostA"):
    return MemberDescriptor(host_label=host,
                            listen_address=f"127.0.0.1:{9000 + i}",
                            incarnation_id=f"{host}.{i}.{i:012x}")


def roster_of(n, host="hostA"):
    return tuple(member(i, host) for i in range(n))


class TestMemberDescriptor:
    def test_rejects_empty_host_label(self):
        with pytest.raises(ValueError):
            MemberDescriptor(host_label="", listen_address="x:1",
                             incarnation_id="a")

    def test_rejects_oversized_host_label(self):
        with pytest.raises(ValueError):
            MemberDescriptor(host_label="h" * (HOST_LABEL_WIDTH + 1),
                             listen_address="x:1", incarnation_id="a")

    def test_label_at_width_limit_is_accepted(self):
        m = MemberDescriptor(host_label="h" * HOST_LABEL_WIDTH,
                             listen_address="x:1", incarnation_id="a")
        assert len(m.host_label) == HOST_LABEL_WIDTH

    def test_json_round_trip(self):
        m = member(3)
        assert MemberDescriptor.from_fields(m.to_fields()) == m

    def test_from_json_rejects_malformed(self):
        fields = {"listen_address": "127.0.0.1:1", "incarnation_id": "x"}
        for obj in ({"host_label": "a"}, {"host_label": 5, **fields},
                    {"host_label": "", **fields}):
            with pytest.raises(ProtocolError):
                MemberDescriptor.from_fields(obj)

    @pytest.mark.parametrize("address", ["nohostport", ":1", "h:", "h:notaport",
                                         "h:65536", "h:-1", 5, None])
    def test_rejects_malformed_listen_address(self, address):
        with pytest.raises(ValueError):
            MemberDescriptor(host_label="a", listen_address=address,
                             incarnation_id="x")
        # From a peer, the same descriptor is a protocol error.
        with pytest.raises(ProtocolError):
            MemberDescriptor.from_fields({"host_label": "a",
                                        "listen_address": address,
                                        "incarnation_id": "x"})

    def test_port_range_bounds_are_accepted(self):
        for address in ("h:0", "h:65535"):
            m = MemberDescriptor(host_label="a", listen_address=address,
                                 incarnation_id="x")
            assert m.listen_address == address

    def test_incarnation_ids_are_unique(self):
        ids = {new_incarnation_id("h") for _ in range(1000)}
        assert len(ids) == 1000


class TestGroup:
    def test_singleton_rank_and_size(self):
        g = Group(epoch=0, roster=roster_of(1), my_rank=0)
        assert g.rank() == 0
        assert g.size() == 1

    def test_third_entry_has_rank_two(self):
        g = Group(epoch=0, roster=roster_of(4), my_rank=2)
        assert g.rank() == 2

    def test_rank_roster_consistency(self):
        roster = roster_of(5)
        for i in range(5):
            g = Group(epoch=1, roster=roster, my_rank=i)
            assert g.roster[g.rank()].incarnation_id == roster[i].incarnation_id

    def test_full_fleet_sizes(self):
        # 16 initial + 112 added = 128; 128 - 112 removed = 16.
        g = Group(epoch=1, roster=roster_of(128), my_rank=0)
        assert g.size() == 128
        shrunk = Group(epoch=2, roster=g.roster[:16], my_rank=0)
        assert shrunk.size() == 16

    def test_rejects_duplicate_ids(self):
        m = member(0)
        with pytest.raises(ValueError):
            Group(epoch=0, roster=(m, m), my_rank=0)

    def test_rejects_rank_out_of_range(self):
        with pytest.raises(ValueError):
            Group(epoch=0, roster=roster_of(2), my_rank=2)
        with pytest.raises(ValueError):
            Group(epoch=0, roster=roster_of(2), my_rank=-1)

    def test_rejects_negative_epoch(self):
        with pytest.raises(ValueError):
            Group(epoch=-1, roster=roster_of(1), my_rank=0)

    def test_member_lookup(self):
        roster = roster_of(3)
        g = Group(epoch=0, roster=roster, my_rank=1)
        assert g.member(2) == roster[2]
        assert g.descriptor() == roster[1]
        with pytest.raises(ValueError):
            g.member(3)


class TestRetirement:
    def test_retire_then_rank_errors(self):
        node = Node(host_label="h")
        try:
            g = node.make_group(0, (node.descriptor(),), 0)
            g.retire()
            with pytest.raises(RetiredGroupError):
                g.rank()
            with pytest.raises(RetiredGroupError):
                g.size()
        finally:
            node.close()

    def test_retire_is_idempotent(self):
        node = Node(host_label="h")
        try:
            g = node.make_group(0, (node.descriptor(),), 0)
            g.retire()
            g.retire()
            assert g.retired
        finally:
            node.close()

    def test_retire_rejects_buffered_envelopes_of_its_epoch(self):
        # An envelope of the retired epoch that is already buffered is
        # rejected at once, with a notice to its sender.
        with Node(host_label="h") as node, Node(host_label="h") as peer:
            g = node.make_group(1, (node.descriptor(),), 0)
            channel = peer.endpoint.connect(node.listen_address)
            for payload in (b"old", b"probe"):
                channel.send(Envelope(epoch=1, tag=20, src_rank=0, dst_rank=0,
                                      payload=payload))
            # A channel delivers in order: once the probe is here, so is "old".
            node.endpoint.recv(lambda e: e.payload == b"probe", 5)
            g.retire()
            notice = channel.wait_reject(5)
            assert notice is not None and notice["envelope_epoch"] == 1
            assert node.endpoint.stale_rejected_count == 1
            with pytest.raises(DeadlineExceeded):
                node.endpoint.recv(None, 0.2)

    def test_unbound_group_cannot_retire(self):
        g = Group(epoch=0, roster=roster_of(1), my_rank=0)
        with pytest.raises(ProtocolError):
            g.retire()


class TestInterGroup:
    def test_rejects_overlapping_rosters(self):
        roster = roster_of(3)
        g = Group(epoch=0, roster=roster[:2], my_rank=0)
        with pytest.raises(ValueError):
            InterGroup(local_group=g, remote_roster=roster[1:],
                       side=Side.PARENT)

    def test_disjoint_rosters_accepted(self):
        roster = roster_of(4)
        g = Group(epoch=0, roster=roster[:2], my_rank=0)
        inter = InterGroup(local_group=g, remote_roster=roster[2:],
                           side=Side.CHILD)
        assert inter.side is Side.CHILD
        assert not inter.consumed


class TestRosterDigest:
    def test_digest_matches_definition(self):
        roster = roster_of(2)
        expected = hashlib.sha256()
        for m in roster:
            expected.update(
                f"{m.incarnation_id}|{m.host_label}|{m.listen_address}\n".encode())
        assert roster_digest(roster) == expected.hexdigest()

    def test_digest_is_order_sensitive(self):
        roster = roster_of(3)
        assert roster_digest(roster) != roster_digest(tuple(reversed(roster)))

    def test_identical_rosters_agree(self):
        a = roster_of(4)
        b = tuple(MemberDescriptor.from_fields(m.to_fields()) for m in a)
        assert roster_digest(a) == roster_digest(b)
