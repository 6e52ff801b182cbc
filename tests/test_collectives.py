"""Collective operations over live in-process groups.

The split ordering rule has an independent oracle here: a naive
reimplementation checked exhaustively against partition_by_color before any
live-group test relies on it.
"""

import hashlib
import itertools
import socket
import threading
import time

import pytest
from hypothesis import given, settings, strategies as st

from egroup import (
    Group,
    InterGroup,
    MemberDescriptor,
    Node,
    RetirementToken,
    Side,
    SplitKey,
    ThreadLauncher,
    wire,
)
from egroup.collectives import (
    allgather,
    barrier,
    broadcast,
    merge,
    partition_by_color,
    split,
)
from egroup.errors import DeadlineExceeded, EGroupError, ProtocolError
from egroup.scaling import scale_in
from egroup.spawner import BootstrapTicket, SpawnSpec, attach_parent, spawn
from egroup.transport import match_fields
from egroup.wire import Envelope

from conftest import cluster, run_members


# Oracle: the ordering rule restated from scratch, without reusing any of
# the library's sorting machinery.
def naive_partition(entries):
    colors = sorted({color for color, _ in entries})
    result = {}
    for color in colors:
        ranked = [(key, old_rank)
                  for old_rank, (c, key) in enumerate(entries) if c == color]
        ranked.sort(key=lambda pair: (pair[0], pair[1]))
        result[color] = [old_rank for _, old_rank in ranked]
    return result


class TestPartitionOracle:
    def test_exhaustive_small_groups(self):
        # Every color assignment from {0,1,2} and every key assignment from
        # {0,5} for groups up to 4 members.
        for n in range(1, 5):
            for colors in itertools.product((0, 1, 2), repeat=n):
                for keys in itertools.product((0, 5), repeat=n):
                    entries = list(zip(colors, keys))
                    assert partition_by_color(entries) == \
                        naive_partition(entries), entries

    @given(st.lists(st.tuples(st.integers(0, 4), st.integers(-10, 10)),
                    min_size=1, max_size=12))
    @settings(max_examples=300, deadline=None)
    def test_random_assignments(self, entries):
        assert partition_by_color(entries) == naive_partition(entries)

    def test_each_rank_appears_exactly_once(self):
        entries = [(1, 0), (0, 3), (1, 3), (0, 0), (2, -1)]
        parts = partition_by_color(entries)
        seen = sorted(r for ranks in parts.values() for r in ranks)
        assert seen == [0, 1, 2, 3, 4]

    def test_key_then_old_rank_ordering(self):
        # Same color, keys force a reversal; ties broken by old rank.
        entries = [(0, 9), (0, 1), (0, 1), (0, 0)]
        assert partition_by_color(entries) == {0: [3, 1, 2, 0]}


class TestBarrier:
    def test_releases_only_after_last_arrival(self):
        with cluster(3) as groups:
            release_times = [None] * 3

            def member(group):
                if group.my_rank == 2:
                    time.sleep(0.25)
                barrier(group)
                release_times[group.my_rank] = time.monotonic()

            run_members(member, groups)
            spread = max(release_times) - min(release_times)
            assert spread < 0.2, f"barrier released {spread:.3f}s apart"

    def test_single_member_returns_immediately(self):
        with cluster(1) as groups:
            start = time.monotonic()
            barrier(groups[0])
            assert time.monotonic() - start < 0.1

    def test_unbound_group_rejected(self):
        g = Group(epoch=0, roster=(
            __import__("egroup").MemberDescriptor(
                host_label="h", listen_address="x:1", incarnation_id="a"),),
            my_rank=0)
        with pytest.raises(ValueError):
            barrier(g)


class TestBroadcast:
    def test_all_members_receive_root_payload(self):
        payload = bytes(range(256)) * 256  # 64 KiB
        digest = hashlib.sha256(payload).hexdigest()
        with cluster(8) as groups:
            def member(group):
                data = payload if group.my_rank == 0 else b""
                out = broadcast(group, 0, data)
                return hashlib.sha256(out).hexdigest()

            results = run_members(member, groups)
            assert results == [digest] * 8

    def test_nonzero_root(self):
        with cluster(3) as groups:
            def member(group):
                data = b"from-two" if group.my_rank == 2 else b""
                return broadcast(group, 2, data)

            assert run_members(member, groups) == [b"from-two"] * 3

    def test_root_out_of_range(self):
        with cluster(2) as groups:
            with pytest.raises(ValueError):
                broadcast(groups[0], 5, b"")

    def test_missing_member_times_out_everywhere(self):
        # Rank 3 never enters: the root gives up at its 1 s deadline and
        # tells the members that entered, which would otherwise wait 1.5 s.
        timeout = 1.0
        with cluster(4) as groups:
            def member(group):
                if group.my_rank == 3:
                    return None
                start = time.monotonic()
                with pytest.raises(DeadlineExceeded):
                    broadcast(group, 1, b"from-one", timeout=timeout)
                return time.monotonic() - start

            elapsed = run_members(member, groups)
            assert all(e < timeout + 0.5 for e in elapsed if e is not None), \
                elapsed


class TestAllgather:
    def test_concatenates_in_rank_order(self):
        width = 64
        blocks = [bytes([i]) * width for i in range(6)]
        expected = b"".join(blocks)
        with cluster(6) as groups:
            def member(group):
                return allgather(group, blocks[group.my_rank])

            assert run_members(member, groups) == [expected] * 6

    def test_single_member(self):
        with cluster(1) as groups:
            assert allgather(groups[0], b"solo") == b"solo"

    def test_width_disagreement_raises_everywhere(self):
        with cluster(3) as groups:
            def member(group):
                block = b"x" * (8 if group.my_rank == 1 else 4)
                with pytest.raises(ProtocolError):
                    allgather(group, block)
                return True

            assert run_members(member, groups) == [True, True, True]

    def test_dial_to_a_silent_root_ends_at_the_deadline(self):
        # Rank 0 is a listener that accepts the dial but never answers the
        # hello; rank 1's send to it is bound by the call's deadline.
        silent = socket.create_server(("127.0.0.1", 0))
        host, port = silent.getsockname()
        root = MemberDescriptor("h", f"{host}:{port}", "silent.0")
        try:
            with Node(host_label="h") as node:
                group = node.make_group(0, (root, node.descriptor()), 1)
                start = time.monotonic()
                with pytest.raises(DeadlineExceeded):
                    allgather(group, b"x", timeout=1.0)
                assert time.monotonic() - start < 2.0
        finally:
            silent.close()

    def test_staggered_entry_times_out_everywhere(self):
        # Rank i enters 0.8*i s late with a 1 s timeout: rank 0 gives up
        # before rank 2 arrives, and no member may return success.
        timeout = 1.0
        with cluster(4) as groups:
            def member(group):
                time.sleep(0.8 * group.my_rank)
                start = time.monotonic()
                with pytest.raises(DeadlineExceeded) as excinfo:
                    allgather(group, b"x", timeout=timeout)
                assert isinstance(excinfo.value, EGroupError)
                assert isinstance(excinfo.value, TimeoutError)
                return time.monotonic() - start

            elapsed = run_members(member, groups)
            assert all(e <= timeout + 0.5 for e in elapsed), elapsed

    def test_unreachable_member_does_not_stop_the_publish(self):
        # Rank 1's node is closed. Rank 0 gives up at its 1 s deadline and
        # must still tell rank 2, which would otherwise wait 20 s, and raise
        # its own DeadlineExceeded, not the failed send to rank 1.
        with cluster(3) as groups:
            groups[1].node.close()

            def member(group):
                if group.my_rank == 1:
                    return None
                start = time.monotonic()
                with pytest.raises(DeadlineExceeded):
                    allgather(group, b"x",
                              timeout=1.0 if group.my_rank == 0 else 20.0)
                return time.monotonic() - start

            elapsed = run_members(member, groups)
            assert all(e < 1.5 for e in elapsed if e is not None), elapsed


class TestSplit:
    def test_uniform_color_is_epoch_bump(self):
        with cluster(4) as groups:
            def member(group):
                new = split(group, SplitKey(color=0, key=group.my_rank))
                return (new.epoch, new.my_rank, new.size())

            results = run_members(member, groups)
            assert results == [(1, 0, 4), (1, 1, 4), (1, 2, 4), (1, 3, 4)]

    def test_two_way_split_by_parity(self):
        with cluster(4) as groups:
            def member(group):
                color = group.my_rank % 2
                new = split(group, SplitKey(color=color, key=group.my_rank))
                ids = tuple(m.incarnation_id for m in new.roster)
                return (color, new.my_rank, ids)

            results = run_members(member, groups)
            evens = tuple(groups[i].roster[i].incarnation_id for i in (0, 2))
            odds = tuple(groups[i].roster[i].incarnation_id for i in (1, 3))
            assert results[0] == (0, 0, evens)
            assert results[2] == (0, 1, evens)
            assert results[1] == (1, 0, odds)
            assert results[3] == (1, 1, odds)

    def test_key_overrides_old_rank_order(self):
        with cluster(3) as groups:
            def member(group):
                key = -group.my_rank  # reverse the ranks
                new = split(group, SplitKey(color=0, key=key))
                return new.my_rank

            assert run_members(member, groups) == [2, 1, 0]

    def test_retiring_color_yields_tokens(self):
        with cluster(4) as groups:
            def member(group):
                removing = group.my_rank >= 2
                out = split(group, SplitKey(color=1 if removing else 0,
                                            key=group.my_rank),
                            retiring_color=1)
                if removing:
                    assert isinstance(out, RetirementToken)
                    return ("token", out.epoch)
                return ("group", out.epoch, out.my_rank, out.size())

            results = run_members(member, groups)
            assert results == [("group", 1, 0, 2), ("group", 1, 1, 2),
                               ("token", 1), ("token", 1)]

    def test_retiring_color_disagreement_rejected(self):
        with cluster(2) as groups:
            def member(group):
                retiring = 1 if group.my_rank == 0 else None
                with pytest.raises(ProtocolError):
                    split(group, SplitKey(color=0, key=0),
                          retiring_color=retiring)
                return True

            assert run_members(member, groups) == [True, True]

    def test_negative_color_rejected(self):
        with pytest.raises(ValueError):
            SplitKey(color=-1, key=0)

    def test_negative_retiring_color_rejected_before_any_frame(self):
        with cluster(2) as groups:
            def member(group):
                with pytest.raises(ValueError):
                    split(group, SplitKey(color=0, key=0), retiring_color=-1)
                # No tag was drawn, so the group still runs in lockstep.
                return allgather(group, bytes([group.my_rank]))

            assert run_members(member, groups) == [b"\x00\x01"] * 2

    def test_repeated_splits_keep_at_most_one_tag_counter(self):
        # Each split draws its tags at the old epoch, and the new group
        # drops the counters of the epochs below it.
        with cluster(2) as groups:
            def member(group):
                for _ in range(5):
                    group = split(group, SplitKey(color=0, key=group.my_rank))
                return group.epoch, len(group.node._tag_counters) <= 1

            assert run_members(member, groups) == [(5, True)] * 2

    def test_int64_extremes_order_ranks(self):
        keys = [2 ** 63 - 1, -2 ** 63, 0]
        with cluster(3) as groups:
            def member(group):
                return split(group, SplitKey(color=2 ** 63 - 1,
                                             key=keys[group.my_rank])).my_rank

            assert run_members(member, groups) == [2, 0, 1]


def make_intergroups(parent_groups, child_groups):
    """Hand-build the two sides' InterGroup views of each other."""
    parent_roster = parent_groups[0].roster
    child_roster = child_groups[0].roster
    inters = []
    for g in parent_groups:
        inters.append(InterGroup(local_group=g, remote_roster=child_roster,
                                 side=Side.PARENT))
    for g in child_groups:
        inters.append(InterGroup(local_group=g, remote_roster=parent_roster,
                                 side=Side.CHILD))
    return inters


class TestMerge:
    def run_merge(self, n_parent, n_child):
        with cluster(n_parent) as parents, cluster(n_child) as children:
            inters = make_intergroups(parents, children)

            def member(inter):
                high = inter.side is Side.CHILD
                merged = merge(inter, high=high, timeout=10)
                ids = tuple(m.incarnation_id for m in merged.roster)
                return (merged.epoch, merged.my_rank, ids)

            results = run_members(member, inters)
            expected_ids = tuple(
                m.incarnation_id
                for m in parents[0].roster + children[0].roster)
            for i, (epoch, rank, ids) in enumerate(results):
                assert epoch == 1
                assert rank == i
                assert ids == expected_ids

    def test_one_plus_one(self):
        self.run_merge(1, 1)

    def test_two_plus_three(self):
        self.run_merge(2, 3)

    def test_merged_group_can_communicate(self):
        with cluster(2) as parents, cluster(2) as children:
            inters = make_intergroups(parents, children)

            def member(inter):
                merged = merge(inter, high=inter.side is Side.CHILD, timeout=10)
                return allgather(merged, f"r{merged.my_rank}".encode())

            results = run_members(member, inters)
            assert results == [b"r0r1r2r3"] * 4

    def test_high_flag_conflict_rejected(self):
        with cluster(1) as parents, cluster(2) as children:
            inters = make_intergroups(parents, children)

            def member(inter):
                # The two children disagree about which side is high.
                high = (inter.side is Side.CHILD
                        and inter.local_group.my_rank == 0)
                with pytest.raises(ProtocolError):
                    merge(inter, high=high, timeout=10)
                return True

            assert run_members(member, inters) == [True, True, True]

    @pytest.mark.parametrize("bad", [b"\x02", b"", b"\x01\x01"],
                             ids=["high-two", "high-missing", "high-two-bytes"])
    def test_malformed_hello_fails_every_member(self, bad):
        with cluster(2) as parents, cluster(1) as children:
            inters = make_intergroups(parents, children)

            def parent(inter):
                start = time.monotonic()
                with pytest.raises(ProtocolError, match="malformed merge hello"):
                    merge(inter, high=False, timeout=10)
                return time.monotonic() - start

            def child(inter):
                # Hand-sent in place of merge(), so the flag can be malformed:
                # the child is rank 2 of the merge's star, parents first.
                node = inter.local_group.node
                start = time.monotonic()
                node.send_to(inter.remote_roster[0], Envelope(
                    epoch=0, tag=wire.TAG_MERGE_HELLO, src_rank=2,
                    dst_rank=0, payload=bad))
                outcome = node.endpoint.recv(
                    match_fields(epoch=0, tag=wire.TAG_MERGE_OUTCOME,
                                 src_rank=0), timeout=10)
                with pytest.raises(ProtocolError, match="malformed merge hello"):
                    wire.unwrap_outcome(outcome.payload)
                return time.monotonic() - start

            elapsed = run_members([parent, parent, child], inters)
            assert all(e < 2.0 for e in elapsed), elapsed

    def test_coordinator_deadline_fails_every_member(self):
        # Child rank 1 never says hello. The coordinator gives up at its own
        # 1 s deadline and tells the members that would still wait 10 s.
        with cluster(2) as parents, cluster(2) as children:
            inters = make_intergroups(parents, children)

            def member(inter):
                if inter.side is Side.CHILD and inter.local_group.my_rank == 1:
                    return None
                coordinator = (inter.side is Side.PARENT
                               and inter.local_group.my_rank == 0)
                start = time.monotonic()
                with pytest.raises(DeadlineExceeded):
                    merge(inter, high=inter.side is Side.CHILD,
                          timeout=1.0 if coordinator else 10.0)
                return time.monotonic() - start

            elapsed = run_members(member, inters)
            assert all(e < 2.0 for e in elapsed if e is not None), elapsed

    def test_merge_can_be_retried_after_a_failed_one(self):
        # Child 0 never merges, so the first merge fails everywhere. The
        # parents' group still works, and a merge with fresh children at
        # the same epoch succeeds. The first attempt leaves child 1's hello
        # buffered at the root; fresh child 1 enters late, and no member may
        # return before it has entered, as it would if the root took that
        # leftover for star rank 3.
        with cluster(2) as parents, cluster(2) as children, \
                cluster(2) as fresh:
            def failing(inter):
                if inter.side is Side.CHILD and inter.local_group.my_rank == 0:
                    return None
                root = (inter.side is Side.PARENT
                        and inter.local_group.my_rank == 0)
                with pytest.raises(DeadlineExceeded):
                    merge(inter, high=inter.side is Side.CHILD,
                          timeout=1.0 if root else 10.0)
                return True

            assert run_members(failing, make_intergroups(parents, children)) \
                == [True, True, None, True]
            assert run_members(lambda group: allgather(group, b"x", timeout=10),
                               parents) == [b"xx"] * 2

            late_entry = []

            def member(inter):
                if inter.side is Side.CHILD and inter.local_group.my_rank == 1:
                    time.sleep(0.5)
                    late_entry.append(time.monotonic())
                merged = merge(inter, high=inter.side is Side.CHILD, timeout=10)
                returned = time.monotonic()
                block = bytes([merged.my_rank])
                return (merged.epoch, merged.my_rank,
                        allgather(merged, block, timeout=10), returned)

            results = run_members(member, make_intergroups(parents, fresh))
            assert [r[:3] for r in results] == [
                (1, rank, bytes(range(4))) for rank in range(4)]
            assert all(r[3] > late_entry[0] for r in results), results

    def test_consumed_intergroup_rejected(self):
        with cluster(1) as parents, cluster(1) as children:
            inters = make_intergroups(parents, children)

            def member(inter):
                merge(inter, high=inter.side is Side.CHILD, timeout=10)
                with pytest.raises(ProtocolError):
                    merge(inter, high=inter.side is Side.CHILD, timeout=10)
                return True

            assert run_members(member, inters) == [True, True]


class TestOneStar:
    """barrier, split, spawn and merge each take one round of
    gather_decide's star: two frames per non-root member. scale_in takes
    two: the occupancy gather and the split."""

    @pytest.fixture
    def sent(self, monkeypatch):
        frames = []
        pack = wire.pack

        def counting_pack(envelope):
            frames.append(envelope)
            return pack(envelope)

        monkeypatch.setattr(wire, "pack", counting_pack)
        return frames

    def test_barrier_and_split_send_two_frames_per_non_root(self, sent):
        n = 4
        with cluster(n) as groups:
            # Open the star's channels first, so handshakes are not counted.
            run_members(lambda group: allgather(group, b"x"), groups)
            sent.clear()
            run_members(barrier, groups)
            assert len(sent) == 2 * (n - 1)
            sent.clear()
            run_members(lambda group: split(
                group, SplitKey(color=group.my_rank % 2, key=0)), groups)
            assert len(sent) == 2 * (n - 1)

    def test_spawn_sends_two_frames_per_non_root(self, sent):
        n = 4
        attached = threading.Event()

        def child(env):
            ticket = BootstrapTicket.from_env(env)
            with Node(host_label=ticket.host_label) as node:
                attach_parent(node, ticket, timeout=30)
            attached.set()

        with cluster(n) as groups:
            run_members(lambda group: allgather(group, b"x"), groups)
            sent.clear()
            run_members(lambda group: spawn(
                group, SpawnSpec(program="-", count=1),
                launcher=ThreadLauncher(child)), groups)
            assert attached.wait(30)
        star = [e for e in sent
                if wire.TAG_COLL_BASE <= e.tag < wire.TAG_SPAWN_REGISTER]
        assert len(star) == 2 * (n - 1)

    def test_merge_sends_two_frames_per_non_root(self, sent):
        with cluster(2) as parents, cluster(3) as children:
            inters = make_intergroups(parents, children)
            run_members(lambda inter: merge(
                inter, high=inter.side is Side.CHILD, timeout=10), inters)
        star = [e for e in sent if e.tag in (wire.TAG_MERGE_HELLO,
                                             wire.TAG_MERGE_OUTCOME)]
        assert len(star) == 2 * (5 - 1)

    def test_scale_in_sends_two_rounds_of_one_byte_flags(self, sent):
        n = 4
        with cluster(n, hosts=["A", "A", "B", "B"]) as groups:
            run_members(lambda group: allgather(group, b"x"), groups)
            sent.clear()
            run_members(lambda group: scale_in(group, group.my_rank >= 2),
                        groups)
        assert len(sent) == 4 * (n - 1)
        gather_tag = min(e.tag for e in sent)
        occupancy = [e for e in sent if e.tag == gather_tag]
        assert len(occupancy) == n - 1
        assert [len(e.payload) for e in occupancy] == [1] * (n - 1)
