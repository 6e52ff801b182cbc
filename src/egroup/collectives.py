"""Collective operations over a group: barrier, broadcast, allgather, split,
and the inter-to-intra merge.

All collectives use a root-based star: rank 0 of the relevant group (or the
spawning root during a merge) gathers contributions and redistributes
results. Every live member must invoke the same collective, with compatible
arguments, in the same order; the per-epoch tag counters rely on that
lockstep to keep concurrent operations from colliding.
"""

from __future__ import annotations

import time
from typing import Optional, Union

from . import wire
from .errors import ProtocolError
from .groups import Group, InterGroup, MemberDescriptor, RetirementToken, Side
from .transport import match_fields
from .wire import Envelope, error_outcome, ok_outcome, unwrap_outcome

DEFAULT_TIMEOUT = 120.0


class SplitKey(wire.Value):
    """Per-member split argument: members sharing a color form one output
    group, ordered within it by ascending (key, old rank)."""

    __slots__ = ("color", "key")

    def __init__(self, color: int, key: int):
        if color < 0:
            raise ValueError(f"color must be non-negative, got {color}")
        self._init_fields(color, key)


def _node_of(group: Group):
    if group.node is None:
        raise ValueError("group is not bound to a node; communication needs a "
                         "group returned by the runtime")
    group.node.check_group_live(group)
    return group.node


# -- intra-group collectives ---------------------------------------------------

def barrier(group: Group, timeout: Optional[float] = DEFAULT_TIMEOUT) -> None:
    """Block until every member of the group has entered the barrier."""
    node = _node_of(group)
    tag = node.next_collective_tag(group.epoch)
    n = len(group.roster)
    if n == 1:
        return
    if group.my_rank != 0:
        node.send(group, 0, tag, b"")
        node.recv_on(group, tag, src_rank=0, timeout=timeout)
        return
    for src in range(1, n):
        node.recv_on(group, tag, src_rank=src, timeout=timeout)
    for dst in range(1, n):
        node.send(group, dst, tag, b"")


def broadcast(group: Group, root: int, payload: bytes,
              timeout: Optional[float] = DEFAULT_TIMEOUT) -> bytes:
    """Distribute root's payload; every member returns it."""
    node = _node_of(group)
    n = len(group.roster)
    if not (0 <= root < n):
        raise ValueError(f"root {root} out of range for group of {n}")
    tag = node.next_collective_tag(group.epoch)
    payload = bytes(payload)
    if n == 1:
        return payload
    if group.my_rank == root:
        for dst in range(n):
            if dst != root:
                node.send(group, dst, tag, payload)
        return payload
    return node.recv_on(group, tag, src_rank=root, timeout=timeout).payload


def allgather(group: Group, block: bytes,
              timeout: Optional[float] = DEFAULT_TIMEOUT) -> bytes:
    """Gather one fixed-width block per member; every member returns the
    rank-ordered concatenation. All members must supply the same width."""
    node = _node_of(group)
    tag_gather = node.next_collective_tag(group.epoch)
    tag_publish = node.next_collective_tag(group.epoch)
    block = bytes(block)
    n = len(group.roster)
    if n == 1:
        return block

    if group.my_rank != 0:
        node.send(group, 0, tag_gather, block)
        reply = node.recv_on(group, tag_publish, src_rank=0, timeout=timeout)
        return unwrap_outcome(reply.payload)

    blocks = [block] + [b""] * (n - 1)
    for src in range(1, n):
        blocks[src] = node.recv_on(group, tag_gather, src_rank=src,
                                   timeout=timeout).payload
    widths = {len(b) for b in blocks}
    if len(widths) != 1:
        exc = ProtocolError(
            f"allgather width disagreement: saw block sizes {sorted(widths)}")
        for dst in range(1, n):
            node.send(group, dst, tag_publish, error_outcome(exc))
        raise exc
    result = b"".join(blocks)
    for dst in range(1, n):
        node.send(group, dst, tag_publish, ok_outcome(result))
    return result


def partition_by_color(entries) -> dict:
    """Pure split core: entries[old_rank] = (color, key); returns
    {color: [old_rank, ...]} with each list in ascending (key, old rank)."""
    by_color = {}
    for old_rank, (color, key) in enumerate(entries):
        by_color.setdefault(color, []).append((key, old_rank))
    return {color: [rank for _, rank in sorted(members)]
            for color, members in by_color.items()}


def split(group: Group, key: SplitKey, retiring_color: Optional[int] = None,
          timeout: Optional[float] = DEFAULT_TIMEOUT
          ) -> Union[Group, RetirementToken]:
    """Partition the group by color into disjoint successors at epoch+1.

    Members whose color equals ``retiring_color`` get a RetirementToken
    instead of a group; everyone else gets its color's new Group with ranks
    assigned by ascending (key, old rank).
    """
    node = _node_of(group)
    tag_gather = node.next_collective_tag(group.epoch)
    tag_publish = node.next_collective_tag(group.epoch)
    n = len(group.roster)
    contribution = {"color": key.color, "key": key.key,
                    "retiring": retiring_color}

    if group.my_rank != 0:
        node.send(group, 0, tag_gather, wire.json_payload(contribution))
        reply = node.recv_on(group, tag_publish, src_rank=0, timeout=timeout)
        return _apply_split_result(node, wire.parse_json_payload(
            unwrap_outcome(reply.payload)))

    entries = [None] * n
    entries[0] = contribution
    for src in range(1, n):
        env = node.recv_on(group, tag_gather, src_rank=src, timeout=timeout)
        entries[src] = wire.parse_json_payload(env.payload)
    retirings = {e["retiring"] for e in entries}
    if len(retirings) != 1:
        exc = ProtocolError(
            f"split members disagree on the retiring color: {sorted(map(str, retirings))}")
        for dst in range(1, n):
            node.send(group, dst, tag_publish, error_outcome(exc))
        raise exc

    parts = partition_by_color([(e["color"], e["key"]) for e in entries])
    new_epoch = group.epoch + 1
    results = [None] * n
    for color, old_ranks in parts.items():
        if color == retiring_color:
            for old_rank in old_ranks:
                results[old_rank] = {"retired": True, "epoch": new_epoch}
        else:
            roster = [group.roster[r].to_json() for r in old_ranks]
            for new_rank, old_rank in enumerate(old_ranks):
                results[old_rank] = {"epoch": new_epoch, "roster": roster,
                                     "my_rank": new_rank}
    for dst in range(1, n):
        node.send(group, dst, tag_publish, ok_outcome(wire.json_payload(results[dst])))
    return _apply_split_result(node, results[0])


def _apply_split_result(node, result: dict) -> Union[Group, RetirementToken]:
    if result.get("retired"):
        return RetirementToken(epoch=result["epoch"])
    roster = tuple(MemberDescriptor.from_json(m) for m in result["roster"])
    return node.make_group(result["epoch"], roster, result["my_rank"])


# -- inter-group merge ---------------------------------------------------------

def merge(inter: InterGroup, high: bool,
          timeout: Optional[float] = DEFAULT_TIMEOUT) -> Group:
    """Collapse both sides of an inter-group into one group.

    The side that passes high=False keeps ranks 0..n_low-1 in its prior
    order; the high side follows. Channels to every other member are
    established before return, so the merged group can communicate
    immediately. Consumes the inter-group.
    """
    if inter.consumed:
        raise ProtocolError("inter-group already consumed by a previous merge")
    inter.consumed = True
    node = _node_of(inter.local_group)
    deadline = time.monotonic() + (timeout if timeout is not None else 0)

    def remaining():
        return None if timeout is None else max(0.01, deadline - time.monotonic())

    local = inter.local_group
    if inter.side is Side.PARENT:
        coordinator = local.member(inter.parent_root_rank)
    else:
        coordinator = inter.remote_roster[inter.parent_root_rank]
    i_coordinate = coordinator.incarnation_id == node.incarnation_id

    hello = wire.json_payload({
        "id": node.incarnation_id,
        "side": inter.side.value,
        "high": bool(high),
        "epoch": local.epoch,
    })
    if not i_coordinate:
        node.send_to(coordinator, Envelope(
            epoch=local.epoch, tag=wire.TAG_MERGE_HELLO,
            src_rank=local.my_rank, dst_rank=wire.NO_RANK, payload=hello))
        outcome = node.endpoint.recv(
            match_fields(tag=wire.TAG_MERGE_OUTCOME), timeout=remaining())
        result = wire.parse_json_payload(unwrap_outcome(outcome.payload))
    else:
        result = _coordinate_merge(node, inter, hello, remaining)

    new_roster = tuple(MemberDescriptor.from_json(m) for m in result["roster"])
    new_group = node.make_group(result["epoch"], new_roster, result["your_rank"])
    _establish_mesh(node, new_group, remaining)
    return new_group


def _coordinate_merge(node, inter: InterGroup, own_hello: bytes, remaining):
    """Run by the parent-side root: gather one hello per member on both
    sides, validate the high flags, assign merged ranks, publish outcomes."""
    local = inter.local_group
    if inter.side is not Side.PARENT:
        raise ProtocolError("merge coordinator must sit on the parent side")
    sides = {
        Side.PARENT.value: list(local.roster),
        Side.CHILD.value: list(inter.remote_roster),
    }
    by_id = {m.incarnation_id: m for members in sides.values() for m in members}
    hellos = {node.incarnation_id: wire.parse_json_payload(own_hello)}
    while len(hellos) < len(by_id):
        env = node.endpoint.recv(match_fields(tag=wire.TAG_MERGE_HELLO),
                                 timeout=remaining())
        msg = wire.parse_json_payload(env.payload)
        if msg.get("id") not in by_id:
            raise ProtocolError(f"merge hello from unknown member {msg.get('id')!r}")
        hellos[msg["id"]] = msg

    error = None
    flags = {}
    for side_name, members in sides.items():
        side_flags = {bool(hellos[m.incarnation_id]["high"]) for m in members}
        if len(side_flags) > 1:
            error = ProtocolError(f"{side_name} members disagree on the high flag")
            break
        flags[side_name] = side_flags.pop()
    if error is None and flags[Side.PARENT.value] == flags[Side.CHILD.value]:
        error = ProtocolError(
            "both sides of the merge passed high="
            f"{flags[Side.PARENT.value]}; exactly one side must be high")

    new_epoch = 1 + max(int(h["epoch"]) for h in hellos.values())
    if error is not None:
        payload = error_outcome(error)
        for member in by_id.values():
            if member.incarnation_id != node.incarnation_id:
                node.send_to(member, Envelope(
                    epoch=new_epoch, tag=wire.TAG_MERGE_OUTCOME,
                    src_rank=wire.NO_RANK, dst_rank=wire.NO_RANK,
                    payload=payload))
        raise error

    low_side = Side.PARENT.value if not flags[Side.PARENT.value] else Side.CHILD.value
    high_side = Side.CHILD.value if low_side == Side.PARENT.value else Side.PARENT.value
    merged = sides[low_side] + sides[high_side]
    roster_json = [m.to_json() for m in merged]
    my_result = None
    for new_rank, member in enumerate(merged):
        result = {"epoch": new_epoch, "roster": roster_json, "your_rank": new_rank}
        if member.incarnation_id == node.incarnation_id:
            my_result = result
            continue
        node.send_to(member, Envelope(
            epoch=new_epoch, tag=wire.TAG_MERGE_OUTCOME,
            src_rank=wire.NO_RANK, dst_rank=wire.NO_RANK,
            payload=ok_outcome(wire.json_payload(result))))
    return my_result


def _establish_mesh(node, group: Group, remaining) -> None:
    # Lower incarnation id dials, higher side accepts; afterwards this member
    # holds one live channel to every other member.
    for member in group.roster:
        if member.incarnation_id == node.incarnation_id:
            continue
        if node.incarnation_id < member.incarnation_id:
            node.channel_to(member)
        else:
            got = node.endpoint.await_channel(member.incarnation_id,
                                              remaining() or DEFAULT_TIMEOUT)
            if got is None:
                raise TimeoutError(
                    f"no inbound channel from {member.incarnation_id} "
                    "while wiring the merged group")
