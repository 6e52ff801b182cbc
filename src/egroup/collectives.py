"""Collective operations over a group: barrier, broadcast, allgather, split,
and the inter-to-intra merge.

``gather_decide`` is the one star: a root gathers one block per member and
publishes one outcome, ``decide``'s result or its error, to every member.
``allgather`` (with ``barrier`` and ``split`` on top), ``broadcast`` and
``spawner.spawn`` are rounds of it. The merge is coordinated by the spawning
root, which gathers one hello per member and publishes one outcome, the
merged epoch or an error, identical for every member. Every live member must
invoke the same collective, with compatible arguments, in the same order;
the per-epoch tag counters rely on that lockstep to keep concurrent
operations from colliding.
"""

from __future__ import annotations

import struct

from . import wire
from .errors import DeadlineExceeded, ProtocolError
from .groups import Group, InterGroup, RetirementToken, Side
from .transport import match_fields
from .wire import Deadline, Envelope, error_outcome, ok_outcome, unwrap_outcome

DEFAULT_TIMEOUT = 120.0

# One split contribution: color, key and retiring color (-1 for None).
SPLIT_BLOCK = struct.Struct(">qqq")
INT64_MAX = 2 ** 63 - 1


class SplitKey(wire.Value):
    """Per-member split argument: members sharing a color form one output
    group, ordered within it by ascending (key, old rank). Both are int64."""

    __slots__ = ("color", "key")

    def __init__(self, color: int, key: int):
        if not (0 <= color <= INT64_MAX and -INT64_MAX - 1 <= key <= INT64_MAX):
            raise ValueError("color must be a non-negative int64 and key an "
                             f"int64, got color={color}, key={key}")
        self._init_fields(color, key)


def _node_of(group: Group):
    if group.node is None:
        raise ValueError("group is not bound to a node; communication needs a "
                         "group returned by the runtime")
    group.node.check_group_live(group)
    return group.node


# -- intra-group collectives ---------------------------------------------------

def barrier(group: Group, timeout: float | None = DEFAULT_TIMEOUT) -> None:
    """Block until every member of the group has entered the barrier."""
    allgather(group, b"", timeout=timeout)


def gather_decide(group: Group, root: int, block: bytes, decide,
                  timeout: float | None = DEFAULT_TIMEOUT) -> bytes:
    """The one star: ``root`` gathers one block per member and publishes
    ``decide(blocks)``, blocks in rank order, to every member, which returns
    those bytes. If the gather or ``decide`` raises, the root publishes the
    error instead and re-raises, so every member raises it."""
    node = _node_of(group)
    n = len(group.roster)
    if not (0 <= root < n):
        raise ValueError(f"root {root} out of range for group of {n}")
    deadline = Deadline.of(timeout)
    tag_gather = node.next_collective_tag(group.epoch)
    tag_publish = node.next_collective_tag(group.epoch)
    block = bytes(block)
    if group.my_rank != root:
        node.send(group, root, tag_gather, block)
        reply = node.recv_on(group, tag_publish, src_rank=root,
                             timeout=deadline.for_outcome())
        return unwrap_outcome(reply.payload)

    others = [rank for rank in range(n) if rank != root]
    blocks = [block] * n
    try:
        for src in others:
            blocks[src] = node.recv_on(group, tag_gather, src_rank=src,
                                       timeout=deadline).payload
        result = bytes(decide(blocks))
    except Exception as exc:
        for dst in others:
            node.send(group, dst, tag_publish, error_outcome(exc))
        raise
    for dst in others:
        node.send(group, dst, tag_publish, ok_outcome(result))
    return result


def broadcast(group: Group, root: int, payload: bytes,
              timeout: float | None = DEFAULT_TIMEOUT) -> bytes:
    """Distribute root's payload; every member returns it once every member
    has entered."""
    payload = bytes(payload)
    return gather_decide(group, root, b"", lambda _: payload, timeout)


def _joined(blocks: list) -> bytes:
    widths = {len(b) for b in blocks}
    if len(widths) != 1:
        raise ProtocolError(
            f"allgather width disagreement: saw block sizes {sorted(widths)}")
    return b"".join(blocks)


def allgather(group: Group, block: bytes,
              timeout: float | None = DEFAULT_TIMEOUT) -> bytes:
    """Gather one fixed-width block per member; every member returns the
    rank-ordered concatenation. All members must supply the same width.
    If rank 0's deadline passes first, every member raises DeadlineExceeded."""
    return gather_decide(group, 0, block, _joined, timeout)


def partition_by_color(entries) -> dict:
    """Pure split core: entries[old_rank] = (color, key); returns
    {color: [old_rank, ...]} with each list in ascending (key, old rank)."""
    by_color = {}
    for old_rank, (color, key) in enumerate(entries):
        by_color.setdefault(color, []).append((key, old_rank))
    return {color: [rank for _, rank in sorted(members)]
            for color, members in by_color.items()}


def split(group: Group, key: SplitKey, retiring_color: int | None = None,
          timeout: float | None = DEFAULT_TIMEOUT
          ) -> Group | RetirementToken:
    """Partition the group by color into disjoint successors at epoch+1.

    Members whose color equals ``retiring_color`` get a RetirementToken
    instead of a group; everyone else gets its color's new Group with ranks
    assigned by ascending (key, old rank).
    """
    if retiring_color is not None and not 0 <= retiring_color <= INT64_MAX:
        raise ValueError(
            f"retiring_color must be a non-negative int64, got {retiring_color}")
    block = SPLIT_BLOCK.pack(key.color, key.key,
                             -1 if retiring_color is None else retiring_color)
    gathered = allgather(group, block, timeout=timeout)
    entries = list(SPLIT_BLOCK.iter_unpack(gathered))
    retirings = {r for _, _, r in entries}
    if len(retirings) != 1:
        named = sorted(str(None if r < 0 else r) for r in retirings)
        raise ProtocolError(
            f"split members disagree on the retiring color: {named}")
    new_epoch = group.epoch + 1
    if key.color == retiring_color:
        return RetirementToken(epoch=new_epoch)
    old_ranks = partition_by_color([(c, k) for c, k, _ in entries])[key.color]
    return group.node.make_group(new_epoch, [group.roster[r] for r in old_ranks],
                                 old_ranks.index(group.my_rank))


# -- inter-group merge ---------------------------------------------------------

def merge(inter: InterGroup, high: bool,
          timeout: float | None = DEFAULT_TIMEOUT) -> Group:
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
    deadline = Deadline.of(timeout)
    local = inter.local_group
    if inter.side is Side.PARENT:
        coordinator = local.member(inter.parent_root_rank)
    else:
        coordinator = inter.remote_roster[inter.parent_root_rank]
    i_coordinate = coordinator.incarnation_id == node.incarnation_id

    high = bool(high)
    hello = wire.json_payload({"id": node.incarnation_id, "side": inter.side.value,
                               "high": high, "epoch": local.epoch})
    if i_coordinate:
        epoch = _coordinate_merge(node, inter, hello, deadline)
    else:
        node.send_to(coordinator, Envelope(
            epoch=local.epoch, tag=wire.TAG_MERGE_HELLO,
            src_rank=local.my_rank, dst_rank=wire.NO_RANK, payload=hello))
        outcome = node.endpoint.recv(
            match_fields(tag=wire.TAG_MERGE_OUTCOME),
            timeout=deadline.for_outcome())
        epoch = wire.parse_json_payload(unwrap_outcome(outcome.payload))["epoch"]

    # The low side comes first; both rosters are already known here.
    rosters = (local.roster, inter.remote_roster)
    new_group = node.make_group(
        epoch, rosters[high] + rosters[not high],
        local.my_rank + (len(inter.remote_roster) if high else 0))
    _establish_mesh(node, new_group, deadline)
    return new_group


def _coordinate_merge(node, inter: InterGroup, own_hello: bytes,
                      deadline: Deadline) -> int:
    """Run by the parent-side root: gather one hello per member on both
    sides, validate them, and publish one outcome to every other member: the
    merged epoch, or the error (a bad hello, or the deadline passing).
    Returns the merged epoch."""
    sides = {Side.PARENT.value: inter.local_group.roster,
             Side.CHILD.value: inter.remote_roster}
    by_id = {m.incarnation_id: m for members in sides.values() for m in members}
    hellos = {node.incarnation_id: wire.parse_json_payload(own_hello)}
    try:
        while len(hellos) < len(by_id):
            env = node.endpoint.recv(match_fields(tag=wire.TAG_MERGE_HELLO),
                                     timeout=deadline)
            msg = wire.parse_json_payload(env.payload)
            if not (isinstance(msg.get("id"), str) and msg["id"] in by_id):
                raise ProtocolError(
                    f"merge hello from unknown member {msg.get('id')!r}")
            hellos[msg["id"]] = msg
        error = _check_hellos(sides, hellos)
    except (DeadlineExceeded, ProtocolError) as exc:
        error = exc
    new_epoch = 1 + max(h["epoch"] for h in hellos.values()
                        if type(h.get("epoch")) is int)
    payload = (ok_outcome(wire.json_payload({"epoch": new_epoch}))
               if error is None else error_outcome(error))
    envelope = Envelope(epoch=new_epoch, tag=wire.TAG_MERGE_OUTCOME,
                        src_rank=wire.NO_RANK, dst_rank=wire.NO_RANK,
                        payload=payload)
    for member_id, member in by_id.items():
        if member_id != node.incarnation_id:
            node.send_to(member, envelope)
    if error is not None:
        raise error
    return new_epoch


def _check_hellos(sides: dict, hellos: dict) -> ProtocolError | None:
    """The error the merge must publish, or None when exactly one side is
    high and every hello is well formed."""
    for member_id, msg in hellos.items():
        if type(msg.get("high")) is not bool or type(msg.get("epoch")) is not int:
            return ProtocolError(f"malformed merge hello from {member_id!r}: {msg!r}")
    flags = {}
    for side_name, members in sides.items():
        side_flags = {hellos[m.incarnation_id]["high"] for m in members}
        if len(side_flags) > 1:
            return ProtocolError(f"{side_name} members disagree on the high flag")
        flags[side_name] = side_flags.pop()
    if flags[Side.PARENT.value] == flags[Side.CHILD.value]:
        return ProtocolError(
            "both sides of the merge passed high="
            f"{flags[Side.PARENT.value]}; exactly one side must be high")
    return None


def _establish_mesh(node, group: Group, deadline: Deadline) -> None:
    # Lower incarnation id dials, higher side accepts; afterwards this member
    # holds one live channel to every other member.
    for member in group.roster:
        if member.incarnation_id == node.incarnation_id:
            continue
        if node.incarnation_id < member.incarnation_id:
            node.channel_to(member, deadline)
        elif node.endpoint.await_channel(member.incarnation_id, deadline) is None:
            raise DeadlineExceeded(
                f"no inbound channel from {member.incarnation_id} "
                "while wiring the merged group")
