"""Collective operations over a group: barrier, broadcast, allgather, split,
and the inter-to-intra merge.

``gather_decide`` is the one star: a root gathers one block per member and
publishes one outcome, ``decide``'s result or its error, to every member.
``allgather`` (with ``barrier`` and ``split`` on top), ``broadcast``,
``spawner.spawn`` and ``merge`` are rounds of it. The merge's star spans
both sides, parents first, so its root is the spawning parent; it gathers
one high flag per member. Every live member must invoke the same collective,
with compatible arguments, in the same order; the per-epoch tag counters
rely on that lockstep to keep concurrent operations from colliding.
"""

from __future__ import annotations

import struct

from . import wire
from .errors import DeadlineExceeded, EGroupError, ProtocolError
from .groups import Group, InterGroup, RetirementToken, Side
from .wire import Deadline, error_outcome, ok_outcome, unwrap_outcome

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
                  timeout: float | None = DEFAULT_TIMEOUT,
                  tags: tuple | None = None) -> bytes:
    """The one star: ``root`` gathers one block per member and publishes
    ``decide(blocks)``, blocks in rank order, to every member, which returns
    those bytes. If the gather or ``decide`` raises, the root publishes the
    error instead and re-raises, so every member raises it. ``tags`` fixes
    the (gather, publish) tag pair; by default the round draws the next two
    collective tags of the group's epoch."""
    node = _node_of(group)
    n = len(group.roster)
    if not (0 <= root < n):
        raise ValueError(f"root {root} out of range for group of {n}")
    deadline = Deadline.of(timeout)
    tag_gather, tag_publish = tags or (node.next_collective_tag(group.epoch),
                                       node.next_collective_tag(group.epoch))
    block = bytes(block)
    if group.my_rank != root:
        node.send(group, root, tag_gather, block, deadline)
        reply = node.recv_on(group, tag_publish, src_rank=root,
                             timeout=deadline.for_outcome())
        return unwrap_outcome(reply.payload)

    others = [rank for rank in range(n) if rank != root]
    blocks = [block] * n
    error = None
    try:
        for src in others:
            blocks[src] = node.recv_on(group, tag_gather, src_rank=src,
                                       timeout=deadline).payload
        result = bytes(decide(blocks))
        outcome = ok_outcome(result)
    except Exception as exc:
        error, outcome = exc, error_outcome(exc)
    # A member that cannot be reached does not keep the rest waiting. A
    # member waits for the outcome OUTCOME_SLACK past the deadline, so a
    # root that gave up at the deadline may still dial it until then.
    publish_by = deadline.for_outcome()
    for dst in others:
        try:
            node.send(group, dst, tag_publish, outcome, publish_by)
        except EGroupError as exc:
            error = error or exc
    if error is not None:
        raise error
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
    """Collapse both sides of an inter-group into one group at epoch+1.

    The side that passes high=False keeps ranks 0..n_low-1 in its prior
    order; the high side follows. One star round over both sides, parents
    first, checks that each side agrees on its flag and exactly one side is
    high; otherwise every member raises ProtocolError. Channels to every
    other member are established before return, so the merged group can
    communicate immediately. Consumes the inter-group.
    """
    if inter.consumed:
        raise ProtocolError("inter-group already consumed by a previous merge")
    inter.consumed = True
    node = _node_of(inter.local_group)
    deadline = Deadline.of(timeout)
    local, remote = inter.local_group, inter.remote_roster
    if inter.side is Side.PARENT:
        parents, children, star_rank = local.roster, remote, local.my_rank
    else:
        parents, children = remote, local.roster
        star_rank = len(parents) + local.my_rank
    star = Group(local.epoch, parents + children, star_rank, node=node)

    def check(flags: list) -> bytes:
        for rank, flag in enumerate(flags):
            if flag not in (b"\x00", b"\x01"):
                raise ProtocolError(
                    f"malformed merge hello from star rank {rank}: {flag!r}")
        sides = {Side.PARENT: set(flags[:len(parents)]),
                 Side.CHILD: set(flags[len(parents):])}
        for side, side_flags in sides.items():
            if len(side_flags) > 1:
                raise ProtocolError(
                    f"{side.value} members disagree on the high flag")
        if sides[Side.PARENT] == sides[Side.CHILD]:
            raise ProtocolError(
                f"both sides of the merge passed high={bool(flags[0][0])}; "
                "exactly one side must be high")
        return b""

    high = bool(high)
    gather_decide(star, 0, bytes([high]), check, deadline,
                  tags=(wire.TAG_MERGE_HELLO, wire.TAG_MERGE_OUTCOME))

    # The low side comes first; both rosters are already known here.
    rosters = (local.roster, remote)
    new_group = node.make_group(
        local.epoch + 1, rosters[high] + rosters[not high],
        local.my_rank + (len(remote) if high else 0))
    _establish_mesh(node, new_group, deadline)
    return new_group


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
