"""Dynamic scaling of a running group: grow with immediate connectivity,
shrink with communication fencing, and decide host retirement.

scale_out barriers the old group, spawns children from rank 0, and merges
the two sides (originals low, children high) so every original rank is
preserved and all-to-all channels exist before it returns. scale_in gathers
host occupancy, lets every member decide whether its machine empties out,
then splits the group so the removing members drop into a retirement token
while the rest continue at the next epoch.
"""

from __future__ import annotations

import time

from .collectives import (
    DEFAULT_TIMEOUT,
    SplitKey,
    allgather,
    barrier,
    merge,
    split,
)
from .errors import ProtocolError
from .groups import (
    HOST_LABEL_WIDTH,
    SENTINEL_BLOCK,
    Group,
    RetirementToken,
)
from .node import Node
from .spawner import (
    BootstrapTicket,
    Launcher,
    SpawnSpec,
    attach_parent,
    spawn,
)
from .wire import Deadline, Value


class HostOccupancy(Value):
    """Rank-ordered fixed-width host labels; removing members appear as
    all-sentinel blocks."""

    __slots__ = ("width", "blocks")

    def __init__(self, width: int, blocks: bytes):
        if width != HOST_LABEL_WIDTH:
            raise ValueError(f"block width must be {HOST_LABEL_WIDTH}, "
                             f"got {width}")
        if len(blocks) % width != 0:
            raise ValueError(
                f"occupancy of {len(blocks)} bytes is not a multiple "
                f"of the {width}-byte block width")
        self._init_fields(width, blocks)

    @property
    def count(self) -> int:
        return len(self.blocks) // self.width

    def block(self, i: int) -> bytes:
        if not (0 <= i < self.count):
            raise IndexError(f"block {i} out of range for {self.count} blocks")
        return self.blocks[i * self.width:(i + 1) * self.width]


class ScaleInOutcome(Value):
    """What scale_in hands back: the successor group (or a retirement token
    for removing members) and the host-termination decision."""

    __slots__ = ("new_group", "can_terminate_host")

    def __init__(self, new_group: Group | RetirementToken,
                 can_terminate_host: bool):
        self._init_fields(new_group, can_terminate_host)


def pad_label(label: str) -> bytes:
    """Zero-pad a host label to the fixed occupancy block width."""
    raw = label.encode()
    if len(raw) > HOST_LABEL_WIDTH:
        raise ValueError(f"host label exceeds {HOST_LABEL_WIDTH} bytes: {label!r}")
    if raw == SENTINEL_BLOCK:
        raise ValueError("host label collides with the removal sentinel")
    return raw.ljust(HOST_LABEL_WIDTH, b"\x00")


def host_can_terminate(occupancy: HostOccupancy, my_host: str) -> bool:
    """True iff no remaining member's block names ``my_host``; sentinel
    blocks (removing members) never count as occupants."""
    padded = pad_label(my_host)
    for i in range(occupancy.count):
        block = occupancy.block(i)
        if block != SENTINEL_BLOCK and block == padded:
            return False
    return True


def scale_out(old_group: Group, num_add: int, child_program: str,
              host_labels=None, *, child_args=(),
              launcher: Launcher | None = None,
              timeout: float | None = DEFAULT_TIMEOUT,
              phases: dict | None = None) -> Group:
    """Grow the group by ``num_add`` spawned children; originals keep their
    ranks, children follow at ranks size..size+num_add-1.

    One deadline bounds the barrier, the spawn and the merge. On any error
    the old group is left usable. When ``phases`` is given it receives the
    local total_s and spawn_s wall-clock durations.
    """
    if num_add < 1:
        raise ValueError(f"num_add must be positive, got {num_add}")
    spec = SpawnSpec(program=child_program, args=tuple(child_args),
                     count=num_add,
                     host_labels=tuple(host_labels) if host_labels else None)
    deadline = Deadline.of(timeout)
    barrier(old_group, timeout=deadline)
    start = time.perf_counter()
    inter = spawn(old_group, spec, launcher=launcher, timeout=deadline)
    spawn_s = time.perf_counter() - start
    new_group = merge(inter, high=False, timeout=deadline)
    if phases is not None:
        phases["total_s"] = time.perf_counter() - start
        phases["spawn_s"] = spawn_s
    return new_group


def init_new_process(node: Node | None = None,
                     ticket: BootstrapTicket | None = None,
                     timeout: float | None = DEFAULT_TIMEOUT) -> Group:
    """Called by a spawned child: attach to the parent, merge as the high
    side, and return the combined group. Single use; the inter-group link is
    consumed by the merge. A parent that sends no parent roster is the
    driver, which is not a group member: the siblings alone are the group.
    One deadline bounds the attach and the merge."""
    if node is not None and node.merged_with_parent:
        raise ProtocolError(
            "this node already merged with its parent; the inter-group "
            "is consumed")
    deadline = Deadline.of(timeout)
    inter = attach_parent(node=node, ticket=ticket, timeout=deadline)
    if not inter.remote_roster:
        return inter.local_group
    try:
        group = merge(inter, high=True, timeout=deadline)
    except BaseException:
        if node is None:  # attach_parent made this node; nobody else can close it
            inter.local_group.node.close()
        raise
    group.node.merged_with_parent = True
    return group


def scale_in(old_group: Group, is_removing: bool,
             timeout: float | None = DEFAULT_TIMEOUT) -> ScaleInOutcome:
    """Shrink the group: members passing is_removing=True receive a
    retirement token and are fenced off; the rest continue in a successor
    group with their relative order preserved.

    Every member also learns whether its machine may be shut down: true iff
    no remaining member runs on the same host. Members that stay therefore
    always see False. If every member removes itself, all receive tokens and
    no successor group exists.
    """
    deadline = Deadline.of(timeout)
    my_label = old_group.descriptor().host_label
    block = SENTINEL_BLOCK if is_removing else pad_label(my_label)
    gathered = allgather(old_group, block, timeout=deadline)
    occupancy = HostOccupancy(width=HOST_LABEL_WIDTH, blocks=gathered)
    can_terminate = host_can_terminate(occupancy, my_label)

    outcome = split(old_group,
                    SplitKey(color=1 if is_removing else 0,
                             key=old_group.my_rank),
                    retiring_color=1, timeout=deadline)
    if is_removing:
        node = old_group.node
        old_group.retire()
        node.fencing.advance_to(outcome.epoch)
        node.endpoint.purge_stale()
    return ScaleInOutcome(new_group=outcome, can_terminate_host=can_terminate)
