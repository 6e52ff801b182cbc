"""Dynamic scaling of a running group: grow with immediate connectivity,
shrink with communication fencing, and decide host retirement.

scale_out barriers the old group, spawns children from rank 0, and merges
the two sides (originals low, children high) so every original rank is
preserved and all-to-all channels exist before it returns. scale_in gathers
one leaving flag per member; every member reads the host labels from the
roster it already holds and decides whether its machine empties out. Then
it splits the group so the removing members drop into a retirement token
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
from .groups import Group, RetirementToken
from .node import Node
from .spawner import (
    BootstrapTicket,
    Launcher,
    SpawnSpec,
    attach_parent,
    spawn,
)
from .wire import Deadline, Value


class ScaleInOutcome(Value):
    """What scale_in hands back: the successor group (or a retirement token
    for removing members) and the host-termination decision."""

    __slots__ = ("new_group", "can_terminate_host")

    def __init__(self, new_group: Group | RetirementToken,
                 can_terminate_host: bool):
        self._init_fields(new_group, can_terminate_host)


def host_can_terminate(hosts, flags, my_host: str) -> bool:
    """True iff no member that stays runs on ``my_host``. ``hosts`` are the
    roster's host labels and ``flags`` the gathered leaving flags (0 for a
    member that stays), both in rank order."""
    return all(flag or host != my_host for host, flag in zip(hosts, flags))


def scale_out(old_group: Group, num_add: int, child_program: str,
              host_labels=None, *, child_args=(),
              launcher: Launcher | None = None,
              timeout: float | None = DEFAULT_TIMEOUT,
              phases: dict | None = None) -> Group:
    """Grow the group by ``num_add`` spawned children; originals keep their
    ranks, children follow at ranks size..size+num_add-1.

    One deadline bounds the barrier, the spawn and the merge. On any error
    the old group is left usable. When ``phases`` is given it receives the
    spawn's wall-clock duration as spawn_s.
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
    if phases is not None:
        phases["spawn_s"] = time.perf_counter() - start
    return merge(inter, high=False, timeout=deadline)


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
    flags = allgather(old_group, bytes([is_removing]), timeout=deadline)
    can_terminate = host_can_terminate(
        [m.host_label for m in old_group.roster], flags,
        old_group.descriptor().host_label)

    outcome = split(old_group,
                    SplitKey(color=1 if is_removing else 0,
                             key=old_group.my_rank),
                    retiring_color=1, timeout=deadline)
    if is_removing:
        old_group.retire()
        old_group.node.endpoint.advance_to(outcome.epoch)
    return ScaleInOutcome(new_group=outcome, can_terminate_host=can_terminate)
