"""Per-process runtime state: identity, endpoint, epochs, and group plumbing.

A Node owns exactly one Endpoint for the life of the process, whatever groups
it moves through; the Endpoint's epoch fence records how far it has joined.
Channels to peers are opened on first use and reused across epochs.
"""

from __future__ import annotations

import os
import socket
import threading

from . import wire
from .errors import DeliveryError, FencingError, RetiredGroupError
from .groups import Group, MemberDescriptor, check_host_label, new_incarnation_id
from .transport import HANDSHAKE_TIMEOUT, Endpoint, match_fields
from .wire import Deadline, Envelope

DEFAULT_BIND = "127.0.0.1:0"


class Node:
    """The process-local anchor that groups, collectives, and spawns share."""

    def __init__(self, host_label: str | None = None, bind: str = DEFAULT_BIND):
        if host_label is None:
            host_label = os.environ.get("EG_HOST_LABEL") or socket.gethostname()
        # The rule the node's descriptor applies, checked before binding.
        self.host_label = check_host_label(host_label)
        self.incarnation_id = new_incarnation_id(host_label)
        self.endpoint = Endpoint(bind, self.incarnation_id)
        self._tag_lock = threading.Lock()
        self._tag_counters = {}
        # spawn's LocalProcessLauncher when it is given none: made on first
        # use, kept to reap children and reuse its code image, closed here.
        self.launcher = None

    @property
    def listen_address(self) -> str:
        return self.endpoint.listen_address

    def descriptor(self) -> MemberDescriptor:
        return MemberDescriptor(
            host_label=self.host_label,
            listen_address=self.listen_address,
            incarnation_id=self.incarnation_id,
        )

    # -- groups ----------------------------------------------------------------

    def make_group(self, epoch: int, roster, my_rank: int) -> Group:
        """A group bound to this node; advances the epoch fence to it, which
        rejects the buffered envelopes below it, and drops the tag counters
        of the epochs below the fence, which ``check_group_live`` refuses
        before they could draw a tag."""
        group = Group(epoch, tuple(roster), my_rank, node=self)
        if group.descriptor().incarnation_id != self.incarnation_id:
            raise ValueError("my_rank does not point at this node's descriptor")
        self.endpoint.advance_to(epoch)
        fence = self.endpoint.fence
        with self._tag_lock:
            self._tag_counters = {e: n for e, n in self._tag_counters.items()
                                  if e >= fence}
        return group

    # -- messaging -------------------------------------------------------------

    def channel_to(self, member: MemberDescriptor, timeout=HANDSHAKE_TIMEOUT):
        """Reuse or open the live channel to ``member``; ``timeout`` bounds a dial."""
        channel = self.endpoint.channel_to(member.incarnation_id)
        if channel is not None:
            return channel
        return self.endpoint.connect(member.listen_address,
                                     expect_id=member.incarnation_id,
                                     timeout=timeout)

    def send_to(self, member: MemberDescriptor, envelope: Envelope,
                timeout=HANDSHAKE_TIMEOUT) -> None:
        """Send outside any group context (bootstrap, merge control).
        ``timeout`` (seconds or a Deadline) bounds a dial, its retry included."""
        deadline = Deadline.of(timeout)
        try:
            self.channel_to(member, deadline).send(envelope)
        except DeliveryError:
            # The channel may have been collapsed by a concurrent duplicate
            # connect; one fresh attempt covers that.
            self.channel_to(member, deadline).send(envelope)

    def send(self, group: Group, dst_rank: int, tag: int, payload: bytes,
             timeout=HANDSHAKE_TIMEOUT) -> None:
        """Send one envelope within ``group``, refusing stale or retired epochs
        before anything reaches the wire; ``timeout`` bounds a dial."""
        self.check_group_live(group)
        self.send_to(group.member(dst_rank),
                     Envelope(epoch=group.epoch, tag=tag,
                              src_rank=group.my_rank, dst_rank=dst_rank,
                              payload=payload), timeout)

    def recv_on(self, group: Group, tag: int, src_rank: int,
                timeout: float | None = None) -> Envelope:
        """Receive ``group``'s next envelope with ``tag`` from ``src_rank``,
        on that member's channel."""
        self.check_group_live(group)
        match = match_fields(epoch=group.epoch, tag=tag, src_rank=src_rank)
        return self.endpoint.recv_with_channel(
            match, timeout, group.member(src_rank).incarnation_id)[0]

    def check_group_live(self, group: Group) -> None:
        if self.endpoint.is_retired(group.epoch):
            raise RetiredGroupError(
                f"group at epoch {group.epoch} was retired on this process")
        fence = self.endpoint.fence
        if group.epoch < fence:
            raise FencingError(
                f"group epoch {group.epoch} is behind this process's current "
                f"epoch {fence}", envelope_epoch=group.epoch, receiver_epoch=fence)

    def next_collective_tag(self, epoch: int) -> int:
        """Per-epoch tag sequence; every member draws the same values in the
        same order because collectives run in lockstep."""
        with self._tag_lock:
            value = self._tag_counters.get(epoch, wire.TAG_COLL_BASE)
            self._tag_counters[epoch] = value + 1
            return value

    # -- lifecycle -------------------------------------------------------------

    def close(self) -> None:
        if self.launcher is not None:
            self.launcher.close()
        self.endpoint.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def __repr__(self):
        return f"<Node {self.incarnation_id} on {self.host_label}>"
