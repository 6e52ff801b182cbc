"""Group identity: member descriptors, epoch-versioned rosters, inter-group links.

A Group is an immutable value (epoch, ordered roster, caller's rank). Scaling
operations never mutate a group; they return new Group values with a higher
epoch, and the process-local runtime decides which epochs are still live.
"""

from __future__ import annotations

import enum
import os

from .errors import ProtocolError, RetiredGroupError
from .wire import Value, parse_address, sha256

# Type checkers read this name as True; at run time typing stays unimported.
TYPE_CHECKING = False
if TYPE_CHECKING:
    from .node import Node

# Longest host label, in UTF-8 bytes, that a member descriptor accepts.
HOST_LABEL_WIDTH = 64


def check_host_label(host_label: str) -> str:
    """Return ``host_label`` if a member descriptor accepts it: non-empty and
    at most HOST_LABEL_WIDTH bytes of UTF-8. Raises ValueError otherwise."""
    if not host_label:
        raise ValueError("host_label must be non-empty")
    if len(host_label.encode()) > HOST_LABEL_WIDTH:
        raise ValueError(f"host_label exceeds {HOST_LABEL_WIDTH} bytes: {host_label!r}")
    return host_label


def new_incarnation_id(host_label: str = "") -> str:
    """Mint a process-unique identity string; sorts arbitrarily but stably."""
    prefix = f"{host_label}.{os.getpid()}." if host_label else f"{os.getpid()}."
    return prefix + os.urandom(6).hex()


class MemberDescriptor(Value):
    """Identity of one worker process."""

    __slots__ = ("host_label", "listen_address", "incarnation_id")

    def __init__(self, host_label: str, listen_address: str,
                 incarnation_id: str):
        check_host_label(host_label)
        if not incarnation_id:
            raise ValueError("incarnation_id must be non-empty")
        parse_address(listen_address)
        self._init_fields(host_label, listen_address, incarnation_id)

    def to_fields(self) -> dict:
        return {
            "host_label": self.host_label,
            "listen_address": self.listen_address,
            "incarnation_id": self.incarnation_id,
        }

    @classmethod
    def from_fields(cls, obj: dict) -> "MemberDescriptor":
        try:
            return cls(
                host_label=obj["host_label"],
                listen_address=obj["listen_address"],
                incarnation_id=obj["incarnation_id"],
            )
        except (KeyError, TypeError, AttributeError, ValueError) as exc:
            raise ProtocolError(f"malformed member descriptor: {obj!r}") from exc


def check_roster(roster: tuple) -> None:
    ids = [m.incarnation_id for m in roster]
    if len(set(ids)) != len(ids):
        raise ValueError("roster contains duplicate incarnation ids")


class Group(Value):
    """An epoch-versioned, totally ordered roster with the caller's rank.

    ``node`` binds the value to the process-local runtime so communication
    operations can run; synthetic unbound groups (node=None) still support
    rank/size and are handy in tests. Equality and hashing ignore ``node``.
    """

    __slots__ = ("epoch", "roster", "my_rank", "node")
    _compare = ("epoch", "roster", "my_rank")

    def __init__(self, epoch: int, roster: tuple, my_rank: int,
                 node: Node | None = None):
        if epoch < 0:
            raise ValueError(f"epoch must be non-negative, got {epoch}")
        if not (0 <= my_rank < len(roster)):
            raise ValueError(
                f"my_rank {my_rank} out of range for roster of {len(roster)}"
            )
        check_roster(roster)
        self._init_fields(epoch, roster, my_rank, node)

    @property
    def retired(self) -> bool:
        return self.node is not None and self.node.fencing.is_retired(self.epoch)

    def _check_live(self):
        if self.retired:
            raise RetiredGroupError(f"group at epoch {self.epoch} is retired")

    def rank(self) -> int:
        self._check_live()
        return self.my_rank

    def size(self) -> int:
        self._check_live()
        return len(self.roster)

    def retire(self) -> None:
        """Mark this group retired; idempotent. All later operations fail."""
        if self.node is None:
            raise ProtocolError("cannot retire a group that is not bound to a node")
        self.node.fencing.retire(self.epoch)

    def member(self, rank: int) -> MemberDescriptor:
        if not (0 <= rank < len(self.roster)):
            raise ValueError(f"rank {rank} out of range for group of {len(self.roster)}")
        return self.roster[rank]

    def descriptor(self) -> MemberDescriptor:
        return self.roster[self.my_rank]


class Side(enum.Enum):
    PARENT = "parent_side"
    CHILD = "child_side"


class InterGroup(Value):
    """A parent/child linkage produced by spawn, before merging. Rank 0 of
    the parent side performed the spawn; the children registered with it,
    and it is the root of the merge.

    Single use: merging consumes it. ``consumed`` is the one field that may be
    assigned after construction; equality ignores it, and the value is not
    hashable.
    """

    __slots__ = ("local_group", "remote_roster", "side", "consumed")
    _compare = ("local_group", "remote_roster", "side")
    __hash__ = None

    def __init__(self, local_group: Group, remote_roster: tuple, side: Side,
                 consumed: bool = False):
        local_ids = {m.incarnation_id for m in local_group.roster}
        remote_ids = {m.incarnation_id for m in remote_roster}
        if local_ids & remote_ids:
            raise ValueError("local and remote rosters overlap")
        self._init_fields(local_group, remote_roster, side, consumed)

    def __setattr__(self, name, value):
        if name == "consumed":
            object.__setattr__(self, name, value)
        else:
            super().__setattr__(name, value)


class RetirementToken(Value):
    """Handed to a removing member in place of a successor group.

    ``epoch`` is the epoch at which the member's participation ended; the
    holder must stop group communication and exit.
    """

    __slots__ = ("epoch",)

    def __init__(self, epoch: int):
        self._init_fields(epoch)


def roster_digest(roster) -> str:
    """SHA-256 over ``incarnation_id|host_label|listen_address\\n`` in rank order."""
    h = sha256()
    for m in roster:
        h.update(
            f"{m.incarnation_id}|{m.host_label}|{m.listen_address}\n".encode()
        )
    return h.hexdigest()
