"""Runtime process creation: launch children, register them with the spawning
root, and link both sides as an InterGroup ready to merge. ``spawn`` is one
round of ``collectives.gather_decide`` at rank 0, which checks that every
member asked for the same children and then launches them. Rank 0 is also
the root of the merge that follows, so the inter-group does not record it.
Registration has the same star shape: each child sends the root its host
label and listen address, with its child_index in the header, and gets one
outcome on its channel, whose handshake proved its id. The driver starts
the initial fleet through ``launch_and_register`` too, as the spawn root
of epoch 0.

Host placement is emulated: a child gets its logical host label from its
bootstrap environment, so multi-host layouts run on one machine. Launchers
are pluggable; tests launch threads, the benchmark real subprocesses.
"""

from __future__ import annotations

import os
import threading

from . import codeimage, wire
from .collectives import DEFAULT_TIMEOUT, gather_decide
from .errors import (
    DeadlineExceeded,
    DeferredLogger,
    DeliveryError,
    NotSpawnedError,
    ProtocolError,
    SpawnError,
)
from .groups import Group, InterGroup, MemberDescriptor, Side, check_host_label
from .node import Node
from .transport import match_fields
from .wire import Deadline, Envelope, error_outcome, ok_outcome, unwrap_outcome

ENV_PARENT_ADDR = "EG_PARENT_ADDR"
ENV_PARENT_EPOCH = "EG_PARENT_EPOCH"
ENV_CHILD_INDEX = "EG_CHILD_INDEX"
ENV_HOST_LABEL = "EG_HOST_LABEL"
ENV_CHILD_COUNT = "EG_CHILD_COUNT"
ENV_SPAWN_ID = "EG_SPAWN_ID"
ENV_PREFIX = "EG_"

log = DeferredLogger(__name__)

# Where this egroup package was imported from: the directory holding it, or
# the code image this process was started with (FD_DIR/N). It is on every
# child's PYTHONPATH, after the image, so the child imports the same egroup
# as its parent, however the parent found it.
IMPORT_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# How often the registration wait asks the launcher whether an unregistered
# child has already exited.
EXIT_POLL = 0.1


class SpawnSpec(wire.Value):
    """What to launch: program, arguments, how many copies, where."""

    __slots__ = ("program", "args", "count", "host_labels")

    def __init__(self, program: str, args: tuple = (), count: int = 1,
                 host_labels: tuple | None = None):
        args = tuple(args)
        if host_labels is not None:
            host_labels = tuple(host_labels)
        if count < 1:
            raise ValueError(f"count must be positive, got {count}")
        if host_labels is not None and len(host_labels) != count:
            raise ValueError(
                f"host_labels has {len(host_labels)} entries for "
                f"count {count}")
        self._init_fields(program, args, count, host_labels)

    def digest(self) -> bytes:
        body = wire.encode_payload({
            "program": self.program,
            "args": list(self.args),
            "count": self.count,
            "host_labels": list(self.host_labels) if self.host_labels else None,
        })
        return wire.sha256(body).digest()

    def label_for(self, index: int, fallback: str) -> str:
        if self.host_labels is not None:
            return self.host_labels[index]
        return fallback


class BootstrapTicket(wire.Value):
    """The environment a child finds its parent by: a spawning root or the
    driver for the workers it starts, and the id of its launching call."""

    __slots__ = ("parent_address", "parent_epoch", "child_index",
                 "host_label", "child_count", "spawn_id")

    def __init__(self, parent_address: str, parent_epoch: int,
                 child_index: int, host_label: str, child_count: int, spawn_id: str):
        if not (0 <= child_index < child_count):
            raise ValueError(
                f"child_index {child_index} out of range for "
                f"count {child_count}")
        if parent_epoch < 0:
            raise ValueError("parent_epoch must be non-negative")
        self._init_fields(parent_address, parent_epoch, child_index,
                          host_label, child_count, spawn_id)

    def to_env(self) -> dict:
        return {
            ENV_PARENT_ADDR: self.parent_address,
            ENV_PARENT_EPOCH: str(self.parent_epoch),
            ENV_CHILD_INDEX: str(self.child_index),
            ENV_HOST_LABEL: self.host_label,
            ENV_CHILD_COUNT: str(self.child_count),
            ENV_SPAWN_ID: self.spawn_id,
        }

    @classmethod
    def from_env(cls, environ=None) -> "BootstrapTicket":
        environ = os.environ if environ is None else environ
        if ENV_PARENT_ADDR not in environ:
            raise NotSpawnedError(
                "this process was not created by spawn (no bootstrap "
                f"ticket in the environment: {ENV_PARENT_ADDR} is not set)")

        def field(name, convert=wire.ascii_decimal):
            if not environ.get(name):
                raise ValueError(f"malformed bootstrap ticket: {name} is unset or empty")
            try:
                return convert(environ[name])
            except ValueError as exc:
                raise ValueError(f"malformed bootstrap ticket: {name} is "
                                 f"{environ[name]!r} ({exc})") from None

        def address(value):
            wire.parse_address(value)
            return value

        return cls(
            parent_address=field(ENV_PARENT_ADDR, address),
            parent_epoch=field(ENV_PARENT_EPOCH),
            child_index=field(ENV_CHILD_INDEX),
            # The rule a member descriptor applies, checked before any dial.
            host_label=field(ENV_HOST_LABEL, check_host_label),
            child_count=field(ENV_CHILD_COUNT),
            spawn_id=field(ENV_SPAWN_ID, str),
        )


class Launcher:
    """Starts one child per call; subclasses decide how and where."""

    def launch(self, spec: SpawnSpec, index: int, ticket_env: dict):
        raise NotImplementedError

    def stop(self, handle) -> None:
        raise NotImplementedError

    def exit_status(self, handle):
        """The child's exit status once it has exited, else None (also when
        the launcher cannot tell)."""
        return None


class LocalProcessLauncher(Launcher):
    """Run children as local subprocesses with the ticket in their environment.

    Each child's PYTHONPATH starts with the launcher's code image (see
    ``codeimage``), whose descriptor it gets through ``pass_fds``, then
    IMPORT_ROOT. A launcher in a process started from an image passes that
    image on; any other builds one from the egroup package under IMPORT_ROOT
    at its first launch, and builds again at a later launch once a source
    has changed, so a child always runs the current source. close()
    releases an image it built. Exited children are reaped by polling at
    each launch and stop, the way subprocess reaps abandoned Popen objects,
    so no thread waits on them. Keep one launcher for the life of the
    spawning process, as ``Node.launcher`` does. ``subprocess`` is imported
    on the first launch or stop: only a spawning root needs it, and every
    spawned worker would otherwise pay for it at start-up.
    """

    def __init__(self, stdout=None, stderr=None):
        self.stdout = stdout
        self.stderr = stderr
        self._children = []
        self._image = None  # (descriptor, sources) of the image it built

    def _reap(self) -> None:
        self._children = [p for p in self._children if p.poll() is None]

    def _image_fds(self) -> tuple:
        """The image children get, for ``pass_fds``: (descriptor,) or ()."""
        if os.path.dirname(IMPORT_ROOT) == codeimage.FD_DIR:
            return (int(os.path.basename(IMPORT_ROOT)),)
        package = os.path.join(IMPORT_ROOT, "egroup")
        if self._image and self._image[1] != codeimage.sources(package):
            self.close()
        if self._image is None:
            self._image = codeimage.build(package)
        return self._image[:1] if self._image else ()

    def launch(self, spec: SpawnSpec, index: int, ticket_env: dict):
        self._reap()
        env = {k: v for k, v in os.environ.items()
               if not k.startswith(ENV_PREFIX)}
        image = self._image_fds()
        paths = env.get("PYTHONPATH")
        env["PYTHONPATH"] = os.pathsep.join(dict.fromkeys(
            [f"{codeimage.FD_DIR}/{n}" for n in image] + [IMPORT_ROOT]
            + (paths.split(os.pathsep) if paths else [])))
        env.update(ticket_env)
        argv = [spec.program] + list(spec.args)
        import subprocess
        try:
            proc = subprocess.Popen(argv, env=env, pass_fds=image,
                                    stdout=self.stdout, stderr=self.stderr)
        except (OSError, TypeError, ValueError) as exc:
            # TypeError and ValueError: a non-string argv or environment
            # entry, or one with an embedded NUL.
            raise SpawnError(f"cannot launch {spec.program}: {exc}") from exc
        self._children.append(proc)
        return proc

    def stop(self, handle) -> None:
        import subprocess
        self._reap()
        if handle.poll() is not None:
            return
        handle.terminate()
        try:
            handle.wait(2.0)
        except subprocess.TimeoutExpired:
            handle.kill()

    def exit_status(self, handle):
        return handle.poll()

    def close(self) -> None:
        """Release the code image this launcher built; a later launch builds
        a new one. Children already started keep their own descriptors."""
        if self._image is not None:
            os.close(self._image[0])
        self._image = None


class ThreadLauncher(Launcher):
    """Run children as threads of this process; used by tests.

    ``target`` is called with the ticket environment dict and plays the role
    of the child program's main().
    """

    def __init__(self, target):
        self.target = target

    def launch(self, spec: SpawnSpec, index: int, ticket_env: dict):
        thread = threading.Thread(target=self.target, args=(dict(ticket_env),),
                                  daemon=True, name=f"child-{index}")
        thread.start()
        return thread

    def stop(self, handle) -> None:
        pass  # threads cannot be cancelled; targets are expected to finish


def spawn(group: Group, spec: SpawnSpec,
          launcher: Launcher | None = None,
          timeout: float | None = DEFAULT_TIMEOUT) -> InterGroup:
    """Collectively create ``spec.count`` children from rank 0.

    One star round: every member sends rank 0 its ``spec.digest()``, and
    rank 0 launches only when every digest matches, else every member raises
    ProtocolError. Either every child registers and all members return an
    InterGroup whose remote roster lists the children in child_index order,
    or the whole operation fails with the same error everywhere; never a
    partial inter-group. One deadline bounds the whole call, the children's
    registration included. Only rank 0's ``launcher`` is used; without one,
    rank 0 uses its node's ``launcher``, made on first use.
    """
    deadline = Deadline.of(timeout)

    def launch(digests: list) -> bytes:
        if any(d != digests[0] for d in digests):
            raise ProtocolError("spawn arguments differ across members")
        node = group.node
        if launcher is None and node.launcher is None:
            node.launcher = LocalProcessLauncher()
        remote = launch_and_register(
            node, spec, launcher or node.launcher, deadline, handles=[],
            epoch=group.epoch, parents=group.roster)
        return wire.encode_payload({"children": [m.to_fields() for m in remote]})

    outcome = wire.decode_payload(
        gather_decide(group, 0, spec.digest(), launch, deadline))
    remote = tuple(MemberDescriptor.from_fields(m) for m in outcome["children"])
    return InterGroup(local_group=group, remote_roster=remote, side=Side.PARENT)


def launch_and_register(node: Node, spec: SpawnSpec, launcher: Launcher,
                        timeout, *, handles: list, epoch: int = 0,
                        parents: tuple = ()) -> tuple:
    """Launch ``spec.count`` children whose tickets name ``node`` at
    ``epoch``, collect one registration per child, and send each, on the
    channel it registered on, one outcome: the ``parents`` roster and its
    siblings, or the error. Returns the children in child_index order.

    A registration carries its child_index in ``src_rank`` and the child's
    host label, listen address and spawn id; the child's id is the one its
    channel's handshake proved. One with another call's spawn id is dropped.
    Every launcher handle is appended to ``handles`` as it starts. On any
    failure every child this call launched is stopped and the error
    propagates: a SpawnError naming the missing child_index values once
    ``timeout`` (seconds or a Deadline) passes, a child that exited without
    registering or one that could not be answered; a ProtocolError on a bad
    or repeated registration. A registration sent before an exit has one
    more EXIT_POLL to arrive.
    """
    deadline, spawn_id = Deadline.of(timeout), os.urandom(8).hex()
    registered, channels, exited = {}, {}, {}
    first, error = len(handles), None
    try:
        for index in range(spec.count):
            ticket = BootstrapTicket(
                parent_address=node.listen_address, parent_epoch=epoch,
                child_index=index, child_count=spec.count,
                host_label=spec.label_for(index, node.host_label), spawn_id=spawn_id)
            handles.append(launcher.launch(spec, index, ticket.to_env()))

        match = match_fields(epoch=epoch, tag=wire.TAG_SPAWN_REGISTER)
        while len(registered) < spec.count:
            remaining = deadline.remaining()
            poll = EXIT_POLL if remaining is None else min(remaining, EXIT_POLL)
            try:
                env, channel = node.endpoint.recv_with_channel(match, poll)
            except DeadlineExceeded:
                missing = sorted(set(range(spec.count)) - set(registered))
                if deadline.expired():
                    raise SpawnError(
                        "children failed to register before the deadline: "
                        f"missing child_index values {missing}") from None
                for index in missing:
                    if index in exited:
                        raise SpawnError(
                            f"child_index {index} exited with status "
                            f"{exited[index]} before registering") from None
                    status = launcher.exit_status(handles[first + index])
                    if status is not None:
                        exited[index] = status
                continue
            fields, index = wire.decode_payload(env.payload), env.src_rank
            member = MemberDescriptor.from_fields(
                {**fields, "incarnation_id": channel.peer_id})
            if not fields.get("spawn_id"):
                raise ProtocolError(f"registration without a spawn id: {fields}")
            if fields["spawn_id"] != spawn_id:
                log.warning("dropped child_index %s of another spawn call", index)
                continue
            if not 0 <= index < spec.count or index in registered:
                raise ProtocolError(
                    f"registration with bad or repeated child_index {index}")
            registered[index], channels[index] = member, channel
        remote = tuple(registered[i] for i in range(spec.count))
        outcome = ok_outcome(wire.encode_payload({
            "parents": [m.to_fields() for m in parents],
            "children": [m.to_fields() for m in remote]}))
    except Exception as exc:
        error, outcome = exc, error_outcome(SpawnError(f"spawn aborted: {exc}"))

    for index, channel in channels.items():
        try:
            channel.send(Envelope(
                epoch=epoch, tag=wire.TAG_SPAWN_REPLY,
                src_rank=wire.NO_RANK, dst_rank=index, payload=outcome))
        except DeliveryError as exc:
            if error is None:
                error = SpawnError(f"cannot answer child_index {index}: {exc}")
                error.__cause__ = exc
    if error is not None:
        for handle in handles[first:]:
            try:
                launcher.stop(handle)
            except Exception:
                pass
        raise error
    return remote


def attach_parent(node: Node | None = None,
                  ticket: BootstrapTicket | None = None,
                  timeout: float | None = DEFAULT_TIMEOUT) -> InterGroup:
    """Called by a child: register with the parent root the ticket names,
    receive both rosters, and return the child-side InterGroup. The driver,
    as the parent of the workers it starts, sends no parent roster."""
    deadline = Deadline.of(timeout)
    if ticket is None:
        ticket = BootstrapTicket.from_env()
    created = node is None
    if created:
        node = Node(host_label=ticket.host_label)
    try:
        # Adopt the parent's epoch before dialing so fencing on both ends agrees.
        node.endpoint.advance_to(ticket.parent_epoch)
        channel = node.endpoint.connect(ticket.parent_address, timeout=deadline)
        channel.send(Envelope(
            epoch=ticket.parent_epoch, tag=wire.TAG_SPAWN_REGISTER,
            src_rank=ticket.child_index, dst_rank=wire.NO_RANK,
            payload=wire.encode_payload({
                "host_label": node.host_label, "spawn_id": ticket.spawn_id,
                "listen_address": node.listen_address})))
        match = match_fields(epoch=ticket.parent_epoch, tag=wire.TAG_SPAWN_REPLY)
        reply, _ = node.endpoint.recv_with_channel(
            match, deadline.for_outcome(), channel.peer_id)
        outcome = wire.decode_payload(unwrap_outcome(reply.payload))
        siblings, parents = (
            tuple(MemberDescriptor.from_fields(m) for m in outcome[roster])
            for roster in ("children", "parents"))
        local = node.make_group(ticket.parent_epoch, siblings, ticket.child_index)
        return InterGroup(local_group=local, remote_roster=parents,
                          side=Side.CHILD)
    except BaseException:
        if created:
            node.close()
        raise
