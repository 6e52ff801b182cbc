"""Fleet orchestration for the benchmark harness and integration tests.

The driver is not a group member. It is the spawn root of epoch 0: it
launches the initial workers with bootstrap tickets that name it as their
parent, and answers their registrations with the sibling roster, which
becomes the epoch-0 group. It then scripts them with commands over the
reserved low tag range. It reaches every worker the same way, by its
member descriptor: after a scale-out it reads the children's descriptors
from the workers' replies, dials each child and pings it, so the driver's
view of the fleet follows every scale event.
"""

from __future__ import annotations

import subprocess
import sys
from dataclasses import dataclass

from . import wire
from .collectives import DEFAULT_TIMEOUT
from .errors import (
    DeadlineExceeded,
    DeferredLogger,
    EGroupError,
    ProtocolError,
    error_from_fields,
)
from .groups import MemberDescriptor
from .node import Node
from .spawner import LocalProcessLauncher, SpawnSpec, launch_and_register
from .transport import match_fields
from .wire import Deadline, Envelope

log = DeferredLogger(__name__)

# How long stop_all waits for replies, and close() for acknowledged exits.
STOP_GRACE = 2.0


def default_worker_command() -> list:
    """Command line that starts the worker program in this interpreter,
    without ``site``: the worker needs only the standard library, and the
    launcher puts egroup's import root on the child's PYTHONPATH. It runs
    ``-c``, not ``-m egroup.worker``, because ``runpy`` would load
    ``importlib.util``, ``contextlib`` and ``warnings`` into every worker."""
    return [sys.executable, "-S", "-c", "from egroup.worker import main; main()"]


def host_label_for_slot(slot: int, slots_per_host: int) -> str:
    """Pack slots onto emulated hosts: slots 0..S-1 on node0, and so on."""
    if slots_per_host < 1:
        raise ValueError(f"slots_per_host must be positive, got {slots_per_host}")
    return f"node{slot // slots_per_host}"


@dataclass
class WorkerHandle:
    """Driver-side view of one live worker."""

    member: MemberDescriptor
    rank: int
    epoch: int
    proc: subprocess.Popen | None = None

    @property
    def incarnation_id(self) -> str:
        return self.member.incarnation_id


class CommandFailure(EGroupError):
    """A worker answered a command with an error."""

    def __init__(self, rank: int, error: EGroupError):
        super().__init__(f"worker rank {rank} failed: {error}")
        self.rank = rank
        self.error = error


class Driver:
    """Launches and scripts a worker fleet; one instance per fleet.

    ``timeout`` bounds start_fleet and each command that is not given its
    own; a command hands the seconds it has left to the workers, so their
    collectives end when the driver stops waiting."""

    def __init__(self, worker_command=None, slots_per_host: int = 32,
                 timeout: float | None = DEFAULT_TIMEOUT):
        self.worker_command = list(worker_command or default_worker_command())
        self.slots_per_host = slots_per_host
        self.timeout = timeout
        self.node = Node(host_label="driver")
        self.workers = []
        self.epoch = 0
        self._seq = 0
        self._launcher = LocalProcessLauncher(stdout=subprocess.DEVNULL)
        self._procs = []

    @property
    def size(self) -> int:
        return len(self.workers)

    # -- fleet bootstrap -------------------------------------------------------

    def start_fleet(self, initial: int) -> None:
        """Launch the initial workers as the spawn root of epoch 0; each one
        registers through its bootstrap ticket and takes its siblings, in
        slot order, as the epoch-0 group. Raises SpawnError, with every
        launched worker stopped, if one fails to register in time."""
        if self.workers:
            raise ProtocolError("fleet already started")
        if initial < 1:
            raise ValueError(f"initial must be positive, got {initial}")
        spec = SpawnSpec(
            program=self.worker_command[0], args=self.worker_command[1:],
            count=initial,
            host_labels=[host_label_for_slot(i, self.slots_per_host)
                         for i in range(initial)])
        members = launch_and_register(self.node, spec, self._launcher,
                                      self.timeout, handles=self._procs)
        self.workers = [
            WorkerHandle(member=member, rank=index, epoch=0, proc=proc)
            for index, (member, proc) in enumerate(zip(members, self._procs[-initial:]))]
        self.epoch = 0

    # -- command plumbing ------------------------------------------------------

    def _next_seq(self) -> int:
        self._seq += 1
        return self._seq

    def _send_command(self, handle: WorkerHandle, payload: bytes, deadline):
        """Send an encoded command; ``deadline`` bounds a dial to the worker."""
        self.node.send_to(handle.member, Envelope(
            epoch=handle.epoch, tag=wire.TAG_DRIVER_CMD,
            src_rank=wire.NO_RANK, dst_rank=wire.NO_RANK, payload=payload),
            deadline)

    def _answers(self, msg: dict, seq: int, sender: str, addressed) -> bool:
        """Whether ``msg``, which came on ``sender``'s channel, answers
        command ``seq``. A reply from outside ``addressed``, or a late one to
        an earlier command, is logged and dropped; one to a command never
        sent raises."""
        got = msg.get("seq")
        if sender in addressed and got == seq:
            return True
        if sender not in addressed or isinstance(got, int) and 0 < got < seq:
            log.warning("dropping reply to command %r from %s", got, sender)
            return False
        raise ProtocolError(f"reply for command {got!r}, which was never "
                            f"sent (waiting on {seq})")

    def _deadline(self, timeout) -> Deadline:
        return Deadline.of(self.timeout if timeout is None else timeout)

    def _command(self, handles: list, fields: dict, timeout=None) -> dict:
        """Send ``fields``, one command, to each of ``handles`` as one payload
        and wait for every reply, keyed by its channel's incarnation id;
        raises CommandFailure for the first one that carries an error.
        ``timeout`` is seconds or a Deadline; the command carries the seconds
        left unless ``fields`` has a ``timeout``, and replies are awaited
        OUTCOME_SLACK longer, for workers that give up at the deadline."""
        deadline = self._deadline(timeout)
        if deadline.expired():
            raise DeadlineExceeded(f"deadline passed before sending {fields}")
        if deadline.at is not None:
            fields = {"timeout": deadline.remaining(), **fields}
        seq = self._next_seq()
        payload = wire.encode_payload({**fields, "seq": seq})
        for handle in handles:
            self._send_command(handle, payload, deadline)
        wait, replies = deadline.for_outcome(), {}
        addressed = {handle.incarnation_id for handle in handles}
        while len(replies) < len(handles):
            env, channel = self.node.endpoint.recv_with_channel(
                match_fields(tag=wire.TAG_DRIVER_REPLY), wait)
            msg = wire.decode_payload(env.payload)
            if self._answers(msg, seq, channel.peer_id, addressed):
                replies[channel.peer_id] = msg
        for handle in handles:
            msg = replies[handle.incarnation_id]
            if "error" in msg:
                raise CommandFailure(rank=handle.rank,
                                     error=error_from_fields(msg))
        return replies

    def command_all(self, op: str, timeout: float | None = None,
                    **params) -> dict:
        """Send one command to every worker and wait for every reply."""
        return self._command(self.workers, {**params, "op": op}, timeout)

    # -- scripted fleet operations ---------------------------------------------

    def barrier(self) -> None:
        self.command_all("barrier")

    def ping(self) -> dict:
        return self.command_all("ping")

    def digests(self) -> set:
        replies = self.command_all("digest")
        return {msg["digest"] for msg in replies.values()}

    def allgather_ids(self) -> dict:
        """Returns {incarnation_id: {"ids": [every worker's id, by rank]}}."""
        return self.command_all("allgather_ids")

    def scale_out(self, delta: int, timeout: float | None = None) -> dict:
        """Grow the fleet by ``delta`` spawned children; returns the rank-0
        worker's timing reply once every child has answered the driver at
        its expected rank and epoch. One deadline covers the command and the
        children's pings."""
        if delta < 1:
            raise ValueError(f"delta must be positive, got {delta}")
        deadline = self._deadline(timeout)
        labels = [host_label_for_slot(self.size + j, self.slots_per_host)
                  for j in range(delta)]
        replies = self.command_all(
            "scale_out", timeout=deadline, num_add=delta,
            child_program=self.worker_command[0],
            child_args=self.worker_command[1:], host_labels=labels)

        new_epoch = self.epoch + 1
        for handle in self.workers:
            handle.epoch = new_epoch
            self._check_position(handle, replies[handle.incarnation_id])
        root = replies[self.workers[0].incarnation_id]
        children = [
            WorkerHandle(member=MemberDescriptor.from_fields(m),
                         rank=self.size + j, epoch=new_epoch)
            for j, m in enumerate(root.get("children", ()))]
        if len(children) != delta:
            raise ProtocolError(
                f"scale_out by {delta} reported {len(children)} children")
        # The first command to a child dials it by its descriptor.
        pongs = self._command(children, {"op": "ping"}, deadline)
        for handle in children:
            self._check_position(handle, pongs[handle.incarnation_id])
        self.workers.extend(children)
        self.epoch = new_epoch
        return root

    @staticmethod
    def _check_position(handle: WorkerHandle, msg: dict) -> None:
        got = (msg.get("rank"), msg.get("epoch"))
        if got != (handle.rank, handle.epoch):
            raise ProtocolError(
                f"worker {handle.incarnation_id} answered at (rank, epoch) "
                f"{got}, expected {(handle.rank, handle.epoch)}")

    def scale_in(self, delta: int, timeout: float | None = None) -> dict:
        """Remove the ``delta`` highest-ranked workers: every worker is told
        how many ranks stay, and each survivor must answer at its own rank
        and the next epoch (else ProtocolError). Returns the remaining rank-0
        worker's timing reply, plus ``retiree_can_terminate``: each retiree's
        host-retirement decision keyed by its incarnation id."""
        if not (1 <= delta < self.size):
            raise ValueError(
                f"delta must be in [1, {self.size - 1}], got {delta}")
        keep = self.size - delta
        replies = self.command_all("scale_in", timeout=timeout, keep=keep)

        for handle in self.workers:
            msg = replies[handle.incarnation_id]
            if bool(msg.get("retired")) != (handle.rank >= keep):
                raise ProtocolError(f"worker rank {handle.rank} answered "
                                    f"retired={msg.get('retired')!r}")
        survivors, retirees = self.workers[:keep], self.workers[keep:]
        for handle in survivors:
            handle.epoch = self.epoch + 1
            self._check_position(handle, replies[handle.incarnation_id])
        self.workers = survivors
        self.epoch += 1
        reply = dict(replies[survivors[0].incarnation_id])
        reply["retiree_can_terminate"] = {
            h.incarnation_id: replies[h.incarnation_id]["can_terminate"]
            for h in retirees}
        return reply

    def wait_for_exit(self, handles=None, timeout: float = 10.0) -> dict:
        """Wait for worker processes to exit; returns {pid: returncode}."""
        procs = [h.proc for h in (handles or [])] if handles else self._procs
        results = {}
        deadline = Deadline.of(timeout)
        for proc in procs:
            if proc is None:
                continue
            try:
                results[proc.pid] = proc.wait(deadline.remaining())
            except subprocess.TimeoutExpired:
                results[proc.pid] = None
        return results

    # -- lifecycle -------------------------------------------------------------

    def stop_all(self) -> None:
        if self.workers:
            self.command_all("stop", timeout=STOP_GRACE)
            self.workers = []

    def close(self) -> None:
        stopping = list(self.workers)
        try:
            self.stop_all()
        except EGroupError:
            stopping = []
        finally:
            if stopping:
                # Workers that acknowledged stop exit 0 by themselves; a
                # signal now would cut short whatever they do on the way out.
                self.wait_for_exit(stopping, timeout=STOP_GRACE)
            for proc in self._procs:
                self._launcher.stop(proc)
            self._launcher.close()
            self.node.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
