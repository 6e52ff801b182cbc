"""The reusable worker program.

Every worker starts from the bootstrap ticket in its environment and joins
through ``init_new_process``. A worker the driver launched takes its
siblings as the epoch-0 group; a worker spawned into a running fleet merges
with its parent. The driver reaches every worker by its descriptor, and the
worker answers each command on the channel it came in on. It serves driver
commands (barrier, allgather probes, scale events) until it is told to stop
or a scale_in retires it. It takes no command-line arguments.

A retiree leaves once it has answered: it lowers its own priority, closes
its node and exits, so its host is free as soon as the driver has the
reply. A straggling sender then sees the retiree's channel close by EOF,
after which a send raises DeliveryError, and a fresh dial raises
ConnectError. A send written before the sender has read that EOF may be
absorbed by the kernel without any error.

Exit status: 0 after a stop command or retirement, 2 on any argument or on
a missing or malformed bootstrap ticket, 1 on unexpected failure.
"""

from __future__ import annotations

import os
import sys
import time
from threading import TIMEOUT_MAX

from . import wire
from .collectives import DEFAULT_TIMEOUT, allgather, barrier
from .errors import (
    DeferredLogger,
    EGroupError,
    NotSpawnedError,
    ProtocolError,
    error_fields,
)
from .groups import RetirementToken, roster_digest
from .scaling import init_new_process, scale_in, scale_out
from .spawner import BootstrapTicket
from .transport import match_fields
from .wire import Envelope

log = DeferredLogger(__name__)

# Wide enough for any incarnation id; allgather blocks must share one width.
ID_BLOCK_WIDTH = 128


def _strings(value) -> bool:
    return type(value) is list and all(type(v) is str for v in value)


def _checked_timeout(op: str, cmd: dict):
    """Check that ``cmd`` carries every field its op reads, each of the type
    the op's call needs (a missing required field reads as None, which its
    check refuses), and return its timeout. Raises ProtocolError otherwise, so a
    malformed command gets an error reply from every worker before any of
    them enters a collective."""
    timeout = cmd.get("timeout", DEFAULT_TIMEOUT)
    checks = [("timeout", type(timeout) in (int, float)
               and 0 < timeout <= TIMEOUT_MAX, "a positive number of seconds")]
    if op == "scale_out":
        num_add, labels = cmd.get("num_add"), cmd.get("host_labels")
        checks += [
            ("num_add", type(num_add) is int and num_add >= 1,
             "a positive int"),
            ("child_program", type(cmd.get("child_program")) is str,
             "a string"),
            ("child_args", _strings(cmd.get("child_args", [])),
             "a list of strings"),
            ("host_labels", labels is None
             or _strings(labels) and len(labels) == num_add,
             "absent or a list of num_add strings")]
    elif op == "scale_in":
        checks.append(("keep", type(cmd.get("keep")) is int
                       and cmd["keep"] >= 1, "a positive int"))
    for field, ok, wanted in checks:
        if not ok:
            raise ProtocolError(
                f"{op} {field} must be {wanted}, got {cmd.get(field)!r}")
    return timeout


def _position(group) -> dict:
    return {"rank": group.my_rank, "size": len(group.roster),
            "epoch": group.epoch}


def _execute(group, cmd: dict):
    """Run one driver command. Returns the group to serve next (None after
    stop or retirement) and the reply body. The command's optional
    ``timeout`` field bounds the collectives it runs (DEFAULT_TIMEOUT
    without one). A scale_in retires the workers at rank ``keep`` and up."""
    op = cmd.get("op")
    timeout = _checked_timeout(op, cmd)
    start = time.perf_counter()
    if op == "stop":
        return None, {}
    if op == "barrier":
        barrier(group, timeout=timeout)
        return group, {}
    if op == "ping":
        return group, _position(group)
    if op == "digest":
        return group, {"digest": roster_digest(group.roster)}
    if op == "allgather_ids":
        block = group.node.incarnation_id.encode().ljust(ID_BLOCK_WIDTH, b"\x00")
        gathered = allgather(group, block, timeout=timeout)
        ids = [gathered[i:i + ID_BLOCK_WIDTH].rstrip(b"\x00").decode()
               for i in range(0, len(gathered), ID_BLOCK_WIDTH)]
        return group, {"ids": ids}
    if op == "scale_out":
        phases = {}
        size_before = len(group.roster)
        group = scale_out(
            group, cmd["num_add"], cmd["child_program"],
            cmd.get("host_labels"), child_args=cmd.get("child_args", ()),
            timeout=timeout, phases=phases)
        return group, {
            "total_s": time.perf_counter() - start,
            "spawn_s": phases.get("spawn_s", 0.0),
            "children": [m.to_fields() for m in group.roster[size_before:]],
            **_position(group)}
    if op == "scale_in":
        outcome = scale_in(group, group.my_rank >= cmd["keep"],
                           timeout=timeout)
        body = {"retired": isinstance(outcome.new_group, RetirementToken),
                "can_terminate": outcome.can_terminate_host,
                "total_s": time.perf_counter() - start,
                "epoch": outcome.new_group.epoch}
        if body["retired"]:
            return None, body
        return outcome.new_group, {**body, **_position(outcome.new_group)}
    raise ProtocolError(f"unknown command {op!r}")


def _serve(group) -> None:
    """Execute driver commands until stop or retirement, answering each on
    the channel it came in on."""
    node = group.node
    while group is not None:
        cmd_env, channel = node.endpoint.recv_with_channel(
            match_fields(tag=wire.TAG_DRIVER_CMD))
        try:
            cmd = wire.decode_payload(cmd_env.payload)
        except ProtocolError as exc:
            log.warning("dropping malformed driver command: %s", exc)
            continue
        try:
            group, body = _execute(group, cmd)
        except EGroupError as exc:
            body = error_fields(exc)
        body["seq"] = cmd.get("seq")
        channel.send(Envelope(
            epoch=node.endpoint.fence, tag=wire.TAG_DRIVER_REPLY,
            src_rank=wire.NO_RANK, dst_rank=wire.NO_RANK,
            payload=wire.encode_payload(body)))
        if body.get("retired"):
            # The survivors may still be answering the driver; the
            # retiree's teardown must not take the CPU from them.
            os.nice(19)


def worker_main(argv=None, environ=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    environ = os.environ if environ is None else environ
    if argv:
        print(f"egroup-worker: takes no arguments, got {argv[0]!r}",
              file=sys.stderr)
        return 2
    try:
        ticket = BootstrapTicket.from_env(environ)
    except (NotSpawnedError, ValueError) as exc:
        print(f"egroup-worker: {exc}", file=sys.stderr)
        return 2
    group = init_new_process(ticket=ticket)

    try:
        _serve(group)
        status = 0
    except Exception:
        import traceback
        traceback.print_exc()
        status = 1
    finally:
        group.node.close()
    return status


def main():
    sys.exit(worker_main())


if __name__ == "__main__":
    main()
