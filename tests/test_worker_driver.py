"""Driver and worker processes talking over real sockets."""

import os
import signal
import socket
import subprocess
import sys
import time

import pytest

from egroup import transport, wire
from egroup.driver import (
    CommandFailure,
    Driver,
    WorkerHandle,
    host_label_for_slot,
)
from egroup.errors import (
    ConnectError,
    DeadlineExceeded,
    DeliveryError,
    ProtocolError,
    SpawnError,
)
from egroup.groups import MemberDescriptor
from egroup.spawner import (
    ENV_CHILD_COUNT,
    ENV_CHILD_INDEX,
    ENV_HOST_LABEL,
    ENV_PARENT_ADDR,
    ENV_PARENT_EPOCH,
    ENV_SPAWN_ID,
    IMPORT_ROOT,
)
from egroup.wire import Envelope

# Longest a retiree may take to exit after Driver.scale_in returns.
RELEASE_BOUND = 0.15
# Longest the driver may take to see an exited retiree's channel close.
EOF_BOUND = 1.0


def clean_env():
    return {k: v for k, v in os.environ.items() if not k.startswith("EG_")}


class TestHostPacking:
    def test_slots_fill_hosts_in_order(self):
        labels = [host_label_for_slot(s, 2) for s in range(5)]
        assert labels == ["node0", "node0", "node1", "node1", "node2"]

    def test_one_slot_per_host(self):
        assert host_label_for_slot(3, 1) == "node3"


class TestFleet:
    def test_bootstrap_and_probe(self):
        with Driver(slots_per_host=2, timeout=30) as drv:
            drv.start_fleet(3)
            assert drv.size == 3
            assert len(drv.digests()) == 1, "workers disagree on the roster"

            pings = drv.ping()
            assert sorted(m["rank"] for m in pings.values()) == [0, 1, 2]
            assert all(m["size"] == 3 for m in pings.values())
            assert all(m["epoch"] == 0 for m in pings.values())

            labels = [h.member.host_label for h in drv.workers]
            assert labels == ["node0", "node0", "node1"]

    def test_allgather_ids_sees_everyone(self):
        with Driver(timeout=30) as drv:
            drv.start_fleet(3)
            replies = drv.allgather_ids()
            fleet_ids = [h.incarnation_id for h in drv.workers]
            for msg in replies.values():
                assert msg["ids"] == fleet_ids

    def test_unknown_command_surfaces_as_failure(self):
        with Driver(timeout=30) as drv:
            drv.start_fleet(2)
            with pytest.raises(CommandFailure) as excinfo:
                drv.command_all("frobnicate")
            assert "unknown command" in str(excinfo.value)
            # The fleet survives a failed command.
            drv.barrier()

    def test_late_reply_is_dropped(self):
        with Driver(timeout=30) as drv:
            drv.start_fleet(2)
            # A command whose replies nobody collects: they arrive while the
            # driver waits on the next command.
            late = drv._next_seq()
            for handle in drv.workers:
                drv._send_command(handle, late, "ping")
            drv.barrier()
            pings = drv.ping()
            assert sorted(m["rank"] for m in pings.values()) == [0, 1]
            # scale_out matches its replies by the same rule.
            late = drv._next_seq()
            for handle in drv.workers:
                drv._send_command(handle, late, "ping")
            assert drv.scale_out(1)["size"] == 3

    def test_reply_to_unsent_command_raises(self):
        with Driver(timeout=30) as drv:
            drv.start_fleet(2)
            drv._send_command(drv.workers[0], drv._seq + 5, "ping")
            with pytest.raises(ProtocolError, match="never sent"):
                drv.barrier()

    def test_command_dial_ends_at_the_command_deadline(self):
        # A worker whose listener never answers the hello: the driver's dial
        # to it is bound by the command's deadline.
        silent = socket.create_server(("127.0.0.1", 0))
        host, port = silent.getsockname()
        handle = WorkerHandle(member=MemberDescriptor(
            "node0", f"{host}:{port}", "silent.0"), rank=0, epoch=0)
        try:
            with Driver(timeout=30) as drv:
                start = time.monotonic()
                with pytest.raises(DeadlineExceeded):
                    drv._command([handle], "ping", timeout=1.0)
                assert time.monotonic() - start < 2.0
        finally:
            silent.close()

    def test_reply_on_a_strangers_channel_is_dropped(self):
        with Driver(timeout=30) as drv:
            drv.start_fleet(2)
            forged = {"seq": drv._seq + 1, "ok": True, "rank": 7, "epoch": 0,
                      "size": 2, "id": drv.workers[1].incarnation_id}
            stranger = transport.listen("127.0.0.1:0", "stranger")
            try:
                stranger.connect(drv.node.listen_address).send(Envelope(
                    epoch=0, tag=wire.TAG_DRIVER_REPLY, src_rank=wire.NO_RANK,
                    dst_rank=wire.NO_RANK, payload=wire.encode_payload(forged)))
                # Let the driver buffer it ahead of the workers' replies.
                time.sleep(0.2)
                pings = drv.ping()
            finally:
                stranger.close()
            assert sorted(m["rank"] for m in pings.values()) == [0, 1]

    def test_malformed_command_is_dropped(self):
        drv = Driver(timeout=30)
        procs = []
        try:
            drv.start_fleet(2)
            procs = [h.proc for h in drv.workers]
            target = drv.workers[1]
            # Valid JSON that is not an object, then invalid UTF-8.
            for payload in (b"[1, 2]", b"\xff"):
                drv.node.channel_to(target.member).send(Envelope(
                    epoch=target.epoch, tag=wire.TAG_DRIVER_CMD,
                    src_rank=wire.NO_RANK, dst_rank=wire.NO_RANK,
                    payload=payload))
            drv.barrier()
            assert sorted(m["rank"] for m in drv.ping().values()) == [0, 1]
        finally:
            drv.close()
        assert [p.returncode for p in procs] == [0, 0]

    def test_start_fleet_that_never_registers_raises_and_stops_workers(self):
        drv = Driver(worker_command=[sys.executable, "-c",
                                     "import time; time.sleep(30)"],
                     timeout=1)
        try:
            start = time.monotonic()
            with pytest.raises(SpawnError, match=r"missing child_index "
                                                 r"values \[0, 1, 2\]"):
                drv.start_fleet(3)
            assert time.monotonic() - start < 10
            assert drv.size == 0
            codes = drv.wait_for_exit(timeout=1)
            assert len(codes) == 3
            assert None not in codes.values(), "a worker is still running"
        finally:
            drv.close()

    def test_start_fleet_whose_worker_exits_fails_fast(self):
        drv = Driver(worker_command=[sys.executable, "-c",
                                     "import sys; sys.exit(3)"],
                     timeout=30)
        try:
            start = time.monotonic()
            with pytest.raises(SpawnError, match="exited with status 3"):
                drv.start_fleet(2)
            assert time.monotonic() - start < 5
            assert drv.size == 0
        finally:
            drv.close()

    def test_workers_find_egroup_without_help_from_the_environment(self, tmp_path):
        # The driving process finds egroup through sys.path alone; its
        # workers start without site and with no PYTHONPATH of their own.
        code = (f"import sys\n"
                f"sys.path.insert(0, {IMPORT_ROOT!r})\n"
                f"from egroup.driver import Driver\n"
                f"with Driver(timeout=30) as drv:\n"
                f"    drv.start_fleet(2)\n"
                f"    drv.scale_out(1)\n"
                f"    print(sorted((m['rank'], m['size'], m['epoch'])\n"
                f"                 for m in drv.ping().values()))\n")
        env = {k: v for k, v in clean_env().items() if k != "PYTHONPATH"}
        proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path,
                              env=env, capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[(0, 3, 1), (1, 3, 1), (2, 3, 1)]"

    def test_stop_exits_cleanly(self):
        with Driver(timeout=30) as drv:
            drv.start_fleet(2)
            drv.stop_all()
            codes = drv.wait_for_exit(timeout=10)
            assert list(codes.values()) == [0, 0]

    def test_close_lets_stopped_workers_exit_zero(self):
        # close() sends stop; workers that acknowledge it must get to exit
        # on their own rather than being terminated by signal.
        drv = Driver(timeout=30)
        procs = []
        try:
            drv.start_fleet(4)
            drv.barrier()
            procs = [h.proc for h in drv.workers]
        finally:
            drv.close()
        assert [p.returncode for p in procs] == [0, 0, 0, 0]

    def test_close_waits_stop_grace_for_a_silent_worker(self):
        # A stopped worker never answers stop: close() gives up on the
        # command after STOP_GRACE, not the driver's 30 s, and the launcher
        # then kills it.
        drv = Driver(timeout=30)
        procs, start = [], time.monotonic()
        try:
            drv.start_fleet(2)
            procs = [h.proc for h in drv.workers]
            os.kill(procs[1].pid, signal.SIGSTOP)
            start = time.monotonic()
        finally:
            drv.close()
            elapsed = time.monotonic() - start
            for proc in procs:
                proc.kill()
                proc.wait(10)
        assert elapsed < 8.0


# One row per malformed command, sent to every worker: the op, its fields,
# and the field the error reply must name.
MALFORMED = {
    "missing-is_removing": ("scale_in", {}, "is_removing"),
    "missing-num_add": ("scale_out", {"child_program": "unused"}, "num_add"),
    "missing-child_program": ("scale_out", {"num_add": 1}, "child_program"),
    "num_add-str": ("scale_out", {"num_add": "2",
                                  "child_program": sys.executable}, "num_add"),
    "num_add-bool": ("scale_out", {"num_add": True,
                                   "child_program": sys.executable}, "num_add"),
    "timeout-str": ("barrier", {"timeout": "3"}, "timeout"),
    "timeout-bool": ("barrier", {"timeout": True}, "timeout"),
    "timeout-zero": ("barrier", {"timeout": 0}, "timeout"),
    "timeout-negative": ("barrier", {"timeout": -1.5}, "timeout"),
    "timeout-null": ("barrier", {"timeout": None}, "timeout"),
    "timeout-inf": ("barrier", {"timeout": float("inf")}, "timeout"),
    "is_removing-str": ("scale_in", {"is_removing": "false"}, "is_removing"),
    "is_removing-int": ("scale_in", {"is_removing": 0}, "is_removing"),
    "host_labels-too-many": ("scale_out", {
        "num_add": 1, "child_program": sys.executable,
        "host_labels": ["a", "b"]}, "host_labels"),
    "host_labels-not-strings": ("scale_out", {
        "num_add": 1, "child_program": sys.executable,
        "host_labels": [5]}, "host_labels"),
    "host_labels-not-a-list": ("scale_out", {
        "num_add": 1, "child_program": sys.executable,
        "host_labels": "a"}, "host_labels"),
    "child_program-not-a-string": ("scale_out", {
        "num_add": 1, "child_program": [sys.executable]}, "child_program"),
    "child_args-not-a-list": ("scale_out", {
        "num_add": 1, "child_program": sys.executable,
        "child_args": "-S"}, "child_args"),
    "child_args-not-strings": ("scale_out", {
        "num_add": 1, "child_program": sys.executable,
        "child_args": [1]}, "child_args"),
}


@pytest.fixture(scope="class")
def fleet():
    """Two workers shared by a class's tests; each must exit 0 at close."""
    drv = Driver(timeout=30)
    procs = []
    try:
        drv.start_fleet(2)
        procs = [h.proc for h in drv.workers]
        yield drv
    finally:
        drv.close()
    assert [p.returncode for p in procs] == [0, 0]


class TestMalformedCommand:
    @pytest.mark.parametrize("op, params, field", MALFORMED.values(),
                             ids=MALFORMED.keys())
    def test_gets_an_error_reply(self, fleet, op, params, field):
        per_worker = {h.incarnation_id: params for h in fleet.workers}
        start = time.monotonic()
        with pytest.raises(CommandFailure, match=field) as excinfo:
            fleet.command_all(op, per_worker_params=per_worker)
        assert isinstance(excinfo.value.error, ProtocolError)
        assert time.monotonic() - start < 2
        # Every worker is still serving, at its old rank and epoch.
        fleet.barrier()
        assert sorted((m["rank"], m["epoch"])
                      for m in fleet.ping().values()) == [(0, 0), (1, 0)]


class TestFleetScaling:
    def test_failed_spawn_fails_every_worker_within_the_timeout(self, tmp_path):
        # The initial fleet runs the worker; once the marker exists, spawned
        # children sleep instead of registering.
        marker = tmp_path / "children-sleep"
        code = (f"import os, sys, time\n"
                f"if os.path.exists({str(marker)!r}):\n"
                f"    time.sleep(30)\n"
                f"    sys.exit(3)\n"
                f"from egroup.worker import main\n"
                f"main()\n")
        drv = Driver(worker_command=[sys.executable, "-c", code], timeout=30)
        procs = []
        try:
            drv.start_fleet(2)
            procs = [h.proc for h in drv.workers]
            marker.touch()
            start = time.monotonic()
            with pytest.raises(CommandFailure) as excinfo:
                drv.scale_out(1, timeout=3)
            assert time.monotonic() - start < 4.5
            assert isinstance(excinfo.value.error, SpawnError)
            assert "[0]" in str(excinfo.value.error)
            drv.barrier()
            pings = drv.ping()
            assert sorted(m["rank"] for m in pings.values()) == [0, 1]
            assert all(m["size"] == 2 for m in pings.values())
        finally:
            drv.close()
        assert [p.returncode for p in procs] == [0, 0]

    def test_scale_out_keeps_ranks_and_connects_children(self):
        with Driver(slots_per_host=2, timeout=30) as drv:
            drv.start_fleet(2)
            original = [h.incarnation_id for h in drv.workers]

            reply = drv.scale_out(2)
            assert drv.size == 4
            assert reply["rank"] == 0
            assert reply["size"] == 4
            assert reply["epoch"] == 1
            assert reply["total_s"] >= reply["spawn_s"] > 0.0

            assert [h.incarnation_id for h in drv.workers[:2]] == original
            assert [h.rank for h in drv.workers] == [0, 1, 2, 3]
            # Children landed on the next free slots.
            assert [h.member.host_label for h in drv.workers] == \
                ["node0", "node0", "node1", "node1"]

            # The driver dialed each child by its descriptor.
            for child in drv.workers[2:]:
                channel = drv.node.endpoint.channel_to(child.incarnation_id)
                assert channel is not None and not channel.closed

            replies = drv.allgather_ids()
            fleet_ids = [h.incarnation_id for h in drv.workers]
            assert len(set(fleet_ids)) == 4
            for msg in replies.values():
                assert msg["ids"] == fleet_ids

    def test_scale_in_retires_highest_ranks(self):
        with Driver(timeout=30) as drv:
            drv.start_fleet(4)
            doomed = drv.workers[-1]

            reply = drv.scale_in(1)
            answered = time.monotonic()
            assert drv.size == 3
            assert reply["rank"] == 0
            assert reply["size"] == 3
            assert reply["epoch"] == 1
            assert reply["retired"] is False

            # The removed worker's process ends on its own with status 0,
            # soon after it has answered, so its host is free at once.
            codes = drv.wait_for_exit([doomed], timeout=10)
            released = time.monotonic() - answered
            assert codes == {doomed.proc.pid: 0}
            assert released < RELEASE_BOUND, (
                f"retiree exited after {released:.3f} s")

            pings = drv.ping()
            assert sorted(m["rank"] for m in pings.values()) == [0, 1, 2]
            assert doomed.incarnation_id not in pings

    def test_straggler_to_an_exited_retiree_gets_an_error(self):
        with Driver(timeout=30) as drv:
            drv.start_fleet(3)
            doomed = drv.workers[-1]
            channel = drv.node.channel_to(doomed.member)
            drv.scale_in(1)
            codes = drv.wait_for_exit([doomed], timeout=10)
            assert codes == {doomed.proc.pid: 0}

            # No reject notice comes: the channel closes by EOF, so every
            # later send fails, and nothing listens at the address.
            assert channel.wait_reject(timeout=EOF_BOUND) is None
            assert channel.closed
            with pytest.raises(DeliveryError):
                channel.send(Envelope(epoch=1, tag=wire.TAG_DRIVER_CMD,
                                      src_rank=wire.NO_RANK,
                                      dst_rank=wire.NO_RANK, payload=b""))
            with pytest.raises(ConnectError):
                drv.node.endpoint.connect(doomed.member.listen_address,
                                          expect_id=doomed.incarnation_id,
                                          timeout=EOF_BOUND)

    def test_scale_in_reports_retiree_host_decisions(self):
        # Four retirees alone on node1 may each retire their host; the
        # remaining root on node0 may not.
        with Driver(slots_per_host=4, timeout=30) as drv:
            drv.start_fleet(4)
            drv.scale_out(4)
            retirees = [h.incarnation_id for h in drv.workers[4:]]
            assert [h.member.host_label for h in drv.workers[4:]] == ["node1"] * 4
            reply = drv.scale_in(4)
            assert reply["can_terminate"] is False
            assert reply["retiree_can_terminate"] == dict.fromkeys(retirees, True)
            assert reply["rank"] == 0 and reply["size"] == 4

    def test_scale_in_delta_bounds(self):
        with Driver(timeout=30) as drv:
            drv.start_fleet(2)
            with pytest.raises(ValueError):
                drv.scale_in(2)
            with pytest.raises(ValueError):
                drv.scale_in(0)

    def test_grow_then_shrink_round_trip(self):
        with Driver(timeout=30) as drv:
            drv.start_fleet(2)
            original = [h.incarnation_id for h in drv.workers]
            drv.scale_out(2)
            reply = drv.scale_in(2)
            assert reply["size"] == 2
            assert reply["epoch"] == 2
            assert [h.incarnation_id for h in drv.workers] == original
            assert len(drv.digests()) == 1


class TestWorkerExitCodes:
    def run_worker(self, argv=(), env=None, timeout=15):
        return subprocess.run(
            [sys.executable, "-m", "egroup.worker", *argv],
            env=env if env is not None else clean_env(),
            capture_output=True, text=True, timeout=timeout)

    def test_no_driver_address_is_usage_error(self):
        proc = self.run_worker()
        assert proc.returncode == 2
        assert ENV_PARENT_ADDR in proc.stderr

    def test_malformed_member_index_is_usage_error(self):
        env = clean_env()
        env[ENV_PARENT_ADDR] = "127.0.0.1:1"
        env[ENV_PARENT_EPOCH] = "0"
        env[ENV_CHILD_INDEX] = "first"
        env[ENV_HOST_LABEL] = "node0"
        env[ENV_CHILD_COUNT] = "2"
        proc = self.run_worker(env=env)
        assert proc.returncode == 2
        assert ENV_CHILD_INDEX in proc.stderr

    def test_any_argument_is_usage_error(self):
        env = clean_env()
        env[ENV_PARENT_ADDR] = "127.0.0.1:1"
        env[ENV_PARENT_EPOCH] = "0"
        env[ENV_CHILD_INDEX] = "0"
        env[ENV_HOST_LABEL] = "node0"
        env[ENV_CHILD_COUNT] = "1"
        proc = self.run_worker(["--driver", "127.0.0.1:1"], env=env)
        assert proc.returncode == 2
        assert "--driver" in proc.stderr

    def test_missing_world_size_is_usage_error(self):
        env = clean_env()
        env[ENV_PARENT_ADDR] = "127.0.0.1:1"
        env[ENV_PARENT_EPOCH] = "0"
        env[ENV_CHILD_INDEX] = "0"
        env[ENV_HOST_LABEL] = "node0"
        proc = self.run_worker(env=env)
        assert proc.returncode == 2
        assert ENV_CHILD_COUNT in proc.stderr

    @pytest.mark.parametrize("variable, value", [
        (ENV_HOST_LABEL, ""),
        (ENV_HOST_LABEL, "h" * 65),
        (ENV_PARENT_ADDR, "nohostport"),
        (ENV_PARENT_EPOCH, "3_0"),
        (ENV_SPAWN_ID, ""),
        (ENV_SPAWN_ID, None),
    ], ids=["empty-label", "long-label", "address-without-port",
            "underscore-epoch", "empty-spawn-id", "unset-spawn-id"])
    def test_malformed_ticket_value_is_usage_error(self, variable, value):
        # The parent listens, so a worker that let the value through would
        # dial it and fail later, with status 1 and a traceback.
        parent = transport.listen("127.0.0.1:0", "parent")
        env = clean_env()
        env.update({ENV_PARENT_ADDR: parent.listen_address,
                    ENV_PARENT_EPOCH: "0", ENV_CHILD_INDEX: "0",
                    ENV_HOST_LABEL: "node0", ENV_CHILD_COUNT: "1",
                    ENV_SPAWN_ID: "0f", variable: value})
        if value is None:
            del env[variable]
        try:
            proc = self.run_worker(env=env)
        finally:
            parent.close()
        assert proc.returncode == 2, proc.stderr
        assert variable in proc.stderr
