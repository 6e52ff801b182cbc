"""Growing and shrinking live groups."""

import random
import socket
import subprocess
import sys
import threading
import time

import pytest

from egroup import (
    FencingError,
    Group,
    Node,
    RetiredGroupError,
    RetirementToken,
    ThreadLauncher,
)
from egroup.collectives import allgather, barrier, merge
from egroup.errors import DeadlineExceeded, ProtocolError, SpawnError
from egroup.scaling import init_new_process, scale_in, scale_out
from egroup.spawner import (
    BootstrapTicket,
    LocalProcessLauncher,
    SpawnSpec,
    launch_and_register,
    spawn,
)

from conftest import cluster, run_members
from test_host_termination import naive_can_terminate


class ChildWorld:
    """Thread-launcher target that joins the group the way a spawned
    process would, then follows scripted collective steps."""

    def __init__(self, script=None, double_init=False):
        self.script = script
        self.double_init = double_init
        self.groups = {}
        self.errors = {}
        self.double_init_error = {}
        self.lock = threading.Lock()

    def target(self, env):
        ticket = BootstrapTicket.from_env(env)
        node = Node(host_label=ticket.host_label)
        try:
            group = init_new_process(node=node, ticket=ticket)
            if self.double_init:
                try:
                    init_new_process(node=node, ticket=ticket)
                except ProtocolError as exc:
                    with self.lock:
                        self.double_init_error[ticket.child_index] = exc
            with self.lock:
                self.groups[ticket.child_index] = group
            if self.script is not None:
                self.script(group)
        except Exception as exc:
            with self.lock:
                self.errors[ticket.child_index] = exc
            node.close()

    def wait_joined(self, expected, timeout=30.0):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            with self.lock:
                if len(self.groups) + len(self.errors) >= expected:
                    assert not self.errors, self.errors
                    return
            time.sleep(0.01)
        raise AssertionError(f"children joined: {len(self.groups)}, "
                             f"errors: {self.errors}")

    def close(self):
        for group in self.groups.values():
            if group.node is not None:
                group.node.close()


class TestScaleOut:
    def test_ranks_preserved_and_children_appended(self):
        world = ChildWorld()
        try:
            with cluster(3) as groups:
                def member(group):
                    phases = {}
                    new = scale_out(group, 2, "-",
                                    launcher=ThreadLauncher(world.target)
                                    if group.my_rank == 0 else None,
                                    phases=phases)
                    return (new.my_rank, new.size(), new.epoch, phases)

                results = run_members(member, groups)
                world.wait_joined(2)
                for old_rank, (rank, size, epoch, phases) in enumerate(results):
                    assert rank == old_rank
                    assert size == 5
                    assert epoch == 1
                    assert phases["spawn_s"] >= 0.0
                for index, child_group in world.groups.items():
                    assert child_group.my_rank == 3 + index
                    assert child_group.size() == 5
        finally:
            world.close()

    def test_new_group_is_fully_connected(self):
        # Every member, old and new, exchanges data right after scale_out
        # with no further coordination.
        gathered = {}
        lock = threading.Lock()

        def script(group):
            out = allgather(group, f"<{group.my_rank}>".encode())
            with lock:
                gathered[group.my_rank] = out

        world = ChildWorld(script=script)
        try:
            with cluster(2) as groups:
                def member(group):
                    new = scale_out(group, 2, "-",
                                    launcher=ThreadLauncher(world.target)
                                    if group.my_rank == 0 else None)
                    return allgather(new, f"<{new.my_rank}>".encode())

                results = run_members(member, groups)
                world.wait_joined(2)
                expected = b"<0><1><2><3>"
                assert results == [expected] * 2
                deadline = time.monotonic() + 10
                while time.monotonic() < deadline and len(gathered) < 2:
                    time.sleep(0.01)
                assert sorted(gathered) == [2, 3]
                assert all(v == expected for v in gathered.values())
        finally:
            world.close()

    def test_num_add_must_be_positive(self):
        with cluster(1) as groups:
            with pytest.raises(ValueError):
                scale_out(groups[0], 0, "-")

    def test_failed_spawn_leaves_old_group_usable(self):
        def never_register(env):
            pass

        with cluster(2) as groups:
            def member(group):
                with pytest.raises(SpawnError):
                    scale_out(group, 1, "-",
                              launcher=ThreadLauncher(never_register)
                              if group.my_rank == 0 else None,
                              timeout=1.0)
                barrier(group)
                return allgather(group, bytes([group.my_rank]))

            assert run_members(member, groups) == [b"\x00\x01"] * 2

    def test_second_init_in_same_child_rejected(self):
        world = ChildWorld(double_init=True)
        try:
            with cluster(1) as groups:
                scale_out(groups[0], 1, "-",
                          launcher=ThreadLauncher(world.target))
                world.wait_joined(1)
                deadline = time.monotonic() + 10
                while (time.monotonic() < deadline
                       and 0 not in world.double_init_error):
                    time.sleep(0.01)
                assert isinstance(world.double_init_error[0], ProtocolError)
        finally:
            world.close()

    def test_second_init_after_joining_a_bare_root_rejected(self):
        # A bare root's children join without a merge, so a child's fence
        # stays at its ticket's epoch: a second call is refused at once,
        # without dialing the root again.
        joined, done = [], threading.Event()

        def child(env):
            ticket = BootstrapTicket.from_env(env)
            node = Node(host_label=ticket.host_label)
            try:
                init_new_process(node=node, ticket=ticket, timeout=10)
                joined.append((node, ticket))
            except Exception:
                node.close()
                raise
            finally:
                done.set()

        with Node(host_label="root") as root:
            launch_and_register(root, SpawnSpec(program="-", count=1),
                                ThreadLauncher(child), 10, handles=[])
            assert done.wait(10) and joined
            node, ticket = joined[0]
            try:
                channels = dict(root.endpoint.channels)
                start = time.monotonic()
                with pytest.raises(ProtocolError, match="already joined"):
                    init_new_process(node=node, ticket=ticket, timeout=1.0)
                assert time.monotonic() - start < 1.0
                assert root.endpoint.channels == channels
            finally:
                node.close()

    def test_failed_merge_closes_the_node_init_made(self):
        # Both sides pass high=True, so the merge fails on both.
        errors = []
        finished = threading.Event()

        def child(env):
            try:
                init_new_process(ticket=BootstrapTicket.from_env(env), timeout=30)
            except Exception as exc:
                errors.append(exc)
            finally:
                finished.set()

        before = set(threading.enumerate())
        with cluster(1) as groups:
            inter = spawn(groups[0], SpawnSpec(program="-", count=1),
                          launcher=ThreadLauncher(child))
            with pytest.raises(ProtocolError):
                merge(inter, high=True, timeout=10)
            assert finished.wait(30)
        assert [type(exc) for exc in errors] == [ProtocolError]
        assert not [t for t in set(threading.enumerate()) - before
                    if t.name.startswith("io-")]

    def test_second_init_in_spawned_process_is_fenced(self, tmp_path):
        # The ticket in a spawned process's environment names the parent's
        # old epoch, so a second attach is refused by the parent's fence.
        code = ("from egroup.collectives import barrier\n"
                "from egroup.scaling import init_new_process\n"
                "group = init_new_process()\n"
                "try:\n"
                "    init_new_process()\n"
                "except Exception as exc:\n"
                "    print(type(exc).__name__, flush=True)\n"
                "barrier(group, timeout=30)\n"
                "group.node.close()\n")
        out = tmp_path / "child.out"
        launched = []

        class KeepingLauncher(LocalProcessLauncher):
            def launch(self, spec, index, ticket_env):
                launched.append(super().launch(spec, index, ticket_env))
                return launched[-1]

        with open(out, "w") as f:
            launcher = KeepingLauncher(stdout=f)
            with cluster(1) as groups:
                group = scale_out(groups[0], 1, sys.executable,
                                  child_args=("-c", code), launcher=launcher)
                barrier(group, timeout=30)
            for proc in launched:
                try:
                    proc.wait(30)
                except subprocess.TimeoutExpired:
                    launcher.stop(proc)
        assert out.read_text().split() == ["FencingError"]
        assert [proc.returncode for proc in launched] == [0]

    def test_init_timeout_bounds_the_wait_for_the_parent(self):
        # The parent accepts the registration but never answers it.
        with Node(host_label="parent") as parent:
            ticket = BootstrapTicket(parent_address=parent.listen_address,
                                     parent_epoch=0, child_index=0,
                                     host_label="h", child_count=1,
                                     spawn_id="0f")
            start = time.monotonic()
            with pytest.raises(DeadlineExceeded):
                init_new_process(ticket=ticket, timeout=1.0)
            assert time.monotonic() - start < 2.0

    def test_init_on_a_joined_node_is_refused_without_dialing(self):
        # A fence past the ticket's epoch means the node has joined already;
        # the refusal comes before any dial, so the parent sees no connection.
        with socket.socket() as parent, Node(host_label="h") as node:
            parent.bind(("127.0.0.1", 0))
            parent.listen()
            parent.setblocking(False)
            ticket = BootstrapTicket(
                parent_address="127.0.0.1:%d" % parent.getsockname()[1],
                parent_epoch=2, child_index=0, host_label="h", child_count=1,
                spawn_id="0f")
            node.endpoint.advance_to(3)
            start = time.monotonic()
            with pytest.raises(ProtocolError, match="already joined"):
                init_new_process(node=node, ticket=ticket, timeout=30)
            assert time.monotonic() - start < 1.0
            with pytest.raises(BlockingIOError):
                parent.accept()


class TestScaleIn:
    def run_scale_in(self, hosts, removing, n=None):
        n = len(hosts) if n is None else n
        with cluster(n, hosts=hosts) as groups:
            def member(group):
                outcome = scale_in(group, group.my_rank in removing)
                new = outcome.new_group
                if isinstance(new, RetirementToken):
                    return ("token", new.epoch, outcome.can_terminate_host)
                return ("group", new.epoch, new.my_rank, new.size(),
                        outcome.can_terminate_host)

            return run_members(member, groups)

    def test_remove_whole_second_host(self):
        # Two per host; removing both members of host B empties it.
        results = self.run_scale_in(["A", "A", "B", "B"], {2, 3})
        assert results[0] == ("group", 1, 0, 2, False)
        assert results[1] == ("group", 1, 1, 2, False)
        assert results[2] == ("token", 1, True)
        assert results[3] == ("token", 1, True)

    def test_partial_removal_keeps_host_busy(self):
        # Only one of host B's two members leaves; B stays occupied.
        results = self.run_scale_in(["A", "A", "B", "B"], {2})
        assert results[2] == ("token", 1, False)
        assert results[3] == ("group", 1, 2, 3, False)

    def test_remaining_ranks_close_up_in_order(self):
        results = self.run_scale_in(["A", "B", "A", "B"], {1})
        assert results[0] == ("group", 1, 0, 3, False)
        assert results[2] == ("group", 1, 1, 3, False)
        assert results[3] == ("group", 1, 2, 3, False)

    def test_nobody_removing_is_epoch_bump(self):
        results = self.run_scale_in(["A", "B"], set())
        assert results == [("group", 1, 0, 2, False),
                           ("group", 1, 1, 2, False)]

    def test_everyone_removing_yields_all_tokens(self):
        results = self.run_scale_in(["A", "A", "B"], {0, 1, 2})
        assert results == [("token", 1, True)] * 3

    def test_every_member_matches_the_oracle(self):
        # Every removing mask up to five members, "everyone leaves"
        # included, each on one fixed-seed draw of hosts from A, B and C.
        rng = random.Random(16)
        for n in range(1, 6):
            for mask in range(2 ** n):
                hosts = [rng.choice("ABC") for _ in range(n)]
                removing = {i for i in range(n) if mask & (1 << i)}
                got = [r[-1] for r in self.run_scale_in(hosts, removing)]
                assert got == [naive_can_terminate(hosts, removing, host)
                               for host in hosts], (hosts, removing)

    def test_labels_differing_by_a_nul_are_different_hosts(self):
        results = self.run_scale_in(["a", "a\x00"], {0})
        assert results == [("token", 1, True), ("group", 1, 0, 1, False)]

    def test_removed_member_is_fenced(self):
        with cluster(3) as groups:
            outcomes = [None] * 3

            def member(group):
                outcome = scale_in(group, group.my_rank == 2)
                outcomes[group.my_rank] = outcome
                # The old group is dead for everyone: retired at the
                # removed member, stale at the rest.
                if group.my_rank == 2:
                    with pytest.raises(RetiredGroupError):
                        group.node.send(group, 0, 20, b"late")
                else:
                    with pytest.raises(FencingError):
                        group.node.send(group, 2, 20, b"late")
                return True

            assert run_members(member, groups) == [True, True, True]
            new = outcomes[0].new_group
            assert new.size() == 2

    def test_successor_group_communicates(self):
        with cluster(4) as groups:
            def member(group):
                outcome = scale_in(group, group.my_rank >= 2)
                if isinstance(outcome.new_group, RetirementToken):
                    return None
                return allgather(outcome.new_group,
                                 f"[{outcome.new_group.my_rank}]".encode())

            results = run_members(member, groups)
            assert results == [b"[0][1]", b"[0][1]", None, None]


class TestGrowThenShrink:
    def test_round_trip_returns_to_original_members(self):
        world = ChildWorld(script=lambda g: scale_in(g, True))
        try:
            with cluster(2) as groups:
                def member(group):
                    grown = scale_out(group, 2, "-",
                                      launcher=ThreadLauncher(world.target)
                                      if group.my_rank == 0 else None)
                    outcome = scale_in(grown, False)
                    back = outcome.new_group
                    return (back.epoch, back.my_rank, back.size(),
                            tuple(m.incarnation_id for m in back.roster))

                results = run_members(member, groups)
                world.wait_joined(2)
                original = tuple(m.incarnation_id for m in groups[0].roster)
                assert results[0] == (2, 0, 2, original)
                assert results[1] == (2, 1, 2, original)
        finally:
            world.close()
