"""Spawn, registration, and child bootstrap."""

import hashlib
import json
import os
import shutil
import socket
import subprocess
import sys
import threading
import time
import zipfile

import pytest

from egroup import Node, Side, ThreadLauncher, codeimage, spawner, wire
from egroup.collectives import allgather, barrier
from egroup.driver import Driver
from egroup.errors import (
    ConnectError,
    DeadlineExceeded,
    NotSpawnedError,
    ProtocolError,
    SpawnError,
)
from egroup.groups import InterGroup, MemberDescriptor
from egroup.spawner import (
    ENV_CHILD_COUNT,
    ENV_CHILD_INDEX,
    ENV_HOST_LABEL,
    ENV_PARENT_ADDR,
    ENV_PARENT_EPOCH,
    ENV_SPAWN_ID,
    IMPORT_ROOT,
    BootstrapTicket,
    LocalProcessLauncher,
    SpawnSpec,
    attach_parent,
    launch_and_register,
    spawn,
)
from egroup.transport import match_fields
from egroup.wire import Envelope

from conftest import cluster, run_members, wait_buffered


class TestSpawnSpec:
    def test_count_must_be_positive(self):
        with pytest.raises(ValueError):
            SpawnSpec(program="p", count=0)

    def test_host_labels_must_match_count(self):
        with pytest.raises(ValueError):
            SpawnSpec(program="p", count=2, host_labels=("a",))

    def test_digest_is_deterministic(self):
        a = SpawnSpec(program="p", args=("--x",), count=2)
        b = SpawnSpec(program="p", args=("--x",), count=2)
        assert a.digest() == b.digest()

    def test_digest_covers_every_field(self):
        base = SpawnSpec(program="p", args=("--x",), count=2,
                         host_labels=("a", "b"))
        variants = [
            SpawnSpec(program="q", args=("--x",), count=2,
                      host_labels=("a", "b")),
            SpawnSpec(program="p", args=("--y",), count=2,
                      host_labels=("a", "b")),
            SpawnSpec(program="p", args=("--x",), count=2,
                      host_labels=("a", "c")),
        ]
        digests = {base.digest()} | {v.digest() for v in variants}
        assert len(digests) == 4

    @pytest.mark.parametrize("spec, body", [
        (SpawnSpec(program="p"),
         b"\x07\x00\x00\x00\x04"  # a dict of four, keys sorted
         b"\x00\x00\x00\x04args\x06\x00\x00\x00\x00"
         b"\x00\x00\x00\x05count\x03\x00\x00\x00\x00\x00\x00\x00\x01"
         b"\x00\x00\x00\x0bhost_labels\x00"
         b"\x00\x00\x00\x07program\x05\x00\x00\x00\x01p"),
        (SpawnSpec(program="p", args=("--x",), count=2, host_labels=("a", "b")),
         b"\x07\x00\x00\x00\x04"
         b"\x00\x00\x00\x04args\x06\x00\x00\x00\x01\x05\x00\x00\x00\x03--x"
         b"\x00\x00\x00\x05count\x03\x00\x00\x00\x00\x00\x00\x00\x02"
         b"\x00\x00\x00\x0bhost_labels\x06\x00\x00\x00\x02"
         b"\x05\x00\x00\x00\x01a\x05\x00\x00\x00\x01b"
         b"\x00\x00\x00\x07program\x05\x00\x00\x00\x01p"),
    ], ids=["defaults", "every-field"])
    def test_digest_is_sha256_of_the_spec_payload(self, spec, body):
        # Members of different versions must agree on it in a spawn.
        assert spec.digest() == hashlib.sha256(body).digest()

    def test_label_fallback(self):
        spec = SpawnSpec(program="p", count=2)
        assert spec.label_for(1, "here") == "here"
        spec = SpawnSpec(program="p", count=2, host_labels=("a", "b"))
        assert spec.label_for(1, "here") == "b"


class TestBootstrapTicket:
    def test_env_round_trip(self):
        ticket = BootstrapTicket(parent_address="127.0.0.1:5000",
                                 parent_epoch=3, child_index=1,
                                 host_label="nodeX", child_count=4,
                                 spawn_id="0123456789abcdef")
        assert BootstrapTicket.from_env(ticket.to_env()) == ticket

    def test_env_variable_names_are_pinned(self):
        ticket = BootstrapTicket(parent_address="a:1", parent_epoch=0,
                                 child_index=0, host_label="h", child_count=1,
                                 spawn_id="0f")
        assert set(ticket.to_env()) == {
            "EG_PARENT_ADDR", "EG_PARENT_EPOCH", "EG_CHILD_INDEX",
            "EG_HOST_LABEL", "EG_CHILD_COUNT", "EG_SPAWN_ID"}

    def test_missing_env_means_not_spawned(self):
        with pytest.raises(NotSpawnedError):
            BootstrapTicket.from_env({})

    # Only ASCII decimal digits make a number; int() would take all but "zero".
    @pytest.mark.parametrize("value", [
        "zero", " 3", "3_0", "+1", "\u0663", "2\n",
    ], ids=["word", "space", "underscore", "plus", "arabic-indic", "newline"])
    @pytest.mark.parametrize("variable", [
        ENV_PARENT_EPOCH, ENV_CHILD_INDEX, ENV_CHILD_COUNT])
    def test_malformed_env_rejected(self, variable, value):
        env = {ENV_PARENT_ADDR: "a:1", ENV_PARENT_EPOCH: "0",
               ENV_CHILD_INDEX: "0", ENV_HOST_LABEL: "h",
               ENV_CHILD_COUNT: "10", ENV_SPAWN_ID: "0f", variable: value}
        with pytest.raises(ValueError, match=variable):
            BootstrapTicket.from_env(env)
        del env[variable]
        with pytest.raises(ValueError, match=variable):
            BootstrapTicket.from_env(env)

    def test_empty_or_missing_spawn_id_rejected(self):
        env = {ENV_PARENT_ADDR: "a:1", ENV_PARENT_EPOCH: "0",
               ENV_CHILD_INDEX: "0", ENV_HOST_LABEL: "h",
               ENV_CHILD_COUNT: "1", ENV_SPAWN_ID: ""}
        with pytest.raises(ValueError, match=ENV_SPAWN_ID):
            BootstrapTicket.from_env(env)
        del env[ENV_SPAWN_ID]
        with pytest.raises(ValueError, match=ENV_SPAWN_ID):
            BootstrapTicket.from_env(env)

    def test_index_must_be_in_range(self):
        with pytest.raises(ValueError):
            BootstrapTicket(parent_address="a:1", parent_epoch=0,
                            child_index=2, host_label="h", child_count=2,
                            spawn_id="0f")

    def test_epoch_must_be_non_negative(self):
        with pytest.raises(ValueError):
            BootstrapTicket(parent_address="a:1", parent_epoch=-1,
                            child_index=0, host_label="h", child_count=1,
                            spawn_id="0f")


class ChildRecorder:
    """Thread-launcher target that bootstraps like a real child and records
    the outcome per child index."""

    def __init__(self, register_delay=None, skip_indexes=(),
                 attach_timeout=30.0):
        self.register_delay = register_delay
        self.skip_indexes = set(skip_indexes)
        self.attach_timeout = attach_timeout
        self.results = {}
        self.errors = {}
        self.lock = threading.Lock()

    def target(self, env):
        ticket = BootstrapTicket.from_env(env)
        if ticket.child_index in self.skip_indexes:
            return
        if self.register_delay is not None:
            time.sleep(self.register_delay(ticket.child_index))
        try:
            node = Node(host_label=ticket.host_label)
            try:
                inter = attach_parent(node, ticket,
                                      timeout=self.attach_timeout)
            except Exception:
                node.close()
                raise
            with self.lock:
                self.results[ticket.child_index] = (node, inter)
        except Exception as exc:
            with self.lock:
                self.errors[ticket.child_index] = exc

    def wait(self, expected, timeout=30.0):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            with self.lock:
                if len(self.results) + len(self.errors) >= expected:
                    return
            time.sleep(0.01)
        raise AssertionError(
            f"only {len(self.results)} results and {len(self.errors)} "
            f"errors after {timeout}s, expected {expected}")

    def close(self):
        for node, _ in self.results.values():
            node.close()


def register(node, ticket, payload):
    """Send a registration by hand to the parent the ticket names."""
    node.endpoint.connect(ticket.parent_address).send(Envelope(
        epoch=ticket.parent_epoch, tag=wire.TAG_SPAWN_REGISTER,
        src_rank=ticket.child_index, dst_rank=wire.NO_RANK,
        payload=wire.encode_payload(payload)))


class StopRecorder(ThreadLauncher):
    """A thread launcher that records the handles it launched and stopped."""

    def __init__(self, target=None):
        super().__init__(target)
        self.launched, self.stopped = [], []

    def launch(self, spec, index, ticket_env):
        handle = super().launch(spec, index, ticket_env)
        self.launched.append(handle)
        return handle

    def stop(self, handle):
        self.stopped.append(handle)


class TestSpawnWithThreads:
    def test_both_sides_see_matching_rosters(self):
        recorder = ChildRecorder()
        try:
            with cluster(2) as groups:
                spec = SpawnSpec(program="-", count=3)
                launcher = ThreadLauncher(recorder.target)

                def member(group):
                    return spawn(group, spec,
                                 launcher=launcher if group.my_rank == 0
                                 else None)

                inters = run_members(member, groups)
                recorder.wait(3)
                assert not recorder.errors

                parent_roster = groups[0].roster
                for inter in inters:
                    assert inter.side is Side.PARENT
                    assert len(inter.remote_roster) == 3
                assert inters[0].remote_roster == inters[1].remote_roster

                for index, (node, child_inter) in recorder.results.items():
                    assert child_inter.side is Side.CHILD
                    assert child_inter.remote_roster == parent_roster
                    assert child_inter.local_group.my_rank == index
                    assert (child_inter.local_group.roster
                            == inters[0].remote_roster)
        finally:
            recorder.close()

    def test_children_ordered_by_index_not_arrival(self):
        # Higher indexes register first; roster order must still follow
        # the index.
        recorder = ChildRecorder(register_delay=lambda i: (2 - i) * 0.15)
        try:
            with cluster(1) as groups:
                inter = spawn(groups[0], SpawnSpec(program="-", count=3),
                              launcher=ThreadLauncher(recorder.target))
                recorder.wait(3)
                assert not recorder.errors
                for index in range(3):
                    node, _ = recorder.results[index]
                    assert (inter.remote_roster[index].incarnation_id
                            == node.incarnation_id)
        finally:
            recorder.close()

    def test_host_labels_reach_children(self):
        recorder = ChildRecorder()
        try:
            with cluster(1) as groups:
                spec = SpawnSpec(program="-", count=2,
                                 host_labels=("rack1", "rack2"))
                inter = spawn(groups[0], spec,
                              launcher=ThreadLauncher(recorder.target))
                recorder.wait(2)
                assert [m.host_label for m in inter.remote_roster] == \
                    ["rack1", "rack2"]
                for index, (node, child_inter) in recorder.results.items():
                    assert node.host_label == spec.host_labels[index]
        finally:
            recorder.close()

    def test_missing_registration_fails_with_indexes(self):
        recorder = ChildRecorder(skip_indexes={1})
        try:
            with cluster(1) as groups:
                with pytest.raises(SpawnError) as excinfo:
                    spawn(groups[0], SpawnSpec(program="-", count=3),
                          launcher=ThreadLauncher(recorder.target),
                          timeout=1.5)
                assert "[1]" in str(excinfo.value)
                # The children that did register are told the spawn died;
                # the skipped index never records anything.
                recorder.wait(2)
                assert sorted(recorder.errors) == [0, 2]
                for exc in recorder.errors.values():
                    assert isinstance(exc, SpawnError)
        finally:
            recorder.close()

    def test_spec_disagreement_fails_everywhere(self):
        launched = []
        with cluster(3) as groups:
            def member(group):
                spec = SpawnSpec(program=f"p{group.my_rank % 2}", count=1)
                start = time.monotonic()
                with pytest.raises(ProtocolError, match="differ"):
                    spawn(group, spec, launcher=ThreadLauncher(launched.append))
                elapsed = time.monotonic() - start
                # The old group must still work afterwards.
                return elapsed, allgather(group, bytes([group.my_rank]))

            results = run_members(member, groups)
        assert [gathered for _, gathered in results] == [b"\x00\x01\x02"] * 3
        assert all(elapsed < 2.0 for elapsed, _ in results), results
        assert launched == []

    def test_registration_without_descriptor_is_protocol_error(self):
        done = threading.Event()

        def child(env):
            ticket = BootstrapTicket.from_env(env)
            with Node(host_label=ticket.host_label) as node:
                register(node, ticket, {"child_index": ticket.child_index,
                                        "spawn_id": ticket.spawn_id})
                done.wait(30)

        try:
            with cluster(1) as groups:
                with pytest.raises(ProtocolError, match="descriptor"):
                    spawn(groups[0], SpawnSpec(program="-", count=1),
                          launcher=ThreadLauncher(child),
                          timeout=10.0)
                assert allgather(groups[0], b"ok") == b"ok"
        finally:
            done.set()

    def test_registration_without_spawn_id_is_protocol_error(self):
        done = threading.Event()

        def child(env):
            ticket = BootstrapTicket.from_env(env)
            with Node(host_label=ticket.host_label) as node:
                register(node, ticket, node.descriptor().to_fields())
                done.wait(30)

        try:
            with cluster(1) as groups:
                with pytest.raises(ProtocolError, match="spawn id"):
                    spawn(groups[0], SpawnSpec(program="-", count=1),
                          launcher=ThreadLauncher(child), timeout=10.0)
                assert allgather(groups[0], b"ok") == b"ok"
        finally:
            done.set()

    def test_retried_spawn_admits_only_its_own_children(self):
        # The first spawn gives up on child 1 at 0.5 s; that child registers
        # at 1 s, and its registration is still buffered when a second spawn
        # at the same epoch starts. The second spawn returns, and answers,
        # its own two children; the late one is never answered.
        first = ChildRecorder(register_delay=lambda i: float(i),
                              attach_timeout=2.0)
        second = ChildRecorder()
        try:
            with cluster(1) as (group,):
                spec = SpawnSpec(program="-", count=2)
                with pytest.raises(SpawnError, match=r"\[1\]"):
                    spawn(group, spec, launcher=ThreadLauncher(first.target),
                          timeout=0.5)
                wait_buffered(group.node.endpoint,
                              match_fields(tag=wire.TAG_SPAWN_REGISTER))
                inter = spawn(group, spec,
                              launcher=ThreadLauncher(second.target),
                              timeout=10.0)
                second.wait(2)
                first.wait(2)
            assert not second.errors
            assert [m.incarnation_id for m in inter.remote_roster] == [
                second.results[i][0].incarnation_id for i in range(2)]
            assert isinstance(first.errors[0], SpawnError)
            assert isinstance(first.errors[1], DeadlineExceeded)
        finally:
            first.close()
            second.close()

    def test_unreachable_registered_child_stops_every_child(self):
        # Child 0 registers and exits; child 1 registers 0.6 s later. The
        # root cannot answer child 0, still answers child 1, stops both and
        # raises an error that names child 0.
        attached = {}

        def child(env):
            ticket = BootstrapTicket.from_env(env)
            node = Node(host_label=ticket.host_label)
            if ticket.child_index == 0:
                with node:
                    register(node, ticket, {**node.descriptor().to_fields(),
                                            "spawn_id": ticket.spawn_id})
                return
            time.sleep(0.6)
            start = time.monotonic()
            try:
                attached["result"] = attach_parent(node, ticket, timeout=4.0)
            except Exception as exc:
                attached["result"] = exc
            attached["elapsed"] = time.monotonic() - start
            node.close()

        launcher = StopRecorder(child)
        with cluster(1) as groups:
            start = time.monotonic()
            with pytest.raises(SpawnError, match="child_index 0"):
                spawn(groups[0], SpawnSpec(program="-", count=2),
                      launcher=launcher, timeout=4.0)
            assert time.monotonic() - start < 1.5
            for handle in launcher.launched:
                handle.join(5)
                assert not handle.is_alive()
            assert launcher.stopped == launcher.launched
            assert attached["elapsed"] < 1.5
            assert isinstance(attached["result"], InterGroup)
            assert allgather(groups[0], b"ok") == b"ok"

    def test_descriptor_naming_another_process_is_protocol_error(self):
        done = threading.Event()

        def child(env):
            ticket = BootstrapTicket.from_env(env)
            with Node(host_label=ticket.host_label) as node:
                impostor = MemberDescriptor(
                    host_label=ticket.host_label,
                    listen_address=node.listen_address,
                    incarnation_id="impostor-1")
                register(node, ticket, {**impostor.to_fields(),
                                        "spawn_id": ticket.spawn_id})
                done.wait(30)

        launcher = StopRecorder(child)

        def member(group):
            start = time.monotonic()
            with pytest.raises(ProtocolError, match="impostor-1"):
                spawn(group, SpawnSpec(program="-", count=1),
                      launcher=launcher if group.my_rank == 0 else None,
                      timeout=10.0)
            elapsed = time.monotonic() - start
            return elapsed, allgather(group, bytes([group.my_rank]))

        try:
            with cluster(3) as groups:
                results = run_members(member, groups)
        finally:
            done.set()
            for handle in launcher.launched:
                handle.join(5)
                assert not handle.is_alive()
        assert launcher.stopped == launcher.launched
        assert [gathered for _, gathered in results] == [b"\x00\x01\x02"] * 3
        assert all(elapsed < 2.0 for elapsed, _ in results), results


class TestAttachParent:
    def test_failed_attach_closes_only_a_node_it_made(self):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        ticket = BootstrapTicket(parent_address=f"127.0.0.1:{port}",
                                 parent_epoch=0, child_index=0,
                                 host_label="h", child_count=1, spawn_id="0f")
        before = set(threading.enumerate())
        with pytest.raises(ConnectError):
            attach_parent(ticket=ticket)
        assert not [t for t in set(threading.enumerate()) - before
                    if t.name.startswith("io-")]
        # A node the caller passed in stays the caller's to close.
        with Node(host_label="h") as node:
            with pytest.raises(ConnectError):
                attach_parent(node=node, ticket=ticket)
            assert not node.endpoint.closed

    def test_unanswered_dial_ends_at_the_deadline(self):
        # The parent's port accepts connections but never answers a hello.
        with socket.create_server(("127.0.0.1", 0)) as server:
            ticket = BootstrapTicket(
                parent_address=f"127.0.0.1:{server.getsockname()[1]}",
                parent_epoch=0, child_index=0, host_label="h", child_count=1,
                spawn_id="0f")
            with Node(host_label="h") as node:
                start = time.monotonic()
                with pytest.raises(DeadlineExceeded):
                    attach_parent(node, ticket, timeout=1.0)
                assert time.monotonic() - start < 2.5


class TestSpawnWithProcesses:
    def test_launcher_reaps_by_polling_without_threads(self):
        launcher = LocalProcessLauncher()
        spec = SpawnSpec(program=sys.executable, args=("-c", "pass"))
        before = set(threading.enumerate())
        first = launcher.launch(spec, 0, {})
        assert not set(threading.enumerate()) - before
        # Wait for the exit without reaping, so only the launcher can reap.
        os.waitid(os.P_PID, first.pid, os.WEXITED | os.WNOWAIT)
        assert first.returncode is None
        second = launcher.launch(spec, 0, {})
        assert first.returncode == 0
        assert second.wait(10) == 0
        launcher.stop(second)

    def test_child_pythonpath_starts_with_the_import_root_once(
            self, monkeypatch):
        monkeypatch.setenv("PYTHONPATH",
                           os.pathsep.join(["/elsewhere", IMPORT_ROOT]))
        launcher = LocalProcessLauncher(stdout=subprocess.PIPE)
        spec = SpawnSpec(program=sys.executable, args=(
            "-c", "import os; print(os.environ['PYTHONPATH'])"))
        try:
            proc = launcher.launch(spec, 0, {})
            out, _ = proc.communicate(timeout=30)
            image = f"{codeimage.FD_DIR}/{launcher._image[0]}"
        finally:
            launcher.close()
        assert out.decode().strip() == os.pathsep.join(
            [image, IMPORT_ROOT, "/elsewhere"])

    def test_child_that_exits_before_registering_fails_fast(self):
        spec = SpawnSpec(program=sys.executable,
                         args=("-c", "import sys; sys.exit(3)"))
        with cluster(1) as groups:
            start = time.monotonic()
            with pytest.raises(SpawnError, match=r"child_index 0 exited "
                                                 r"with status 3"):
                spawn(groups[0], spec, launcher=LocalProcessLauncher(),
                      timeout=30)
            assert time.monotonic() - start < 5

    def test_spawn_without_launcher_keeps_one_per_node(self, monkeypatch):
        # A root handed no code image builds one at its first spawn, keeps
        # it for the next, and releases it when its node closes. This
        # process imported egroup from a directory, not from an image.
        assert os.path.isdir(os.path.join(IMPORT_ROOT, "egroup"))
        builds = []
        build = codeimage.build
        monkeypatch.setattr(codeimage, "build",
                            lambda path: builds.append(path) or build(path))
        spec = SpawnSpec(program=sys.executable,
                         args=("-S", "-c", "raise SystemExit(3)"))
        before = len(os.listdir("/proc/self/fd"))
        with cluster(1) as groups:
            for _ in range(2):
                start = time.monotonic()
                with pytest.raises(SpawnError, match="status 3"):
                    spawn(groups[0], spec, timeout=30)
                assert time.monotonic() - start < 5
        assert len(builds) == 1
        assert len(os.listdir("/proc/self/fd")) == before

    @pytest.mark.parametrize("label", ["a\x00b", 5], ids=["nul", "int"])
    def test_unlaunchable_label_fails_every_member(self, label):
        # Popen rejects a NUL or a non-string in the environment with
        # ValueError or TypeError; every member gets a SpawnError.
        spec = SpawnSpec(program=sys.executable, host_labels=(label,))

        def member(group):
            with pytest.raises(SpawnError, match="cannot launch"):
                spawn(group, spec, timeout=10)
            barrier(group, timeout=10)
            return True

        with cluster(3) as groups:
            assert run_members(member, groups) == [True] * 3

    def test_missing_executable_names_program(self):
        with cluster(1) as groups:
            with pytest.raises(SpawnError) as excinfo:
                spawn(groups[0],
                      SpawnSpec(program="/no/such/binary", count=1),
                      launcher=LocalProcessLauncher(),
                      timeout=5.0)
            assert "/no/such/binary" in str(excinfo.value)


# A child that records every egroup source it compiles, imports the worker,
# registers with its parent and reports what it compiled, the source file
# of each egroup module it loaded, and wire.MARKER. zipimport gets a
# module's code twice, once to name its file and once to run it, so a
# source compiled from the zip is reported once.
IMAGE_PROBE = """
import builtins, json, os, sys
compiled = []
real_compile = builtins.compile
def compile(source, filename, *args, **kwargs):
    if os.sep + "egroup" + os.sep in filename:
        compiled.append(os.path.basename(filename))
    return real_compile(source, filename, *args, **kwargs)
builtins.compile = compile
import egroup.worker
from egroup import wire
from egroup.spawner import attach_parent
attach_parent(timeout=30).local_group.node.close()
print(json.dumps({
    "compiled": sorted(set(compiled)),
    "loaded": sorted(name.partition(".")[2] + ".py" if "." in name
                     else "__init__.py" for name in sys.modules
                     if name.split(".")[0] == "egroup"),
    "marker": getattr(wire, "MARKER", None)}))
"""


def run_probe(launcher, *flags):
    """Launch IMAGE_PROBE through ``launcher`` as the child of a fresh node;
    returns its report once it has registered and exited."""
    handles = []
    spec = SpawnSpec(program=sys.executable,
                     args=(*flags, "-S", "-c", IMAGE_PROBE))
    with Node(host_label="h") as node:
        launch_and_register(node, spec, launcher, 30, handles=handles)
        out, err = handles[0].communicate(timeout=30)
    assert handles[0].returncode == 0, err.decode()
    return json.loads(out)


@pytest.fixture
def piped_launcher():
    launcher = LocalProcessLauncher(stdout=subprocess.PIPE,
                                    stderr=subprocess.PIPE)
    yield launcher
    launcher.close()


def pyc_offsets(fd):
    """The offset of each ``.pyc`` entry's data in the image zip ``fd``."""
    with zipfile.ZipFile(f"{codeimage.FD_DIR}/{fd}") as image:
        infos = [i for i in image.infolist() if i.filename.endswith(".pyc")]
    offsets = []
    for info in infos:
        header = os.pread(fd, 30, info.header_offset)  # local file header
        offsets.append(info.header_offset + 30
                       + int.from_bytes(header[26:28], "little")
                       + int.from_bytes(header[28:30], "little"))
    return offsets


class TestCodeImage:
    def test_child_takes_every_egroup_module_from_the_image(
            self, piped_launcher):
        report = run_probe(piped_launcher)
        assert "worker.py" in report["loaded"]
        assert report["compiled"] == []

    def test_changed_module_runs_its_new_source(self, piped_launcher,
                                                tmp_path, monkeypatch):
        shutil.copytree(os.path.join(IMPORT_ROOT, "egroup"),
                        tmp_path / "egroup",
                        ignore=shutil.ignore_patterns("__pycache__"))
        monkeypatch.setattr(spawner, "IMPORT_ROOT", str(tmp_path))
        first = run_probe(piped_launcher)  # builds the image from the copy
        assert (first["compiled"], first["marker"]) == ([], None)
        with open(tmp_path / "egroup" / "wire.py", "a") as f:
            f.write("MARKER = 'new'\n")
        second = run_probe(piped_launcher)
        assert second["compiled"] == []
        assert second["marker"] == "new"

    def test_added_changed_or_removed_module_rebuilds(self, piped_launcher, tmp_path,
                                              monkeypatch):
        shutil.copytree(os.path.join(IMPORT_ROOT, "egroup"),
                        tmp_path / "egroup",
                        ignore=shutil.ignore_patterns("__pycache__"))
        monkeypatch.setattr(spawner, "IMPORT_ROOT", str(tmp_path))

        def entries():
            fd, = piped_launcher._image_fds()
            with zipfile.ZipFile(f"{codeimage.FD_DIR}/{fd}") as image:
                return {n for n in image.namelist() if "extra" in n}

        assert entries() == set()
        (tmp_path / "egroup" / "extra.py").write_text("X = 1\n")
        assert entries() == {"egroup/extra.py", "egroup/extra.pyc"}
        # A module that does not compile keeps only its source entry.
        (tmp_path / "egroup" / "extra.py").write_text("X = (\n")
        assert entries() == {"egroup/extra.py"}
        (tmp_path / "egroup" / "extra.py").unlink()
        assert entries() == set()

    @pytest.mark.parametrize("foreign", ["tag", "magic", "optimize"])
    def test_foreign_header_is_ignored(self, piped_launcher, foreign):
        run_probe(piped_launcher)  # builds the image
        fd = piped_launcher._image[0]
        if foreign == "optimize":
            # src/ reads no __debug__ and has no assert, so the launcher's
            # compile serves a -O child too (tests/test_layering.py).
            assert run_probe(piped_launcher, "-O")["compiled"] == []
            return
        if foreign == "tag":
            # The end-of-central-directory record's signature: the path
            # hook refuses the zip, and egroup comes from IMPORT_ROOT.
            offsets = [os.fstat(fd).st_size - 22]
        else:
            # Every pyc's magic number: zipimport compiles the .py entries.
            offsets = pyc_offsets(fd)
            assert len(offsets) == len(
                codeimage.sources(os.path.join(IMPORT_ROOT, "egroup")))
        for offset in offsets:
            byte = os.pread(fd, 1, offset)
            os.pwrite(fd, bytes([byte[0] ^ 0xFF]), offset)
        report = run_probe(piped_launcher)
        assert report["compiled"] == report["loaded"]

    def test_without_memfd_the_child_compiles_from_source(
            self, piped_launcher, monkeypatch):
        monkeypatch.delattr(os, "memfd_create")
        report = run_probe(piped_launcher)
        assert piped_launcher._image is None
        assert "worker.py" in report["loaded"]
        assert report["compiled"] == report["loaded"]

    def test_driver_close_releases_the_image(self):
        def cycle():
            with Driver(timeout=30) as driver:
                driver.start_fleet(1)
                driver.ping()

        cycle()  # first use: lazy imports
        before = len(os.listdir("/proc/self/fd"))
        for _ in range(3):
            cycle()
        assert len(os.listdir("/proc/self/fd")) == before
