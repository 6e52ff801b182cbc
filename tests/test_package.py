"""The package's import surface: lazy public names, and a worker that loads
only the code it runs."""

import os
import subprocess
import sys

import pytest

import egroup
from egroup import codeimage
from egroup.driver import default_worker_command
from egroup.spawner import IMPORT_ROOT, LocalProcessLauncher, SpawnSpec

# Modules a spawned worker never uses; importing any of them would add to
# every child's start-up time.
NOT_ON_WORKER_PATH = ("egroup.bench", "egroup.driver", "egroup.cli", "csv",
                      "uuid", "platform", "subprocess", "dataclasses",
                      "inspect", "logging", "typing", "hashlib", "traceback",
                      "site", "contextlib", "importlib", "importlib.util",
                      "zipfile", "json", "re", "runpy", "warnings")
WORKER_ENTRY = "from egroup.worker import main; "


def probe_command(code):
    """The worker's command line with its entry's ``main()`` replaced by
    ``code``: the same interpreter, flags and imports."""
    command = default_worker_command()
    assert command[-2:] == ["-c", WORKER_ENTRY + "main()"]
    return command[:-1] + [WORKER_ENTRY + code]


def test_worker_import_closure():
    # The interpreter and flags a worker starts with, and the PYTHONPATH its
    # launcher gives it.
    code = ("import sys; "
            f"print(sorted(set({NOT_ON_WORKER_PATH!r}) & set(sys.modules)))")
    proc = subprocess.run(probe_command(code), capture_output=True,
                          env={**os.environ, "PYTHONPATH": IMPORT_ROOT},
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_worker_import_closure_with_code_image():
    # The same, in a child that the launcher starts with its code image: it
    # loads egroup.worker from the image's zip and, as a launcher, passes
    # that image on without building one.
    command = probe_command(
        "import egroup.worker, sys; "
        "from egroup.spawner import LocalProcessLauncher; "
        "fds = LocalProcessLauncher()._image_fds(); "
        f"print(sorted(set({NOT_ON_WORKER_PATH!r}) & set(sys.modules)), "
        "egroup.worker.__file__, fds)")
    launcher = LocalProcessLauncher(stdout=subprocess.PIPE,
                                    stderr=subprocess.PIPE)
    try:
        proc = launcher.launch(SpawnSpec(program=command[0],
                                         args=command[1:]), 0, {})
        out, err = proc.communicate(timeout=60)
        fd = launcher._image[0]
    finally:
        launcher.close()
    assert proc.returncode == 0, err.decode()
    assert out.decode().strip() == (
        f"[] {codeimage.FD_DIR}/{fd}/egroup/worker.pyc ({fd},)")


@pytest.mark.parametrize("name", egroup.__all__)
def test_public_name_resolves(name):
    value = getattr(egroup, name)
    assert value is getattr(sys.modules[value.__module__], name)
    assert name in dir(egroup)


def test_star_import():
    namespace = {}
    exec("from egroup import *", namespace)
    assert set(egroup.__all__) <= set(namespace)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        egroup.no_such_name
    assert not hasattr(egroup, "no_such_name")


def test_submodules_import_from_package():
    from egroup import collectives, transport
    assert collectives.allgather is egroup.allgather
    assert transport.__name__ == "egroup.transport"


# Native code a live worker has no use for: OpenSSL (hashlib's backend) and
# the Unicode database (loaded by the IDNA codec when a str host is dialed).
UNUSED_NATIVE = ("_hashlib", "libcrypto", "libssl", "unicodedata")


def _children(pid):
    kids = []
    for task in os.listdir(f"/proc/{pid}/task"):
        with open(f"/proc/{pid}/task/{task}/children") as f:
            kids.extend(int(k) for k in f.read().split())
    return kids


def _unused_native_mappings(pids):
    found = {}
    for pid in pids:
        with open(f"/proc/{pid}/maps") as f:
            hits = sorted({line.split(None, 5)[-1].strip() for line in f
                           if any(n in line for n in UNUSED_NATIVE)})
        if hits:
            found[pid] = hits
    return found


@pytest.mark.skipif(not os.path.exists("/proc/self/task"),
                    reason="needs /proc")
def test_live_fleet_loads_no_openssl_or_unicode_database():
    from egroup.driver import Driver
    with Driver(timeout=30) as drv:
        drv.start_fleet(2)
        root_pid = drv.workers[0].proc.pid
        drv.digests()
        drv.scale_out(1)
        drv.allgather_ids()
        assert len(drv.digests()) == 1
        # The spawned child is the spawning root's only child process.
        pids = [h.proc.pid for h in drv.workers[:2]] + _children(root_pid)
        assert len(pids) == 3
        assert _unused_native_mappings(pids) == {}
        drv.scale_in(1)
        pids = [h.proc.pid for h in drv.workers]
        assert root_pid in pids
        assert _unused_native_mappings(pids) == {}
