"""The package's import surface: lazy public names, and a worker that loads
only the code it runs."""

import os
import subprocess
import sys

import pytest

import egroup
from egroup.driver import default_worker_command
from egroup.spawner import IMPORT_ROOT, LocalProcessLauncher, SpawnSpec

# Modules a spawned worker never uses; importing any of them would add to
# every child's start-up time.
NOT_ON_WORKER_PATH = ("egroup.bench", "egroup.driver", "egroup.cli", "csv",
                      "uuid", "platform", "subprocess", "dataclasses",
                      "inspect", "logging", "typing", "hashlib", "traceback",
                      "site", "contextlib", "importlib.util")


def test_worker_import_closure():
    # The interpreter and flags a worker starts with, and the PYTHONPATH its
    # launcher gives it.
    command = default_worker_command()
    assert command[-2:] == ["-m", "egroup.worker"]
    code = ("import egroup.worker, sys; "
            f"print(sorted(set({NOT_ON_WORKER_PATH!r}) & set(sys.modules)))")
    proc = subprocess.run(command[:-2] + ["-c", code], capture_output=True,
                          env={**os.environ, "PYTHONPATH": IMPORT_ROOT},
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_worker_import_closure_with_code_image():
    # The same, in a child that the launcher starts with its code image.
    command = default_worker_command()
    code = ("import egroup.worker, sys; "
            f"print(sorted(set({NOT_ON_WORKER_PATH!r}) & set(sys.modules)), "
            "egroup.codeimage.adopted is not None)")
    launcher = LocalProcessLauncher(stdout=subprocess.PIPE,
                                    stderr=subprocess.PIPE)
    try:
        proc = launcher.launch(SpawnSpec(
            program=command[0], args=command[1:-2] + ["-c", code]), 0, {})
        out, err = proc.communicate(timeout=60)
    finally:
        launcher.close()
    assert proc.returncode == 0, err.decode()
    assert out.decode().strip() == "[] True"


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
