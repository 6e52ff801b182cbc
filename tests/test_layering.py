"""Module boundaries: no egroup module reaches into another's private names,
and only the spawner starts processes."""

import ast
import pathlib

import egroup

SRC = pathlib.Path(egroup.__file__).parent


def private_uses(path):
    """Yield each import of an underscore-prefixed name from an egroup
    module, and each access to one through an imported egroup module."""
    tree = ast.parse(path.read_text(), filename=str(path))
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level > 0 or (node.module or "").startswith("egroup")):
            for alias in node.names:
                if alias.name.startswith("_"):
                    yield f"{path.name}:{node.lineno} imports {alias.name}"
                if node.module in (None, "egroup"):
                    modules.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr.startswith("_")
                and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            yield f"{path.name}:{node.lineno} uses {node.value.id}.{node.attr}"


def test_no_module_uses_another_modules_private_names():
    found = [use for path in sorted(SRC.glob("*.py")) for use in private_uses(path)]
    assert found == []


def test_check_sees_private_imports(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text("from .collectives import _err, allgather\n"
                      "from . import wire\n"
                      "wire._OK\n")
    assert list(private_uses(sample)) == [
        "sample.py:1 imports _err", "sample.py:3 uses wire._OK"]


def popen_calls(path):
    """Yield each call of ``Popen``, bare or as a module attribute."""
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and "Popen" in (
                getattr(node.func, "attr", None), getattr(node.func, "id", None)):
            yield f"{path.name}:{node.lineno} calls Popen"


def test_only_the_spawner_starts_processes():
    found = [call for path in sorted(SRC.glob("*.py"))
             if path.name != "spawner.py" for call in popen_calls(path)]
    assert found == []


def test_check_sees_popen_calls(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text("import subprocess\n"
                      "from subprocess import Popen\n"
                      "proc: subprocess.Popen = subprocess.Popen(['x'])\n"
                      "Popen(['y'])\n")
    assert list(popen_calls(sample)) == [
        "sample.py:3 calls Popen", "sample.py:4 calls Popen"]
