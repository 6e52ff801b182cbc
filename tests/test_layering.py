"""Module boundaries: no egroup module reaches into another's private names,
only the spawner starts processes, every wire tag has a user, group
messages travel only through ``gather_decide``'s star, and every library
receive can see the channel it came on and, unless it cannot know it, names
its sender. Imports: no module loads ``json``, and none loads ``importlib``
when it is imported. Timeouts: no public call takes a ``*_timeout``
parameter, and no module raises a bare TimeoutError. Bytecode: no module writes any, or changes the caller's
bytecode settings, and no module has code that ``-O`` would compile
differently. Synchronisation: one condition per endpoint, no events, and
two other locks. Waits: no module calls ``time.sleep``, so every wait is on
the endpoint's condition or bounded by a ``Deadline``. Replies: every key a
worker writes into a reply is read by the driver side or the benchmark."""

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


def worker_weight_imports(path):
    """Yield each import of ``json``, anywhere, and each import of
    ``importlib`` that runs when the module is imported (outside a
    function): a worker imports every module but runs few functions."""
    tree = ast.parse(path.read_text(), filename=str(path))
    in_functions = {id(node) for fn in ast.walk(tree)
                    if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                    for node in ast.walk(fn) if node is not fn}
    for node in sorted(ast.walk(tree), key=lambda n: getattr(n, "lineno", 0)):
        names = ([a.name for a in node.names] if isinstance(node, ast.Import)
                 else [node.module] if isinstance(node, ast.ImportFrom)
                 and node.level == 0 else [])
        for name in names:
            top = name.split(".")[0]
            if top == "json":
                yield f"{path.name}:{node.lineno} imports {name}"
            elif top == "importlib" and id(node) not in in_functions:
                yield f"{path.name}:{node.lineno} imports {name} at import time"


def test_no_module_imports_json_or_importlib_at_import_time():
    found = [use for path in sorted(SRC.glob("*.py"))
             for use in worker_weight_imports(path)]
    assert found == []


def test_check_sees_json_and_import_time_importlib(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text("import json\n"
                      "from json import loads\n"
                      "import importlib\n"
                      "from importlib import util\n"
                      "from . import jsonish\n"
                      "def build():\n"
                      "    import importlib.util\n"
                      "    from json.decoder import JSONDecoder\n"
                      "if build:\n"
                      "    import importlib.machinery\n"
                      "class Loader:\n"
                      "    import importlib.abc\n")
    assert list(worker_weight_imports(sample)) == [
        "sample.py:1 imports json", "sample.py:2 imports json",
        "sample.py:3 imports importlib at import time",
        "sample.py:4 imports importlib at import time",
        "sample.py:8 imports json.decoder",
        "sample.py:10 imports importlib.machinery at import time",
        "sample.py:12 imports importlib.abc at import time"]


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


def unused_tags(wire_path, others):
    """Yield each ``TAG_*`` constant defined in ``wire_path`` that no file
    in ``others`` names."""
    tree = ast.parse(wire_path.read_text(), filename=str(wire_path))
    used = {node.attr if isinstance(node, ast.Attribute) else node.id
            for path in others
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
            if isinstance(node, (ast.Attribute, ast.Name))}
    for node in tree.body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if (isinstance(target, ast.Name)
                        and target.id.startswith("TAG_")
                        and target.id not in used):
                    yield f"{wire_path.name}:{node.lineno} defines unused {target.id}"


def test_every_wire_tag_is_used():
    others = [path for path in sorted(SRC.glob("*.py")) if path.name != "wire.py"]
    assert list(unused_tags(SRC / "wire.py", others)) == []


def test_check_sees_unused_tags(tmp_path):
    wire_sample = tmp_path / "wire.py"
    wire_sample.write_text("TAG_A = 1\n"
                           "TAG_B = 2\n"
                           "TAG_C = 3\n"
                           "OTHER = 4\n")
    user = tmp_path / "user.py"
    user.write_text("from . import wire\n"
                    "from .wire import TAG_B\n"
                    "wire.TAG_A\n"
                    "TAG_B\n")
    assert list(unused_tags(wire_sample, [user])) == [
        "wire.py:3 defines unused TAG_C"]


# Star calls, by method name: the name the called object must carry.
GROUP_CALLS = {"send": "node", "recv_on": "node"}
# Messages outside any group; collectives.py sends none outside the star.
CONTROL_CALLS = {"send_to": "node", "recv": "endpoint"}


def star_calls(path, allowed=(), calls=GROUP_CALLS):
    """Yield each call of a method in ``calls`` on an object so named, such
    as ``node.send`` or ``group.node.recv_on``, outside the module-level
    functions named in ``allowed``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    inside = {id(node) for fn in tree.body
              if isinstance(fn, ast.FunctionDef) and fn.name in allowed
              for node in ast.walk(fn)}
    for node in sorted(ast.walk(tree), key=lambda n: getattr(n, "lineno", 0)):
        if (isinstance(node, ast.Call) and id(node) not in inside
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in calls
                and calls[node.func.attr] in (
                    getattr(node.func.value, "id", None),
                    getattr(node.func.value, "attr", None))):
            owner = calls[node.func.attr]
            yield f"{path.name}:{node.lineno} calls {owner}.{node.func.attr}"


def test_group_messages_go_through_one_star():
    found = list(star_calls(SRC / "collectives.py", allowed=("gather_decide",),
                            calls={**GROUP_CALLS, **CONTROL_CALLS}))
    found += [call for name in ("spawner", "scaling")
              for call in star_calls(SRC / f"{name}.py")]
    assert found == []


def test_check_sees_star_calls(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text("def gather_decide(node, g):\n"
                      "    node.send(g, 0, 16, b'')\n"
                      "def broadcast(node, group, member, env):\n"
                      "    node.send(group, 1, 16, b'')\n"
                      "    group.node.recv_on(group, 16)\n"
                      "    node.send_to(member, env)\n"
                      "    node.endpoint.connect('a:1').send(env)\n"
                      "node.recv_on(g, 17)\n"
                      "node.endpoint.recv(None, 1)\n"
                      "node.endpoint.await_channel('a', 1)\n")
    assert list(star_calls(sample, allowed=("gather_decide",))) == [
        "sample.py:4 calls node.send", "sample.py:5 calls node.recv_on",
        "sample.py:8 calls node.recv_on"]
    assert list(star_calls(sample, allowed=("gather_decide",),
                           calls={**GROUP_CALLS, **CONTROL_CALLS})) == [
        "sample.py:4 calls node.send", "sample.py:5 calls node.recv_on",
        "sample.py:6 calls node.send_to", "sample.py:8 calls node.recv_on",
        "sample.py:9 calls endpoint.recv"]


# The receives that cannot name a sender: the driver's replies, the spawn
# root's registrations and the worker's commands; each checks the channel
# itself.
ANONYMOUS_RECEIVERS = ("Driver._command", "launch_and_register", "_serve")


def anonymous_receives(path, allowed=()):
    """Yield each ``recv_with_channel`` call that names no sender (neither a
    third argument nor ``peer_id``), outside the functions or methods named,
    as ``name`` or ``Class.name``, in ``allowed``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    defs = [(fn.name, fn) for fn in tree.body
            if isinstance(fn, ast.FunctionDef)]
    defs += [(f"{cls.name}.{fn.name}", fn) for cls in tree.body
             if isinstance(cls, ast.ClassDef)
             for fn in cls.body if isinstance(fn, ast.FunctionDef)]
    inside = {id(node) for name, fn in defs if name in allowed
              for node in ast.walk(fn)}
    for node in sorted(ast.walk(tree), key=lambda n: getattr(n, "lineno", 0)):
        if (isinstance(node, ast.Call) and id(node) not in inside
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "recv_with_channel"
                and len(node.args) < 3
                and "peer_id" not in {k.arg for k in node.keywords}):
            yield f"{path.name}:{node.lineno} receives from any sender"


def test_library_receives_know_their_sender():
    # Every receive outside the transport goes through recv_with_channel, so
    # it sees the channel a message came on, and names the sender unless it
    # is one of the receives that cannot know it.
    found = [call for path in sorted(SRC.glob("*.py"))
             if path.name != "transport.py"
             for call in [*star_calls(path, calls={"recv": "endpoint"}),
                          *anonymous_receives(path, ANONYMOUS_RECEIVERS)]]
    assert found == []


def test_check_sees_endpoint_receives(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text("node.endpoint.recv(match, 1)\n"
                      "env = self.node.endpoint.recv(match)\n"
                      "node.endpoint.recv_with_channel(match, 1)\n"
                      "node.recv_on(g, 16, 0, 1)\n"
                      "sock.recv(4096)\n"
                      "endpoint.recv()\n")
    assert list(star_calls(sample, calls={"recv": "endpoint"})) == [
        "sample.py:1 calls endpoint.recv", "sample.py:2 calls endpoint.recv",
        "sample.py:6 calls endpoint.recv"]


def test_check_sees_receives_without_a_sender(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text("class Driver:\n"
                      "    def _command(self):\n"
                      "        self.node.endpoint.recv_with_channel(m, 1)\n"
                      "    def ping(self):\n"
                      "        self.node.endpoint.recv_with_channel(m, 1)\n"
                      "def _serve(node):\n"
                      "    node.endpoint.recv_with_channel(m)\n"
                      "def attach(node, channel):\n"
                      "    node.endpoint.recv_with_channel(m, 1, channel.peer_id)\n"
                      "    node.endpoint.recv_with_channel(m, peer_id='a')\n"
                      "    node.endpoint.recv_with_channel(m, timeout=1)\n"
                      "endpoint.recv_with_channel()\n")
    assert list(anonymous_receives(sample, ANONYMOUS_RECEIVERS)) == [
        "sample.py:5 receives from any sender",
        "sample.py:11 receives from any sender",
        "sample.py:12 receives from any sender"]


def _public(name):
    return not name.startswith("_") or (name.startswith("__")
                                        and name.endswith("__"))


def timeout_params(path):
    """Yield each parameter named ``*_timeout`` of a public module-level
    function or a public method of a public class."""
    tree = ast.parse(path.read_text(), filename=str(path))
    defs = [(node.name, node) for node in tree.body
            if isinstance(node, ast.FunctionDef)]
    defs += [(f"{cls.name}.{node.name}", node) for cls in tree.body
             if isinstance(cls, ast.ClassDef) and _public(cls.name)
             for node in cls.body if isinstance(node, ast.FunctionDef)]
    for name, fn in defs:
        if not _public(name.rpartition(".")[2]):
            continue
        a = fn.args
        for arg in a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg]:
            if arg is not None and arg.arg.endswith("_timeout"):
                yield f"{path.name}:{fn.lineno} {name} takes {arg.arg}"


def test_no_public_call_takes_a_named_timeout():
    found = [param for name in ("collectives", "spawner", "scaling", "driver")
             for param in timeout_params(SRC / f"{name}.py")]
    assert found == []


def test_check_sees_named_timeouts(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text("def spawn(g, registration_timeout=1): pass\n"
                      "def _private(x_timeout): pass\n"
                      "class Driver:\n"
                      "    def __init__(self, startup_timeout=1): pass\n"
                      "    def run(self, *, command_timeout=1): pass\n"
                      "    def _helper(self, y_timeout): pass\n"
                      "    def wait(self, timeout=1): pass\n")
    assert list(timeout_params(sample)) == [
        "sample.py:1 spawn takes registration_timeout",
        "sample.py:4 Driver.__init__ takes startup_timeout",
        "sample.py:5 Driver.run takes command_timeout"]


def bare_timeout_errors(path):
    """Yield each construction or raise of the builtin ``TimeoutError``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in sorted(ast.walk(tree), key=lambda n: getattr(n, "lineno", 0)):
        target = (node.func if isinstance(node, ast.Call)
                  else node.exc if isinstance(node, ast.Raise) else None)
        if "TimeoutError" in (getattr(target, "id", None),
                              getattr(target, "attr", None)):
            yield f"{path.name}:{node.lineno} raises TimeoutError"


def test_no_module_raises_a_bare_timeout_error():
    found = [use for path in sorted(SRC.glob("*.py"))
             for use in bare_timeout_errors(path)]
    assert found == []


def test_check_sees_bare_timeout_errors(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text("import builtins\n"
                      "class Late(TimeoutError): pass\n"
                      "raise TimeoutError('x')\n"
                      "raise TimeoutError\n"
                      "err = builtins.TimeoutError()\n"
                      "except_types = (TimeoutError,)\n")
    assert list(bare_timeout_errors(sample)) == [
        "sample.py:3 raises TimeoutError", "sample.py:4 raises TimeoutError",
        "sample.py:5 raises TimeoutError"]


BYTECODE_MODULES = ("py_compile", "compileall")
BYTECODE_VARIABLES = ("PYTHONPYCACHEPREFIX", "PYTHONDONTWRITEBYTECODE")


def bytecode_writes(path):
    """Yield each import of a bytecode-writing module, each assignment to
    ``sys.dont_write_bytecode``, and each use of a bytecode environment
    variable's name as a string or keyword: egroup writes no bytecode and
    leaves the caller's bytecode settings as they are."""
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in sorted(ast.walk(tree), key=lambda n: getattr(n, "lineno", 0)):
        names = ([a.name for a in node.names] if isinstance(node, ast.Import)
                 else [node.module] if isinstance(node, ast.ImportFrom)
                 else [])
        if any(n and n.split(".")[0] in BYTECODE_MODULES for n in names):
            yield f"{path.name}:{node.lineno} imports {names[0]}"
        if (isinstance(node, ast.Attribute)
                and node.attr == "dont_write_bytecode"
                and isinstance(node.ctx, ast.Store)):
            yield f"{path.name}:{node.lineno} sets dont_write_bytecode"
        name = (node.value if isinstance(node, ast.Constant)
                else node.arg if isinstance(node, ast.keyword) else None)
        if name in BYTECODE_VARIABLES:
            yield f"{path.name}:{getattr(node, 'lineno', '?')} names {name}"


def test_no_module_writes_bytecode():
    found = [use for path in sorted(SRC.glob("*.py"))
             for use in bytecode_writes(path)]
    assert found == []


def test_check_sees_bytecode_writes(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text("import py_compile\n"
                      "from compileall import compile_dir\n"
                      "import sys\n"
                      "sys.dont_write_bytecode = False\n"
                      "env = {'PYTHONPYCACHEPREFIX': '/tmp/x'}\n"
                      "env['PYTHONDONTWRITEBYTECODE'] = ''\n"
                      "env.update(PYTHONDONTWRITEBYTECODE='')\n"
                      "print(sys.dont_write_bytecode)\n")
    assert list(bytecode_writes(sample)) == [
        "sample.py:1 imports py_compile", "sample.py:2 imports compileall",
        "sample.py:4 sets dont_write_bytecode",
        "sample.py:5 names PYTHONPYCACHEPREFIX",
        "sample.py:6 names PYTHONDONTWRITEBYTECODE",
        "sample.py:7 names PYTHONDONTWRITEBYTECODE"]


def optimize_dependent(path):
    """Yield each ``assert`` statement and each use of ``__debug__``: the
    code that ``-O`` compiles differently. Without any, the code a launcher
    compiles for its code image is what a ``-O`` child would compile."""
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in sorted(ast.walk(tree), key=lambda n: getattr(n, "lineno", 0)):
        if isinstance(node, ast.Assert):
            yield f"{path.name}:{node.lineno} asserts"
        if isinstance(node, ast.Name) and node.id == "__debug__":
            yield f"{path.name}:{node.lineno} reads __debug__"


def test_no_module_depends_on_the_optimize_level():
    found = [use for path in sorted(SRC.glob("*.py"))
             for use in optimize_dependent(path)]
    assert found == []


def test_check_sees_optimize_dependent_code(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text("def f(x):\n"
                      "    assert x > 0, 'positive'\n"
                      "    if __debug__:\n"
                      "        print(x)\n"
                      "    return debug or x\n")
    assert list(optimize_dependent(sample)) == [
        "sample.py:2 asserts", "sample.py:3 reads __debug__"]


SYNC_PRIMITIVES = ("Event", "Condition", "Lock", "RLock")


def waitable_constructions(path):
    """Yield each construction of an ``Event``, a ``Condition``, a ``Lock``
    or an ``RLock``, bare or as a module attribute."""
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in sorted(ast.walk(tree), key=lambda n: getattr(n, "lineno", 0)):
        if isinstance(node, ast.Call):
            name = getattr(node.func, "attr", getattr(node.func, "id", None))
            if name in SYNC_PRIMITIVES:
                yield f"{path.name}:{node.lineno} constructs {name}"


def test_one_condition_per_endpoint():
    # The endpoint's one condition is where every transport waiter waits,
    # and it also guards the epoch fence; a second condition or an event
    # would be a second place to wake. The only other locks are a channel's
    # write lock and a node's tag lock.
    found = [use for path in sorted(SRC.glob("*.py"))
             for use in waitable_constructions(path)]
    assert [(use.split(":")[0], use.split()[-1]) for use in found] == [
        ("node.py", "Lock"), ("transport.py", "Lock"),
        ("transport.py", "Condition")], found


def test_check_sees_events_and_conditions(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text("import threading\n"
                      "from threading import Condition, Event, RLock\n"
                      "cond = threading.Condition(threading.Lock())\n"
                      "done = Event()\n"
                      "ready = Condition()\n"
                      "threading.Thread(target=threading.Event().wait)\n"
                      "self.event()\n"
                      "self._lock = RLock()\n"
                      "self.lock\n")
    assert list(waitable_constructions(sample)) == [
        "sample.py:3 constructs Condition", "sample.py:3 constructs Lock",
        "sample.py:4 constructs Event", "sample.py:5 constructs Condition",
        "sample.py:6 constructs Event", "sample.py:8 constructs RLock"]


def sleep_calls(path):
    """Yield each call of ``sleep``, bare or as a module attribute."""
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in sorted(ast.walk(tree), key=lambda n: getattr(n, "lineno", 0)):
        if isinstance(node, ast.Call) and "sleep" in (
                getattr(node.func, "attr", None), getattr(node.func, "id", None)):
            yield f"{path.name}:{node.lineno} calls sleep"


def test_no_module_sleeps():
    # A sleep-poll wakes late and spins while it waits; a waiter blocks on
    # the endpoint's condition, or on a process or socket, until a Deadline.
    found = [call for path in sorted(SRC.glob("*.py"))
             for call in sleep_calls(path)]
    assert found == []


def test_check_sees_sleep_calls(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text("import time\n"
                      "from time import sleep\n"
                      "time.sleep(0.05)\n"
                      "sleep(1)\n"
                      "cond.wait_for(ready, 1)\n"
                      "asleep = time.monotonic()\n")
    assert list(sleep_calls(sample)) == [
        "sample.py:3 calls sleep", "sample.py:4 calls sleep"]


# The worker functions that write reply bodies, and the files that may read
# them: the driver, the bench CLI, error decoding and the benchmark harness.
REPLY_WRITERS = ("_execute", "_position", "_serve")
PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def _string(node):
    return node.value if (isinstance(node, ast.Constant)
                          and isinstance(node.value, str)) else None


def reply_writes(path):
    """Yield (line, key) for each string key of a dict display and each
    string subscript assigned to in the module-level functions named in
    REPLY_WRITERS, in source order."""
    tree = ast.parse(path.read_text(), filename=str(path))
    nodes = [node for fn in tree.body
             if isinstance(fn, ast.FunctionDef) and fn.name in REPLY_WRITERS
             for node in ast.walk(fn)]
    for node in sorted(nodes, key=lambda n: (getattr(n, "lineno", 0),
                                             getattr(n, "col_offset", 0))):
        keys = (node.keys if isinstance(node, ast.Dict)
                else [node.slice] if isinstance(node, ast.Subscript)
                and isinstance(node.ctx, ast.Store) else [])
        for key in keys:
            if _string(key) is not None:
                yield key.lineno, _string(key)


def read_keys(paths):
    """Every string a file in ``paths`` reads as a key: a subscript that is
    not assigned to, or the first argument of a ``.get`` call."""
    read = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Load):
                read.add(_string(node.slice))
            elif (isinstance(node, ast.Call) and node.args
                    and getattr(node.func, "attr", None) == "get"):
                read.add(_string(node.args[0]))
    return read


def unread_reply_keys(worker_path, readers):
    read = read_keys(readers)
    for lineno, key in reply_writes(worker_path):
        if key not in read:
            yield f"{worker_path.name}:{lineno} writes unread {key}"


def test_every_reply_key_is_read():
    readers = [SRC / f"{name}.py" for name in ("driver", "bench", "errors")]
    readers += sorted(PERFBENCH.glob("*.py"))
    assert list(unread_reply_keys(SRC / "worker.py", readers)) == []


def test_check_sees_unread_reply_keys(tmp_path):
    worker = tmp_path / "worker.py"
    worker.write_text("def _execute(cmd):\n"
                      "    if cmd.get('op'):\n"
                      "        return {'ids': [], 'elapsed_s': 1.0}\n"
                      "    return {'stopped': True, **_position()}\n"
                      "def _position():\n"
                      "    return {'rank': 0}\n"
                      "def _serve(body):\n"
                      "    body['seq'] = 1\n"
                      "    body['ok'] = body.get('retired')\n"
                      "def helper():\n"
                      "    return {'unused': 1}\n")
    driver = tmp_path / "driver.py"
    driver.write_text("msg['ids']\n"
                      "msg.get('ok', False)\n"
                      "msg['stopped'] = True\n"
                      "print('elapsed_s')\n"
                      "other.get(key, 'rank')\n")
    assert list(unread_reply_keys(worker, [driver])) == [
        "worker.py:3 writes unread elapsed_s", "worker.py:4 writes unread stopped",
        "worker.py:6 writes unread rank", "worker.py:8 writes unread seq"]
