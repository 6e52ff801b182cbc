"""Worker launcher for the traced run.

Runs the stock egroup worker after wrapping the functions that make up scale
events (collectives, spawner, scaling, and the transport's connect and
await_channel) under every name they are bound to in the egroup modules. Each
call becomes a span (name, start, end, parent, rank, epoch) kept in memory;
``wire.pack`` and ``wire.read_envelope`` are counted per frame rather than
spanned. At exit the process writes everything to
``$PERFBENCH_TRACE_DIR/spans-<pid>.json``. Spawned children run this same
script, because the driver hands its worker command on to them.

Usage: PERFBENCH_TRACE_DIR=DIR python3 perfbench/traced_worker.py [--driver ADDR]
"""

import time

BOOT = time.monotonic()

import json  # noqa: E402
import os  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
from array import array  # noqa: E402

TRACE_DIR_ENV = "PERFBENCH_TRACE_DIR"

SPANNED = {
    "collectives": ("barrier", "broadcast", "allgather", "split", "merge"),
    "spawner": ("spawn", "attach_parent"),
    "scaling": ("scale_out", "scale_in", "init_new_process"),
}
SPANNED_METHODS = {
    "transport": {"Endpoint": ("connect", "await_channel")},
    "spawner": {"LocalProcessLauncher": ("launch",)},
}


def _position(value):
    """(rank, epoch) of a Group, or of an InterGroup's local side."""
    value = getattr(value, "local_group", value)
    if hasattr(value, "my_rank") and hasattr(value, "epoch"):
        return value.my_rank, value.epoch
    return None


class Tracer:
    def __init__(self):
        self.spans = []
        self.lock = threading.Lock()
        self.local = threading.local()
        self.frames_out = array("d")
        self.bytes_out = array("q")
        self.frames_in = array("d")

    def span(self, name, fn):
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer.local.__dict__.setdefault("stack", [])
            parent = stack[-1] if stack else None
            where = _position(args[0]) if args else None
            if where is None:
                where = (parent[4], parent[5]) if parent else (-1, -1)
            span = [name, time.monotonic(), None,
                    parent[7] if parent else -1, where[0], where[1], None, 0]
            if name == "spawner.LocalProcessLauncher.launch":
                span[6] = {"index": args[2],
                           "parent_epoch": int(args[3]["EG_PARENT_EPOCH"])}
            with tracer.lock:
                span[7] = len(tracer.spans)
                tracer.spans.append(span)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = time.monotonic()
            if span[4] < 0 and _position(result) is not None:
                span[4], span[5] = _position(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        from egroup import collectives, scaling, spawner, transport, wire
        modules = {"collectives": collectives, "scaling": scaling,
                   "spawner": spawner, "transport": transport, "wire": wire}
        for mod_name, names in SPANNED.items():
            for name in names:
                original = getattr(modules[mod_name], name)
                _rebind(original, self.span(f"{mod_name}.{name}", original))
        for mod_name, classes in SPANNED_METHODS.items():
            for cls_name, methods in classes.items():
                cls = getattr(modules[mod_name], cls_name)
                for name in methods:
                    setattr(cls, name, self.span(
                        f"{mod_name}.{cls_name}.{name}", getattr(cls, name)))

        pack, read_envelope = wire.pack, wire.read_envelope

        def counted_pack(envelope):
            data = pack(envelope)
            self.frames_out.append(time.monotonic())
            self.bytes_out.append(len(data))
            return data

        def counted_read_envelope(sock):
            envelope = read_envelope(sock)
            self.frames_in.append(time.monotonic())
            return envelope

        _rebind(pack, counted_pack)
        _rebind(read_envelope, counted_read_envelope)

    def write(self, directory, imported):
        record = {
            "pid": os.getpid(),
            "boot": BOOT,
            "imported": imported,
            "env": {k: v for k, v in os.environ.items() if k.startswith("EG_")},
            "spans": [s[:7] for s in self.spans],
            "frames_out": list(self.frames_out),
            "bytes_out": list(self.bytes_out),
            "frames_in": list(self.frames_in),
        }
        path = os.path.join(directory, f"spans-{os.getpid()}.json")
        with open(path + ".tmp", "w") as f:
            json.dump(record, f)
        os.replace(path + ".tmp", path)


def _rebind(original, replacement):
    """Replace ``original`` under every name an egroup module binds it to."""
    for module in list(sys.modules.values()):
        if not getattr(module, "__name__", "").startswith("egroup"):
            continue
        for name, value in list(vars(module).items()):
            if value is original:
                setattr(module, name, replacement)


def _terminate(signum, frame):
    sys.exit(128 + signum)


def main():
    directory = os.environ.get(TRACE_DIR_ENV)
    if not directory:
        print(f"traced_worker: {TRACE_DIR_ENV} is not set", file=sys.stderr)
        return 2
    from egroup import worker
    imported = time.monotonic()
    tracer = Tracer()
    tracer.install()
    signal.signal(signal.SIGTERM, _terminate)
    try:
        return worker.worker_main()
    finally:
        tracer.write(directory, imported)


if __name__ == "__main__":
    sys.exit(main())
