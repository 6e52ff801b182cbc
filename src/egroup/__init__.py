"""Elastic process groups over TCP: grow a running worker set with immediate
all-to-all communication, shrink it with communication fencing, and decide
when a host may be shut down. Includes the benchmark harness exercising both
paths at desk scale.

Every public name resolves on first use (PEP 562), so importing one
submodule, as a spawned worker does with ``egroup.worker``, loads only that
submodule and what it imports, not the benchmark harness and driver.
"""

__version__ = "0.1.0"

# The public names each submodule defines.
_SUBMODULE_EXPORTS = {
    "errors": ("ConnectError", "DeadlineExceeded", "DeliveryError",
               "EGroupError", "FencingError", "NotSpawnedError",
               "ProtocolError", "RetiredGroupError", "SetupError",
               "ShutdownError", "SpawnError"),
    "groups": ("Group", "InterGroup", "MemberDescriptor", "RetirementToken",
               "Side", "roster_digest"),
    "wire": ("Envelope",),
    "node": ("Node",),
    "collectives": ("SplitKey", "allgather", "barrier", "broadcast", "merge",
                    "split"),
    "spawner": ("BootstrapTicket", "Launcher", "LocalProcessLauncher",
                "SpawnSpec", "ThreadLauncher", "attach_parent", "spawn"),
    "scaling": ("ScaleInOutcome", "host_can_terminate", "init_new_process",
                "scale_in", "scale_out"),
    "bench": ("BenchConfig", "BenchRecord", "emit_csv", "parse_csv",
              "run_scale_in_bench", "run_scale_out_bench"),
}
_EXPORTS = {name: module for module, names in _SUBMODULE_EXPORTS.items()
            for name in names}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # As ``from .module import name`` does; importlib would load in workers.
    value = getattr(__import__(module, globals(), None, (name,), 1), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
