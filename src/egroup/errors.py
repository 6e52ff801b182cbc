"""Exception types shared across the package, and its logger."""


class EGroupError(Exception):
    """Base class for all errors raised by this package."""


class SetupError(EGroupError):
    """An endpoint could not be set up (e.g. the listen address is taken)."""


class ConnectError(EGroupError):
    """A peer could not be reached or refused the connection."""


class DeliveryError(EGroupError):
    """A message could not be handed to the transport (e.g. closed channel)."""


class FencingError(EGroupError):
    """Communication was blocked because it belongs to a superseded epoch."""

    def __init__(self, message, envelope_epoch=None, receiver_epoch=None):
        super().__init__(message)
        self.envelope_epoch = envelope_epoch
        self.receiver_epoch = receiver_epoch


class RetiredGroupError(EGroupError):
    """An operation was attempted on a group that has been retired."""


class ProtocolError(EGroupError):
    """Members of a collective call disagreed, or a wire message was malformed."""


class SpawnError(EGroupError):
    """Child processes could not be created or failed to register in time."""


class NotSpawnedError(EGroupError):
    """The calling process was not created by spawn (no bootstrap ticket)."""


class ShutdownError(EGroupError):
    """The local endpoint was closed while an operation was waiting on it."""


class DeadlineExceeded(EGroupError, TimeoutError):
    """A call's deadline passed, here or at the root that gave up on it."""


# Wire-level error outcomes name the exception class so the receiving side can
# re-raise the same type.
_BY_NAME = {
    cls.__name__: cls
    for cls in (
        EGroupError,
        SetupError,
        ConnectError,
        DeliveryError,
        FencingError,
        RetiredGroupError,
        ProtocolError,
        SpawnError,
        NotSpawnedError,
        ShutdownError,
        DeadlineExceeded,
    )
}


def error_fields(exc: Exception) -> dict:
    """The wire form of an error: its class name and its message."""
    return {"error": type(exc).__name__, "message": str(exc)}


def error_from_fields(fields: dict) -> EGroupError:
    """Rebuild an error shipped over the wire; unknown names degrade to the base class."""
    cls = _BY_NAME.get(str(fields.get("error")), EGroupError)
    return cls(str(fields.get("message", "")))


class DeferredLogger:
    """A module's ``logging.getLogger(name)``, fetched at its first record.

    Records are rare (dropped or late messages, a failing I/O callback), and
    a worker that never logs should not pay for importing ``logging`` at
    start-up; every call goes to the stdlib logger of the same name.
    """

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def __getattr__(self, attr):
        import logging
        return getattr(logging.getLogger(self.name), attr)
