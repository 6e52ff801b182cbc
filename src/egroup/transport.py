"""Reliable, ordered, framed point-to-point messaging over TCP.

Each process owns one Endpoint: a listening socket plus one live channel per
peer. One I/O loop thread per Endpoint reads every socket: it answers the
handshake of each accepted connection, then either buffers each envelope for
``recv`` or, when it belongs to a superseded epoch, rejects it and sends a
notice back to the sender so the rejection is observable. A receive may name
its sender; envelopes from other channels stay buffered until fenced. Senders
write from their own thread; the loop itself writes only small control frames.

One condition per Endpoint guards all that the loop shares with callers: the
channel table, the receive buffer, the epoch fence, each channel's
``closed`` flag and notices, ``stale_rejected_count`` and the selector's
registrations; only ``select()`` runs outside it. A channel is in the table
exactly while it is open: ``Channel.close`` sets the flag and removes the
entry in one critical section, and ``_adopt`` refuses a channel that closed
first. The fence and the retired epochs only grow, so a stale epoch never
turns live: they are read without the condition and raised under it, with
the purge of what they make stale, and a read is checked against them where
it is buffered. A channel's write lock only orders writes and is never held
with the condition. ``recv``, ``await_channel`` and ``wait_reject`` all wait
on it. In the library at most one thread waits on an endpoint at a time (a
worker's command loop, the driver's command, one member thread per Node), so
sharing it adds no wake-ups to real traffic.

The public operations are safe to call from one application control flow per
process; channel handles may move between threads but must not be used from
two threads at once.
"""

from __future__ import annotations

import functools
import selectors
import socket
import threading
from collections import deque
from collections.abc import Callable

from . import wire
from .errors import (
    ConnectError,
    DeadlineExceeded,
    DeferredLogger,
    DeliveryError,
    FencingError,
    ProtocolError,
    SetupError,
    ShutdownError,
)
from .wire import Deadline, Envelope, parse_address

log = DeferredLogger(__name__)

HANDSHAKE_TIMEOUT = 10.0
RECV_BYTES = 64 * 1024


def _control(kind: str, **fields) -> Envelope:
    """A tag-0 control envelope. Nothing reads its header epoch: control
    frames are handled before any fence check, so a hello's is a field."""
    return Envelope(epoch=0, tag=wire.TAG_CONTROL,
                    src_rank=wire.NO_RANK, dst_rank=wire.NO_RANK,
                    payload=wire.encode_payload({**fields, "kind": kind}))


def _dial_error(deadline: Deadline, what: str,
                cause) -> ConnectError | DeadlineExceeded:
    """A dial or handshake that failed: DeadlineExceeded if the deadline has
    passed, else ConnectError."""
    if deadline.expired():
        return DeadlineExceeded(f"{what}: deadline passed ({cause})")
    return ConnectError(f"{what}: {cause}")


class Channel:
    """One live connection to a peer, created by connect() or accepted by the
    endpoint's I/O loop (whose peer is unknown until its hello arrives). The
    endpoint's condition guards ``closed`` and the notices; ``_wlock`` only
    orders writes."""

    def __init__(self, sock: socket.socket, peer_id: str | None,
                 initiator_id: str | None, endpoint: "Endpoint"):
        self.sock = sock
        self.peer_id = peer_id
        self.initiator_id = initiator_id
        self._endpoint = endpoint
        # Bytes read by the I/O loop that do not yet make a whole frame.
        self._rbuf = bytearray()
        self._wlock = threading.Lock()
        self.closed = False
        self._notices = deque()

    def send(self, envelope: Envelope) -> None:
        """Enqueue one envelope for in-order delivery to the peer."""
        if self.closed:
            raise DeliveryError(f"channel to {self.peer_id} is closed")
        data = wire.pack(envelope)
        try:
            with self._wlock:
                self.sock.sendall(data)
        except OSError as exc:
            self.close()
            raise DeliveryError(f"send to {self.peer_id} failed: {exc}") from exc

    def wait_reject(self, timeout: float | None = None) -> dict | None:
        """Pop the oldest rejection notice from the peer, waiting if needed."""
        cond = self._endpoint._cond
        with cond:
            cond.wait_for(lambda: self._notices or self.closed, timeout)
            return self._notices.popleft() if self._notices else None

    def close(self) -> None:
        endpoint = self._endpoint
        with endpoint._cond:
            if self.closed:
                return
            self.closed = True
            if endpoint.channels.get(self.peer_id) is self:
                del endpoint.channels[self.peer_id]
            endpoint._cond.notify_all()
        # Shutdown fails any send in flight and shows the peer EOF at once;
        # the I/O loop closes the socket itself, so its descriptor cannot be
        # reused while the loop still watches it.
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass

    def __repr__(self):
        state = "closed" if self.closed else "open"
        return f"<Channel to {self.peer_id} ({state})>"


class Endpoint:
    """Listening socket, channel table, the shared receive buffer, the epoch
    fence, and the I/O loop thread that serves them. ``_cond`` guards all but
    the loop's ``select()``, which runs outside it."""

    def __init__(self, address: str, identity: str):
        self.identity = identity
        try:
            host, port = parse_address(address)
            self._listener = socket.create_server((host, port), backlog=128)
        except (OSError, ValueError) as exc:  # ValueError: a malformed address
            raise SetupError(f"cannot bind {address}: {exc}") from exc
        self._listener.setblocking(False)
        self.listen_address = f"{host}:{self._listener.getsockname()[1]}"

        self._cond = threading.Condition()
        # All live channels keyed by peer incarnation id, whether this side
        # accepted or initiated them; at most one per peer.
        self.channels = {}
        self._buffer = deque()
        self._fence = -1
        self._retired = set()
        self._closed = False
        self.stale_rejected_count = 0

        self._selector = selectors.DefaultSelector()
        # close() wakes the loop by closing the socketpair's write end.
        self._wake_r, self._wake_w = socket.socketpair()
        # Accepted connections still owing a hello, with their deadlines.
        self._handshakes = {}
        self._selector.register(self._listener, selectors.EVENT_READ, self._accept)
        self._selector.register(self._wake_r, selectors.EVENT_READ,
                                lambda: self._wake_r.recv(4096))
        self._loop = threading.Thread(
            target=self._io_loop, name=f"io-{identity}", daemon=True)
        self._loop.start()

    # -- connection management -------------------------------------------------

    def connect(self, address: str, expect_id: str | None = None,
                timeout=HANDSHAKE_TIMEOUT) -> Channel:
        """Open (or reuse) a channel to the endpoint listening at ``address``.

        The handshake exchanges incarnation ids and current epochs; if the
        peer already holds a live channel for this pair, the duplicate is
        collapsed deterministically and the surviving channel is returned.
        ``timeout`` (seconds or a Deadline) bounds the dial and handshake:
        a failure once it has passed raises DeadlineExceeded, any other
        failure to reach the peer ConnectError.
        """
        epoch = self._fence
        deadline = Deadline.of(timeout)
        if deadline.expired():
            raise DeadlineExceeded(f"deadline passed before dialing {address}")
        try:
            host, port = parse_address(address)
            # An ASCII host goes to getaddrinfo as the bytes the IDNA codec
            # would make of it, so only a non-ASCII name loads that codec.
            if host.isascii():
                host = host.encode()
            sock = socket.create_connection((host, port), deadline.remaining())
        except (OSError, ValueError) as exc:
            # ValueError: a malformed address, or a name IDNA cannot encode.
            raise _dial_error(deadline, f"cannot reach {address}", exc) from exc
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.settimeout(deadline.remaining())
        try:
            sock.sendall(wire.pack(_control(
                "hello", incarnation_id=self.identity, epoch=epoch)))
            msg = wire.decode_payload(wire.read_envelope(sock).payload)
        except (OSError, ProtocolError) as exc:
            sock.close()
            raise _dial_error(deadline, f"handshake with {address} failed",
                              exc) from exc
        kind, peer_id = msg.get("kind"), msg.get("incarnation_id")
        peer_epoch = msg.get("epoch")
        if type(peer_id) is not str or type(peer_epoch) is not int:
            sock.close()
            raise ConnectError(f"malformed handshake reply from {address}: {msg}")
        if kind != "hello_ok" or (expect_id is not None and peer_id != expect_id):
            sock.close()
        if kind == "hello_reject":
            if msg.get("reason") == "duplicate":
                survivor = self.await_channel(peer_id, deadline)
                if survivor is not None:
                    return survivor
                raise _dial_error(deadline, f"duplicate connect to {address}",
                                  "no surviving channel")
            raise FencingError(
                f"peer at {address} rejected handshake: epoch {epoch} is stale "
                f"(peer is at {peer_epoch})",
                envelope_epoch=epoch, receiver_epoch=peer_epoch)
        if kind != "hello_ok":
            raise ConnectError(f"unexpected handshake reply {kind!r} from {address}")
        if expect_id is not None and peer_id != expect_id:
            raise ConnectError(
                f"endpoint at {address} is {peer_id}, expected {expect_id}")
        sock.settimeout(None)
        channel = Channel(sock, peer_id, self.identity, self)
        self._watch(channel)
        return self._adopt(channel)

    def channel_to(self, peer_id: str) -> Channel | None:
        with self._cond:
            return self.channels.get(peer_id)

    def await_channel(self, peer_id: str, timeout) -> Channel | None:
        """Wait up to ``timeout`` for a peer-initiated channel to ``peer_id``."""
        with self._cond:
            self._cond.wait_for(
                lambda: self._closed or peer_id in self.channels,
                Deadline.of(timeout).remaining())
            if self._closed:
                raise ShutdownError("endpoint closed while waiting for a channel")
            return self.channels.get(peer_id)

    def _adopt(self, channel: Channel) -> Channel:
        """Insert a freshly handshaken channel, collapsing duplicates; a
        channel that has closed already is returned but not inserted.

        When two channels exist for one pair, the one initiated by the member
        with the lexicographically smaller incarnation id survives.
        """
        with self._cond:
            if self._closed:
                channel.close()
                raise ShutdownError("endpoint is closed")
            if channel.closed:
                return channel
            existing = self.channels.get(channel.peer_id)
            # The smaller initiator id wins; on a reconnect, the newest.
            winner, loser = channel, existing
            if existing is not None and existing.initiator_id < channel.initiator_id:
                winner, loser = existing, channel
            if loser is not None:
                loser.close()
            self.channels[channel.peer_id] = winner
            self._cond.notify_all()
            return winner

    # -- the I/O loop ----------------------------------------------------------

    def _watch(self, channel: Channel) -> None:
        """Register a connected channel's socket with the loop, or close the
        socket if the endpoint is closed: once the loop has seen ``_closed``
        it closes every registered socket, so none registers after that."""
        with self._cond:
            if self._closed:
                channel.sock.close()
                raise ShutdownError("endpoint is closed")
            self._selector.register(channel.sock, selectors.EVENT_READ,
                                    functools.partial(self._read, channel))

    def _io_loop(self) -> None:
        try:
            while not self._closed:
                for channel in [c for c, d in self._handshakes.items() if d.expired()]:
                    self._drop(channel)
                timeout = min((d.remaining() for d in self._handshakes.values()),
                              default=None)
                for key, _ in self._selector.select(timeout):
                    try:
                        key.data()
                    except ShutdownError:
                        pass  # close() has begun; the loop ends at the top
                    except Exception:
                        log.exception("I/O loop of %s", self.identity)
        finally:
            with self._cond:
                for key in list(self._selector.get_map().values()):
                    key.fileobj.close()
                self._selector.close()

    def _drop(self, channel: Channel) -> None:
        channel.close()
        self._handshakes.pop(channel, None)
        with self._cond:
            self._selector.unregister(channel.sock)
        with channel._wlock:
            channel.sock.close()

    def _accept(self) -> None:
        try:
            sock, _ = self._listener.accept()
        except OSError:
            return  # nothing pending after all, or the dialer gave up
        sock.setblocking(True)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        channel = Channel(sock, None, None, self)
        self._watch(channel)
        self._handshakes[channel] = Deadline.of(HANDSHAKE_TIMEOUT)

    def _read(self, channel: Channel) -> None:
        try:
            data = channel.sock.recv(RECV_BYTES, socket.MSG_DONTWAIT)
        except BlockingIOError:
            return
        except OSError:
            data = b""
        # Channel.close shuts the socket down, which makes it readable, so
        # the loop gets here to release a channel closed by any thread.
        if not data or channel.closed:
            self._drop(channel)
            return
        channel._rbuf += data
        delivered, notices = [], []
        try:
            for envelope in wire.cut_frames(channel._rbuf):
                if channel.closed:
                    break
                if channel in self._handshakes:
                    self._answer_hello(channel, envelope)
                elif envelope.tag == wire.TAG_CONTROL:
                    msg = wire.decode_payload(envelope.payload)
                    if msg.get("kind") == "reject_notice":
                        notices.append(msg)
                else:
                    delivered.append((envelope, channel))
        except ProtocolError as exc:
            log.warning("dropping malformed frame from %s: %s", channel.peer_id, exc)
            channel.close()
        if delivered or notices:
            with self._cond:
                stale = self._buffer_live(delivered)
                channel._notices.extend(notices)
                self._cond.notify_all()
            self._reject(stale)

    def _answer_hello(self, channel: Channel, hello: Envelope) -> None:
        """Handle the first frame of an accepted connection: admit the dialer,
        or refuse it as stale or as the losing duplicate."""
        del self._handshakes[channel]
        msg = wire.decode_payload(hello.payload)
        peer_id, peer_epoch = msg.get("incarnation_id"), msg.get("epoch")
        if not (msg.get("kind") == "hello" and type(peer_id) is str
                and type(peer_epoch) is int):
            raise ProtocolError(f"expected a hello, got {msg}")
        kind, fields = "hello_ok", {"epoch": self._fence}
        with self._cond:
            existing = self.channels.get(peer_id)
            if peer_epoch >= 0 and self.is_stale(peer_epoch):
                self.stale_rejected_count += 1
                kind, fields["reason"] = "hello_reject", "stale_epoch"
            elif existing is not None and existing.initiator_id < peer_id:
                kind, fields["reason"] = "hello_reject", "duplicate"
        try:
            channel.send(_control(kind, incarnation_id=self.identity, **fields))
        except DeliveryError:
            return
        if kind == "hello_reject":
            channel.close()
            return
        channel.peer_id = channel.initiator_id = peer_id
        self._adopt(channel)

    # -- receive side ----------------------------------------------------------

    def recv(self, match: Callable[[Envelope], bool] | None = None,
             timeout: float | None = None) -> Envelope:
        """Return the oldest buffered envelope satisfying ``match``, blocking
        until one arrives. Non-matching envelopes from live epochs stay
        buffered."""
        return self.recv_with_channel(match, timeout)[0]

    def recv_with_channel(self, match=None, timeout=None, peer_id=None):
        """Like recv() but also returns the channel the envelope arrived on.
        With ``peer_id``, ``match`` sees only envelopes from that peer's
        channel, and the rest stay buffered. ``timeout`` (seconds or a
        Deadline) bounds the whole call, however many non-matching envelopes
        arrive; then DeadlineExceeded is raised."""
        pred = match if match is not None else (lambda e: True)
        deadline = Deadline.of(timeout)
        with self._cond:
            while True:
                if self._closed:
                    raise ShutdownError("endpoint closed while waiting for a message")
                for i, (envelope, channel) in enumerate(self._buffer):
                    if (peer_id is None or channel.peer_id == peer_id) and pred(envelope):
                        del self._buffer[i]
                        return envelope, channel
                if not self._cond.wait(deadline.remaining()):
                    raise DeadlineExceeded("no matching envelope arrived in time")

    # -- the epoch fence -------------------------------------------------------

    @property
    def fence(self) -> int:
        """The highest epoch of any group this process has formed, -1 before
        the first; envelopes below it or of a retired epoch are stale."""
        return self._fence

    def is_retired(self, epoch: int) -> bool:
        return epoch in self._retired

    def is_stale(self, epoch: int) -> bool:
        return epoch < self._fence or epoch in self._retired

    def advance_to(self, epoch: int) -> None:
        """Raise the fence to ``epoch`` (it never falls); rejects the buffered
        envelopes that are now below it."""
        with self._cond:
            self._fence = max(self._fence, epoch)
            buffered, self._buffer = self._buffer, deque()
            stale = self._buffer_live(buffered)
        self._reject(stale)

    def retire(self, epoch: int) -> None:
        """Fence ``epoch`` off for good; rejects its buffered envelopes."""
        with self._cond:
            self._retired.add(epoch)
            buffered, self._buffer = self._buffer, deque()
            stale = self._buffer_live(buffered)
        self._reject(stale)

    def _buffer_live(self, items) -> list:
        """Under ``_cond``, in one pass: buffer the live ones of ``items`` and
        count and return the stale ones, to reject once it is released."""
        stale = []
        for item in items:
            (stale if self.is_stale(item[0].epoch) else self._buffer).append(item)
        self.stale_rejected_count += len(stale)
        return stale

    def _reject(self, stale) -> None:
        """Tell the sender of each fenced-off envelope that it was dropped."""
        for envelope, channel in stale:
            try:
                channel.send(_control("reject_notice", envelope_epoch=envelope.epoch,
                                      receiver_epoch=self._fence, tag=envelope.tag))
            except DeliveryError:
                pass

    # -- lifecycle -------------------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self):
        with self._cond:
            if self._closed:
                return
            self._closed = True
            for channel in list(self.channels.values()):
                channel.close()
            self._cond.notify_all()
        # Closing the write end wakes the loop, which sees _closed, closes
        # every socket it holds (the listener too, so the port is free once
        # close returns) and exits.
        self._wake_w.close()
        if threading.current_thread() is not self._loop:
            self._loop.join(HANDSHAKE_TIMEOUT)

    def __repr__(self):
        return f"<Endpoint {self.identity} at {self.listen_address}>"


def listen(address: str, identity: str) -> Endpoint:
    """Bind a listening endpoint; the resolved address (with the actual port)
    is available as ``endpoint.listen_address``."""
    return Endpoint(address, identity)


def match_fields(epoch: int | None = None, tag: int | None = None,
                 src_rank: int | None = None) -> Callable[[Envelope], bool]:
    """Build a (epoch, tag, src_rank) predicate; None fields match anything."""

    def pred(e: Envelope) -> bool:
        return ((epoch is None or e.epoch == epoch)
                and (tag is None or e.tag == tag)
                and (src_rank is None or e.src_rank == src_rank))

    return pred
