"""Reliable, ordered, framed point-to-point messaging over TCP.

Each process owns one Endpoint: a listening socket plus one live channel per
peer. One I/O loop thread per Endpoint reads every socket: it answers the
handshake of each accepted connection, then either buffers each envelope for
``recv`` or, when it belongs to a superseded epoch, rejects it and sends a
notice back to the sender so the rejection is observable. Senders write from
their own thread; the loop itself writes only small control frames.

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


def _control(kind: str, frame_epoch: int = 0, /, **fields) -> Envelope:
    """A tag-0 control envelope; ``fields`` may carry their own epoch."""
    return Envelope(epoch=frame_epoch, tag=wire.TAG_CONTROL,
                    src_rank=wire.NO_RANK, dst_rank=wire.NO_RANK,
                    payload=wire.encode_payload({**fields, "kind": kind}))


def _dial_error(deadline: Deadline, what: str,
                cause) -> ConnectError | DeadlineExceeded:
    """A dial or handshake that failed: DeadlineExceeded if the deadline has
    passed, else ConnectError."""
    if deadline.expired():
        return DeadlineExceeded(f"{what}: deadline passed ({cause})")
    return ConnectError(f"{what}: {cause}")


class FencingState:
    """Process-local epoch bookkeeping shared by the endpoint and the groups.

    ``current`` is the highest epoch of any group this process has formed;
    envelopes below it (or belonging to a retired epoch) are fenced off.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._current = -1
        self._retired = set()

    @property
    def current(self) -> int:
        with self._lock:
            return self._current

    def advance_to(self, epoch: int) -> None:
        with self._lock:
            if epoch > self._current:
                self._current = epoch

    def retire(self, epoch: int) -> None:
        with self._lock:
            self._retired.add(epoch)

    def is_retired(self, epoch: int) -> bool:
        with self._lock:
            return epoch in self._retired

    def is_stale(self, epoch: int) -> bool:
        with self._lock:
            return epoch < self._current or epoch in self._retired


class Channel:
    """One live connection to a peer, created by connect() or accepted by the
    endpoint's I/O loop (whose peer is unknown until its hello arrives)."""

    def __init__(self, sock: socket.socket, peer_id: str | None,
                 initiator_id: str | None, endpoint: "Endpoint"):
        self.sock = sock
        self.peer_id = peer_id
        self.initiator_id = initiator_id
        self._endpoint = endpoint
        # Bytes read by the I/O loop that do not yet make a whole frame.
        self._rbuf = bytearray()
        self._wlock = threading.Lock()
        self._closed = threading.Event()
        self._notice_cond = threading.Condition()
        self._notices = deque()

    @property
    def closed(self) -> bool:
        return self._closed.is_set()

    def send(self, envelope: Envelope) -> None:
        """Enqueue one envelope for in-order delivery to the peer."""
        if self._closed.is_set():
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
        with self._notice_cond:
            self._notice_cond.wait_for(lambda: self._notices or self.closed, timeout)
            return self._notices.popleft() if self._notices else None

    def _push_notice(self, notice: dict) -> None:
        with self._notice_cond:
            self._notices.append(notice)
            self._notice_cond.notify_all()

    def close(self) -> None:
        if self._closed.is_set():
            return
        self._closed.set()
        # Shutdown fails any send in flight and shows the peer EOF at once;
        # the I/O loop closes the socket itself, so its descriptor cannot be
        # reused while the loop still watches it.
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        with self._notice_cond:
            self._notice_cond.notify_all()
        self._endpoint._forget_channel(self)

    def __repr__(self):
        state = "closed" if self.closed else "open"
        return f"<Channel to {self.peer_id} ({state})>"


class Endpoint:
    """Listening socket, channel table, the shared receive buffer, and the
    I/O loop thread that serves them."""

    def __init__(self, address: str, identity: str, fencing: FencingState):
        self.identity = identity
        self.fencing = fencing
        try:
            host, port = parse_address(address)
            self._listener = socket.create_server((host, port), backlog=128)
        except (OSError, ValueError) as exc:  # ValueError: a malformed address
            raise SetupError(f"cannot bind {address}: {exc}") from exc
        self._listener.setblocking(False)
        self.listen_address = f"{host}:{self._listener.getsockname()[1]}"

        self._lock = threading.RLock()
        # All live channels keyed by peer incarnation id, whether this side
        # accepted or initiated them; at most one per peer.
        self.channels = {}
        self._chan_cond = threading.Condition(self._lock)
        self._buf_cond = threading.Condition()
        self._buffer = deque()
        self._closed = False
        self.stale_rejected_count = 0

        # Only the loop touches the selector. Other threads queue channels
        # for it to watch and write a byte to the wake-up socketpair.
        self._selector = selectors.DefaultSelector()
        self._adding = deque()
        self._wake_r, self._wake_w = socket.socketpair()
        self._wake_w.setblocking(False)
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
        epoch = self.fencing.current
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
                "hello", max(epoch, 0), incarnation_id=self.identity, epoch=epoch)))
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
        self._watch_soon(channel)
        return self._adopt(channel)

    def channel_to(self, peer_id: str) -> Channel | None:
        with self._lock:
            return self.channels.get(peer_id)

    def await_channel(self, peer_id: str, timeout) -> Channel | None:
        """Wait up to ``timeout`` for a peer-initiated channel to ``peer_id``."""
        with self._chan_cond:
            self._chan_cond.wait_for(
                lambda: self._closed or peer_id in self.channels,
                Deadline.of(timeout).remaining())
            if self._closed:
                raise ShutdownError("endpoint closed while waiting for a channel")
            return self.channels.get(peer_id)

    def _adopt(self, channel: Channel) -> Channel:
        """Insert a freshly handshaken channel, collapsing duplicates.

        When two channels exist for one pair, the one initiated by the member
        with the lexicographically smaller incarnation id survives.
        """
        with self._lock:
            if self._closed:
                channel.close()
                raise ShutdownError("endpoint is closed")
            existing = self.channels.get(channel.peer_id)
            if existing is not None and not existing.closed:
                if existing.initiator_id == channel.initiator_id:
                    winner, loser = channel, existing  # reconnect: newest wins
                elif existing.initiator_id < channel.initiator_id:
                    winner, loser = existing, channel
                else:
                    winner, loser = channel, existing
            else:
                winner, loser = channel, None
            self.channels[channel.peer_id] = winner
            self._chan_cond.notify_all()
        if loser is not None and loser is not winner:
            loser.close()
        return winner

    def _forget_channel(self, channel: Channel) -> None:
        with self._lock:
            if self.channels.get(channel.peer_id) is channel:
                del self.channels[channel.peer_id]

    # -- the I/O loop ----------------------------------------------------------

    def _watch_soon(self, channel: Channel) -> None:
        """Queue a connected channel for the loop to read."""
        with self._lock:
            if self._closed:
                channel.sock.close()
                raise ShutdownError("endpoint is closed")
            # Once _closed is set the loop exits and closes what is queued.
            self._adding.append(channel)
            try:
                self._wake_w.send(b"\0")
            except BlockingIOError:
                pass  # the loop has unread wake-ups already

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
                    except Exception:
                        log.exception("I/O loop of %s", self.identity)
                while self._adding:
                    channel = self._adding.popleft()
                    self._selector.register(channel.sock, selectors.EVENT_READ,
                                            functools.partial(self._read, channel))
        finally:
            for key in list(self._selector.get_map().values()):
                key.fileobj.close()
            for channel in self._adding:
                channel.sock.close()
            self._selector.close()

    def _drop(self, channel: Channel) -> None:
        channel.close()
        self._handshakes.pop(channel, None)
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
        self._handshakes[channel] = Deadline.of(HANDSHAKE_TIMEOUT)
        self._selector.register(sock, selectors.EVENT_READ,
                                functools.partial(self._read, channel))

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
        delivered = []
        try:
            for envelope in wire.cut_frames(channel._rbuf):
                if channel.closed:
                    break
                if channel in self._handshakes:
                    self._answer_hello(channel, envelope)
                elif envelope.tag == wire.TAG_CONTROL:
                    msg = wire.decode_payload(envelope.payload)
                    if msg.get("kind") == "reject_notice":
                        channel._push_notice(msg)
                elif self.fencing.is_stale(envelope.epoch):
                    self._reject_envelope(channel, envelope)
                else:
                    delivered.append((envelope, channel))
        except ProtocolError as exc:
            log.warning("dropping malformed frame from %s: %s", channel.peer_id, exc)
            channel.close()
        if delivered:
            with self._buf_cond:
                self._buffer.extend(delivered)
                self._buf_cond.notify_all()

    def _answer_hello(self, channel: Channel, hello: Envelope) -> None:
        """Handle the first frame of an accepted connection: admit the dialer,
        or refuse it as stale or as the losing duplicate."""
        del self._handshakes[channel]
        msg = wire.decode_payload(hello.payload)
        peer_id, peer_epoch = msg.get("incarnation_id"), msg.get("epoch")
        if not (msg.get("kind") == "hello" and type(peer_id) is str
                and type(peer_epoch) is int):
            raise ProtocolError(f"expected a hello, got {msg}")
        kind, fields = "hello_ok", {"epoch": self.fencing.current}
        with self._lock:
            existing = self.channels.get(peer_id)
            if peer_epoch >= 0 and self.fencing.is_stale(peer_epoch):
                self.stale_rejected_count += 1
                kind, fields["reason"] = "hello_reject", "stale_epoch"
            elif (existing is not None and not existing.closed
                    and existing.initiator_id < peer_id):
                kind, fields["reason"] = "hello_reject", "duplicate"
        try:
            channel.send(_control(kind, incarnation_id=self.identity, **fields))
        except DeliveryError:
            return
        if kind == "hello_reject":
            channel.close()
            return
        channel.peer_id = channel.initiator_id = peer_id
        try:
            self._adopt(channel)
        except ShutdownError:
            pass

    def _reject_envelope(self, channel: Channel, envelope: Envelope):
        """Fence off a stale envelope: never buffer it, tell the sender."""
        with self._lock:
            self.stale_rejected_count += 1
        try:
            channel.send(_control("reject_notice", envelope_epoch=envelope.epoch,
                                  receiver_epoch=self.fencing.current, tag=envelope.tag))
        except DeliveryError:
            pass

    # -- receive side ----------------------------------------------------------

    def recv(self, match: Callable[[Envelope], bool] | None = None,
             timeout: float | None = None) -> Envelope:
        """Return the oldest buffered envelope satisfying ``match``, blocking
        until one arrives. Non-matching envelopes from live epochs stay
        buffered."""
        return self.recv_with_channel(match, timeout)[0]

    def recv_with_channel(self, match=None, timeout=None):
        """Like recv() but also returns the channel the envelope arrived on.
        ``timeout`` (seconds or a Deadline) bounds the whole call, however
        many non-matching envelopes arrive; then DeadlineExceeded is raised."""
        pred = match if match is not None else (lambda e: True)
        deadline = Deadline.of(timeout)
        with self._buf_cond:
            while True:
                if self._closed:
                    raise ShutdownError("endpoint closed while waiting for a message")
                for i, (envelope, channel) in enumerate(self._buffer):
                    if pred(envelope):
                        del self._buffer[i]
                        return envelope, channel
                if not self._buf_cond.wait(deadline.remaining()):
                    raise DeadlineExceeded("no matching envelope arrived in time")

    def purge_stale(self):
        """Drop (and reject) buffered envelopes made stale by an epoch advance."""
        dropped = []
        with self._buf_cond:
            keep = deque()
            for envelope, channel in self._buffer:
                if self.fencing.is_stale(envelope.epoch):
                    dropped.append((envelope, channel))
                else:
                    keep.append((envelope, channel))
            self._buffer = keep
        for envelope, channel in dropped:
            self._reject_envelope(channel, envelope)

    # -- lifecycle -------------------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self):
        with self._lock:
            if self._closed:
                return
            self._closed = True
            channels = list(self.channels.values())
            self._chan_cond.notify_all()
        for channel in channels:
            channel.close()
        # Closing the write end wakes the loop, which sees _closed, closes
        # every socket it holds (the listener too, so the port is free once
        # close returns) and exits.
        self._wake_w.close()
        if threading.current_thread() is not self._loop:
            self._loop.join(HANDSHAKE_TIMEOUT)
        with self._buf_cond:
            self._buf_cond.notify_all()

    def __repr__(self):
        return f"<Endpoint {self.identity} at {self.listen_address}>"


def listen(address: str, identity: str, fencing: FencingState | None = None) -> Endpoint:
    """Bind a listening endpoint; the resolved address (with the actual port)
    is available as ``endpoint.listen_address``."""
    return Endpoint(address, identity, fencing if fencing is not None else FencingState())


def match_fields(epoch: int | None = None, tag: int | None = None,
                 src_rank: int | None = None) -> Callable[[Envelope], bool]:
    """Build a (epoch, tag, src_rank) predicate; None fields match anything."""

    def pred(e: Envelope) -> bool:
        return ((epoch is None or e.epoch == epoch)
                and (tag is None or e.tag == tag)
                and (src_rank is None or e.src_rank == src_rank))

    return pred
